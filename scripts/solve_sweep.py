"""Time the two routes of the exact integer solve against each other.

    PYTHONPATH=src python3 scripts/solve_sweep.py [--seed 1] [--m 2 3 ... 16]
        [--bits 16 64 256 1024] [--repeat 5]

`linalg.solve_integer` sends a square system of at most
`linalg.FRACTION_FREE_MAX` unknowns to one fraction-free `bareiss` over Z
(`linalg._fraction_free`) and any larger one to Dixon's p-adic lifting
(`linalg._dixon` over `linalg._ModularLU`, the factorization included in its
time).  This script times both routes on the same systems:

1. seeded dense m x m systems, entries uniform of either sign below 2^bits,
   in two families: "full", whose right-hand side is drawn like the entries
   (the solution has the size of the determinant, as in knot rows), and
   "planted", whose right-hand side is M x for integers |x| < 100 (a small
   solution, as in reconstruction; Dixon's lifting stops early there);
2. the systems that the residue route (`KnotFixture.phi_residue`) solves
   for 4_1 rows at loop 3, n = 10 to 2000 (8 unknowns);
3. the systems that it solves for 5_2 rows at loops 2 and 3, n = 5 to 160
   (12 and 24 unknowns over Z, from 4 and 8 over the cubic field);
4. seeded reconstruction systems over Q with planted small solutions (3 to
   30 unknowns), written over Z by `powersum.reconstruction_system` as
   `powersum.reconstruct_p` solves them.

Each figure is the median of `--repeat` calls after one untimed warm-up call.
The row systems are captured at `rootsum.solve_integer` while the rows are
computed.  Last it prints crossovers, each the largest m such that `bareiss`
wins on every system of at most m unknowns: per dense family and entry size,
and over the package's own systems (2 to 4), which sets FRACTION_FREE_MAX.
"""

import argparse
import random
import statistics
import sys
import time
from fractions import Fraction

from looptool import linalg, rootsum
from looptool.knots import fixture
from looptool.numberfield import QQ
from looptool.powersum import CoverPolynomial, reconstruction_system


def dense_system(seed: int, m: int, bits: int, planted: bool):
    rng = random.Random(f"{seed}-{m}-{bits}-{planted}")

    def entry():
        return rng.getrandbits(bits) - (1 << (bits - 1))

    M = [[entry() for _ in range(m)] for _ in range(m)]
    if not planted:
        return M, [entry() for _ in range(m)]
    x = [rng.randint(-99, 99) for _ in range(m)]
    return M, [sum(a * v for a, v in zip(row, x)) for row in M]


def row_systems(knot: str, ell: int, ns):
    """(n, M, rhs) of the integer system each residue-route row of `knot`
    solves."""
    captured = []
    solve_integer = rootsum.solve_integer

    def capture(M, rhs):
        captured.append((M, rhs))
        return solve_integer(M, rhs)

    fx = fixture(knot)
    rootsum.solve_integer = capture
    try:
        for n in ns:
            fx.phi_residue(ell, n)
    finally:
        rootsum.solve_integer = solve_integer
    return [(n, M, rhs) for n, (M, rhs) in zip(ns, captured)]


def planted_reconstruction(seed: int, roots, ell: int):
    """The integer system of a reconstruction over Q with a planted solution
    of small fractions; its window is n = 1..(number of unknowns)."""
    rng = random.Random(f"{seed}-{roots}-{ell}")
    roots = [QQ.element(Fraction(r)) for r in roots]
    basis = CoverPolynomial.basis(len(roots), ell)
    planted = CoverPolynomial(QQ, ell, roots, {
        key: QQ.element(Fraction(rng.randint(-99, 99), rng.randint(1, 99)))
        for key in basis})
    window = [(n, planted.evaluate(n)) for n in range(1, len(basis) + 1)]
    return reconstruction_system(QQ, roots, ell, window)


def dixon(M, rhs):
    return linalg._dixon(M, rhs, linalg._ModularLU(M, linalg.PRIMES[0]))


def median_ms(route, M, rhs, repeat: int) -> float:
    route(M, rhs)  # untimed: the interpreter specializes on first calls
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        route(M, rhs)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def compare(label: str, M, rhs, repeat: int):
    """Print one line for the system; (unknowns, whether `bareiss` wins)."""
    if linalg._fraction_free(M, rhs) != dixon(M, rhs):
        raise SystemExit(f"{label}: the two routes disagree")
    fast = median_ms(linalg._fraction_free, M, rhs, repeat)
    lifted = median_ms(dixon, M, rhs, repeat)
    print(f"{label},{len(M)},{fast:.3f},{lifted:.3f},{lifted / fast:.2f}")
    return len(M), fast < lifted


def crossover(results) -> int:
    """The largest m such that `bareiss` wins on every system of at most m
    unknowns, from (unknowns, wins) pairs; 0 if it loses on the smallest."""
    best = 0
    for m, wins in sorted(results):
        if not wins:
            break
        best = m
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--m", type=int, nargs="+", default=list(range(2, 17)))
    parser.add_argument("--bits", type=int, nargs="+", default=[16, 64, 256, 1024])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    print("system,m,bareiss_ms,dixon_ms,dixon_over_bareiss")
    dense = {}
    for family in ("full", "planted"):
        for bits in args.bits:
            dense[family, bits] = crossover(
                compare(f"dense {family} {bits} bits",
                        *dense_system(args.seed, m, bits, family == "planted"), args.repeat)
                for m in args.m)
    package = []
    for n, M, rhs in row_systems("4_1", 3, [10, 20, 40, 70, 160, 400, 1000, 2000]):
        package.append(compare(f"4_1 loop 3 n={n}", M, rhs, args.repeat))
    for ell in (2, 3):
        for n, M, rhs in row_systems("5_2", ell, [5, 10, 20, 40, 80, 160]):
            package.append(compare(f"5_2 loop {ell} n={n}", M, rhs, args.repeat))
    for roots, ell in [((2,), 2), ((2, 3), 2), ((2,), 3), ((2, 3, 5), 2), ((2, 3), 3)]:
        package.append(compare(
            f"reconstruction roots {'/'.join(map(str, roots))} loop {ell}",
            *planted_reconstruction(args.seed, roots, ell), args.repeat))
    for (family, bits), m in dense.items():
        print(f"crossover, dense {family} at {bits} bits: m = {m}")
    print(f"crossover over the package's systems: m = {crossover(package)} "
          f"(FRACTION_FREE_MAX = {linalg.FRACTION_FREE_MAX})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
