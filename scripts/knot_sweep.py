"""Time the two exact routes of a knot-table row against each other, and
the number-field kernels beneath them.

    PYTHONPATH=src python3 scripts/knot_sweep.py [--repeat 5]
        [--n41 10 20 ... 2000] [--n52 5 10 ... 320]
        [--sections kernel build row table]

`KnotFixture.phi_average` evaluates the cover polynomial of the phi-table
over the fixture field, in 1/R_n with R_n = (1 - lam^n)(1 - lam^(-n))
(`powersum.DeltaFieldCover`); the cover route it replaced,
`CoverPolynomial.evaluate` at x = 1/(1 - lam^n) in the field of lam mapped
back by `FieldEmbedding.restrict`, stays as its oracle;
`KnotFixture.phi_residue` sums the same table by residues, one
deg Q x deg Q integer solve against M_u per row.  It prints, each section on
request (all by default):

0. `kernel`: the number-field kernels beneath a row, the product of the
   field's ring of numerators (`NumberField.ring.mul`, which every row
   calls: int multiplication over Q, `NumberField._mul_numerators`
   otherwise) and `FieldElement.inverse`, in the fields
   of degree 1 (Q), 2 (Q(sqrt 21)), 3 (the cubic field of 5_2) and 6 (the
   sextic field of its lambda, whose elements live on the powers of the
   algebraic integer 8 lambda), on seeded operands whose
   numerators (and the inverse's denominators) have 8 to 4096 bits: the
   best of `--repeat` runs of the microseconds per call, each run one pass
   over 32 operands;

and for 4_1 and 5_2 at loops 2 and 3:

1. the cold build of each route's per-loop object: the cover polynomial,
   with the delta-power rows it needs built afresh, its form over delta's
   field from the built cover polynomial, and the residue form;
2. one row by each of the three routes at every n (4_1: n = 10 to 2000;
   5_2: n = 5 to 320), checked equal, with the bit length of the value's
   largest numerator or denominator;
3. per route, the slope of log(time) against log(n) over those n, which is
   how the cost of a row scales;
4. whole tables through `KnotInput.table`, the loop `looptool knot` prints,
   without printing: on a fresh fixture, cold build included, in mode
   `average` (4_1 loop 3 to n = 70, 800 and 2000, 5_2 loop 3 to n = 160 and
   320) and `all` (4_1 loop 3 to n = 70, 5_2 loop 3 to n = 40), and on the
   theta bundle `data/synthetic_theta_bundle.json` read afresh, loop 2 to
   n = 160, 320 and 640, its first row building what does not depend on n.

Row figures are the median of `--repeat` calls after one untimed warm-up
call; build and table figures are the best of `--repeat` runs (one run for
tables past n = 160), each on a new fixture or bundle whose construction is
not timed.
"""

import argparse
import json
import math
import os
import random
import statistics
import sys
import time

from looptool import knots, rootsum
from looptool.numberfield import QQ, FieldElement
from looptool.powersum import DeltaFieldCover, delta_embedding

THETA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "data",
                     "synthetic_theta_bundle.json")
#: (input, loop, nmax, mode) of each timed table.
TABLES = ([("4_1", 3, nmax, "average") for nmax in (70, 800, 2000)]
          + [("5_2", 3, nmax, "average") for nmax in (160, 320)]
          + [("4_1", 3, 70, "all"), ("5_2", 3, 40, "all")]
          + [(THETA, 2, nmax, "all") for nmax in (160, 320, 640)])
KERNEL_FIELDS = {1: QQ, 2: knots.FIELD_SQRT21, 3: knots.FIELD_52,
                 6: knots.FIELD_LAMBDA_52}
KERNEL_BITS = (8, 64, 512, 4096)
SECTIONS = ("kernel", "build", "row", "table")


def kernel_us(field, bits: int, repeat: int, rng: random.Random):
    """Best microseconds per product in the field's ring of numerators and
    per `inverse` call."""
    def numerators():
        return [rng.choice((-1, 1)) * (rng.getrandbits(bits - 1) | 1 << (bits - 1))
                for _ in range(field.degree)]

    ring = field.ring
    pairs = [tuple(ring.numerator(FieldElement._from_integers(field, numerators(), 1))
                   for _ in range(2)) for _ in range(32)]
    elements = [FieldElement._from_integers(field, numerators(),
                                            rng.getrandbits(bits) | 1 << (bits - 1))
                for _ in range(32)]
    mul = ring.mul
    out = []
    for batch in (lambda: [mul(x, y) for x, y in pairs],
                  lambda: [e.inverse() for e in elements]):
        out.append(best_ms(lambda _: batch(), repeat) * 1e3 / 32)
    return out


def fresh(knot: str):
    """A new fixture, with no delta-power row left in the cache, or a new
    bundle read from the file `knot`."""
    rootsum._delta_power_row.cache_clear()
    if knot not in ("4_1", "5_2"):
        with open(knot) as fh:
            return knots.DiagramBundle.from_json(json.load(fh), knot)
    return knots.FigureEightFixture() if knot == "4_1" else knots.FiveTwoFixture()


def median_ms(call, repeat: int) -> float:
    call()  # untimed: the interpreter specializes on first calls
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def best_ms(call, repeat: int, prepare=lambda: None) -> float:
    """Best time of `call(prepare())`, `prepare` untimed."""
    times = []
    for _ in range(repeat):
        arg = prepare()
        start = time.perf_counter()
        call(arg)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def slope(ns, ms) -> float:
    """Least-squares slope of log(ms) against log(n)."""
    xs, ys = [math.log(n) for n in ns], [math.log(t) for t in ms]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def bits(value) -> int:
    return max(v.bit_length() for v in (*value.num, value.den))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--n41", type=int, nargs="+",
                        default=[10, 20, 40, 70, 160, 400, 1000, 2000])
    parser.add_argument("--n52", type=int, nargs="+", default=[5, 10, 20, 40, 80, 160, 320])
    parser.add_argument("--sections", nargs="+", choices=SECTIONS, default=SECTIONS)
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)
    if "kernel" in args.sections:
        print("kernel,degree,bits,ring_mul_us,inverse_us")
        rng = random.Random(1)
        for degree, field in KERNEL_FIELDS.items():
            for b in KERNEL_BITS:
                mul_us, inverse_us = kernel_us(field, b, args.repeat, rng)
                print(f"kernel,{degree},{b},{mul_us:.2f},{inverse_us:.2f}")
    if "build" in args.sections:
        build(args.repeat)
    if "row" in args.sections:
        rows(args.n41, args.n52, args.repeat)
    if "table" in args.sections:
        tables(args.repeat)
    return 0


def build(repeat: int) -> None:
    print("build,knot,loop,cover_ms,delta_field_ms,residue_ms")
    for knot in ("4_1", "5_2"):
        for ell in (2, 3):
            def with_cover():
                fx = fresh(knot)
                fx.cover(ell)
                return fx

            cover = best_ms(lambda fx: fx.cover(ell), repeat, lambda: fresh(knot))
            delta = best_ms(lambda fx: DeltaFieldCover(fx.cover(ell), fx.delta), repeat,
                            with_cover)
            form = best_ms(lambda fx: fx.phi_form(ell), repeat, lambda: fresh(knot))
            print(f"build,{knot},{ell},{cover:.2f},{delta:.2f},{form:.2f}")


def rows(n41, n52, repeat: int) -> None:
    print("row,knot,loop,n,bits,average_ms,lam_field_ms,residue_ms,"
          "lam_field_over_average,residue_over_average")
    fits = []
    for knot, ns in (("4_1", n41), ("5_2", n52)):
        fx = fresh(knot)
        embed = delta_embedding(fx.delta, fx.lam)
        for ell in (2, 3):
            routes = {"average": lambda n: fx.phi_average(ell, n).value,
                      "lam_field": lambda n: embed.restrict(fx.cover(ell).evaluate(n)),
                      "residue": lambda n: fx.phi_residue(ell, n).value}
            times = {name: [] for name in routes}
            for n in ns:
                value = routes["average"](n)
                if any(route(n) != value for route in routes.values()):
                    raise SystemExit(f"{knot} loop {ell} n = {n}: the routes disagree")
                for name, route in routes.items():
                    times[name].append(median_ms(lambda: route(n), repeat))
                ms = [t[-1] for t in times.values()]
                print(f"row,{knot},{ell},{n},{bits(value)},{ms[0]:.3f},{ms[1]:.3f},"
                      f"{ms[2]:.3f},{ms[1] / ms[0]:.1f},{ms[2] / ms[0]:.1f}")
            fits.append((knot, ell, ns, [slope(ns, t) for t in times.values()]))
    for knot, ell, ns, (a, b, c) in fits:
        print(f"scaling,{knot} loop {ell}, n = {ns[0]}..{ns[-1]}: time ~ n^{a:.2f} over "
              f"delta's field, n^{b:.2f} over lam's field, n^{c:.2f} by residues")


def tables(repeat: int) -> None:
    print("table,input,loop,nmax,mode,ms")
    for knot, ell, nmax, mode in TABLES:
        ms = best_ms(lambda source: sum(1 for _ in source.table(ell, nmax, mode)),
                     repeat if nmax <= 160 else 1, lambda: fresh(knot))
        name = knot if knot in ("4_1", "5_2") else os.path.basename(knot)
        print(f"table,{name},{ell},{nmax},{mode},{ms:.1f}")


if __name__ == "__main__":
    sys.exit(main())
