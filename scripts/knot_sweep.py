"""Time the two exact routes of a knot-table row against each other.

    PYTHONPATH=src python3 scripts/knot_sweep.py [--repeat 5]
        [--n41 10 20 ... 2000] [--n52 5 10 ... 320]

`KnotFixture.phi_average` evaluates the cover polynomial of the phi-table
(`powersum.CoverPolynomial.from_table`) at x = 1/(1 - lam^n) and maps the
value back into the fixture field; `KnotFixture.phi_residue` sums the same
table by residues, one deg Q x deg Q integer solve against M_u per row.
For 4_1 and 5_2 at loops 2 and 3 this script prints:

1. the cold build of each route's per-loop object: the cover polynomial,
   with the delta-power rows it needs built afresh, and the residue form;
2. one row by each route at every n (4_1: n = 10 to 2000; 5_2: n = 5 to
   320), checked equal, with the bit length of the value's largest
   numerator or denominator;
3. per route, the slope of log(time) against log(n) over those n, which is
   how the cost of a row scales;
4. whole tables on a fresh fixture, cold build included, as `looptool
   knot --mode average` computes them but without printing (4_1 loop 3 to
   n = 70 and 800, 5_2 loop 3 to n = 160), by each route.

Row figures are the median of `--repeat` calls after one untimed warm-up
call; build and table figures are the best of `--repeat` runs (one run for
the 800-row table), each on a new fixture whose construction is not timed.
"""

import argparse
import math
import statistics
import sys
import time

from looptool import knots, rootsum

TABLES = [("4_1", 3, 70), ("4_1", 3, 800), ("5_2", 3, 160)]


def fresh(knot: str):
    """A new fixture, with no delta-power row left in the cache."""
    rootsum._delta_power_row.cache_clear()
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
    args = parser.parse_args(argv)
    sys.set_int_max_str_digits(0)
    print("build,knot,loop,cover_ms,residue_ms")
    for knot in ("4_1", "5_2"):
        for ell in (2, 3):
            cover = best_ms(lambda fx: fx.cover(ell), args.repeat, lambda: fresh(knot))
            form = best_ms(lambda fx: fx.phi_form(ell), args.repeat, lambda: fresh(knot))
            print(f"build,{knot},{ell},{cover:.2f},{form:.2f}")
    print("row,knot,loop,n,bits,cover_ms,residue_ms,residue_over_cover")
    fits = []
    for knot, ns in (("4_1", args.n41), ("5_2", args.n52)):
        fx = fresh(knot)
        for ell in (2, 3):
            cover, residue = [], []
            for n in ns:
                value = fx.phi_average(ell, n)
                if value != fx.phi_residue(ell, n):
                    raise SystemExit(f"{knot} loop {ell} n = {n}: the two routes disagree")
                cover.append(median_ms(lambda: fx.phi_average(ell, n), args.repeat))
                residue.append(median_ms(lambda: fx.phi_residue(ell, n), args.repeat))
                print(f"row,{knot},{ell},{n},{bits(value.value)},{cover[-1]:.3f},"
                      f"{residue[-1]:.3f},{residue[-1] / cover[-1]:.1f}")
            fits.append((knot, ell, ns, slope(ns, cover), slope(ns, residue)))
    for knot, ell, ns, a, b in fits:
        print(f"scaling,{knot} loop {ell}, n = {ns[0]}..{ns[-1]}: time ~ n^{a:.2f} by "
              f"the cover polynomial, n^{b:.2f} by residues")
    print("table,knot,loop,nmax,cover_ms,residue_ms")
    for knot, ell, nmax in TABLES:
        routes = []
        for route in ("phi_average", "phi_residue"):
            def table(fx):
                for n in range(1, nmax + 1):
                    getattr(fx, route)(ell, n)
            routes.append(best_ms(table, args.repeat if nmax <= 160 else 1,
                                  lambda: fresh(knot)))
        print(f"table,{knot},{ell},{nmax},{routes[0]:.1f},{routes[1]:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
