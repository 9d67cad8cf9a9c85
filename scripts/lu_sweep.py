"""Time the modular LU of the p-adic solve over a sweep of sizes and entry bits.

    PYTHONPATH=src python3 scripts/lu_sweep.py [--seed 1] [--n 4 8 16 32 64 128]
        [--bits 64 1024] [--repeat 7]

For each entry size the script builds one seeded n x n integer matrix per n,
its entries uniform of either sign below 2^bits, and times
`linalg._ModularLU` on it modulo the first prime of `linalg.PRIMES`.  It
prints the median wall time of `--repeat` factorizations per (n, bits),
after one untimed warm-up call, then, per entry size, the least-squares
exponent of wall time in n over the sizes n >= 16, where the O(n^3) part
dominates the fixed cost per column.
"""

import argparse
import math
import random
import statistics
import sys
import time

from looptool import linalg


def system(seed: int, n: int, bits: int):
    rng = random.Random(f"{seed}-{n}-{bits}")
    return [[rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)]
            for _ in range(n)]


def median_seconds(M, p: int, repeat: int) -> float:
    linalg._ModularLU(M, p)  # untimed: the interpreter specializes on first calls
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        linalg._ModularLU(M, p)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def exponent(points) -> float:
    """Least-squares slope of log(seconds) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--n", type=int, nargs="+", default=[4, 8, 16, 32, 64, 128])
    parser.add_argument("--bits", type=int, nargs="+", default=[64, 1024])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    p = linalg.PRIMES[0]
    print("n,bits,median_ms")
    for bits in args.bits:
        points = []
        for n in args.n:
            seconds = median_seconds(system(args.seed, n, bits), p, args.repeat)
            print(f"{n},{bits},{seconds * 1e3:.3f}")
            if n >= 16:
                points.append((n, seconds))
        if len(points) > 1:
            print(f"exponent in n over n >= 16 at {bits} bits: {exponent(points):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
