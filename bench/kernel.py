"""Number-field kernel sweep: mul, add and inverse at fixed degree and size.

Elements have seeded coordinates p/q with p and q of exactly b bits, in the
fields of degree 1 (Q), 2 (Q(sqrt 21)) and 3 (the cubic field of 5_2).  The
numbers explain `numberfield.*.self_s` moves from a change of element
representation, and give the cost's scaling in coefficient bit size.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

DEGREES = {1: ([0, 1], 0), 2: ([-21, 0, 1], 1), 3: ([-1, -1, 0, 1], 0)}
BITS = (64, 256, 1024)
OPS = ("mul", "add", "inverse")


def _coord(rng: random.Random, bits: int) -> Fraction:
    num = rng.getrandbits(bits - 1) | (1 << (bits - 1))
    den = rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1
    return Fraction(rng.choice([-1, 1]) * num, den)


def sweep(seed: int, pairs: int = 16, reps: int = 5) -> dict:
    """Median microseconds per operation, keyed by per-layer metric name."""
    from looptool.numberfield import NumberField
    rng = random.Random(seed)
    out = {}
    for degree, (minpoly, root_index) in DEGREES.items():
        field = NumberField(minpoly, root_index)
        for bits in BITS:
            xs = [field.element([_coord(rng, bits) for _ in range(degree)])
                  for _ in range(2 * pairs)]
            operands = list(zip(xs[::2], xs[1::2]))
            ops = {"mul": lambda a, b: a * b, "add": lambda a, b: a + b,
                   "inverse": lambda a, b: a.inverse()}
            for op in OPS:
                fn = ops[op]
                times = []
                for _ in range(reps):
                    start = time.perf_counter()
                    for a, b in operands:
                        fn(a, b)
                    times.append((time.perf_counter() - start) / pairs * 1e6)
                out[f"numberfield.kernel.{op}_us.d{degree}.b{bits}"] = \
                    statistics.median(times)
    return out
