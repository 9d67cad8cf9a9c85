"""Time `diagrams.loop_invariant` on one seeded N = 2 bundle over a sweep of n.

    PYTHONPATH=src python3 scripts/bundle_sweep.py [--seed 7] [--n 13 40 160 320]

The bundle is `bench/inputs.bundle(random.Random(seed), 2, 40)` with its
theta, dumbbell and figure-eight diagrams.  The first row of a bundle
builds what does not depend on n and keeps it; the script first prints the
median time of that one-time build on fresh objects: the n-independent
parts of the propagator's images (`rootsum.CyclicMatrix`, with the flow-0
matrix) and the tables' weighted labelings.  Then, for each n, the median
wall time of `--repeat` later rows, the share of one profiled row spent in
the denominator inverses, in the rest of the cyclic images and in the
contraction, and finally the least-squares exponent of row time in n.  The
split reads cProfile's cumulative times of the image builders by name.
"""

import argparse
import cProfile
import math
import os
import pstats
import random
import statistics
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "bench"))

import inputs  # noqa: E402
from looptool import diagrams, nzdata, rootsum  # noqa: E402

INVERSES = {"_den_inverse"}
IMAGES = {"image"}


def load(seed: int):
    obj, _ = inputs.bundle(random.Random(seed), 2, 40)
    data = nzdata.TwistedNZData.from_json(obj["nz"])
    diags = [(diagrams.FeynmanDiagram.from_json(d),
              diagrams.VertexFactorTable.from_json(d, data.field))
             for d in obj["diagrams"]]
    data.propagator_symbolic()
    data.propagator_at_one()
    return data, diags


def one_time_build(seed: int, repeat: int):
    """Median seconds of the n-independent images and of the weighted
    labelings, each built on fresh objects."""
    images, labelings = [], []
    for _ in range(repeat):
        data, diags = load(seed)
        start = time.perf_counter()
        rootsum.CyclicMatrix(data.propagator_symbolic(), data.field, None,
                             data.propagator_at_one).flow_zero()
        middle = time.perf_counter()
        for G, table in diags:
            table.weighted_labelings(G, data.N, data.field)
        images.append(middle - start)
        labelings.append(time.perf_counter() - middle)
    return statistics.median(images), statistics.median(labelings)


def split(data, diags, n: int):
    """(inverse, images, contraction) shares of one profiled call."""
    profile = cProfile.Profile()
    profile.runcall(diagrams.loop_invariant, data, n, diags, 2)
    stats = pstats.Stats(profile).stats
    total = sum(tt for _, _, tt, _, _ in stats.values())

    def cumulative(names):
        return sum(ct for (path, _, name), (_, _, _, ct, _) in stats.items()
                   if path.endswith("rootsum.py") and name in names)

    inverse = cumulative(INVERSES)
    images = cumulative(IMAGES) - inverse
    return inverse / total, images / total, 1 - (inverse + images) / total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, nargs="+", default=[13, 40, 160, 320])
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    images, labelings = one_time_build(args.seed, args.repeat)
    print(f"one-time build: {(images + labelings) * 1e3:.3f} ms "
          f"(images {images * 1e3:.3f} ms, weighted labelings {labelings * 1e3:.3f} ms)")
    data, diags = load(args.seed)
    diagrams.loop_invariant(data, 1, diags, 2)
    print("n,median_ms,inverse_share,images_share,contraction_share")
    points = []
    for n in args.n:
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            diagrams.loop_invariant(data, n, diags, 2)
            times.append(time.perf_counter() - start)
        wall = statistics.median(times)
        shares = split(data, diags, n)
        points.append((math.log(n), math.log(wall)))
        print(f"{n},{wall * 1e3:.2f}," + ",".join(f"{s:.2f}" for s in shares))
    if len(points) > 1:
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        slope = (sum((x - mx) * (y - my) for x, y in points)
                 / sum((x - mx) ** 2 for x, _ in points))
        print(f"exponent in n: {slope:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
