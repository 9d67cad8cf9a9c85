"""The benchmark's workloads: inputs, set-up, items and exact checks.

A workload is run as passes over a fixed list of items.  `generate` writes
the seeded inputs (in a separate process, before any timing), `setup` is
what the program does before its first item (parsing, validation, one-time
derived objects), each item is one call a `looptool knot` or `looptool
reconstruct` invocation makes per output row, and `check` compares outputs
with an independent oracle outside the timed region.

Items call looptool through module attributes looked up at call time, so
the wrappers of `tracer.Tracer` see them when installed and cost nothing
when not.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Optional

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))


class Item:
    __slots__ = ("label", "size", "call")

    def __init__(self, label: str, size: int, call: Callable[[], object]):
        self.label = label
        self.size = size
        self.call = call


def format_value(value, unit: bool = False) -> str:
    """A field element as `looptool knot` prints it."""
    if value.is_rational():
        text = str(value.coords[0])
    else:
        text = ",".join(str(c) for c in value.coords)
    return text + (" (unit sqrt(-3))" if unit else "")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _relpath(path: str) -> str:
    return os.path.relpath(path, os.path.dirname(HERE))


class Workload:
    name = ""
    why = ""
    #: Seconds one pass takes on the reference machine (2 CPUs, Python
    #: 3.11.7) at the commit that defined the benchmark.  A run makes
    #: round(--seconds / pass_s) passes, so every commit does the same work.
    pass_s = 1.0

    def generate(self, seed: int, workdir: str) -> dict:
        """Write the inputs for `seed` under `workdir`; return the manifest."""
        raise NotImplementedError

    def setup(self, workdir: str, manifest: dict):
        raise NotImplementedError

    def items(self, state) -> List[Item]:
        raise NotImplementedError

    def line(self, item: Item, output) -> str:
        """Canonical text of one exact output; digests are taken over it."""
        raise NotImplementedError

    def check(self, state, items: List[Item], outputs: list) -> List[Optional[str]]:
        """Per item: None when the output is correct, else why not."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# knot tables
# ---------------------------------------------------------------------------

class KnotTable(Workload):
    """`looptool knot --knot K --loop L --nmax N --mode average`, checked
    row by row against the fixture's closed form."""

    def __init__(self, name, why, knot, ell, nmax, pass_s):
        self.name, self.why = name, why
        self.knot, self.ell, self.nmax = knot, ell, nmax
        self.pass_s = pass_s

    def generate(self, seed, workdir):
        return {"replay": [f"looptool knot --knot {self.knot} --loop {self.ell} "
                           f"--nmax {self.nmax} --mode average"]}

    def setup(self, workdir, manifest):
        from looptool.knots import fixture
        return fixture(self.knot)

    def items(self, fx):
        ell = self.ell
        return [Item(f"n={n}", n, lambda n=n: fx.phi_average(ell, n))
                for n in range(1, self.nmax + 1)]

    def line(self, item, output):
        return f"{item.size},{format_value(output.value, output.sqrt_m3)}"

    def check(self, fx, items, outputs):
        return [None if out is not None and out == fx.phi_closed(self.ell, item.size)
                else "differs from phi_closed"
                for item, out in zip(items, outputs)]


# ---------------------------------------------------------------------------
# bundle-n2
# ---------------------------------------------------------------------------

class Bundle(Workload):
    """`looptool knot --knot FILE --loop 2 --nmax N` on seeded NZ data."""

    name = "bundle-n2"
    why = ("seeded N=2 NZ data with theta, dumbbell and figure-eight: weight_flow "
           "dominates and ratfun_mod_cyclic must produce the full cyclic image")
    pass_s = 1.8
    N, ell, nmax, datasets = 2, 2, 13, 4
    #: Inputs are drawn, and held to the cost band, at n = 14.  The table
    #: stops at an odd n so that the median item falls inside the cluster of
    #: the four datasets' items of one n, not in the gap between two.
    draw_nmax = 14
    oracle_nmax = 3
    #: Accepted range of the total bit size of the propagator's image in
    #: F[t]/(t^draw_nmax - 1), which tracks the cost of the largest items.
    cost_band = (4000, 6500)

    def in_cost_band(self, obj) -> bool:
        from looptool.errors import MathDomainError
        from looptool.nzdata import TwistedNZData
        from looptool.rootsum import ratfun_mod_cyclic
        pi = TwistedNZData.from_json(obj["nz"]).propagator_symbolic()
        try:
            bits = sum(c.numerator.bit_length() + c.denominator.bit_length()
                       for row in pi for entry in row
                       for value in ratfun_mod_cyclic(entry, self.draw_nmax)
                       for c in value.coords)
        except MathDomainError:
            return False
        return self.cost_band[0] <= bits <= self.cost_band[1]

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        files = []
        for k in range(self.datasets):
            obj, _ = inputs.bundle(rng, self.N, self.draw_nmax, self.in_cost_band)
            path = os.path.join(workdir, f"bundle-{k}.json")
            _write(path, json.dumps(obj, indent=1))
            files.append(os.path.basename(path))
        return {"files": files,
                "replay": [f"looptool knot --knot {_relpath(os.path.join(workdir, f))} "
                           f"--loop {self.ell} --nmax {self.nmax}" for f in files]}

    def setup(self, workdir, manifest):
        from looptool import diagrams, nzdata
        state = []
        for name in manifest["files"]:
            with open(os.path.join(workdir, name)) as fh:
                obj = json.load(fh)
            data = nzdata.TwistedNZData.from_json(obj["nz"])
            diags = [(diagrams.FeynmanDiagram.from_json(d),
                      diagrams.VertexFactorTable.from_json(d, data.field))
                     for d in obj["diagrams"]]
            data.propagator_symbolic()
            state.append((data, diags))
        return state

    def items(self, state):
        from looptool import diagrams
        ell = self.ell
        return [Item(f"bundle={k} n={n}", n,
                     lambda data=data, diags=diags, n=n:
                     diagrams.loop_invariant(data, n, diags, ell))
                for k, (data, diags) in enumerate(state)
                for n in range(1, self.nmax + 1)]

    def line(self, item, output):
        return f"{item.label},{format_value(output)}"

    def check(self, state, items, outputs):
        from looptool.diagrams import weight_direct, weight_flow
        errors = [None] * len(items)
        per_dataset = self.nmax
        for k, (data, diags) in enumerate(state):
            for n in range(1, self.oracle_nmax + 1):
                idx = k * per_dataset + n - 1
                cover = data.cover_propagator(n)
                pi = data.propagator_symbolic()
                total = {}
                gamma0 = None
                for G, table in diags:
                    direct = weight_direct(G, n, cover, table, data.N, field=data.field)
                    flow = weight_flow(G, n, pi, table, data.N, field=data.field)
                    if flow != direct:
                        errors[idx] = f"weight_flow != weight_direct for {G!r}"
                    for g, v in direct.items():
                        total[g] = total.get(g, data.field.zero()) + v
                    gamma0 = table.gamma0 or gamma0
                if gamma0 is not None:
                    total[gamma0[1]] = total.get(gamma0[1], data.field.zero()) + gamma0[0]
                if outputs[idx] != total.get(self.ell - 1):
                    errors[idx] = errors[idx] or "loop invariant differs from the oracle"
        return errors


# ---------------------------------------------------------------------------
# reconstruct-mix
# ---------------------------------------------------------------------------

#: (over Q(sqrt 21)?, r, ell) of each planted cover polynomial, in run order.
#: With the 4_1 item, 12 of the 19 items take about 0.4 s or more, so the
#: median item is a 21- or 30-unknown one of about 0.4 s.  Items of 0.1 s or
#: less switch between a fast and a slow mode on a loaded host, which moved
#: item_p50_ms by up to half between runs when the median item was one of them.
MIX = (
    [(False, 1, 3), (False, 3, 2)] + [(False, 1, 4)] * 2 + [(False, 2, 3)] * 4
    + [(False, 1, 5)] * 3 + [(False, 1, 6)]
    + [(True, 1, 3), (True, 3, 2)] + [(True, 1, 4)] * 2 + [(True, 2, 3)] * 2
)
HOLDOUT = 3
#: The 4_1 l = 3, r = 1 reconstruction from `looptool knot` values.
KNOT_41_ROOT = {"minpoly": ["-21", "0", "1"], "coords": ["5/2", "1/2"],
                "root_index": 1}
KNOT_41_CHECK_NMAX = 20


class ReconstructMix(Workload):
    """`looptool reconstruct --values V --roots R --ell L --r R --holdout 3`."""

    name = "reconstruct-mix"
    why = ("planted cover polynomials, 10 to 55 unknowns over Q and Q(sqrt21), "
           "plus 4_1: the only workload that exercises linalg.solve")
    pass_s = 11.0

    def generate(self, seed, workdir):
        rng = random.Random(seed)
        entries = []
        for i, (quadratic, r, ell) in enumerate(MIX):
            planted = inputs.planted_cover(rng, quadratic, r, ell, HOLDOUT)
            stem = f"rec-{i:02d}"
            _write(os.path.join(workdir, stem + ".roots.json"),
                   json.dumps(planted["roots"], indent=1))
            _write(os.path.join(workdir, stem + ".csv"),
                   inputs.values_csv(planted["values"]))
            _write(os.path.join(workdir, stem + ".planted.json"),
                   json.dumps(planted["poly"], indent=1))
            entries.append({"stem": stem, "ell": ell, "r": r, "planted": True})
        # values of the 4_1 l = 3 table, as `looptool knot` prints them
        from looptool.knots import fixture
        fx = fixture("4_1")
        ell, needed = 3, inputs.unknowns(1, 3)
        rows = [(n, fx.phi_average(ell, n)) for n in range(1, needed + HOLDOUT + 1)]
        _write(os.path.join(workdir, "rec-41.csv"),
               inputs.values_csv([(n, [tv.value.coords[0]]) for n, tv in rows]))
        _write(os.path.join(workdir, "rec-41.roots.json"),
               json.dumps({"field": {k: KNOT_41_ROOT[k] for k in ("minpoly", "root_index")},
                           "roots": [KNOT_41_ROOT]}, indent=1))
        entries.append({"stem": "rec-41", "ell": ell, "r": 1, "planted": False})
        replay = [f"looptool reconstruct --values {_relpath(os.path.join(workdir, e['stem']))}.csv "
                  f"--roots {_relpath(os.path.join(workdir, e['stem']))}.roots.json "
                  f"--ell {e['ell']} --r {e['r']} --holdout {HOLDOUT}" for e in entries]
        return {"items": entries, "replay": replay}

    def setup(self, workdir, manifest):
        from looptool.errors import ParseError
        from looptool.numberfield import FieldElement, NumberField, parse_rational
        state = []
        for entry in manifest["items"]:
            stem = os.path.join(workdir, entry["stem"])
            with open(stem + ".roots.json") as fh:
                obj = json.load(fh)
            field = NumberField.from_json(obj["field"])
            roots = [FieldElement.from_json(x, field) for x in obj["roots"]]
            values = []
            with open(stem + ".csv") as fh:
                for line in fh:
                    n, *coords = line.strip().split(",")
                    values.append((int(n), field.element([parse_rational(c)
                                                          for c in coords])))
            needed = inputs.unknowns(entry["r"], entry["ell"])
            if len(values) < needed + HOLDOUT:
                raise ParseError(f"{stem}: need {needed} + {HOLDOUT} values")
            state.append(dict(entry, path=stem, field=field, roots=roots,
                              values=values, unknowns=needed))
        return state

    def items(self, state):
        from looptool import powersum
        return [Item(e["stem"], e["unknowns"],
                     lambda e=e: powersum.reconstruct_p(e["values"], e["roots"],
                                                        e["ell"], e["r"]))
                for e in state]

    def line(self, item, output):
        return item.label + " " + json.dumps(output.to_json(), sort_keys=True)

    def check(self, state, items, outputs):
        from looptool.knots import fixture
        from looptool.powersum import CoverPolynomial
        errors = []
        for entry, out in zip(state, outputs):
            if out is None:
                errors.append("raised")
                continue
            error = None
            for n, v in entry["values"][entry["unknowns"]:]:
                if out.evaluate(n) != v:
                    error = f"hold-out row n = {n} fails"
            if entry["planted"]:
                with open(entry["path"] + ".planted.json") as fh:
                    planted = CoverPolynomial.from_json(json.load(fh), entry["field"])
                if out != planted:
                    error = error or "recovered polynomial differs from the planted one"
            else:
                fx = fixture("4_1")
                for n in range(1, KNOT_41_CHECK_NMAX + 1):
                    if out.evaluate(n) != fx.phi_closed(entry["ell"], n).value:
                        error = error or f"differs from phi_closed at n = {n}"
            errors.append(error)
        return errors


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    KnotTable("knot-41",
              "4_1 l=3 table to n=70 over Q: rootsum.av_exact on degree-1 elements "
              "that grow to thousands of bits", "4_1", 3, 70, 2.0),
    Bundle(),
    ReconstructMix(),
)}
