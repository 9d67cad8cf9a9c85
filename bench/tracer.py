"""Spans and counters around looptool's public functions, installed from
outside the program.

`Tracer.install()` replaces each function in `SPANS` (in every looptool
module that holds a reference to it) and each method in `SPANS` (on its
class) by a wrapper that records a span: name, start, end, parent span and
item id, kept in memory.  `FieldElement` arithmetic gets aggregate counters
only (`NF_OPS`), because a span per field operation would cost more than the
operation.

Self time is a frame's duration minus the time covered by the frames
directly beneath it, spans and field operations alike.  Summed over all
frames this telescopes to the time covered by the top-level frames, which
is the consistency identity `Tracer.check_consistency` tests.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

#: Span name -> (module, attribute path) of the wrapped callable.
SPANS = {
    "knots.phi_average": ("looptool.knots", "KnotFixture.phi_average"),
    "knots.phi_rational_function": ("looptool.knots",
                                    "KnotFixture.phi_rational_function"),
    "rootsum.av_exact": ("looptool.rootsum", "av_exact"),
    "rootsum.ratfun_mod_cyclic": ("looptool.rootsum", "ratfun_mod_cyclic"),
    "rootsum.invert_mod_cyclic": ("looptool.rootsum", "invert_mod_cyclic"),
    "laurent.LaurentMatrix.inverse": ("looptool.laurent", "LaurentMatrix.inverse"),
    "laurent.LaurentMatrix.det": ("looptool.laurent", "LaurentMatrix.det"),
    "laurent.RationalFunction.init": ("looptool.laurent", "RationalFunction.__init__"),
    "laurent.LaurentPolynomial.mul": ("looptool.laurent", "LaurentPolynomial.__mul__",
                                      "LaurentPolynomial.__rmul__"),
    "nzdata.TwistedNZData.from_json": ("looptool.nzdata", "TwistedNZData.from_json"),
    "nzdata.propagator_symbolic": ("looptool.nzdata",
                                   "TwistedNZData.propagator_symbolic"),
    "diagrams.loop_invariant": ("looptool.diagrams", "loop_invariant"),
    "diagrams.weight_flow": ("looptool.diagrams", "weight_flow"),
    "powersum.reconstruct_p": ("looptool.powersum", "reconstruct_p"),
    "powersum.CoverPolynomial.evaluate": ("looptool.powersum",
                                          "CoverPolynomial.evaluate"),
    "linalg.solve": ("looptool.linalg", "solve"),
}

#: Counter name -> FieldElement methods counted under it.
NF_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__"),
    "inverse": ("inverse",),
    "pow": ("__pow__",),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: [name, start, end, parent index or -1, item, self seconds]
        self.spans: List[list] = []
        #: frames: [time covered by direct children, index of enclosing span]
        self.root = [0.0, -1]
        self.stack: List[list] = [self.root]
        self.item = None
        self.nf_calls = {k: 0 for k in NF_OPS}
        self.nf_self = {k: 0.0 for k in NF_OPS}
        self.max_bits = 0
        self.mul_zero = 0
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn):
        """`fn` wrapped to record one span per call."""
        clock, stack, spans = self.clock, self.stack, self.spans

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            parent = stack[-1]
            record = [name, 0.0, 0.0, parent[1], self.item, 0.0]
            frame = [0.0, len(spans)]
            spans.append(record)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record[1], record[2] = start, end
                record[5] = end - start - frame[0]
                parent[0] += end - start
        return wrapped

    def nf_op(self, kind: str, fn):
        """`fn` wrapped to count calls, self time, result bit size and, for
        multiplication, zero operands."""
        clock, stack = self.clock, self.stack
        calls, selfs = self.nf_calls, self.nf_self
        is_mul = kind == "mul"

        @functools.wraps(fn)
        def wrapped(*args):
            if is_mul and any(_is_zero(a) for a in args):
                self.mul_zero += 1
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[0] += elapsed
                selfs[kind] += elapsed - frame[0]
                calls[kind] += 1
            for c in getattr(result, "coords", ()):
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.max_bits:
                    self.max_bits = bits
            return result
        return wrapped

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; looptool must already be imported."""
        from looptool.numberfield import FieldElement
        for name, (module, *paths) in SPANS.items():
            mod = sys.modules[module]
            for path in paths:
                if "." in path:
                    owner_name, attr = path.split(".")
                    owner = getattr(mod, owner_name)
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.span(name, raw.__func__))
                    else:
                        wrapped = self.span(name, raw)
                    self._patch(owner, attr, wrapped)
                else:
                    original = getattr(mod, path)
                    wrapped = self.span(name, original)
                    for other in _looptool_modules():
                        for attr, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, attr, wrapped)
        for kind, attrs in NF_OPS.items():
            for attr in attrs:
                self._patch(FieldElement, attr,
                            self.nf_op(kind, FieldElement.__dict__[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def covered(self) -> float:
        """Time covered by top-level frames."""
        return self.root[0]

    def span_totals(self) -> Dict[str, Tuple[int, float]]:
        """name -> (calls, self seconds) for every name in SPANS and every
        other span recorded."""
        out = {name: (0, 0.0) for name in SPANS}
        for name, _, _, _, _, self_s in self.spans:
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + self_s)
        return out

    def self_total(self) -> float:
        return (sum(s for _, s in self.span_totals().values())
                + sum(self.nf_self.values()))

    def check_consistency(self, traced_wall: float, rel: float = 1e-9) -> dict:
        """Layer self times plus the untraced remainder against traced wall.

        The remainder is the traced wall time not covered by any top-level
        frame (the item loop itself, unwrapped helpers)."""
        remainder = traced_wall - self.covered()
        total = self.self_total() + remainder
        ok = abs(total - traced_wall) <= rel * traced_wall and remainder >= 0
        return {"ok": ok, "self_sum_s": self.self_total(), "remainder_s": remainder,
                "traced_wall_s": traced_wall}

    def durations(self, name: str) -> Dict[object, float]:
        """item -> summed inclusive duration of the spans called `name`."""
        out: Dict[object, float] = {}
        for span_name, start, end, _, item, _ in self.spans:
            if span_name == name:
                out[item] = out.get(item, 0.0) + end - start
        return out

    def records(self) -> List[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "item": i,
                 "self": x} for n, s, e, p, i, x in self.spans]


def _is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def _looptool_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "looptool" or name.startswith("looptool."))]
