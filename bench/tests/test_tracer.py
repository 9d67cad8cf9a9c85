import looptool
from looptool import knots, rootsum
from looptool.numberfield import FieldElement
from tracer import NF_OPS, SPANS, Tracer


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step=1.0):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def test_self_time_subtracts_child_spans_and_field_ops():
    tracer = Tracer(clock=FakeClock())
    op = tracer.nf_op("mul", lambda a, b: a)
    inner = tracer.span("inner", lambda: op(1, 2))
    outer = tracer.span("outer", lambda: (inner(), op(0, 3), inner()))
    tracer.item = ("traced", 0, 7)
    outer()
    (o_name, o_start, o_end, o_parent, o_item, o_self), *children = tracer.spans
    assert o_name == "outer" and o_parent == -1 and o_item == ("traced", 0, 7)
    assert [c[0] for c in children] == ["inner", "inner"]
    assert all(c[3] == 0 for c in children)          # parent is the outer span
    # each field op spans 1 tick; each inner span 3 ticks with 1 tick of op
    assert [c[5] for c in children] == [2.0, 2.0]
    assert tracer.nf_self["mul"] == 3.0 and tracer.nf_calls["mul"] == 3
    assert tracer.mul_zero == 1
    # outer: 11 ticks, minus two inner spans (3 each) and one op (1)
    assert o_end - o_start == 11.0 and o_self == 4.0
    # the identity behind the consistency check
    assert tracer.self_total() == tracer.covered() == 11.0


def test_consistency_identity_on_a_real_table_row():
    tracer = Tracer()
    tracer.install()
    try:
        fx = knots.fixture("4_1")
        start = tracer.clock()
        value = fx.phi_average(3, 9)
        wall = tracer.clock() - start
    finally:
        tracer.uninstall()
    assert value == fx.phi_closed(3, 9)
    check = tracer.check_consistency(wall)
    assert check["ok"], check
    totals = tracer.span_totals()
    assert totals["knots.phi_average"][0] == 1
    assert totals["rootsum.invert_mod_cyclic"][0] == 1
    assert tracer.nf_calls["mul"] > 0 and tracer.max_bits > 0


def test_install_reaches_every_reference_and_uninstall_restores():
    originals = (rootsum.av_exact, knots.av_exact, looptool.av_exact,
                 FieldElement.__mul__, FieldElement.__dict__["__radd__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert rootsum.av_exact is knots.av_exact is looptool.av_exact
        assert rootsum.av_exact is not originals[0]
        assert FieldElement.__mul__ is not originals[3]
    finally:
        tracer.uninstall()
    assert (rootsum.av_exact, knots.av_exact, looptool.av_exact,
            FieldElement.__mul__, FieldElement.__dict__["__radd__"]) == originals


def test_every_span_target_exists():
    import importlib
    for name, (module, *paths) in SPANS.items():
        mod = importlib.import_module(module)
        for path in paths:
            owner = mod
            for part in path.split("."):
                owner = getattr(owner, part)
            assert callable(owner), name
    for attrs in NF_OPS.values():
        for attr in attrs:
            assert attr in FieldElement.__dict__
