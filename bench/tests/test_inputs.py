import random
from fractions import Fraction

import inputs
from looptool.numberfield import FieldElement, NumberField
from looptool.powersum import CoverPolynomial
from workloads import WORKLOADS


def test_generators_are_deterministic_per_seed():
    a = inputs.bundle(random.Random(5), 2, 6)
    b = inputs.bundle(random.Random(5), 2, 6)
    c = inputs.bundle(random.Random(6), 2, 6)
    assert a == b and a != c
    p = inputs.planted_cover(random.Random(5), True, 2, 3, 3)
    q = inputs.planted_cover(random.Random(5), True, 2, 3, 3)
    assert p == q
    assert p != inputs.planted_cover(random.Random(6), True, 2, 3, 3)


def test_workload_inputs_are_byte_identical_per_seed(tmp_path):
    w = WORKLOADS["reconstruct-mix"]
    first, second = tmp_path / "a", tmp_path / "b"
    first.mkdir()
    second.mkdir()
    w.generate(3, str(first))
    w.generate(3, str(second))
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    assert all((first / n).read_bytes() == (second / n).read_bytes() for n in names)


def test_bundle_degeneracies_are_rejected():
    f = Fraction
    generic = {-2: f(1), -1: f(-7), 0: f(15), 1: f(-7), 2: f(1)}
    factors = {3: [f(1), f(2)], 4: [f(-1), f(1, 2)]}
    assert inputs.degenerate_bundle(generic, factors, 12, 2) == ""
    zero = {3: [f(0), f(2)], 4: [f(1), f(1)]}
    assert inputs.degenerate_bundle(generic, zero, 12, 2) == "zero vertex factor"
    assert "span < 2" in inputs.degenerate_bundle({0: f(3), 1: f(1)}, factors, 12, 2)
    assert "span < 2" in inputs.degenerate_bundle(None, factors, 12, 2)
    assert "generic" in inputs.degenerate_bundle({-1: f(1), 0: f(-5), 1: f(1)},
                                                 factors, 12, 2)
    # (t^2 + t + 1)(t^2 - 9 t + 1): a pole at the cube roots of unity
    cyclo = {0: f(1), 1: f(-8), 2: f(-7), 3: f(-8), 4: f(1)}
    assert inputs.degenerate_bundle(cyclo, factors, 2, 2) == ""
    assert inputs.degenerate_bundle(cyclo, factors, 3, 2) == "pole at a root of unity"


def test_cyclotomic_polynomials():
    assert inputs.cyclotomic(1) == (-1, 1)
    assert inputs.cyclotomic(6) == (1, -1, 1)
    assert inputs.cyclotomic(12) == (1, 0, -1, 0, 1)


def test_resonant_and_singular_reconstruction_draws_are_rejected():
    f = Fraction
    three, third = (f(3), f(0)), (f(1, 3), f(0))
    assert inputs.degenerate_roots([three]) == ""
    assert inputs.degenerate_roots([(f(1), f(0))]) == "root +-1 is resonant"
    assert inputs.degenerate_roots([(f(-1), f(0))]) == "root +-1 is resonant"
    assert inputs.degenerate_roots([(f(0), f(0))]) == "zero root"
    assert inputs.degenerate_roots([three, three]) == "repeated root"
    assert inputs.degenerate_roots([three, third]) == "reciprocal pair"
    unit = (f(5, 2), f(1, 2))
    assert inputs.degenerate_roots([unit, (f(5, 2), f(-1, 2))]) == "reciprocal pair"
    window = range(1, inputs.unknowns(2, 3) + 1)
    assert inputs.window_is_regular([three, (f(3, 2), f(0))], 3, window)
    assert not inputs.window_is_regular([three, third], 3, window)
    # a window one row short of a full-rank system repeats the last row
    short = list(range(1, inputs.unknowns(1, 3))) + [1]
    assert not inputs.window_is_regular([three], 3, short)


def test_planted_values_agree_with_looptool():
    planted = inputs.planted_cover(random.Random(2), True, 1, 3, 3)
    field = NumberField(["-21", "0", "1"], 1)
    poly = CoverPolynomial.from_json(planted["poly"], field)
    for n, coords in planted["values"]:
        assert poly.evaluate(n) == field.element(coords), n
    roots = [FieldElement.from_json(r, field) for r in planted["roots"]["roots"]]
    assert poly.roots == roots
