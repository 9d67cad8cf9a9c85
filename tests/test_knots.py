"""Bundled knot data: cross-method agreement and tabulated constants."""

import copy
import sys
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from conftest import is_palindromic_up_to_unit
from looptool import cli, knots
from looptool.errors import CrossCheckError, ParseError, ResonantRoot
from looptool.knots import (FIELD_52, FIELD_LAMBDA_52, FIELD_SQRT21, FigureEightFixture,
                            FiveTwoFixture, KnotFixture, TaggedValue, fixture)
from looptool.laurent import LaurentPolynomial, RationalFunction
from looptool.numberfield import QQ, NumberField
from looptool.powersum import (CoverPolynomial, DeltaFieldCover, delta_embedding,
                               leading_asymptotic)


def test_equal_tagged_values_hash_alike():
    # a zero equals a zero of either unit and field, so a set keeps one
    zeros = [TaggedValue(QQ.zero(), True), TaggedValue(QQ.zero(), False),
             TaggedValue(FIELD_SQRT21.zero(), True)]
    assert all(z == zeros[0] for z in zeros)
    assert {hash(z) for z in zeros} == {hash(zeros[0])} and len(set(zeros)) == 1
    half = TaggedValue(QQ.element(Fraction(1, 2)), True)
    twin = TaggedValue(FIELD_SQRT21.element(Fraction(1, 2)), True)
    assert half == twin and hash(half) == hash(twin)
    assert len({half, twin, TaggedValue(QQ.element(Fraction(1, 2)))}) == 2


def test_41_delta_and_lambda():
    fx = fixture("4_1")
    assert fx.delta.coeffs == {1: QQ.one(), 0: QQ.element(-5), -1: QQ.one()}
    assert is_palindromic_up_to_unit(fx.delta)
    assert fx.lam * fx.lam_inv == 1
    assert fx.delta.eval(fx.lam).is_zero()


def test_41_known_values():
    fx = fixture("4_1")
    assert fx.phi_average(2, 1) == TaggedValue(QQ.element(Fraction(17, 216)), True)
    assert fx.phi_closed(2, 2).value == Fraction(449, 5292)
    assert fx.phi_average(3, 1).value == Fraction(-7, 108)


def test_41_three_way_agreement_prefix():
    fx = fixture("4_1")
    for n in range(1, 26):
        a = fx.phi_average(2, n)
        assert a == fx.phi_closed(2, n) == fx.series_value(2, n)
        b = fx.phi_average(3, n)
        assert b == fx.phi_closed(3, n) == fx.series_value(3, n)


def test_41_series_t1_coefficients():
    # the printed series have t-coefficients -119/504 and -343/588
    from looptool.powersum import series_coefficients
    fx = fixture("4_1")
    assert series_coefficients(fx.series[2], 2)[1] == Fraction(-119, 504)
    assert series_coefficients(fx.series[3], 2)[1] == Fraction(-343, 588)


def test_41_psi_values():
    fx = fixture("4_1")
    assert fx.psi[2] == TaggedValue(FIELD_SQRT21.element(Fraction(55, 1512)), True)
    assert fx.psi[3].value == fx.sqrt21 * Fraction(-317, 238140)


def test_52_delta_palindromic():
    fx = fixture("5_2")
    assert is_palindromic_up_to_unit(fx.delta)
    a, b = fx.lam_quadratic
    assert fx.delta.coefficient(1) == a and fx.delta.coefficient(0) == b


def test_52_lambda_satisfies_sextic():
    fx = fixture("5_2")
    residue = fx.lambda_sextic_residue()
    assert all(c.is_zero() for c in residue)


def test_52_lambda_inside_unit_disk():
    fx = fixture("5_2")
    lam = fx.lambda_numeric(40)
    assert abs(lam) < 1
    assert abs(lam - mpmath.mpc("0.0502", "-0.1704")) < 2e-4


def test_52_values_live_in_cubic_field():
    fx = fixture("5_2")
    v = fx.phi_average(2, 2)
    assert v.value.field == FIELD_52 and not v.sqrt_m3


def test_52_asymptotics_numeric():
    fx = fixture("5_2")
    with mpmath.workdps(120):
        psi2 = fx.psi_numeric(2, 100)
        v = fx.phi_average(2, 25)
        assert not v.sqrt_m3
        rel = abs(v.value.to_mpc(100) / 25 - psi2) / abs(psi2)
        assert rel < mpmath.mpf(10) ** -17


def test_52_ell3_transcription_checksum():
    # the phi_3 table must reproduce the tabulated 3-loop asymptotics
    fx = fixture("5_2")
    with mpmath.workdps(120):
        psi3 = fx.psi_numeric(3, 100)
        v = fx.phi_average(3, 25)
        assert not v.sqrt_m3
        rel = abs(v.value.to_mpc(100) / 25 - psi3) / abs(psi3)
        assert rel < mpmath.mpf(10) ** -15


def test_unknown_fixture_rejected():
    from looptool.errors import ParseError
    with pytest.raises(ParseError):
        fixture("6_2")


@pytest.mark.parametrize("name", ["4_1", "5_2"])
def test_phi_rational_function_is_the_phi_sum(name):
    # the unreduced fraction over delta^kmax built from the cached form
    # equals sum_k c_k(n) delta^(-k) assembled term by term, and reduces to it
    fx = fixture(name)
    inv_delta = RationalFunction(LaurentPolynomial.one(fx.field), fx.delta)
    for ell, table in fx.phi.items():
        for n in (1, 2, 7):
            expect = RationalFunction.from_poly(LaurentPolynomial.zero(fx.field))
            for k, coeffs in table.items():
                c = sum((ci * Fraction(1, n ** i) for i, ci in enumerate(coeffs)),
                        fx.field.zero())
                expect = expect + inv_delta ** k * c
            got = fx.phi_rational_function(ell, n)
            assert got.den.degree_span() == (fx.delta ** max(table)).degree_span()
            assert got.num * expect.den == expect.num * got.den, (ell, n)
            reduced = RationalFunction(got.num, got.den)
            assert (reduced.num, reduced.den) == (expect.num, expect.den)


@pytest.mark.parametrize("make", [FigureEightFixture, FiveTwoFixture], ids=["4_1", "5_2"])
def test_phi_form_is_built_from_the_table_once_per_ell(make, monkeypatch):
    calls = []
    real = knots.ResidueForm.from_table.__func__

    def counted(cls, delta, table):
        calls.append(table)
        return real(cls, delta, table)

    monkeypatch.setattr(knots.ResidueForm, "from_table", classmethod(counted))
    fx = make()
    for n in range(1, 6):
        for ell in (2, 3):
            fx.phi_average(ell, n)
            fx.phi_rational_function(ell, n)
    assert calls == [fx.phi[2], fx.phi[3]]


def test_series_cache_grows_by_doubling(monkeypatch):
    counts = []
    real = knots.series_coefficients

    def counted(rf, count):
        counts.append(count)
        return real(rf, count)

    monkeypatch.setattr(knots, "series_coefficients", counted)
    fx = FigureEightFixture()
    for n in range(1, 101):
        assert fx.series_value(2, n) == fx.phi_closed(2, n)
    assert len(counts) <= 7 and all(b >= 2 * a for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("name, ell", [("4_1", 2), ("4_1", 3), ("5_2", 2), ("5_2", 3)])
def test_table_rows_are_the_row_methods_in_every_mode(name, ell):
    fx = fixture(name)
    methods = {"average": fx.phi_average, "residue": fx.phi_residue}
    if name == "4_1":
        methods.update(closed=fx.phi_closed, series=fx.series_value)
    else:
        for mode in ("closed", "series"):
            with pytest.raises(ParseError, match=f"^mode '{mode}' not available for 5_2$"):
                next(fx.table(ell, 12, mode))
    for mode in ("all", *methods):
        rows = list(fx.table(ell, 12, mode))
        assert [n for n, _ in rows] == list(range(1, 13))
        method = methods["average" if mode == "all" else mode]
        for n, value in rows:
            expect = method(ell, n)
            assert value == expect and str(value) == str(expect), (mode, n)


@pytest.mark.parametrize("k", [1, 4])
def test_table_raises_at_the_first_disagreeing_row_and_computes_no_later_one(k):
    fx = FigureEightFixture()
    computed = []
    real = fx.phi_residue

    def residue(ell, n):
        computed.append(n)
        value = real(ell, n)
        return TaggedValue(value.value * 2, value.sqrt_m3) if n == k else value

    fx.phi_residue = residue
    table = fx.table(2, 10, "all")
    assert [next(table)[0] for _ in range(k - 1)] == list(range(1, k))
    bad = fx.phi_average(2, k)
    with pytest.raises(CrossCheckError) as excinfo:
        next(table)
    assert str(excinfo.value) == (f"average and residue disagree at n = {k}: "
                                  f"average = {bad}, residue = "
                                  f"{TaggedValue(bad.value * 2, bad.sqrt_m3)}")
    assert computed == list(range(1, k + 1))
    assert next(table, None) is None and computed == list(range(1, k + 1))


@pytest.mark.parametrize("name, ell", [("4_1", 2), ("4_1", 3), ("5_2", 2), ("5_2", 3)])
def test_cover_rows_equal_residue_rows(name, ell):
    # the cover polynomial route against its oracle, the M_u solve
    fx = fixture(name)
    sampled = (257, 640, 1000, 2000) if name == "4_1" else (257, 640, 1000)
    for n in [*range(1, 201), *sampled]:
        assert fx.phi_average(ell, n) == fx.phi_residue(ell, n), n


@pytest.mark.parametrize("name, ell", [("4_1", 2), ("4_1", 3), ("5_2", 2), ("5_2", 3)])
def test_rows_over_the_delta_field_equal_the_cover_route_in_lowest_terms(name, ell):
    # the old route, p in the field of lam mapped back by the left inverse
    # of the embedding, is the oracle of the rows over delta's field
    fx = fixture(name)
    embed = delta_embedding(fx.delta, fx.lam)
    sampled = (257, 640, 1000, 2000) if name == "4_1" else (257, 320, 640)
    for n in [*range(1, 201), *sampled]:
        row = fx.phi_average(ell, n).value
        assert row == embed.restrict(fx.cover(ell).evaluate(n)), n
        assert row.den > 0 and gcd(row.den, *row.num) == 1, n


def test_a_root_of_unity_lambda_is_resonant_at_its_order():
    # delta = t - 1 + 1/t has the primitive sixth roots of unity as roots
    field = NumberField([1, -1, 1])
    fx = KnotFixture("sixth", QQ, LaurentPolynomial(QQ, {1: 1, 0: -1, -1: 1}),
                     {2: {1: [QQ.one()], 2: [QQ.element(3)]}}, {2: False},
                     field.generator())
    embed = delta_embedding(fx.delta, fx.lam)
    for n in range(1, 6):
        assert fx.phi_average(2, n).value == embed.restrict(fx.cover(2).evaluate(n))
    for route in (lambda: fx.phi_average(2, 6), lambda: fx.cover(2).evaluate(12)):
        with pytest.raises(ResonantRoot):
            route()


@pytest.mark.parametrize("make", [FigureEightFixture, FiveTwoFixture], ids=["4_1", "5_2"])
def test_cover_is_built_once_per_ell_on_first_use(make, monkeypatch):
    built, forms, evaluated = [], [], []
    real = CoverPolynomial.from_table.__func__

    def counted(cls, delta, table, lam):
        built.append(table)
        return real(cls, delta, table, lam)

    class Counted(DeltaFieldCover):
        def __init__(self, p, delta):
            forms.append(p.ell)
            super().__init__(p, delta)

        def evaluate(self, n):
            evaluated.append(n)
            return super().evaluate(n)

    monkeypatch.setattr(knots.CoverPolynomial, "from_table", classmethod(counted))
    monkeypatch.setattr(knots, "DeltaFieldCover", Counted)
    fx = make()
    assert built == [] and forms == []
    fx.phi_average(2, 1)
    fx.phi_average(3, 1)
    state = copy.deepcopy([vars(form) for form in fx._delta_covers.values()])
    for n in (2, 2, 3):
        for ell in (2, 3):
            fx.phi_average(ell, n)
    assert built == [fx.phi[2], fx.phi[3]] and forms == [2, 3]
    # no row is kept: a repeated n is evaluated again, and rows leave the
    # forms as they were built
    assert evaluated == [1, 1, 2, 2, 2, 2, 3, 3]
    assert [vars(form) for form in fx._delta_covers.values()] == state


def test_phi_average_checks_the_map_back_exactly(monkeypatch):
    # any one coefficient of p moved by 10^-60 breaks its symmetry under
    # lam <-> 1/lam: by a rational for x^i with i >= 1, since (1 - x)^i is
    # not x^i, and by 10^-60 lam for x^0, since lam is not in delta's field
    tiny = Fraction(1, 10 ** 60)
    for make in (FigureEightFixture, FiveTwoFixture):
        for ell in (2, 3):
            fx = make()
            p = fx.cover(ell)
            for (alpha, beta), c in p.terms.items():
                terms = dict(p.terms)
                terms[(alpha, beta)] = c + (tiny * fx.lam if alpha == (0,) else tiny)
                mutated = CoverPolynomial(p.field, p.ell, p.roots, terms)
                monkeypatch.setattr(fx, "cover", lambda _: mutated)
                with pytest.raises(CrossCheckError,
                                   match=f"{fx.name} ell = {ell}: p is not symmetric"):
                    fx.phi_average(ell, 4)
                assert ell not in fx._delta_covers
            monkeypatch.undo()
            assert fx.phi_average(ell, 4) == fx.phi_residue(ell, 4)


@pytest.mark.parametrize("ell", [2, 3])
def test_41_exact_asymptotics_from_the_cover_polynomial(ell):
    # |lam| > 1, so x = 1/(1 - lam^n) tends to 0
    fx = fixture("4_1")
    assert leading_asymptotic(fx.cover(ell)) == fx.psi[ell].value


@pytest.mark.parametrize("ell", [2, 3])
def test_52_exact_asymptotics_from_the_cover_polynomial(ell):
    # the tabulated psi is a polynomial in 2 lam over one denominator, and
    # lam is the root inside the unit disk, so x tends to 1
    fx = fixture("5_2")
    assert fx.lam.field == FIELD_LAMBDA_52
    assert abs(fx.lam.to_mpc(30) - fx.lambda_numeric(30)) < 1e-12
    coeffs, den = knots._PSI_52_NUM[ell]
    mu = 2 * fx.lam
    psi = sum((c * mu ** i for i, c in enumerate(coeffs)), FIELD_LAMBDA_52.zero()) / den
    assert leading_asymptotic(fx.cover(ell)) == psi


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no int <-> str digit limit")
def test_41_row_past_20000_digits_matches_closed_form_and_prints(capsys):
    # the 4_1 ell = 3 row at n = 15000 has a numerator and a denominator of
    # over 20000 digits, past CPython's 4300-digit int <-> str limit, which
    # cli.main lifts so that such a row prints
    fx = fixture("4_1")
    row = fx.phi_average(3, 15000)
    assert row == fx.phi_closed(3, 15000)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match="limit"):
            str(row)
        assert cli.main(["knot", "--knot", "4_1", "--loop", "3", "--nmax", "1"]) == 0
        capsys.readouterr()
        assert sys.get_int_max_str_digits() == 0
        text = str(row)
        num, den = text.split("/")
        assert min(len(num.lstrip("-")), len(den)) > 20000
        assert Fraction(text) == row.value.rational_value()
    finally:
        sys.set_int_max_str_digits(limit)
