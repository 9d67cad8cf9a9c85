"""Exact summation over roots of unity and the torus-sum oracle."""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from conftest import partial_fractions, random_element
from looptool.errors import MathDomainError, PoleOnTorus, ResonantRoot, RootOfUnityPole
from looptool import rootsum
from looptool.knots import FIELD_52, FIELD_LAMBDA_52, FIELD_SQRT21, fixture
from looptool.laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from looptool.numberfield import QQ, NumberField
from looptool.powersum import CoverPolynomial
from looptool.rootsum import (ResidueForm, TorusSumSpec, _cyc_mul, av_exact,
                              av_trace, cyclic_resultant,
                              delta_basis_inverse, delta_power_sums,
                              fit_rational_shape, fold_mod_cyclic,
                              invert_mod_cyclic, pole_sum_closed,
                              torus_sum_oracle)

LP = LaurentPolynomial
DELTA_41 = LP(QQ, {1: 1, 0: -5, -1: 1})


def geometric(a, power=1):
    return RationalFunction(LP.one(QQ), LP(QQ, {0: 1, 1: -a}) ** power)


def test_geometric_sum_n3():
    assert av_exact(geometric(Fraction(2)), 3) == Fraction(-3, 7)


def test_constant_sums_to_n():
    assert av_exact(RationalFunction.from_poly(LP.one(QQ)), 5) == 5


def test_monomial_indicator():
    for n in (1, 2, 3, 5, 8):
        for k in range(-8, 9):
            got = av_exact(RationalFunction.from_poly(LP(QQ, {k: 1})), n)
            assert got == (n if k % n == 0 else 0)


def test_double_pole_n2():
    # 1/(1-2)^2 + 1/(1+2)^2 = 1 + 1/9 = 10/9
    assert av_exact(geometric(Fraction(2), 2), 2) == Fraction(10, 9)
    assert pole_sum_closed(QQ.element(2), 2, 2) == Fraction(10, 9)


@pytest.mark.parametrize("a", [Fraction(2), Fraction(3, 2), Fraction(-3)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_closed_forms_match_trace(a, m):
    ae = QQ.element(a)
    f = geometric(a, m)
    for n in range(1, 21):
        assert av_exact(f, n) == pole_sum_closed(ae, m, n)


def test_pole_at_root_of_unity_raises():
    with pytest.raises(RootOfUnityPole):
        av_exact(geometric(Fraction(1)), 4)
    with pytest.raises(RootOfUnityPole):
        av_exact(geometric(Fraction(-1)), 2)


# -- residue route against the companion-trace oracle ----------------------------


def _random_poly(rng, field, lo, hi):
    """Laurent polynomial with support in [lo, hi] and nonzero ends."""
    def coeff(nonzero):
        while True:
            c = field.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                               for _ in range(field.degree)])
            if not (nonzero and c.is_zero()):
                return c
    return LP(field, {k: coeff(k in (lo, hi)) for k in range(lo, hi + 1)})


def _outcome(route, f, n):
    try:
        return route(f, n)
    except RootOfUnityPole:
        return "pole"


@pytest.mark.parametrize("field", [QQ, FIELD_52], ids=["QQ", "cubic"])
def test_residue_route_matches_trace_on_random_fractions(field):
    rng = random.Random(7 + field.degree)
    compared = 0
    for _ in range(12 if field.degree == 1 else 5):
        # a repeated factor, a numerator reaching below t^0 and past deg Q
        den = _random_poly(rng, field, 0, rng.randint(1, 2)) ** rng.randint(1, 3) \
            * _random_poly(rng, field, 0, rng.randint(0, 2))
        num = _random_poly(rng, field, rng.randint(-4, 0), rng.randint(0, 9))
        f = RationalFunction(num, den)
        for n in (1, 2, 3, 5, 8):
            got = _outcome(av_exact, f, n)
            assert got == _outcome(av_trace, f, n), (f, n)
            compared += got != "pole"
    assert compared > 0


@pytest.mark.parametrize("field", [QQ, FIELD_52], ids=["QQ", "cubic"])
def test_invert_mod_cyclic_is_an_inverse(field):
    # a * inv = 1 in F[t]/(t^n - 1), and None exactly when a vanishes at an
    # n-th root of unity, i.e. when the cyclic resultant of a is zero
    rng = random.Random(31 + field.degree)
    t_minus_1 = LP(field, {0: -1, 1: 1})
    inverted = 0
    for n in (1, 2, 3, 4, 6, 9, 16, 30):
        one = [field.one()] + [field.zero()] * (n - 1)
        g = _random_poly(rng, field, rng.randint(-2, 0), rng.randint(0, 4))
        cases = [g, g * t_minus_1, g * LP(field, {0: 1, 1: 1}),
                 g * LP(field, {0: 1, 1: 1, 2: 1})]
        for k, p in enumerate(cases):
            inv = invert_mod_cyclic(fold_mod_cyclic(p, n), n, field)
            assert (inv is None) == cyclic_resultant(p, n).is_zero(), (p, n)
            if k == 1:
                assert inv is None
            if inv is not None:
                assert len(inv) == n
                assert _cyc_mul(fold_mod_cyclic(p, n), inv, n, field) == one
                inverted += 1
    assert inverted > 8


def test_residue_route_on_laurent_polynomials():
    rng = random.Random(3)
    for _ in range(10):
        p = _random_poly(rng, QQ, rng.randint(-6, 0), rng.randint(0, 6))
        for n in range(1, 8):
            expect = sum((c.coords[0] for k, c in p.coeffs.items() if k % n == 0),
                         Fraction(0)) * n
            assert av_exact(p, n) == av_trace(p, n) == expect


def test_both_routes_raise_on_cyclotomic_factor():
    cyclo3 = LP(QQ, {0: 1, 1: 1, 2: 1})
    rest = LP(QQ, {0: 1, 1: -2}) ** 2
    num = LP(QQ, {-1: 3, 0: 1, 4: -2})
    f = RationalFunction(num, cyclo3 * rest)
    # an unreduced fraction whose numerator shares the cyclotomic factor
    g = RationalFunction(num * cyclo3, cyclo3 * rest, reduce=False)
    for n in range(1, 10):
        for h in (f, g):
            if n % 3 == 0:
                for route in (av_exact, av_trace):
                    with pytest.raises(RootOfUnityPole):
                        route(h, n)
            else:
                assert av_exact(h, n) == av_trace(h, n)


# -- the linear solve against M_u, with the trace route (extended Euclid
# against t^n - 1) as oracle --

ROUTES = (av_exact, av_trace)


@pytest.fixture(params=["QQ", "sqrt21", "FIELD_52", "nonintegral"])
def any_field(request, field_sqrt21, field_nonintegral):
    return {"QQ": QQ, "sqrt21": field_sqrt21, "FIELD_52": FIELD_52,
            "nonintegral": field_nonintegral}[request.param]


def test_solve_route_matches_euclid_and_trace(any_field):
    field = any_field
    rng = random.Random(101 + field.degree)
    compared = 0
    for _ in range(8 if field.degree == 1 else 4):
        # a repeated factor, a power of t in Q, a numerator reaching below
        # t^0 and at least as far as deg Q; unreduced on purpose
        base = _random_poly(rng, field, 0, rng.randint(1, 2))
        den = base ** rng.randint(2, 3) * _random_poly(rng, field, rng.randint(-2, 0),
                                                       rng.randint(0, 2))
        num = _random_poly(rng, field, rng.randint(-5, -1),
                           den.max_exp() + rng.randint(0, 4))
        f = RationalFunction(num, den, reduce=False)
        for n in (1, 2, 3, 4, 7, 12):
            outcomes = [_outcome(route, f, n) for route in ROUTES]
            assert outcomes[0] == outcomes[1], (f, n)
            compared += outcomes[0] != "pole"
    assert compared >= 12


def test_solve_route_on_a_hand_case():
    # t^-2 + 3 t^5 over (1 - 2t)^2: negative exponents, deg P > deg Q, n = 1
    f = RationalFunction(LP(QQ, {-2: 1, 5: 3}), LP(QQ, {0: 1, 1: -2}) ** 2)
    assert av_exact(f, 1) == f.eval(QQ.one()) == 4
    for n in range(1, 9):
        assert av_exact(f, n) == av_trace(f, n)


@pytest.mark.parametrize("den", [DELTA_41 ** 3 * 11, LP(QQ, {0: 1, 1: 3, 2: -1}) ** 3],
                         ids=["lc 1", "lc -1"])
def test_solve_route_on_large_coefficients(den):
    # t^(n-1) mod Q and the solution grow with n: many lifting steps; both
    # denominators are integral and monic up to sign, so the powers of t
    # are taken over Z
    f = RationalFunction(LP(QQ, {-3: 2, 1: -7, 6: 1}), den)
    for n in (40, 97):
        value = av_exact(f, n)
        assert value == av_trace(f, n)
        assert value.coords[0].denominator.bit_length() > 100


def test_all_routes_raise_on_cyclotomic_factors(any_field):
    field = any_field
    rng = random.Random(17 + field.degree)
    cyclotomic = {1: LP(field, {0: -1, 1: 1}), 2: LP(field, {0: 1, 1: 1}),
                  3: LP(field, {0: 1, 1: 1, 2: 1}), 4: LP(field, {0: 1, 2: 1})}
    for order, phi in cyclotomic.items():
        rest = _random_poly(rng, field, 0, 2) ** 2
        num = _random_poly(rng, field, -1, 5)
        for reduce in (True, False):
            f = RationalFunction(num * (phi if not reduce else 1), phi * rest,
                                 reduce=reduce)
            for n in range(1, 7):
                outcomes = [_outcome(route, f, n) for route in ROUTES]
                if n % order == 0:
                    assert outcomes == ["pole"] * 2, (order, n)
                else:
                    assert outcomes[0] == outcomes[1], (order, n)


def test_both_routes_reject_n_below_one():
    for route in (av_exact, av_trace):
        with pytest.raises(ValueError):
            route(geometric(Fraction(2)), 0)


def test_residue_route_41_tables_match_closed_form():
    fx = fixture("4_1")
    for ell in (2, 3):
        for n in list(range(1, 201)) + [1000]:
            assert fx.phi_average(ell, n) == fx.phi_closed(ell, n), (ell, n)


# -- residue forms: the functional route against the integrand and the trace --


@pytest.mark.parametrize("name, ell", [("4_1", 2), ("4_1", 3), ("5_2", 2), ("5_2", 3)])
def test_residue_form_matches_integrand_and_euclid_on_knot_tables(name, ell):
    form = fixture(name).phi_form(ell)
    for n in range(1, 41):
        f = RationalFunction(form.numerator(n), form.den, reduce=False)
        assert av_exact(form, n) == av_exact(f, n) == av_trace(f, n), n


def _reduced_integrand(delta, table, n):
    """sum_k c_k(n) delta^(-k) summed term by term as reduced fractions."""
    field = delta.field
    f = RationalFunction.from_poly(LP.zero(field))
    for k, coeffs in table.items():
        c = sum((ci * Fraction(1, n ** i) for i, ci in enumerate(coeffs)), field.zero())
        f = f + RationalFunction(LP.one(field), delta) ** k * c
    return f


def test_from_table_matches_the_reduced_integrand(any_field):
    # seeded phi-tables with zero rows and negative k over a delta with a
    # cyclotomic factor (or none); in every other draw each row with k > 0
    # vanishes at a chosen n0, so that the integrand reduced at n0 is a
    # Laurent polynomial though delta vanishes at an n0-th root of unity
    field = any_field
    rng = random.Random(1701 + field.degree)
    factors = [(LP(field, {0: 1, 1: 1}), 2), (LP(field, {0: 1, 1: 1, 2: 1}), 3),
               (LP(field, {-1: 1, 0: -2, 1: 1}), 1), (LP.one(field), 1)]
    seen = Counter()
    for draw in range(16 if field.degree == 1 else 8):
        factor, order = factors[draw % len(factors)]
        delta = factor * _random_poly(rng, field, rng.randint(-1, 0), rng.randint(0, 1))
        n0 = order * rng.randint(1, 3)
        table = {}
        for k in rng.sample([-1, 0, 1, 2, 3], rng.randint(2, 4)):
            row = [random_element(rng, field, -5, 5, 3) for _ in range(rng.randint(0, 2))]
            if k > 0 and draw % 2 == 0:
                # c_0 = -sum_(i >= 1) c_i n0^(-i); a row of one entry is zero
                row.insert(0, -sum((c * Fraction(1, n0 ** i) for i, c in enumerate(row, 1)),
                                   field.zero()))
            else:
                row.insert(0, random_element(rng, field, -5, 5, 3) * rng.randint(0, 1))
            table[k] = row
        form = ResidueForm.from_table(delta, table)
        for n in range(1, 9):
            got = _outcome(ResidueForm.root_sum, form, n)
            expect = _outcome(av_trace, _reduced_integrand(delta, table, n), n)
            assert got == expect, (delta, table, n)
            seen[cyclic_resultant(delta, n).is_zero(), got == "pole"] += 1
    # sums where delta vanishes at a root of unity, with and without a pole
    assert seen[True, False] >= 4 and seen[True, True] >= 4 and seen[False, False] >= 20, seen


def _form_outcomes(numerators, den, n):
    """The form's sum at n, the sum of its one-numerator integrand and the
    trace route on each numerator in its own frame, each a value or "pole"."""
    field = den.field
    integrand = sum((p * Fraction(1, n ** i) for i, p in enumerate(numerators)),
                    LP.zero(field))
    try:
        trace = sum((av_trace(RationalFunction(p, den, reduce=False), n)
                     * Fraction(1, n ** i) for i, p in enumerate(numerators)),
                    field.zero())
    except RootOfUnityPole:
        trace = "pole"
    return (_outcome(av_exact, ResidueForm(numerators, den), n),
            _outcome(av_exact, RationalFunction(integrand, den, reduce=False), n),
            trace)


@pytest.mark.parametrize("field, integral", [(QQ, True), (QQ, False), (FIELD_52, False)],
                         ids=["QQ-integral", "QQ", "cubic"])
def test_residue_form_on_a_seeded_family(field, integral):
    # numerators with different lowest exponents, some below that of Q and
    # one past deg Q, and a zero numerator; Q with lc(Q) != 1, integral up
    # to that scalar in the first case
    rng = random.Random(41 + 2 * field.degree + integral)
    compared = 0
    for _ in range(6 if field.degree == 1 else 3):
        if integral:
            base = LP(QQ, {0: rng.choice([-1, 1]), 1: rng.randint(-6, 6), 2: 1})
            den = base ** rng.randint(1, 3) * LP(QQ, {rng.randint(-2, 1): rng.randint(2, 9)})
        else:
            den = _random_poly(rng, field, rng.randint(-2, 1), rng.randint(2, 4)) \
                * _random_poly(rng, field, 0, rng.randint(1, 2))
        lo = den.min_exp()
        numerators = [_random_poly(rng, field, lo - 3, den.max_exp() + 3),
                      LP.zero(field),
                      _random_poly(rng, field, lo + rng.randint(-1, 2), lo + 3),
                      _random_poly(rng, field, lo + 2, lo + 2)]
        rng.shuffle(numerators)
        for n in (1, 2, 3, 5, 8, 13):
            outcomes = _form_outcomes(numerators, den, n)
            assert outcomes[0] == outcomes[1] == outcomes[2], (numerators, den, n)
            compared += outcomes[0] != "pole"
    assert compared >= 12


def test_residue_form_edge_cases():
    den = LP(QQ, {-1: 3, 0: -15, 1: 3}) ** 2        # 3 delta_41, lc(Q) = 9
    # deg P >= deg Q, so the polynomial part counts; alone, at n = 1, with
    # a zero numerator in front of it
    big = LP(QQ, {-2: 1, 0: 5, 3: -2, 6: 7})
    for numerators in ([big], [LP.zero(QQ), big], [big, big * 3, LP(QQ, {-5: 1})]):
        for n in (1, 2, 3, 6):
            outcomes = _form_outcomes(numerators, den, n)
            assert outcomes[0] == outcomes[1] == outcomes[2], (numerators, n)
    assert av_exact(ResidueForm([big], den), 1) == big.eval(QQ.one()) / den.eval(QQ.one())
    # no numerator, or only zeros: the sum is zero
    for numerators in ([], [LP.zero(QQ)] * 2):
        assert av_exact(ResidueForm(numerators, den), 4).is_zero()
    with pytest.raises(ValueError):
        av_exact(ResidueForm([big], den), 0)
    with pytest.raises(ZeroDivisionError):
        ResidueForm([big], LP.zero(QQ))


@pytest.mark.parametrize("numerators, den, low, high", [
    ([LP(QQ, {10 ** 9: 1})], LP(QQ, {0: 1, 1: -3}), 0, 10 ** 9),
    ([LP(QQ, {0: 1})], LP(QQ, {10 ** 9: 1, 10 ** 9 + 1: -3}), 0, 10 ** 9 + 1),
    ([LP.zero(QQ), LP(QQ, {-3: 1, 4094: 2})], LP.one(QQ), -3, 4094),
])
def test_residue_form_bounds_its_frame(numerators, den, low, high):
    # dense lists over 10^9 exponents would exhaust memory: the span is
    # checked from the exponents before any list is built
    start = time.perf_counter()
    with pytest.raises(MathDomainError) as exc:
        ResidueForm(numerators, den)
    assert time.perf_counter() - start < 0.5
    assert (f"from {low} to {high}, a span of {high - low} above the bound of "
            f"{rootsum.MAX_EXPONENT_SPAN}") in str(exc.value)


def test_residue_form_at_the_span_bound():
    # span 4096 is allowed, and t^4096 sums to n exactly when n | 4096
    form = ResidueForm([LP(QQ, {4096: 1})], LP.one(QQ))
    assert [av_exact(form, n) for n in (2, 3, 4096)] == [2, 0, 4096]


@pytest.mark.parametrize("field", [QQ, FIELD_52], ids=["QQ", "cubic"])
def test_residue_form_raises_on_cyclotomic_factor(field):
    rng = random.Random(59 + field.degree)
    cyclo3 = LP(field, {0: 1, 1: 1, 2: 1})
    den = cyclo3 * _random_poly(rng, field, -1, 1) ** 2
    numerators = [_random_poly(rng, field, -3, 4), LP.zero(field),
                  _random_poly(rng, field, 0, 6) * cyclo3]
    for n in range(1, 8):
        outcomes = _form_outcomes(numerators, den, n)
        if n % 3 == 0:
            assert outcomes == ("pole",) * 3, n
        else:
            assert outcomes[0] == outcomes[1] == outcomes[2] != "pole", n


def test_delta_power_sums_builds_each_row_once():
    lam = QQ.element(3)
    rootsum._delta_power_row.cache_clear()
    for _ in range(5):
        delta_power_sums(lam, 3)
    info = rootsum._delta_power_row.cache_info()
    assert (info.misses, info.hits) == (4, 16)
    # the returned table is fresh: changing it leaves the next one intact
    rows = delta_power_sums(lam, 2)
    rows[2][0] = LP.zero(QQ)
    rows[1].clear()
    assert delta_power_sums(lam, 2)[2][0] != LP.zero(QQ)
    assert len(delta_power_sums(lam, 2)[1]) == 2
    # equal elements of different fields give rows over their own fields
    s21 = NumberField([-21, 0, 1], root_index=1)
    assert delta_power_sums(s21.element(3), 1)[1][0].field == s21


@pytest.mark.parametrize("field", [QQ, FIELD_SQRT21, FIELD_LAMBDA_52],
                         ids=["Q", "sqrt21", "sextic"])
def test_principal_parts_match_partial_fractions(field, rng):
    # one power series against the pole-by-pole decomposition, at both poles
    lams = [field.generator() if field.degree > 1 else QQ.element(Fraction(3, 2))]
    while len(lams) < (3 if field.degree < 6 else 2):
        # in the sextic field a dense random element makes the oracle slow
        lam = (random_element(rng, field, den=5) if field.degree < 6 else
               field.generator() * rng.randint(2, 5) + rng.randint(-3, 3))
        if not lam.is_zero() and not (lam * lam - 1).is_zero():
            lams.append(lam)
    for lam in lams:
        inv = lam.inverse()
        for j in range(1, 7):
            f = RationalFunction(LP(field, {j: 1}),
                                 LP(field, {0: 1, 1: -lam}) ** j * LP(field, {0: 1, 1: -inv}) ** j)
            poly, terms = partial_fractions(f, [(lam, j), (inv, j)])
            assert poly.is_zero()
            for pole, a in enumerate((lam, inv)):
                assert rootsum._principal_part(a, j) == [terms[pole, m] for m in range(1, j + 1)]


def test_linearity(rng):
    f = geometric(Fraction(2))
    g = geometric(Fraction(5, 3), 2)
    for n in (1, 3, 6):
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        lhs = av_exact(f * c + g, n)
        assert lhs == av_exact(f, n) * c + av_exact(g, n)


def test_numeric_agreement(rng):
    f = RationalFunction(LP.one(QQ), DELTA_41 ** 2)
    for digits in (30, 60):
        with mpmath.workdps(digits + 10):
            for n in (3, 7, 11):
                brute = mpmath.mpc(0)
                for k in range(n):
                    w = mpmath.e ** (2j * mpmath.pi * k / n)
                    brute += 1 / (w - 5 + 1 / w) ** 2
                q = av_exact(f, n).rational_value()
                exact = mpmath.mpf(q.numerator) / q.denominator
                assert abs(brute - exact) < mpmath.mpf(10) ** (1 - digits)


def test_cyclic_resultants_41():
    assert cyclic_resultant(DELTA_41, 1) == -3
    assert cyclic_resultant(DELTA_41, 2) == 21


def test_cyclic_resultant_matches_root_formula(field_sqrt21):
    lam = (5 + field_sqrt21.generator()) / 2
    one = field_sqrt21.one()
    for n in range(1, 12):
        expect = (one - lam ** n) * (one - lam.inverse() ** n)
        if n % 2 == 0:
            expect = -expect
        got = cyclic_resultant(DELTA_41, n)
        assert field_sqrt21.element(got.coords[0]) == expect


def _sylvester_resultant(delta, n):
    """prod_{w^n = 1} delta(w) as the determinant of the Sylvester matrix of
    t^n - 1 and the polynomial part P of delta = t^s P: Res(t^n - 1, P) times
    (prod w)^s = (-1)^((n + 1) s)."""
    coeffs, shift = delta.as_poly_coeffs()
    e = len(coeffs) - 1
    size = n + e
    rows = []
    for top, count in (([1] + [0] * (n - 1) + [-1], e), (coeffs[::-1], n)):
        for i in range(count):
            rows.append([0] * i + top + [0] * (size - i - len(top)))
    det = LaurentMatrix.from_rows(delta.field, rows).det().coefficient(0)
    return -det if (n + 1) * shift % 2 else det


def test_cyclic_resultant_matches_sylvester_determinant(field_sqrt21, field_cubic):
    rng = random.Random(1303)
    cyclotomic = LP(QQ, {0: 1, 1: 1, 2: 1})
    compared = 0
    for field in (QQ, field_sqrt21, field_cubic):
        for _ in range(14):
            shift, span = rng.randint(-3, 1), rng.randint(0, 5)
            delta = LP(field, {shift + k: random_element(rng, field) for k in range(span + 1)})
            if rng.random() < 0.3:
                delta = delta * LP(field, cyclotomic.coeffs)
            if delta.is_zero():
                continue
            n = rng.randint(1, 12)
            got = cyclic_resultant(delta, n)
            assert got == _sylvester_resultant(delta, n), (delta, n)
            compared += got.is_zero()
    assert compared >= 3  # the t^2 + t + 1 cases with 3 | n vanish


def test_remark_toy_identity():
    # sum over t^n=1 of t/((t-lam)(t-1/lam)) at lam = 2
    num = LP(QQ, {1: 1})
    den = LP(QQ, {0: -2, 1: 1}) * LP(QQ, {0: Fraction(-1, 2), 1: 1})
    f = RationalFunction(num, den)
    for n in range(1, 31):
        ln = Fraction(2) ** n
        expect = Fraction(n) / Fraction(3, 2) * (
            Fraction(1) / (1 - ln) - Fraction(1) / (1 - 1 / ln))
        assert av_exact(f, n) == expect


# -- quadratic delta power sums ------------------------------------------------


def test_alpha_k1_closed_form():
    lam = QQ.element(2)
    rows = delta_power_sums(lam, 1)
    # alpha_{1,0} = -lam x/(lam^2-1), alpha_{1,1} = 2 lam x/(lam^2-1)
    assert rows[1][0].coeffs == {1: QQ.element(Fraction(-2, 3))}
    assert rows[1][1].coeffs == {1: QQ.element(Fraction(4, 3))}


def test_alpha_top_coefficient():
    lam = QQ.element(2)
    rows = delta_power_sums(lam, 4)
    for k in range(1, 5):
        expect = QQ.element(2) * lam ** k * ((lam * lam - 1).inverse()) ** k
        assert rows[k][k].coeffs == {k: expect}


def test_alpha_matches_trace_oracle():
    lam = QQ.element(2)
    dmon = LP(QQ, {1: 1, 0: -Fraction(5, 2), -1: 1})
    for k in range(1, 5):
        fk = RationalFunction(LP.one(QQ), dmon) ** k
        # S_k = sum_{t^n=1} dmon^(-k), row k of the alpha table
        sk = CoverPolynomial.from_table(dmon, {k: [QQ.one()]}, lam)
        for n in range(1, 21):
            assert sk.evaluate(n) == av_exact(fk, n)


def test_alpha_in_extension_field(field_sqrt21):
    lam = (5 + field_sqrt21.generator()) / 2
    delta = LP(field_sqrt21, DELTA_41.coeffs)
    f = RationalFunction(LP(field_sqrt21, {0: 1}), delta)
    s1 = CoverPolynomial.from_table(delta, {1: [field_sqrt21.one()]}, lam)
    for n in (1, 2, 5):
        assert s1.evaluate(n) == av_exact(f, n)


def test_resonant_root_rejected():
    with pytest.raises(ResonantRoot):
        delta_power_sums(QQ.element(1), 2)
    with pytest.raises(ResonantRoot):
        delta_basis_inverse(QQ.element(-1), 2)


def test_beta_inverts_alpha():
    lam = QQ.element(2)
    dmon = LP(QQ, {1: 1, 0: -Fraction(5, 2), -1: 1})
    S = {i: CoverPolynomial.from_table(dmon, {i: [QQ.one()]}, lam) for i in range(1, 5)}
    beta = delta_basis_inverse(lam, 4)
    for a in range(5):
        for n in (3, 5, 9):
            lhs = (QQ.one() - lam ** n).inverse() ** a
            rhs = QQ.zero()
            for i in range(5):
                if beta[a][i].is_zero():
                    continue
                Si = QQ.one() if i == 0 else S[i].evaluate(n)
                rhs = rhs + beta[a][i].eval(n) * Si
            assert lhs == rhs


def test_beta_has_no_positive_powers():
    beta = delta_basis_inverse(QQ.element(2), 3)
    for row in beta:
        for entry in row:
            if entry.coeffs:
                assert entry.max_exp() <= 0


# -- torus sums ------------------------------------------------------------------


def test_torus_d1_reduces_to_av():
    spec = TorusSumSpec(1, (0,), ((1,),), (QQ.element(2),))
    f = geometric(Fraction(2))
    for n in range(1, 9):
        assert torus_sum_oracle(spec, n) == av_exact(f, n)


def torus_sum_numeric(spec: TorusSumSpec, n: int, precision_digits: int = 40):
    """Brute complex summation at the given precision (cross-check only)."""
    with mpmath.workdps(precision_digits + 10):
        cs = [c.to_mpc(precision_digits + 10) for c in spec.constants]
        total = mpmath.mpc(0)
        for idx in itertools.product(range(n), repeat=spec.d):
            ws = [mpmath.e ** (2j * mpmath.pi * k / n) for k in idx]
            t0 = mpmath.mpc(1)
            for i, e in enumerate(spec.t0):
                t0 *= ws[i] ** e
            denom = mpmath.mpc(1)
            for m, c in zip(spec.monomials, cs):
                tv = mpmath.mpc(1)
                for i, e in enumerate(m):
                    tv *= ws[i] ** e
                denom *= (1 - c * tv)
            total += t0 / denom
        return total


TRIANGLE = TorusSumSpec(2, (0, 0), ((1, 0), (0, 1), (-1, -1)),
                        (QQ.element(2), QQ.element(3), QQ.element(Fraction(5, 7))))


def test_triangle_matches_numeric():
    for n in range(1, 7):
        exact = torus_sum_oracle(TRIANGLE, n)
        num = torus_sum_numeric(TRIANGLE, n, 45)
        q = exact.rational_value()
        with mpmath.workdps(50):
            assert abs(num - mpmath.mpf(q.numerator) / q.denominator) < mpmath.mpf(10) ** -40


def test_torus_with_nontrivial_t0():
    spec = TorusSumSpec(2, (1, -1), ((1, 0), (0, 1), (1, 1)),
                        (QQ.element(2), QQ.element(3), QQ.element(5)))
    for n in (2, 4, 5):
        exact = torus_sum_oracle(spec, n)
        num = torus_sum_numeric(spec, n, 45)
        q = exact.rational_value()
        with mpmath.workdps(50):
            assert abs(num - mpmath.mpf(q.numerator) / q.denominator) < mpmath.mpf(10) ** -40


def test_pole_on_torus_raises():
    spec = TorusSumSpec(1, (0,), ((1,),), (QQ.element(-1),))
    with pytest.raises(PoleOnTorus):
        torus_sum_oracle(spec, 2)


def test_shape_fit_predicts_heldout():
    values = [(n, torus_sum_oracle(TRIANGLE, n)) for n in range(2, 18)]
    predict = fit_rational_shape(values, TRIANGLE.constants, 2, 1)
    for n in range(18, 24):
        assert predict(n) == torus_sum_oracle(TRIANGLE, n)


def test_half_integral_exponent_pattern_escapes_shape():
    """Tails (1,-1) and (-1,-1) make the two diagonal constraint families
    meet at half-integer points, so the counting polytopes are not integral
    and the clean polynomial shape genuinely fails: overdetermined fits are
    inconsistent at every window start and per parity class.  The oracle
    values themselves are verified against brute complex summation above
    any suspicion; this documents a boundary of the shape statement."""
    from looptool.errors import SingularError
    spec = TorusSumSpec(2, (0, 0), ((1, 0), (0, 1), (1, -1), (-1, -1)),
                        (QQ.element(2), QQ.element(3),
                         QQ.element(Fraction(5, 7)), QQ.element(Fraction(7, 3))))
    for n in (3, 5):
        exact = torus_sum_oracle(spec, n)
        num = torus_sum_numeric(spec, n, 45)
        q = exact.rational_value()
        with mpmath.workdps(50):
            assert abs(num - mpmath.mpf(q.numerator) / q.denominator) < 1e-35
    values = [(n, torus_sum_oracle(spec, n)) for n in range(2, 60)]
    with pytest.raises(SingularError):
        fit_rational_shape(values, spec.constants, 2, 2)
