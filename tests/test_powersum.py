"""Generating series, reconstruction, asymptotics, delta form."""

import random
from fractions import Fraction
from math import comb

import pytest

from looptool import linalg, powersum
from conftest import random_element
from looptool.errors import (HoldoutMismatchError, ParseError,
                             ResonantRoot, SingularSystem, UnitCircleRoot)
from looptool.knots import (FIELD_52, FIELD_LAMBDA_52, FIELD_SQRT21, FigureEightFixture,
                            fixture)
from looptool.laurent import LaurentPolynomial, RationalFunction
from looptool.linalg import field_vector, solve, solve_gauss_jordan, solve_integer
from looptool.numberfield import QQ, FieldElement, NumberField
from looptool.powersum import (CoverPolynomial, asymptotic_fit_check,
                               delta_embedding, leading_asymptotic,
                               quad_to_delta_form, reconstruct_p,
                               reconstruction_matrix, reconstruction_system,
                               series_coefficients)
from looptool.rootsum import ResidueForm, av_exact, av_trace

LP = LaurentPolynomial


def check_recurrence(values, s: LaurentPolynomial) -> bool:
    """Do the values satisfy the recurrence with characteristic s(t)?

    s(t) = 1 - s_1 t - ... - s_d t^d encodes a_{n+d} = sum s_i a_{n+d-i}.
    """
    coeffs, shift = s.as_poly_coeffs()
    if shift != 0 or coeffs[0] != 1:
        raise ParseError("characteristic polynomial must have constant term 1")
    zero = s.field.zero()
    return all(sum((c * values[k - i] for i, c in enumerate(coeffs)), zero).is_zero()
               for k in range(len(coeffs) - 1, len(values)))


def test_series_roundtrip_regenerates():
    # a_n = 2 + (1 - n/3) lam^n has the generating series
    # 2/(1 - t) + 1/(1 - lam t) - (lam t/3)/(1 - lam t)^2
    lam = QQ.element(Fraction(3, 2))
    one_minus = LP(QQ, {0: 1, 1: -lam})
    series = (RationalFunction(LP(QQ, {0: 2}), LP(QQ, {0: 1, 1: -1}))
              + RationalFunction(LP.one(QQ), one_minus)
              - RationalFunction(LP(QQ, {1: lam / 3}), one_minus ** 2))
    coeffs = series_coefficients(series, 24)
    for n, c in enumerate(coeffs):
        assert c == 2 + (1 - Fraction(n, 3)) * lam ** n


def test_41_series_coefficients_match_averages():
    fx = fixture("4_1")
    one = FIELD_SQRT21.one()
    coeffs = series_coefficients(fx.series[2], 41)
    for n in range(1, 41):
        resultant = (one - fx.lam ** n) * (one - fx.lam_inv ** n)
        assert coeffs[n] == resultant * fx.phi_average(2, n).value


def test_renormalized_recurrence_to_40():
    from looptool.rootsum import cyclic_resultant
    fx = fixture("4_1")
    s = LP.one(FIELD_SQRT21)
    for root in (FIELD_SQRT21.element(-1), -fx.lam, -fx.lam_inv):
        s = s * LP(FIELD_SQRT21, {0: 1, 1: -root}) ** 2
    values = [FIELD_SQRT21.zero()]
    for n in range(1, 41):
        Nn = cyclic_resultant(fx.delta, n)
        values.append(FIELD_SQRT21.element(Nn.coords[0]) * fx.phi_average(2, n).value)
    assert check_recurrence(values, s)


# -- reconstruction ---------------------------------------------------------


def test_basis_counts_match_table():
    assert len(CoverPolynomial.basis(1, 2)) == 3
    assert len(CoverPolynomial.basis(1, 3)) == 10
    assert len(CoverPolynomial.basis(4, 2)) == 15
    assert len(CoverPolynomial.basis(4, 3)) == 140


def test_trivial_planted_p_equals_y():
    p = reconstruct_p([(n, QQ.element(n)) for n in (1, 2, 3)],
                      [QQ.element(2)], 2, 1)
    assert p.terms == {((0,), 1): QQ.one()}
    assert leading_asymptotic(p) == 1


def test_41_ell2_reconstruction_from_three_values():
    fx = fixture("4_1")
    values = [(n, fx.phi_average(2, n).value) for n in range(1, 4)]
    p = reconstruct_p(values, [fx.lam], 2, 1)
    assert p.terms[((0,), 1)] == Fraction(55, 1512)
    assert p.terms[((1,), 1)] == Fraction(-192, 1512)
    assert p.terms[((2,), 1)] == Fraction(192, 1512)
    for n in range(4, 21):
        assert p.evaluate(n) == fx.phi_average(2, n).value


def test_41_ell3_needs_ten_values():
    fx = fixture("4_1")
    values = [(n, fx.phi_average(3, n).value) for n in range(1, 11)]
    p = reconstruct_p(values, [fx.lam], 3, 1)
    for n in range(11, 26):
        assert p.evaluate(n) == fx.phi_average(3, n).value


def test_planted_random_recoveries(rng):
    pool = [Fraction(2), Fraction(3), Fraction(5), Fraction(7, 2), Fraction(5, 3)]
    for _ in range(20):
        r = rng.randint(1, 2)
        ell = rng.randint(2, 3)
        roots = [QQ.element(c) for c in rng.sample(pool, r)]
        basis = CoverPolynomial.basis(r, ell)
        terms = {key: QQ.element(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                 for key in basis if rng.random() < 0.8}
        planted = CoverPolynomial(QQ, ell, roots, terms)
        needed = (ell - 1) * comb(r + 2 * ell - 2, r)
        values = [(n, planted.evaluate(n)) for n in range(1, needed + 5)]
        assert reconstruct_p(values, roots, ell, r) == planted


def test_holdout_mismatch_detected():
    fx = fixture("4_1")
    values = [(n, fx.phi_average(2, n).value) for n in range(1, 5)]
    values[-1] = (4, values[-1][1] + 1)
    with pytest.raises(HoldoutMismatchError):
        reconstruct_p(values, [fx.lam], 2, 1)


def test_singular_window_detected():
    # root 1 is resonant: 1 - lam^n = 0 inside the window
    from looptool.errors import ResonantRoot
    with pytest.raises((SingularSystem, ResonantRoot)):
        reconstruct_p([(n, QQ.element(n)) for n in (1, 2, 3)],
                      [QQ.element(1)], 2, 1)


#: xi^2 = 1/2: a monic minimal polynomial that is not integral, so the
#: integer systems are written on the powers of theta = 2 xi.
FIELD_HALF = NumberField([Fraction(-1, 2), 0, 1])

#: Three non-resonant roots per field, none the inverse of another.
RECONSTRUCTION_ROOTS = {
    "QQ": (QQ, [[Fraction(3, 2)], [-3], [Fraction(5, 7)]]),
    "sqrt21": (FIELD_SQRT21, [[Fraction(3, 2), Fraction(1, 2)],
                              [Fraction(-3, 2), Fraction(1, 2)], [2, Fraction(1, 3)]]),
    "FIELD_52": (FIELD_52, [[1, 1], [2, 0, 1], [0, 1, 1]]),
    "half": (FIELD_HALF, [[1, 1], [-3, Fraction(1, 2)], [Fraction(1, 3), 2]]),
}


def _three_routes(field, roots, ell, window):
    """The reconstruction solve of the window by the integer system written
    directly, by `solve` on the field-element matrix and by Gauss-Jordan."""
    direct = field_vector(field, *solve_integer(
        *reconstruction_system(field, roots, ell, window)))
    A = reconstruction_matrix(field, roots, ell, [n for n, _ in window])
    b = [field.zero() + v for _, v in window]
    return direct, solve(field, A, b), solve_gauss_jordan(field, A, b)


def _planted(rng, field, roots, ell, bits=8):
    basis = CoverPolynomial.basis(len(roots), ell)
    terms = {key: field.element([Fraction(rng.getrandbits(bits) - (1 << (bits - 1)),
                                          rng.getrandbits(bits) | 1)
                                 for _ in range(field.degree)])
             for key in basis}
    return CoverPolynomial(field, ell, roots, terms), [terms[key] for key in basis]


EVALUATION_ROOTS = {**RECONSTRUCTION_ROOTS, "sextic": (FIELD_LAMBDA_52, [
    [0, 1], [1, 0, 0, Fraction(1, 2)], [Fraction(-2, 3), 0, 1, 0, 0, 1]])}


@pytest.mark.parametrize("name", ["QQ", "sqrt21", "FIELD_52", "half", "sextic"])
def test_evaluate_matches_the_ungrouped_sum(name, rng):
    """`evaluate` runs on integer numerators, normalized once; the value is
    the plain sum of c n^beta prod_j x_j^alpha_j over the terms in field
    arithmetic, for r = 1, 2, 3 root pairs, over fields whose minimal
    polynomials are not integral (x^2 - 1/2, and the sextic whose
    elements live on the powers of 8 lambda) as well."""
    field, coords = EVALUATION_ROOTS[name]
    roots = [field.element(c) for c in coords]
    for r, ell in ((1, 3), (2, 3), (3, 2), (1, 5), (3, 3)):
        planted, _ = _planted(rng, field, roots[:r], ell)
        sparse = CoverPolynomial(field, ell, roots[:r], {
            key: c for key, c in planted.terms.items() if rng.random() < 0.6})
        for p in (planted, sparse):
            for n in (1, 2, 7, 12):
                xs = [(field.one() - lam ** n).inverse() for lam in roots[:r]]
                expect = field.zero()
                for (alpha, beta), c in p.terms.items():
                    term = c * n ** beta
                    for x, a in zip(xs, alpha):
                        term = term * x ** a
                    expect = expect + term
                assert p.evaluate(n) == expect


@pytest.mark.parametrize("name", sorted(RECONSTRUCTION_ROOTS))
def test_reconstruction_routes_agree_on_planted_windows(name, rng):
    """Zero tolerance: on seeded planted systems with non-consecutive windows
    the three routes return the planted coefficients exactly."""
    field, coords = RECONSTRUCTION_ROOTS[name]
    roots = [field.element(c) for c in coords]
    shapes = [(1, 2), (1, 3), (1, 4), (2, 2), (3, 2)] + [(1, 5)] * (field is QQ)
    for r, ell in shapes:
        planted, coeffs = _planted(rng, field, roots[:r], ell)
        ns = sorted(rng.sample(range(1, 2 * len(coeffs) + 4), len(coeffs)))
        window = [(n, planted.evaluate(n)) for n in ns]
        direct, fast, oracle = _three_routes(field, roots[:r], ell, window)
        assert direct == fast == oracle == coeffs, (r, ell, ns)


@pytest.mark.parametrize("name", ["sqrt21", "FIELD_52", "half"])
def test_reconstruction_routes_agree_on_rational_values(name, rng):
    """Values in Q given for a larger field are coerced as `reconstruct_p`
    coerces them."""
    field, coords = RECONSTRUCTION_ROOTS[name]
    roots = [field.element(c) for c in coords]
    for r, ell in ((1, 3), (2, 2)):
        size = len(CoverPolynomial.basis(r, ell))
        ns = sorted(rng.sample(range(2, 3 * size), size))
        window = [(n, QQ.element(Fraction(rng.randint(-99, 99), rng.randint(1, 9))))
                  for n in ns]
        direct, fast, oracle = _three_routes(field, roots[:r], ell, window)
        assert direct == fast == oracle
        planted = CoverPolynomial(field, ell, roots[:r], dict(zip(
            CoverPolynomial.basis(r, ell), direct)))
        assert all(planted.evaluate(n) == v for n, v in window)


def test_reconstruct_p_builds_no_field_element_matrix(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the field-element route ran")

    monkeypatch.setattr(powersum, "reconstruction_matrix", forbidden)
    monkeypatch.setattr(linalg, "integer_system", forbidden)
    fx = fixture("4_1")
    values = [(n, fx.phi_average(3, n).value) for n in range(1, 14)]
    p = reconstruct_p(values, [fx.lam], 3, 1)
    assert all(p.evaluate(n) == fx.phi_average(3, n).value for n in (20, 31))


@pytest.mark.parametrize("ell", [2, 3])
def test_resonant_window_is_singular(ell):
    # lam = -1 gives x = 1/2 at every odd n, so on a window of odd n the
    # columns of every alpha are proportional
    size = len(CoverPolynomial.basis(1, ell))
    values = [(n, QQ.element(n)) for n in range(1, 2 * size + 1, 2)]
    for field in (QQ, FIELD_SQRT21):
        with pytest.raises(SingularSystem):
            reconstruct_p(values, [field.element(-1)], ell, 1)


@pytest.mark.parametrize("name", sorted(RECONSTRUCTION_ROOTS))
def test_reconstruction_solve_matches_gauss_jordan(name, rng):
    field, coords = RECONSTRUCTION_ROOTS[name]
    roots = [field.element(c) for c in coords]
    for r, ell, bits in ((1, 3, 8), (2, 2, 8), (1, 3, 300)):
        planted, coeffs = _planted(rng, field, roots[:r], ell, bits)
        values = [(n, planted.evaluate(n)) for n in range(1, len(coeffs) + 3)]
        direct, fast, oracle = _three_routes(field, roots[:r], ell, values[:len(coeffs)])
        assert direct == fast == oracle == coeffs
        assert reconstruct_p(values, roots[:r], ell, r) == planted


def test_41_ell3_solve_matches_gauss_jordan():
    fx = fixture("4_1")
    values = [(n, fx.phi_average(3, n).value) for n in range(1, 11)]
    direct, fast, oracle = _three_routes(fx.lam.field, [fx.lam], 3, values)
    assert direct == fast == oracle


def test_reciprocal_pair_window_is_singular():
    # x_1 + x_2 = 1 for the roots 2 and 1/2, so the basis columns are
    # dependent for every window
    with pytest.raises(SingularSystem):
        reconstruct_p([(n, QQ.element(n)) for n in range(1, 7)],
                      [QQ.element(2), QQ.element(Fraction(1, 2))], 2, 2)


def test_json_roundtrip_and_symmetric_alpha(field_sqrt21):
    fx = fixture("4_1")
    values = [(n, fx.phi_average(2, n).value) for n in range(1, 4)]
    p = reconstruct_p(values, [fx.lam], 2, 1)
    assert CoverPolynomial.from_json(p.to_json(), field_sqrt21) == p
    symmetric = {"ell": 2, "r": 1, "roots": [fx.lam.to_json()],
                 "terms": [
                     {"alpha": [1, 0], "beta": 1, "coeff": "55/1512"},
                     {"alpha": [0, 1], "beta": 1, "coeff": "55/1512"},
                     {"alpha": [1, 1], "beta": 1, "coeff": "-192/1512"}]}
    assert CoverPolynomial.from_json(symmetric, field_sqrt21) == p


def test_json_paired_exponents_above_one():
    # u (1 - u)^3 and (1 - u)^2 fold into powers of u = 1/(1 - lam^n)
    lam = QQ.element(3)
    paired = {"ell": 3, "r": 1, "roots": ["3"],
              "terms": [{"alpha": [1, 3], "beta": 2, "coeff": "2/5"},
                        {"alpha": [0, 2], "beta": 1, "coeff": "-7"}]}
    p = CoverPolynomial.from_json(paired, QQ)
    expanded = {((1,), 2): Fraction(2, 5), ((2,), 2): Fraction(-6, 5),
                ((3,), 2): Fraction(6, 5), ((4,), 2): Fraction(-2, 5),
                ((0,), 1): Fraction(-7), ((1,), 1): Fraction(14),
                ((2,), 1): Fraction(-7)}
    assert p == CoverPolynomial(QQ, 3, [lam], {k: QQ.element(c)
                                               for k, c in expanded.items()})
    for n in range(1, 9):
        u = (1 - lam ** n).inverse()
        v = (1 - lam ** -n).inverse()
        assert p.evaluate(n) == (u * v ** 3 * Fraction(2, 5) * n ** 2
                                 + v ** 2 * Fraction(-7) * n)


# -- asymptotics -----------------------------------------------------------------


def test_leading_asymptotics_41():
    fx = fixture("4_1")
    p2 = reconstruct_p([(n, fx.phi_average(2, n).value) for n in range(1, 4)],
                       [fx.lam], 2, 1)
    assert leading_asymptotic(p2) == Fraction(55, 1512)
    p3 = reconstruct_p([(n, fx.phi_average(3, n).value) for n in range(1, 11)],
                       [fx.lam], 3, 1)
    assert leading_asymptotic(p3) == fx.psi[3].value


def test_leading_asymptotic_inverse_root_convention():
    fx = fixture("4_1")
    # reconstruct with the root inside the unit disk: x -> 1 limit
    p = reconstruct_p([(n, fx.phi_average(2, n).value) for n in range(1, 4)],
                      [fx.lam_inv], 2, 1)
    assert leading_asymptotic(p) == Fraction(55, 1512)


def test_leading_asymptotic_vanishing_case():
    p = CoverPolynomial(QQ, 2, [QQ.element(2)], {((1,), 1): QQ.one()})
    assert leading_asymptotic(p) == 0  # x -> 0 since |2| > 1


def test_unit_circle_root_rejected():
    p = CoverPolynomial(QQ, 2, [QQ.element(-1)], {((1,), 1): QQ.one()})
    with pytest.raises(UnitCircleRoot):
        leading_asymptotic(p)


def test_multiplicative_leading_term():
    fx = fixture("4_1")
    for m in (2, 3):
        values = [(n, fx.phi_average(2, m * n).value) for n in range(1, 4)]
        p_m = reconstruct_p(values, [fx.lam ** m], 2, 1)
        assert leading_asymptotic(p_m) == FIELD_SQRT21.element(Fraction(55, 1512)) * m


def test_asymptotic_fit_check_cases():
    fx = fixture("4_1")
    psi2 = FIELD_SQRT21.element(Fraction(55, 1512))
    values = [(n, fx.phi_average(2, n).value) for n in range(10, 41)]
    assert asymptotic_fit_check(values, psi2, fx.lam, 2, 90)
    exact = [(n, psi2 * n) for n in range(10, 26)]
    assert asymptotic_fit_check(exact, psi2, fx.lam, 2, 60)
    wrong = FIELD_SQRT21.element(Fraction(56, 1512))
    assert not asymptotic_fit_check(values, wrong, fx.lam, 2, 90)


# -- quadratic delta form -------------------------------------------------------


def _monic_delta(lam):
    """t - (lam + 1/lam) + 1/t over the field of lam."""
    return LP(lam.field, {1: 1, 0: -(lam + lam.inverse()), -1: 1})


def _trimmed(table):
    """The table with each row cut after its last nonzero slot and the rows
    with none dropped, as `quad_to_delta_form` writes it."""
    out = {}
    for k, row in table.items():
        row = list(row)
        while row and row[-1].is_zero():
            row.pop()
        if row:
            out[k] = row
    return out


def test_quad_form_matches_41_table():
    fx = fixture("4_1")
    p = reconstruct_p([(n, fx.phi_average(2, n).value) for n in range(1, 4)],
                      [fx.lam], 2, 1)
    delta, table = quad_to_delta_form(p)
    assert delta.field == FIELD_SQRT21 and delta == fx.delta
    zero = FIELD_SQRT21.zero()
    assert table == {2: [zero, FIELD_SQRT21.element(Fraction(4, 3))],
                     1: [zero, FIELD_SQRT21.element(Fraction(20, 63))],
                     0: [FIELD_SQRT21.element(Fraction(55, 1512))]}
    form = ResidueForm.from_table(delta, table)
    for n in range(1, 31):
        assert av_exact(form, n) == fx.phi_average(2, n).value


@pytest.mark.parametrize("ell", [2, 3])
def test_quad_form_average_builds_no_form_or_fraction_per_row(ell, monkeypatch):
    # one ResidueForm for the table; a row is one sum of it
    fx = fixture("4_1")
    r = 1
    needed = (ell - 1) * comb(r + 2 * ell - 2, r)
    values = [(n, fx.phi_average(ell, n).value) for n in range(1, needed + 1)]
    form = ResidueForm.from_table(*quad_to_delta_form(reconstruct_p(values, [fx.lam], ell, r)))
    built = []
    for cls in (ResidueForm, RationalFunction):
        real = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, real=real, **kw:
                            built.append(self) or real(self, *args, **kw))
    averages = [av_exact(form, n) for n in range(1, 21)]
    assert built == []
    for n, value in enumerate(averages, 1):
        assert value == fx.phi_average(ell, n).value


def test_check_recurrence_edges():
    s = LP(QQ, {0: 1, 1: -1, 2: -1})                     # a_n = a_(n-1) + a_(n-2)
    fib = [QQ.element(v) for v in (1, 1, 2, 3, 5, 8)]
    assert check_recurrence(fib, s) and check_recurrence(fib[:1], s)
    assert check_recurrence([], s) and not check_recurrence(fib[:-1] + [QQ.element(9)], s)
    for bad in (LP(QQ, {0: 2, 1: -1}), LP(QQ, {1: 1, 2: -1})):
        with pytest.raises(ParseError, match="constant term 1"):
            check_recurrence(fib, bad)


def test_quad_form_zero():
    p = CoverPolynomial(QQ, 2, [QQ.element(2)], {})
    assert quad_to_delta_form(p) == (LP(QQ, {1: 1, 0: -Fraction(5, 2), -1: 1}), {})


def test_quad_form_planted_oracle(rng):
    lam = QQ.element(2)
    p = CoverPolynomial(QQ, 2, [lam], {((1,), 1): QQ.element(Fraction(3, 7)),
                                       ((2,), 1): QQ.element(Fraction(-2, 5))})
    form = ResidueForm.from_table(*quad_to_delta_form(p))
    for n in range(1, 16):
        assert av_exact(form, n) == p.evaluate(n)


def test_quad_form_coeffs_invariant_under_root_swap():
    fx = fixture("4_1")
    values = [(n, fx.phi_average(2, n).value) for n in range(1, 4)]
    q1 = quad_to_delta_form(reconstruct_p(values, [fx.lam], 2, 1))
    q2 = quad_to_delta_form(reconstruct_p(values, [fx.lam_inv], 2, 1))
    assert q1 == q2
    # coefficients land in the rational subfield
    for row in q1[1].values():
        for c in row:
            assert c.is_rational()


# -- cover polynomials of delta-tables --------------------------------------------


def _seeded_delta_table(rng, field):
    """A root lam in `field`, the monic palindromic quadratic delta with root
    lam, a planted loop-2 cover polynomial p over it and the phi-table of p
    over delta."""
    while True:
        lam = random_element(rng, field)
        if not lam.is_zero() and not (lam * lam - 1).is_zero():
            break
    p = CoverPolynomial(field, 2, [lam], {key: random_element(rng, field, 1, 9)
                                          for key in CoverPolynomial.basis(1, 2)})
    delta, table = quad_to_delta_form(p)
    return delta, table, lam, p


@pytest.mark.parametrize("field", [QQ, FIELD_SQRT21, FIELD_52], ids=["Q", "sqrt21", "cubic"])
def test_from_table_agrees_with_both_root_sums_on_seeded_tables(field, rng):
    for _ in range(3):
        delta, table, lam, planted = _seeded_delta_table(rng, field)
        assert delta.field == field and delta == _monic_delta(lam)
        assert table == _trimmed(table) and 0 in table
        # the exact round trip both ways
        assert CoverPolynomial.from_table(delta, table, lam) == planted
        assert quad_to_delta_form(CoverPolynomial.from_table(delta, table, lam)) == \
            (delta, table)
        # plus random rows k = 0..4 with an n^0 entry only: delta^(-k) sums
        # to n times a polynomial in n of degree k - 1 for k >= 1, and
        # delta^0 to n, so every power of n stays positive
        for k in range(5):
            row = table.setdefault(k, [field.zero()])
            row[0] = row[0] + random_element(rng, field, 1, 9)
        p = CoverPolynomial.from_table(delta, table, lam)
        assert p.field == field and p.roots == [lam] and p.ell == 5
        form = ResidueForm.from_table(delta, table)
        for n in range(1, 6):
            value = p.evaluate(n)
            assert value == av_exact(form, n), n
            assert value == av_trace(RationalFunction(form.numerator(n), form.den), n), n
        # the inverse map gives the table back
        assert quad_to_delta_form(p) == (delta, _trimmed(table))
        assert CoverPolynomial.from_table(*quad_to_delta_form(p), lam) == p
        # lam lies in delta's field here, and the form over it agrees
        form = powersum.DeltaFieldCover(p, delta)
        assert [form.evaluate(n) for n in range(1, 30)] == \
            [p.evaluate(n) for n in range(1, 30)]


@pytest.mark.parametrize("name", ["4_1", "5_2"])
@pytest.mark.parametrize("ell", [2, 3])
def test_from_table_round_trips_the_knot_tables(name, ell):
    fx = fixture(name)
    p = CoverPolynomial.from_table(fx.delta, fx.phi[ell], fx.lam)
    assert p.field == fx.lam.field and p.roots == [fx.lam] and p.ell == ell
    # the table over the monic delta of lam, in the field of lam
    embed = delta_embedding(fx.delta, fx.lam)
    a = fx.delta.coefficient(1)
    delta = _monic_delta(fx.lam)
    table = _trimmed({k: [embed(c / a ** k) for c in row] for k, row in fx.phi[ell].items()})
    assert quad_to_delta_form(p) == (delta, table)
    assert CoverPolynomial.from_table(*quad_to_delta_form(p), fx.lam) == p
    assert quad_to_delta_form(CoverPolynomial.from_table(delta, table, fx.lam)) == \
        (delta, table)
    # reconstruction from the route's own values recovers the same p
    needed = (ell - 1) * (2 * ell - 1)
    values = [(n, embed(fx.phi_average(ell, n).value)) for n in range(1, needed + 4)]
    assert reconstruct_p(values, [fx.lam], ell, 1) == p


def test_from_table_rejects_what_it_cannot_map():
    fx = fixture("4_1")
    table = fx.phi[2]
    with pytest.raises(ParseError, match="k >= 0"):
        CoverPolynomial.from_table(fx.delta, {**table, -1: [QQ.one()]}, fx.lam)
    for delta in (LP(QQ, {1: 1, 0: -5, -1: 2}), LP(QQ, {2: 1, 0: -5}),
                  LP(QQ, {0: 1, 1: -5, 2: 1}), LP(QQ, {0: 3})):
        with pytest.raises(ParseError, match="palindromic quadratic"):
            CoverPolynomial.from_table(delta, table, fx.lam)
    with pytest.raises(ParseError, match="no embedding"):
        CoverPolynomial.from_table(LP(QQ, {1: 1, 0: -6, -1: 1}), table, fx.lam)
    # delta = t - 2 + 1/t has the double root 1
    with pytest.raises(ResonantRoot):
        CoverPolynomial.from_table(LP(QQ, {1: 1, 0: -2, -1: 1}), {1: [QQ.one()]},
                                   QQ.one())
    # 1/n delta^(-1) sums to a multiple of x with no power of n
    with pytest.raises(ParseError, match="e <= 0 survive"):
        CoverPolynomial.from_table(fx.delta, {1: [QQ.zero(), QQ.one()]}, fx.lam)


def test_delta_field_cover_over_fields_with_a_scale():
    # K = Q(xi) with xi^2 = 1/2, and lam a root of delta = t - xi + 1/t in
    # the quartic field of lam^4 + (3/2) lam^2 + 1: neither minimal
    # polynomial is integral, so both fields keep their elements on the
    # powers of an algebraic integer other than the generator
    K = NumberField([Fraction(-1, 2), 0, 1])
    L = NumberField([1, 0, Fraction(3, 2), 0, 1])
    assert all(any(q.denominator > 1 for q in F.minpoly) for F in (K, L))
    xi, lam = K.generator(), L.generator()
    delta = LP(K, {1: 1, 0: -xi, -1: 1})
    table = {0: [xi], 1: [xi + 3], 2: [K.element(Fraction(1, 7))], 3: [2 * xi - 1]}
    p = CoverPolynomial.from_table(delta, table, lam)
    assert p.ell == 4 and p.field == L
    form = powersum.DeltaFieldCover(p, delta)
    embed = delta_embedding(delta, lam)
    residue = ResidueForm.from_table(delta, table)
    for n in [*range(1, 41), 101, 256]:
        value = form.evaluate(n)
        assert value.field == K and value == embed.restrict(p.evaluate(n)), n
        assert value == av_exact(residue, n), n
    two_pairs = CoverPolynomial(L, 2, [lam, lam + 1], {((1, 1), 1): L.one()})
    with pytest.raises(ParseError, match="one root pair"):
        powersum.DeltaFieldCover(two_pairs, delta)


def test_evaluate_raises_resonant_root_when_lam_n_is_one():
    """x = 1/(1 - lam^n) does not exist when lam^n = 1: ResonantRoot, over Q
    and in a quadratic field (a primitive sixth root of unity), while the
    n with lam^n != 1 evaluate."""
    terms = {((1,), 1): QQ.one(), ((0,), 1): QQ.element(2)}
    p = CoverPolynomial(QQ, 2, [QQ.element(-1)], terms)
    assert p.evaluate(3) == Fraction(3, 2) + 6
    with pytest.raises(ResonantRoot):
        p.evaluate(2)
    K = NumberField([1, -1, 1])
    zeta = K.generator()
    q = CoverPolynomial(K, 2, [zeta], {((a,), 1): K.element(a + 1) for a in range(3)})
    assert q.evaluate(3) == (1 + 2 * Fraction(1, 2) + 3 * Fraction(1, 4)) * 3
    for n in (6, 12):
        with pytest.raises(ResonantRoot):
            q.evaluate(n)


def test_lam_n_steps_along_consecutive_n(monkeypatch):
    roots = [FIELD_SQRT21.element([Fraction(5, 2), Fraction(1, 2)]), FIELD_SQRT21.element(3)]
    ns = [1, 2, 3, 7, 8, 20, 21, 22]
    stepped = list(powersum._x_steps(FIELD_SQRT21, roots, ns))
    assert stepped == [[1 / (1 - lam ** n) for lam in roots] for n in ns]
    # one window and its hold-outs: one power of each root in all
    fx = fixture("4_1")
    values = [(n, FIELD_SQRT21.zero() + fx.phi_average(3, n).value) for n in range(1, 14)]
    powers = []
    real = FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__pow__",
                        lambda self, e: powers.append(e) or real(self, e))
    p = reconstruct_p(values, [fx.lam], 3, 1)
    assert powers == [1]
    monkeypatch.undo()
    assert p == fx.cover(3)


def test_rows_and_hold_outs_over_q_never_reach_the_generic_kernels(monkeypatch):
    """Over Q a numerator is a plain int: with the generic product and
    adjugate of `NumberField` made to raise, 4_1 rows at loops 2 and 3 for
    n = 1..70 (on a fixture built under the patch) and reconstructions over
    Q with r = 1 and r = 3, window and hold-outs, give what they give
    without it."""
    rng = random.Random(39)
    fx = fixture("4_1")
    rows = {(ell, n): fx.phi_average(ell, n) for ell in (2, 3) for n in range(1, 71)}
    roots = [QQ.element(c) for c in RECONSTRUCTION_ROOTS["QQ"][1]]
    cases = []
    for r, ell in ((1, 3), (3, 2)):
        planted, coeffs = _planted(rng, QQ, roots[:r], ell)
        values = [(n, planted.evaluate(n)) for n in range(1, len(coeffs) + 4)]
        cases.append((values, r, ell, reconstruct_p(values, roots[:r], ell, r)))

    def generic(*args):
        raise RuntimeError("a generic number-field kernel was called")

    monkeypatch.setattr(NumberField, "_mul_numerators", generic)
    monkeypatch.setattr(NumberField, "_adjugate", generic)
    assert not {"_mul_numerators", "_adjugate"} & vars(QQ).keys()
    fresh = FigureEightFixture()
    assert all(fresh.phi_average(ell, n) == row for (ell, n), row in rows.items())
    for values, r, ell, expect in cases:
        assert reconstruct_p(values, roots[:r], ell, r) == expect


@pytest.mark.parametrize("field", [QQ, FIELD_SQRT21, FIELD_52],
                         ids=["QQ", "sqrt21", "FIELD_52"])
def test_lucas_and_horner_equal_field_arithmetic(field):
    """The row kernels on the field's ring of numerators: `_lucas` gives
    s_n = lam^n + lam^(-n) and s_(n+1) over q^n and q^(n+1), as the
    recurrence s_(m+1) = s_1 s_m - s_(m-1) from s_0 = 2 gives them in
    `FieldElement` arithmetic, and `_horner` gives sum_a c_a x^a."""
    rng = random.Random(41 + field.degree)
    ring = field.ring
    for _ in range(6):
        s1 = random_element(rng, field)
        u1, q = ring.numerator(s1), s1.den
        u2 = ring.plus(ring.mul(u1, u1), -2 * q * q)
        n = rng.randint(1, 150)
        u, v, qn = powersum._lucas(ring, u1, u2, q, n)
        s = [field.element(2), s1]
        while len(s) < n + 2:
            s.append(s1 * s[-1] - s[-2])
        assert qn == q ** n
        assert ring.element(u, qn) == s[n] and ring.element(v, qn * q) == s[n + 1], n
        x = random_element(rng, field)
        cs = [None if rng.random() < 0.3 else random_element(rng, field)
              for _ in range(rng.randint(0, 5))] + [random_element(rng, field)]
        nums, den = ring.of([c for c in cs if c is not None])
        nums.reverse()
        acc, f = powersum._horner(ring, [None if c is None else nums.pop() for c in cs],
                                  ring.numerator(x), x.den)
        expect = sum((c * x ** a for a, c in enumerate(cs) if c is not None), field.zero())
        assert ring.element(acc, f * den) == expect
