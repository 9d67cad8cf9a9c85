"""Laurent polynomials, rational functions, matrices, partial fractions."""

import operator
from fractions import Fraction

import pytest

from conftest import (IncompleteFactorization, partial_fractions,
                      proportional_up_to_unit)
from looptool.errors import (LoopToolError, MathDomainError, NotDivisible,
                             SingularMatrix, ZeroBase)
from looptool.laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from looptool.linalg import mat_mul
from looptool.numberfield import QQ

LP = LaurentPolynomial

DELTA_41 = LP(QQ, {1: 1, 0: -5, -1: 1})
T_PLUS_2 = LP(QQ, {1: 1, 0: 2})


def test_eval_delta_41_values():
    assert DELTA_41.eval(QQ.element(1)) == -3
    assert DELTA_41.eval(QQ.element(-1)) == -7


def test_eval_at_one_is_coefficient_sum(rng):
    for _ in range(30):
        p = LP(QQ, {k: rng.randint(-9, 9) for k in range(-3, 4)})
        total = sum((c.coords[0] for c in p.coeffs.values()), Fraction(0))
        assert p.eval(QQ.element(1)) == total


def test_eval_zero_base_raises():
    with pytest.raises(ZeroBase):
        DELTA_41.eval(QQ.zero())


def test_eval_in_extension(field_sqrt21):
    lam = (5 + field_sqrt21.generator()) / 2
    assert DELTA_41.eval(lam).is_zero()


def test_eval_ring_homomorphism(rng):
    for _ in range(60):
        p = LP(QQ, {k: rng.randint(-5, 5) for k in range(-2, 3)})
        q = LP(QQ, {k: rng.randint(-5, 5) for k in range(-2, 3)})
        a = QQ.element(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert (p * q).eval(a) == p.eval(a) * q.eval(a)
        assert (p + q).eval(a) == p.eval(a) + q.eval(a)


def test_rational_function_canonical_form():
    f = RationalFunction(LP(QQ, {0: 2, 1: -2}), LP(QQ, {0: 4, 1: -8, 2: 4}))
    g = RationalFunction(LP(QQ, {0: 1}), LP(QQ, {0: 2, 1: -2}))
    assert f == g
    assert f.den.coefficient(0) == 1 and f.den.min_exp() == 0


def test_zero_rational_function_is_canonical():
    z = RationalFunction(LP.zero(QQ), DELTA_41)
    assert z == 0 and z.is_polynomial()


def test_rational_function_lifts_rational_part_into_extension(field_sqrt21):
    s21 = field_sqrt21.generator()
    den = LP(field_sqrt21, {0: 1, 1: s21})
    both = RationalFunction(LP.one(field_sqrt21), den)
    assert RationalFunction(LP.one(QQ), den) == both
    assert RationalFunction(den, LP(QQ, {0: 2})) == RationalFunction(
        den, LP(field_sqrt21, {0: 2}))


def test_operand_over_q_lifts_into_the_other_field(field_sqrt21, field_cubic):
    # with the polynomial over Q on either side, each operation equals the
    # same call on operands lifted by hand, over the larger field
    s21 = field_sqrt21.generator()
    p, q = LP(QQ, {-1: 3, 0: 1, 1: 2, 3: -1}), LP(field_sqrt21, {0: s21, 1: 1})
    lifted = LP(field_sqrt21, p.coeffs)
    ops = (operator.add, operator.sub, operator.mul, LP.divmod_poly, LP.gcd)
    for a, b, lift_a, lift_b in ((p, q, lifted, q), (q, p, q, lifted)):
        for op in ops:
            got, want = op(a, b), op(lift_a, lift_b)
            assert got == want
            for part in (got if isinstance(got, tuple) else (got,)):
                assert part.field == field_sqrt21
    lam = (5 + s21) / 2
    root = LP(field_sqrt21, {0: -lam, 1: 1})
    assert DELTA_41.divide_exact(root) == LP(field_sqrt21, DELTA_41.coeffs).divide_exact(root)
    assert (root * DELTA_41).divide_exact(DELTA_41) == root
    cubic = LP(field_cubic, {0: field_cubic.generator(), 1: 1})
    for op in ops + (LP.divide_exact,):
        with pytest.raises(TypeError):
            op(q, cubic)


def test_scalar_of_a_larger_field_lifts_a_polynomial_over_q(field_sqrt21):
    # a scalar is a constant over its own field, so it lifts a polynomial
    # over Q as a polynomial over its field does
    s21 = field_sqrt21.generator()
    p = LP(QQ, {0: 1, 1: 2})
    lifted, constant = LP(field_sqrt21, p.coeffs), LP(field_sqrt21, {0: s21})
    product = p * s21
    assert product == s21 * p == lifted * constant and product.field == field_sqrt21
    assert p + s21 == s21 + p == lifted + constant
    assert p - s21 == lifted - constant
    rf = RationalFunction.from_poly(p) * s21
    assert rf == RationalFunction.from_poly(lifted * constant) and rf.field == field_sqrt21
    assert p != s21 and LP(QQ, {0: 2}) == field_sqrt21.element(2)


def test_division_by_an_unsupported_type_is_a_type_error():
    p = LP(QQ, {0: 1, 1: 1})
    for op in (LP.divmod_poly, LP.divide_exact):
        with pytest.raises(TypeError, match="str"):
            op(p, "x")
    assert p.divmod_poly(2) == (LP(QQ, {0: Fraction(1, 2), 1: Fraction(1, 2)}), LP(QQ))


def _inverse(M):
    return M.solve(LaurentMatrix.identity(QQ, M.rows))


def test_matrix_inverse_identity_and_scalar():
    I3 = LaurentMatrix.identity(QQ, 3)
    inv = _inverse(I3)
    for i in range(3):
        for j in range(3):
            assert inv[i][j] == (1 if i == j else 0)
    M = LaurentMatrix.from_rows(QQ, [[DELTA_41]])
    assert _inverse(M)[0][0] == RationalFunction(LP.one(QQ), DELTA_41)
    assert M.inverse() == _inverse(M)


def test_matrix_inverse_both_sides(rng):
    done = 0
    while done < 15:
        n = rng.randint(1, 4)
        M = LaurentMatrix.from_rows(QQ, [
            [LP(QQ, {k: rng.randint(-3, 3) for k in range(-1, 2)})
             for _ in range(n)] for _ in range(n)])
        if M.det().is_zero():
            continue
        inv = _inverse(M)
        for i in range(n):
            for j in range(n):
                left = right = None
                for k in range(n):
                    t1 = inv[k][j] * M.entries[i][k]
                    t2 = inv[i][k] * M.entries[k][j]
                    left = t1 if left is None else left + t1
                    right = t2 if right is None else right + t2
                want = 1 if i == j else 0
                assert left == want and right == want
        done += 1


def test_matrix_solve_is_inverse_times_rhs(rng):
    done = 0
    while done < 10:
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        M = LaurentMatrix.from_rows(QQ, [
            [LP(QQ, {k: rng.randint(-3, 3) for k in range(-1, 2)})
             for _ in range(n)] for _ in range(n)])
        if M.det().is_zero():
            continue
        R = LaurentMatrix.from_rows(QQ, [
            [LP(QQ, {k: rng.randint(-3, 3) for k in range(0, 2)})
             for _ in range(m)] for _ in range(n)])
        rf = [[RationalFunction.from_poly(e) for e in row] for row in R.entries]
        assert M.solve(R) == mat_mul(_inverse(M), rf)
        done += 1


def test_singular_matrix_raises():
    M = LaurentMatrix.from_rows(QQ, [[LP.one(QQ), LP.one(QQ)],
                                     [LP.one(QQ), LP.one(QQ)]])
    assert M.det().is_zero()
    with pytest.raises(SingularMatrix):
        _inverse(M)
    with pytest.raises(SingularMatrix):
        M.solve(LaurentMatrix.from_rows(QQ, [[1], [2]]))


def test_non_square_matrix_raises_math_domain_error():
    M = LaurentMatrix.from_rows(QQ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(MathDomainError):
        M.det()
    with pytest.raises(MathDomainError):
        M.solve(LaurentMatrix.identity(QQ, 2))
    with pytest.raises(MathDomainError):
        LaurentMatrix.identity(QQ, 2).solve(LaurentMatrix.identity(QQ, 3))


def test_inexact_division_raises_not_divisible():
    assert (DELTA_41 * T_PLUS_2).divide_exact(T_PLUS_2) == DELTA_41
    with pytest.raises(NotDivisible):
        DELTA_41.divide_exact(T_PLUS_2)


def test_zero_polynomial_is_falsy():
    assert not LP.zero(QQ) and not LP(QQ, {3: 0})
    assert LP.one(QQ) and DELTA_41 and LP(QQ, {-2: Fraction(1, 5)})


def test_bareiss_det_matches_cofactor(rng):
    def cof(rows, n):
        if n == 1:
            return rows[0][0]
        acc = LP.zero(QQ)
        for j in range(n):
            minor = [[rows[i][k] for k in range(n) if k != j]
                     for i in range(1, n)]
            term = rows[0][j] * cof(minor, n - 1)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    for _ in range(10):
        n = rng.randint(1, 3)
        rows = [[LP(QQ, {k: rng.randint(-3, 3) for k in range(0, 2)})
                 for _ in range(n)] for _ in range(n)]
        assert LaurentMatrix(QQ, rows).det() == cof(rows, n)


def recombine_partial_fractions(poly_part, terms, roots):
    """The rational function poly_part + sum c / (1 - lam_j t)^m that
    `partial_fractions` splits into (poly_part, {(j, m): c})."""
    field = poly_part.field
    total = RationalFunction.from_poly(poly_part)
    for (j, m), c in terms.items():
        total = total + RationalFunction(
            LP(field, {0: c}), LP(field, {0: 1, 1: -roots[j][0]}) ** m)
    return total


def test_partial_fractions_two_simple_poles():
    a, b = QQ.element(2), QQ.element(3)
    f = RationalFunction(LP.one(QQ),
                         LP(QQ, {0: 1, 1: -2}) * LP(QQ, {0: 1, 1: -3}))
    poly, terms = partial_fractions(f, [(a, 1), (b, 1)])
    # 1/(1-b/a) = -2 and 1/(1-a/b) = 3
    assert poly.is_zero()
    assert terms[(0, 1)] == -2 and terms[(1, 1)] == 3
    assert recombine_partial_fractions(poly, terms, [(a, 1), (b, 1)]) == f


def test_partial_fractions_identity_on_single_factor():
    c = QQ.element(5)
    f = RationalFunction(LP.one(QQ), LP(QQ, {0: 1, 1: -5}))
    poly, terms = partial_fractions(f, [(c, 1)])
    assert poly.is_zero() and terms[(0, 1)] == 1


def test_partial_fractions_delta41_over_sqrt21(field_sqrt21):
    lam = (5 + field_sqrt21.generator()) / 2
    f = RationalFunction(LP(field_sqrt21, {0: 1}),
                         LP(field_sqrt21, DELTA_41.coeffs))
    roots = [(lam, 1), (lam.inverse(), 1)]
    poly, terms = partial_fractions(f, roots)
    assert recombine_partial_fractions(poly, terms, roots) == f


def test_partial_fractions_rejects_wrong_roots():
    f = RationalFunction(LP.one(QQ), LP(QQ, {0: 1, 1: -2}))
    with pytest.raises(IncompleteFactorization):
        partial_fractions(f, [(QQ.element(3), 1)])


def test_proportional_up_to_unit():
    p = LP(QQ, {1: 1, 0: -5, -1: 1})
    q = LP(QQ, {3: -2, 2: 10, 1: -2})  # -2 t^2 * p
    assert proportional_up_to_unit(p, q)
    assert not proportional_up_to_unit(p, LP(QQ, {1: 1, 0: -4, -1: 1}))


def test_laurent_serialization_roundtrip(field_cubic):
    p = LP(field_cubic, {-2: field_cubic.generator(), 0: 3,
                         5: field_cubic.element([1, 2, 3])})
    assert LP.from_json(p.to_json(), field_cubic) == p
    f = RationalFunction(p, LP(field_cubic, {0: 1, 1: 1}))
    assert RationalFunction.from_json(f.to_json(), field_cubic) == f


def test_shape_mismatch_raises_typed_error():
    A = LaurentMatrix.identity(QQ, 2)
    B = LaurentMatrix.identity(QQ, 3)
    row = [[QQ.one(), QQ.one()]]
    for product in (lambda: A + B, lambda: A - B, lambda: A * B,
                    lambda: mat_mul(row, row)):
        with pytest.raises(LoopToolError, match="2x2|1x2"):
            product()
