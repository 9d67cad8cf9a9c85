import random
from fractions import Fraction

import pytest

from looptool.errors import MathDomainError
from looptool.laurent import LaurentPolynomial, RationalFunction, _as_element
from looptool.numberfield import FieldElement, NumberField, QQ


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def field_sqrt21():
    return NumberField([-21, 0, 1], root_index=1)


@pytest.fixture(scope="session")
def field_cubic():
    # xi^3 = xi + 1, complex embedding
    return NumberField([-1, -1, 0, 1], root_index=0)


@pytest.fixture(scope="session")
def field_nonintegral():
    # xi^2 = 3/4: a minimal polynomial that is not integral, so elements
    # live on the powers of theta = 2 xi
    return NumberField([Fraction(-3, 4), 0, 1])


def random_element(rng, field, lo=-9, hi=9, den=7):
    return field.element([Fraction(rng.randint(lo, hi), rng.randint(1, den))
                          for _ in range(field.degree)])


def is_palindromic_up_to_unit(p: LaurentPolynomial) -> bool:
    """p(1/t) = p(t) up to a unit +-t^k, as a one-loop polynomial is."""
    return proportional_up_to_unit(p.invert_variable(), p)


# -- the partial-fraction oracle of rootsum._principal_part ------------------

class IncompleteFactorization(MathDomainError):
    """The roots given to `partial_fractions` do not account for the
    denominator."""


def proportional_up_to_unit(p: LaurentPolynomial, q: LaurentPolynomial) -> bool:
    """True when p = c * t^k * q for some nonzero field scalar c and k in Z."""
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    pk = sorted(p.coeffs)
    qk = sorted(q.coeffs)
    if len(pk) != len(qk):
        return False
    shift = pk[0] - qk[0]
    if any(a - b != shift for a, b in zip(pk, qk)):
        return False
    ratio = p.coeffs[pk[0]] / q.coeffs[qk[0]]
    return all(p.coeffs[k + shift] == ratio * q.coeffs[k] for k in qk)


def partial_fractions(f: RationalFunction, roots):
    """Decompose f = poly_part + sum c_{j,m} / (1 - lam_j t)^m.

    `roots` lists (lam_j, multiplicity) pairs that must account exactly for
    the non-monomial part of the denominator.  Returns (poly_part, terms)
    where terms maps (j, m) to the coefficient c_{j,m}.
    """
    field = f.field
    for lam, _ in roots:
        if isinstance(lam, FieldElement) and lam.field.degree > field.degree:
            field = lam.field
    one = LaurentPolynomial.one(field)
    # check the supplied roots multiply back to the denominator (up to unit)
    prod = one
    for lam, mult in roots:
        factor = LaurentPolynomial(field, {0: 1, 1: -(_as_element(field, lam))})
        prod = prod * factor ** mult
    den = LaurentPolynomial(field, f.den.coeffs)
    if not proportional_up_to_unit(prod, den):
        raise IncompleteFactorization("roots do not multiply back to the denominator")

    remainder = RationalFunction(LaurentPolynomial(field, f.num.coeffs), den)
    terms = {}
    for j, (lam, mult) in enumerate(roots):
        lam = _as_element(field, lam)
        inv_lam = lam.inverse()
        factor = RationalFunction.from_poly(
            LaurentPolynomial(field, {0: 1, 1: -lam}))
        for m in range(mult, 0, -1):
            cleared = remainder * factor ** m
            c = cleared.eval(inv_lam)
            terms[(j, m)] = c
            if not c.is_zero():
                remainder = remainder - RationalFunction(
                    LaurentPolynomial(field, {0: c}),
                    LaurentPolynomial(field, {0: 1, 1: -lam}) ** m)
    if not remainder.is_polynomial():
        raise IncompleteFactorization("leftover non-polynomial part")
    return remainder.as_polynomial(), terms
