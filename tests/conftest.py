import random
from fractions import Fraction

import pytest

from looptool.laurent import LaurentPolynomial, proportional_up_to_unit
from looptool.numberfield import NumberField, QQ


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
    # xi^2 = 3/4: a minimal polynomial that is not integral (_scale = 4), so
    # integer rows of field elements carry lift factors
    return NumberField([Fraction(-3, 4), 0, 1])


def random_element(rng, field, lo=-9, hi=9, den=7):
    return field.element([Fraction(rng.randint(lo, hi), rng.randint(1, den))
                          for _ in range(field.degree)])


def is_palindromic_up_to_unit(p: LaurentPolynomial) -> bool:
    """p(1/t) = p(t) up to a unit +-t^k, as a one-loop polynomial is."""
    return proportional_up_to_unit(p.invert_variable(), p)
