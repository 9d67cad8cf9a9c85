"""Exact Gauss-Jordan elimination: inverse, square solve, consistent solve."""

import random

import pytest

from conftest import random_element
from looptool.errors import SingularError
from looptool.linalg import identity, mat_inv, mat_mul, solve, solve_consistent
from looptool.numberfield import QQ


@pytest.fixture(params=["QQ", "sqrt21"])
def field(request, field_sqrt21):
    return QQ if request.param == "QQ" else field_sqrt21


def _random_matrix(rng, field, rows, cols):
    return [[random_element(rng, field) for _ in range(cols)] for _ in range(rows)]


def _apply(A, x):
    return [row[0] for row in mat_mul(A, [[c] for c in x])]


def test_inverse_and_solve(field):
    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        A = _random_matrix(rng, field, n, n)
        if n > 1:
            # a zero in the top-left corner forces a row swap
            A[0][0] = field.zero()
        b = [random_element(rng, field) for _ in range(n)]
        assert mat_mul(mat_inv(field, A), A) == identity(field, n)
        assert _apply(A, solve(field, A, b)) == b


def test_singular_matrix_raises(field):
    rng = random.Random(6)
    A = _random_matrix(rng, field, 3, 3)
    A[2] = [a + b for a, b in zip(A[0], A[1])]
    b = [random_element(rng, field) for _ in range(3)]
    with pytest.raises(SingularError):
        mat_inv(field, A)
    with pytest.raises(SingularError):
        solve(field, A, b)


def test_consistent_rank_deficient_system(field):
    rng = random.Random(7)
    # rank 2 in 4 unknowns, 5 equations; columns 1 and 3 are free
    base = _random_matrix(rng, field, 2, 4)
    for row in base:
        row[1] = row[0] * 3
        row[3] = row[0] - row[2]
    weights = _random_matrix(rng, field, 5, 2)
    A = mat_mul(weights, base)
    b = _apply(A, [random_element(rng, field) for _ in range(4)])
    x = solve_consistent(field, A, b)
    assert _apply(A, x) == b
    assert x[1].is_zero() and x[3].is_zero()


def test_inconsistent_system_raises(field):
    rng = random.Random(8)
    A = _random_matrix(rng, field, 3, 2)
    A[2] = [a + b for a, b in zip(A[0], A[1])]
    b = [random_element(rng, field) for _ in range(3)]
    b[2] = b[0] + b[1] + 1
    with pytest.raises(SingularError):
        solve_consistent(field, A, b)
