"""Small exact linear algebra helpers over FieldElement matrices.

Matrices are plain lists of lists; everything runs Gaussian elimination with
exact field division, which is fine at the sizes this package needs.
"""

from __future__ import annotations

from .errors import MathDomainError, SingularError
from .numberfield import FieldElement, NumberField


def identity(field: NumberField, n: int):
    return [[field.one() if i == j else field.zero() for j in range(n)]
            for i in range(n)]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(A[0]), len(B[0])
    if inner != len(B):
        raise MathDomainError(f"cannot multiply {rows}x{inner} by {len(B)}x{cols}")
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                term = A[i][k] * B[k][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def transpose(A):
    return [list(col) for col in zip(*A)]


def is_symmetric(A) -> bool:
    n = len(A)
    return all(A[i][j] == A[j][i] for i in range(n) for j in range(i + 1, n))


def mat_inv(field: NumberField, A):
    """Inverse by Gauss-Jordan; raises SingularError on rank deficiency."""
    n = len(A)
    aug = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
           for i, row in enumerate(A)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not aug[i][k].is_zero()), None)
        if pivot_row is None:
            raise SingularError("singular matrix")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        inv = aug[k][k].inverse()
        aug[k] = [e * inv for e in aug[k]]
        for i in range(n):
            if i != k and not aug[i][k].is_zero():
                f = aug[i][k]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[k])]
    return [row[n:] for row in aug]


def solve(field: NumberField, A, b):
    """Solve the square system A x = b exactly; raises SingularError."""
    n = len(A)
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not aug[i][k].is_zero()), None)
        if pivot_row is None:
            raise SingularError("singular linear system")
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        inv = aug[k][k].inverse()
        aug[k] = [e * inv for e in aug[k]]
        for i in range(n):
            if i != k and not aug[i][k].is_zero():
                f = aug[i][k]
                aug[i] = [a - f * c for a, c in zip(aug[i], aug[k])]
    return [aug[i][n] for i in range(n)]


def solve_consistent(field: NumberField, A, b):
    """Any exact solution of a possibly rank-deficient consistent system.

    Returns a solution vector with free variables set to zero, or raises
    SingularError if the system is inconsistent.
    """
    rows, cols = len(A), len(A[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if not aug[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [e * inv for e in aug[r]]
        for i in range(rows):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * cc for a, cc in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if not aug[i][cols].is_zero():
            raise SingularError("inconsistent linear system")
    x = [field.zero()] * cols
    for i, c in enumerate(pivots):
        x[c] = aug[i][cols]
    return x
