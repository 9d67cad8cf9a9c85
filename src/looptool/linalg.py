"""Small exact linear algebra helpers over FieldElement matrices.

Matrices are plain lists of lists; everything runs Gaussian elimination with
exact field division, which is fine at the sizes this package needs.
"""

from __future__ import annotations

from .errors import MathDomainError, SingularError
from .numberfield import NumberField


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


def _gauss_jordan(aug, cols: int):
    """Reduce the first `cols` columns of the augmented matrix `aug` (a list
    of rows) in place to reduced row echelon form.  Each pivot is the first
    nonzero entry at or below the current row; returns the pivot columns,
    the i-th of which has its pivot, scaled to 1, in row i."""
    rows = len(aug)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if not aug[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        inv = aug[r][c].inverse()
        aug[r] = [e * inv for e in aug[r]]
        for i in range(rows):
            if i != r and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
    return pivots


def mat_inv(field: NumberField, A):
    """Inverse by Gauss-Jordan; raises SingularError on rank deficiency."""
    n = len(A)
    aug = [list(row) + unit for row, unit in zip(A, identity(field, n))]
    if len(_gauss_jordan(aug, n)) < n:
        raise SingularError("singular matrix")
    return [row[n:] for row in aug]


def solve(field: NumberField, A, b):
    """Solve the square system A x = b exactly; raises SingularError."""
    n = len(A)
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    if len(_gauss_jordan(aug, n)) < n:
        raise SingularError("singular linear system")
    return [row[n] for row in aug]


def solve_consistent(field: NumberField, A, b):
    """Any exact solution of a possibly rank-deficient consistent system.

    Returns a solution vector with free variables set to zero, or raises
    SingularError if the system is inconsistent.
    """
    cols = len(A[0])
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    pivots = _gauss_jordan(aug, cols)
    if any(not row[cols].is_zero() for row in aug[len(pivots):]):
        raise SingularError("inconsistent linear system")
    x = [field.zero()] * cols
    for row, c in zip(aug, pivots):
        x[c] = row[cols]
    return x
