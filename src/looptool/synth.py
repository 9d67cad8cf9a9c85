r"""Seeded random generators for valid synthetic inputs.

Random twisted gluing data is built as A(t) = B(t) S(t) where S(1/t) = S(t)^T
and B(t) = U diag(t-1, 1, ..., 1) W with U, W unimodular over Z[t^{\pm 1}];
this enforces the inversion symmetry and the t-1 factor of det B by
construction, so every sample passes validation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .diagrams import VertexFactorTable
from .errors import LoopToolError, MathDomainError
from .laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from .numberfield import NumberField, QQ
from .nzdata import TwistedNZData
from .rootsum import cyclic_resultant


def random_laurent_matrix(rng: random.Random, field: NumberField, n: int,
                          span=(-1, 2), lo=-3, hi=3) -> LaurentMatrix:
    return LaurentMatrix.from_rows(field, [
        [LaurentPolynomial(field, {k: rng.randint(lo, hi) for k in range(*span)})
         for _ in range(n)] for _ in range(n)])


def random_symmetric_propagator(rng: random.Random, N: int, span: int = 2):
    """Pi(t) = M(t) + M(1/t)^T with random integer M; satisfies
    Pi(1/t) = Pi(t)^T and Pi(1) symmetric."""
    M = random_laurent_matrix(rng, QQ, N, (-span, span + 1))
    S = M + M.invert_variable().transpose()
    return [[RationalFunction.from_poly(S.entries[i][j]) for j in range(N)]
            for i in range(N)]


def _unimodular(rng: random.Random, field: NumberField, n: int,
                steps: int = 4) -> LaurentMatrix:
    M = LaurentMatrix.identity(field, n)
    entries = [row[:] for row in M.entries]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        k = rng.choice([-1, 0, 1])
        # row_i += c * t^k * row_j
        mono = LaurentPolynomial(field, {k: c})
        entries[i] = [entries[i][m] + mono * entries[j][m] for m in range(n)]
    return LaurentMatrix(field, entries)


def random_nz_data(rng: random.Random, N: int, regular_orders=()) -> TwistedNZData:
    """Random valid twisted gluing data with rational shapes.

    `regular_orders` lists cover degrees n at which the one-loop polynomial
    must avoid n-th roots of unity (so the cover propagator exists there);
    random palindromic polynomials do hit cyclotomic roots occasionally.  A
    draw that the package rejects is redrawn; MathDomainError when 200 draws
    give no valid data.
    """
    field = QQ
    t_minus_1 = LaurentPolynomial(field, {1: 1, 0: -1})
    for _ in range(200):
        U = _unimodular(rng, field, N)
        W = _unimodular(rng, field, N)
        diag = LaurentMatrix.identity(field, N)
        entries = [row[:] for row in diag.entries]
        entries[0][0] = t_minus_1
        D = LaurentMatrix(field, entries)
        B = U * D * W
        M = random_laurent_matrix(rng, field, N, (-1, 2), -2, 2)
        S = M + M.invert_variable().transpose()
        A = B * S
        shapes = []
        for _ in range(N):
            while True:
                z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                if z not in (0, 1):
                    shapes.append(field.element(z))
                    break
        try:
            data = TwistedNZData(field, A, B, shapes)
            delta = data.twisted_one_loop()
            if delta.is_zero():
                continue
            # t^n - 1 is squarefree, so delta avoids the n-th roots of unity
            # exactly when its cyclic resultant is nonzero
            if not any(cyclic_resultant(delta, n).is_zero() for n in regular_orders):
                return data
        except LoopToolError:
            continue
    raise MathDomainError(f"no valid data with N = {N} in 200 draws")


def random_vertex_table(rng: random.Random, N: int, degrees,
                        grades=None) -> VertexFactorTable:
    factors = {d: [QQ.element(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                   for _ in range(N)] for d in degrees}
    return VertexFactorTable(factors, grades)
