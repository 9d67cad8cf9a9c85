"""Block circulant matrices, representers, and the Vandermonde verifier.

The exact path never touches a complex root of unity: recovering blocks from
a representer folds exponents mod n, and products of block circulants fold
the product of representers mod t^n - 1.  The complex block-Vandermonde
diagonalization exists only as a numeric cross-check at configurable
precision.
"""

from __future__ import annotations

from typing import List

from .errors import ParseError, check_cover_order
from .laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from .linalg import mat_add, mat_mul
from .numberfield import FieldElement, NumberField
from .rootsum import ratfun_mod_cyclic


class BlockCirculant:
    """n-tuple of N x N field-element blocks; the first block-row.

    The full matrix has (a, b) block equal to blocks[(b - a) mod n].
    """

    __slots__ = ("field", "n", "block_size", "blocks")

    def __init__(self, field: NumberField, blocks: List[List[List[FieldElement]]]):
        if not blocks:
            raise ParseError("need at least one block")
        self.field = field
        self.n = len(blocks)
        self.block_size = len(blocks[0])
        for blk in blocks:
            if len(blk) != self.block_size or any(len(r) != self.block_size for r in blk):
                raise ParseError("blocks must be square and equally sized")
        self.blocks = blocks

    # -- exact structure ----------------------------------------------------

    @classmethod
    def from_representer(cls, rep: LaurentMatrix, n: int) -> "BlockCirculant":
        """Fold the exponents of a matrix polynomial mod n.

        This realizes the inverse-DFT reconstruction of the blocks from the
        representer evaluations exactly, because summing w^{ik} r(w^k) over k
        picks out the coefficient matrices with exponent = i mod n.
        """
        check_cover_order(n)
        field = rep.field
        N = rep.rows
        if rep.cols != N:
            raise ParseError("representer must be square")
        zero = field.zero()
        blocks = [[[zero for _ in range(N)] for _ in range(N)] for _ in range(n)]
        for k in rep.exponents():
            coeff = rep.coefficient_matrix(k)
            target = blocks[k % n]
            for i in range(N):
                for j in range(N):
                    target[i][j] = target[i][j] + coeff[i][j]
        return cls(field, blocks)

    def representer(self) -> LaurentMatrix:
        """r(t) = C_0 + C_1 t + ... + C_{n-1} t^{n-1}."""
        N = self.block_size
        entries = []
        for i in range(N):
            row = []
            for j in range(N):
                coeffs = {k: self.blocks[k][i][j] for k in range(self.n)}
                row.append(LaurentPolynomial(self.field, coeffs))
            entries.append(row)
        return LaurentMatrix(self.field, entries)

    def __eq__(self, other):
        return (isinstance(other, BlockCirculant) and self.n == other.n
                and self.block_size == other.block_size
                and self.blocks == other.blocks)

    def __mul__(self, other: "BlockCirculant") -> "BlockCirculant":
        if not isinstance(other, BlockCirculant):
            return NotImplemented
        if (self.n, self.block_size) != (other.n, other.block_size):
            raise ParseError("size mismatch")
        n, N = self.n, self.block_size
        zero_block = [[self.field.zero() for _ in range(N)] for _ in range(N)]
        out = [ [ [self.field.zero() for _ in range(N)] for _ in range(N)]
                for _ in range(n)]
        for a in range(n):
            for b in range(n):
                prod = mat_mul(self.blocks[a], other.blocks[b])
                out[(a + b) % n] = mat_add(out[(a + b) % n], prod)
        return BlockCirculant(self.field, out)

    def to_full(self):
        """Expand into the (nN) x (nN) field matrix."""
        n, N = self.n, self.block_size
        out = [[self.field.zero() for _ in range(n * N)] for _ in range(n * N)]
        for a in range(n):
            for b in range(n):
                blk = self.blocks[(b - a) % n]
                for i in range(N):
                    for j in range(N):
                        out[a * N + i][b * N + j] = blk[i][j]
        return out

    def entry(self, row: int, col: int) -> FieldElement:
        N = self.block_size
        a, i = divmod(row, N)
        b, j = divmod(col, N)
        return self.blocks[(b - a) % self.n][i][j]


def cover_blocks_from_symbolic(pi_matrix, n: int, field: NumberField,
                               pi0=None, pi1=None) -> BlockCirculant:
    """Block circulant image of a symbolic matrix in F[t]/(t^n - 1).

    The block circulants form an algebra isomorphic to matrix polynomials
    mod t^n - 1 via blocks <-> representer coefficients, so the cover value
    of any matrix function is obtained by folding its entries; block c is
    the coefficient of t^c.  When pi0 is supplied (the flow-value-0
    propagator differs from Pi(1)), every block picks up (pi0 - Pi(1))/n,
    with Pi(1) evaluated here when pi1 is not passed.  Each entry is folded
    on its own by rootsum.ratfun_mod_cyclic, the extended Euclid against
    t^n - 1, so these blocks share no code with the integer images of the
    flow formula and check them as an oracle.
    """
    check_cover_order(n)
    matrix = [[RationalFunction.from_poly(e) if isinstance(e, LaurentPolynomial)
               else e for e in row] for row in pi_matrix]
    folded = [[ratfun_mod_cyclic(e, n) for e in row] for row in matrix]
    if pi0 is not None:
        if pi1 is None:
            pi1 = [[e.eval(field.one()) for e in row] for row in matrix]
        folded = [[[c + (pi0[i][j] - pi1[i][j]) / n for c in image]
                   for j, image in enumerate(row)] for i, row in enumerate(folded)]
    N = len(matrix)
    blocks = [[[folded[i][j][c] for j in range(N)] for i in range(N)]
              for c in range(n)]
    return BlockCirculant(field, blocks)


def block_diagonalize_check(C: BlockCirculant, precision_digits: int = 50):
    """Numerically conjugate by the block Vandermonde matrix.

    Returns (off_block_residual, diagonal_deviation): the largest absolute
    value outside the n diagonal N x N blocks of V C V^{-1}, and the largest
    deviation of diagonal block k from the representer evaluated at w^k.
    """
    import mpmath
    n, N = C.n, C.block_size
    with mpmath.workdps(precision_digits + 10):
        w = mpmath.e ** (2j * mpmath.pi / n)
        size = n * N
        full = mpmath.zeros(size, size)
        for a in range(n):
            for b in range(n):
                blk = C.blocks[(b - a) % n]
                for i in range(N):
                    for j in range(N):
                        full[a * N + i, b * N + j] = blk[i][j].to_mpc(precision_digits)
        # Vandermonde in w^{-1} so that diagonal block k comes out as r(w^k)
        V = mpmath.zeros(size, size)
        for a in range(n):
            for b in range(n):
                val = w ** (-a * b)
                for i in range(N):
                    V[a * N + i, b * N + i] = val
        # V^{-1} = conj(V)/n for the DFT block structure
        Vinv = mpmath.zeros(size, size)
        for a in range(n):
            for b in range(n):
                val = w ** (a * b) / n
                for i in range(N):
                    Vinv[a * N + i, b * N + i] = val
        P = V * full * Vinv
        off = mpmath.mpf(0)
        diag_dev = mpmath.mpf(0)
        rep = C.representer()
        for k in range(n):
            # representer at w^k
            rk = mpmath.zeros(N, N)
            for i in range(N):
                for j in range(N):
                    for e, coeff in rep.entries[i][j].coeffs.items():
                        rk[i, j] += coeff.to_mpc(precision_digits) * w ** (e * k)
            for i in range(N):
                for j in range(N):
                    diag_dev = max(diag_dev, abs(P[k * N + i, k * N + j] - rk[i, j]))
        for r in range(size):
            for c in range(size):
                if r // N == c // N:
                    continue
                off = max(off, abs(P[r, c]))
        return off, diag_dev
