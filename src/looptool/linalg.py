"""Small exact linear algebra helpers over FieldElement matrices.

Matrices are plain lists of lists.  The consistent solve of a rank-deficient
system runs one Gauss-Jordan routine with exact field division.
The square solve writes the system over Z through the regular representation
of the field (`integer_system`); `solve_integer` then takes one of two routes
by size.  A system of at most FRACTION_FREE_MAX unknowns (knot-table rows,
8 x 8 for 4_1 at loop 3; bundle denominators) is one fraction-free
elimination with back substitution (`numberfield.bareiss`) over Z.  Its cost
grows with the determinant, which is where the solutions of those systems
live anyway: a row's solution has the cyclic resultant det M_u as its
denominator.  A larger system lifts p-adically (Dixon, Numer. Math. 40,
1982), which is output-sensitive: it factors the integer matrix once modulo
a 61-bit prime (LU, which serves as the inverse mod p) and recovers the
solution from its p-adic digits by rational reconstruction, so its cost
grows with the bit size of the solution, not with that of the determinant.
That wins on reconstruction systems (at least 10 unknowns, small planted
solutions) and on the 24 x 24 rows of 5_2 at loop 3;
`scripts/solve_sweep.py` times both routes.  The LU (`_ModularLU`) packs
each row into one integer of fixed-width slots, one per column, wide enough
(2 bitlen(p) + bitlen(n) + 1 bits) for the fewer than n unreduced updates of
at most (p - 1) p that a slot starting below p takes before it is read; each
row update is then one big-integer multiply-add.  Callers that already hold
an integer system pass it to `solve_integer` directly: knot-table rows over
Q (`rootsum`), and reconstruction, whose system
`powersum.reconstruction_system` writes over Z from its monomials, so that
no field-element matrix is built and `integer_system` does not run;
`field_vector` reads an answer back over the field.  The rare larger
systems singular modulo every listed prime go to `bareiss` as well.  Either
route's answer is checked exactly against M x = rhs.  Gauss-Jordan over the
field stays the oracle of the square solve (`solve_gauss_jordan`).
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from operator import floordiv, mul

from .errors import CrossCheckError, MathDomainError, SingularError
from .numberfield import FieldElement, NumberField, bareiss

#: Moduli of the p-adic solve.  The later ones are used only when the integer
#: system is singular modulo every one before them.
PRIMES = ((1 << 61) - 1, (1 << 61) - 31, (1 << 61) - 45, (1 << 61) - 229)

#: Largest number of unknowns that `solve_integer` sends to `bareiss` instead
#: of Dixon's lifting.  `scripts/solve_sweep.py` (seed 1, median of 5 calls on
#: a shared 2-vCPU host, two runs; Dixon's time over that of `bareiss`): the
#: 8 x 8 systems of 4_1 rows at loop 3 give 1.1-4.5 for n = 10..2000 and the
#: 3- and 6-unknown reconstruction systems 1.4-2.8; the 10-unknown
#: reconstruction systems give 0.84-0.94 and the 24-unknown 5_2 rows at
#: loop 3 0.26-1.0 (the 12-unknown rows at loop 2 are mixed).  So 8 is the
#: largest size at which `bareiss` wins on every system of the package
#: measured.  Dense systems show why: with a solution as large as the
#: determinant allows, `bareiss` wins at every m <= 16 and 16 to 1024 bits,
#: but with a small planted solution Dixon stops early and wins from
#: m = 12-13, 8-9, 5 and 2-3 at 16, 64, 256 and 1024 bits.
FRACTION_FREE_MAX = 8


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


def solve(field: NumberField, A, b):
    """Solve the square system A x = b exactly; raises SingularError.

    `solve_integer` on the integer system, whose answer is checked exactly;
    see the module docstring.
    """
    _check_square(A, b)
    return field_vector(field, *solve_integer(*integer_system(field, A, b)))


def field_vector(field: NumberField, num, den: int):
    """The field elements whose coordinate j of element k is
    num[k d + j] / den: a solution of `solve_integer` read back over the
    field, in the unknown order of `integer_system`."""
    d = field.degree
    return [FieldElement._from_integers(field, num[k:k + d], den)
            for k in range(0, len(num), d)]


def _check_square(A, b) -> int:
    """The size n of the square system A x = b; raises MathDomainError on
    any other shape."""
    n = len(A)
    if any(len(row) != n for row in A) or len(b) != n:
        raise MathDomainError(f"solve needs a square system and one right-hand "
                              f"side per row, got {n} rows of lengths "
                              f"{sorted({len(row) for row in A})} and {len(b)} "
                              f"right-hand sides")
    return n


def solve_integer(M, rhs):
    """(numerators, common positive denominator) of the solution of the
    square integer system M x = rhs; raises SingularError.

    A system of at most FRACTION_FREE_MAX unknowns, or one singular modulo
    every prime of PRIMES, goes to `bareiss` over Z, whose last column is
    D x for the last pivot D; any other to Dixon's lifting modulo the first
    prime that leaves M nonsingular.  Either answer is checked exactly
    against M x = rhs.
    """
    n = _check_square(M, rhs)
    if n > FRACTION_FREE_MAX:
        for p in PRIMES:
            try:
                lu = _ModularLU(M, p)
            except SingularError:
                continue
            return _dixon(M, rhs, lu)
    return _fraction_free(M, rhs)


def _fraction_free(M, rhs):
    """`solve_integer` by one `bareiss` of [M | rhs] over Z: the last column
    ends as D x, D the last pivot; the reduced answer is checked exactly."""
    n = len(M)
    if not n:
        return [], 1
    aug = [list(row) + [v] for row, v in zip(M, rhs)]
    pivots, den, _ = bareiss(aug, n, floordiv)
    if len(pivots) < n:
        raise SingularError("singular linear system")
    num = [row[n] for row in aug]
    g = gcd(den, *num)
    if den < 0:
        g = -g
    num, den = [v // g for v in num], den // g
    for i, (row, v) in enumerate(zip(M, rhs)):
        if sum(map(mul, row, num)) != den * v:
            raise CrossCheckError(f"fraction-free solve of a {n}x{n} integer system "
                                  f"fails the exact check at row {i}")
    return num, den


def solve_gauss_jordan(field: NumberField, A, b):
    """The square solve by Gauss-Jordan over the field; the oracle of `solve`."""
    n = _check_square(A, b)
    aug = [list(row) + [b[i]] for i, row in enumerate(A)]
    if len(_gauss_jordan(aug, n)) < n:
        raise SingularError("singular linear system")
    return [row[n] for row in aug]


def integer_system(field: NumberField, A, b):
    """A x = b as a (d n) x (d n) system over Z: each field equation becomes
    d rational ones through the regular representation
    (`NumberField.integer_rows`), and each rational equation is scaled to
    coprime integers.  Unknown k*d + j is coordinate j of x_k."""
    M, rhs = [], []
    for row, target in zip(A, b):
        rows, common = field.integer_rows(row, target)
        for eq in rows:
            g = gcd(common, *eq)
            if g > 1:
                eq = [v // g for v in eq]
            rhs.append(eq.pop())
            M.append(eq)
    return M, rhs


class _ModularLU:
    """P M = L U modulo the prime p, with row pivoting; `solve` returns
    M^-1 v mod p in O(n^2) operations for each new right-hand side.

    The pivot of column c is the first row at or below c that is nonzero
    mod p.  `perm[c]` is the row of M moved to row c, `lower[i]` the i
    multipliers of row i in column order, `upper[c]` the entries of U right
    of the diagonal, all reduced mod p, and `pivot_inverses[c]` the inverse
    of U's diagonal entry.

    During the elimination each remaining row is one integer: slot j, bits
    j w to (j + 1) w, holds the entry in column c + j as a nonnegative
    integer that is reduced only when it is read.  Eliminating column c
    reads a row's low slot for its multiplier f and sets
    row = (row >> w) + f * T, where slot j of T is p - u_j for the pivot
    row's reduced tail u; this adds f (p - u_j) = f (-u_j) mod p to each
    slot at once.  A slot starts below p and takes fewer than n such
    additions of at most (p - 1) p before it is read, so it stays below
    n p^2 < 2^(2 bitlen(p) + bitlen(n)) and never carries into the next
    slot when w = 2 bitlen(p) + bitlen(n) + 1, rounded up to whole bytes.
    Only the pivot row is unpacked, so the interpreter does O(n^2) work and
    the O(n^3) arithmetic runs inside the big-integer code.
    """

    def __init__(self, M, p: int):
        n = len(M)
        size = (2 * p.bit_length() + n.bit_length() + 8) // 8  # bytes per slot
        width = 8 * size
        low = (1 << width) - 1
        from_bytes = int.from_bytes
        rows = [from_bytes(b"".join([(x % p).to_bytes(size, "little") for x in row]),
                           "little")
                for row in M]
        perm = list(range(n))
        # the multipliers live beside their row, so row swaps carry them along
        lower = [[] for _ in range(n)]
        upper, inverses = [], []
        for c in range(n):
            for r in range(c, n):
                pivot = (rows[r] & low) % p
                if pivot:
                    break
            else:
                raise SingularError(f"singular modulo {p}")
            if r != c:
                rows[c], rows[r] = rows[r], rows[c]
                lower[c], lower[r] = lower[r], lower[c]
                perm[c], perm[r] = perm[r], perm[c]
            inv = pow(pivot, -1, p)
            inverses.append(inv)
            if c + 1 == n:
                upper.append([])
                break
            end = (n - c) * size
            raw = rows[c].to_bytes(end, "little")
            tail = [from_bytes(raw[j:j + size], "little") % p for j in range(size, end, size)]
            upper.append(tail)
            neg = from_bytes(b"".join([(p - u).to_bytes(size, "little") for u in tail]),
                             "little")
            for i in range(c + 1, n):
                row = rows[i]
                f = (row & low) * inv % p
                lower[i].append(f)
                rows[i] = (row >> width) + f * neg if f else row >> width
        self.p = p
        self.perm = perm
        self.lower = lower
        self.upper = upper
        self.pivot_inverses = inverses

    def solve(self, v):
        p = self.p
        y = []
        for i, row in zip(self.perm, self.lower):
            y.append((v[i] - sum(map(mul, row, y))) % p)
        x = [0] * len(y)
        for c in range(len(y) - 1, -1, -1):
            x[c] = ((y[c] - sum(map(mul, self.upper[c], x[c + 1:])))
                    * self.pivot_inverses[c] % p)
        return x


def _step_cap(M, rhs, p: int) -> int:
    """Lifting steps after which p^steps > 2 B^2, with B the Hadamard bound
    on |det M| and on every Cramer numerator; rational reconstruction with
    both bounds sqrt(p^steps / 2) is then certain to find the solution.
    A column of n entries below 2^m has norm below 2^(m + log2(n) / 2)."""
    half_log_n = (len(M).bit_length() + 1) // 2

    def norm_bits(col):
        return max(map(abs, col), default=0).bit_length() + half_log_n

    bits = sum(map(norm_bits, zip(*M))) + norm_bits(rhs)
    return (2 * bits + 2) // (p.bit_length() - 1) + 1


def _dixon(M, rhs, lu: _ModularLU):
    """Numerators and common denominator of the solution of M x = rhs, given
    M = L U mod p.  Step k adds the digit x_k = M^-1 r_k mod p and updates
    the residue r_{k+1} = (r_k - M x_k) / p, exact over Z, so that
    M (x_0 + ... + x_k p^k) = rhs - p^(k+1) r_{k+1}.  The digits are combined
    and reconstructed only at step counts 1, 2, 4, ... and at the cap.  The
    residue is updated only when another digit is needed, and the cap
    (`_step_cap`) is computed only when the first attempt fails, so a
    system whose solution is read off its first digit pays for neither."""
    p = lu.p
    cap = None
    r = list(rhs)
    X = [0] * len(M)
    modulus = 1
    digits = []
    steps, attempt = 0, 1
    while True:
        x = lu.solve([v % p for v in r])
        digits.append(x)
        steps += 1
        if steps >= attempt:
            shift = p ** len(digits)
            block = digits.pop()
            while digits:
                block = [u * p + v for u, v in zip(block, digits.pop())]
            X = [u + modulus * v for u, v in zip(X, block)]
            modulus *= shift
            candidate = _rational_vector(X, modulus)
            if candidate is not None:
                num, den = candidate
                if all(sum(map(mul, row, num)) == den * v for row, v in zip(M, rhs)):
                    return num, den
            if cap is None:
                cap = _step_cap(M, rhs, p)
            if steps >= cap:
                raise CrossCheckError(f"p-adic solve of a {len(M)}x{len(M)} integer "
                                      f"system found no exact solution within its "
                                      f"Hadamard bound of {cap} steps mod {p}")
            attempt = min(2 * steps, cap)
        r = [(v - sum(map(mul, row, x))) // p for v, row in zip(r, M)]


def _rational_vector(X, modulus: int):
    """(numerators, common denominator) of a rational vector congruent to X
    modulo `modulus` whose entries have numerator and denominator at most
    sqrt(modulus / 2), or None.  Each entry is first multiplied by the common
    denominator of the entries before it; only when that leaves it large is
    it reconstructed on its own, and its denominator joins the common one."""
    bound = isqrt((modulus - 1) // 2)
    den = 1
    found = []
    for u in X:
        y = u * den % modulus
        if y > modulus - y:
            y -= modulus
        if -bound <= y <= bound:
            found.append((y, den))
            continue
        pair = _reconstruct(u, modulus, bound, bound)
        if pair is None:
            return None
        found.append(pair)
        den = lcm(den, pair[1])
    return [a * (den // e) for a, e in found], den


def _reconstruct(u: int, modulus: int, num_bound: int, den_bound: int):
    """(a, e) with a = e u mod `modulus`, |a| <= num_bound and
    0 < e <= den_bound, by the extended Euclid of (modulus, u); or None."""
    r0, r1 = modulus, u
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        r1, t1 = -r1, -t1
    if not 0 < t1 <= den_bound:
        return None
    return r1, t1


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
