"""Arbitrary-precision rationals and number-field arithmetic.

A number field is Q[xi]/(m(xi)) for a monic squarefree m with rational
coefficients.  Its elements live on the power basis of the algebraic
integer theta = c xi, c the lcm of the denominators of m, whose minimal
polynomial c^(d-k) m_k is integral (Cohen, A Course in Computational
Algebraic Number Theory, 4.2; theta = xi when m is integral): d integer
numerators of the coordinates in 1, theta, ..., theta^(d-1) over one
positive common denominator in lowest terms.  Coordinates in the powers of
xi exist only at the boundary (`NumberField.element` and
`FieldElement(field, coords)` in, `coords` out).  A sum reduces only by
g = gcd of the two denominators, the one factor that can divide its
content (Knuth, TAOCP vol. 2, 4.5.1); a product is one integer convolution,
folded back through the integer rows of theta^d, ..., theta^(2d-2), then
one content gcd.  That integer product is `NumberField._mul_numerators`,
over 1 like its operands.  An inverse is the adjugate kernel
(`NumberField._adjugate`: the numerators of det y^-1 and det), one run of
`bareiss`, the package's one fraction-free elimination, on the integer
matrix of multiplication.  A quadratic field replaces both with closed
forms when it is built; `Numerators` is the field's ring of numerators kept
over one denominator.  The same matrices, side by side over one denominator
(`NumberField.integer_rows`), are the one encoding over Z of every system
over the field.  All values are immutable, so elements are safe to share
across threads.

Complex embeddings are certified: every approximate root of m carries an
isolation radius r such that the disk of radius r around the approximation
contains exactly one root of m.  The radius bound used is the classical

    min_i |x - root_i|  <=  deg(m) * |m(x) / m'(x)|

which is evaluated in exact rational arithmetic on dyadic approximations
(mpmath floats convert to Fraction without rounding), so the enclosures are
rigorous, not heuristic.  `certified_roots` and `ComplexBall.to_mpc` import
mpmath in their own bodies, so exact arithmetic never loads it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import gcd, lcm
from operator import add, floordiv, mul, truediv
from typing import Iterable, Sequence

from .errors import CrossCheckError, ParseError, PrecisionUnreachable, ZeroInverse


def parse_rational(text) -> Fraction:
    """Parse a decimal-free "p/q" string (or int) into a Fraction."""
    if isinstance(text, bool):
        raise ParseError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        s = text.strip()
        if "." in s or "e" in s or "E" in s:
            raise ParseError(f"rationals must be decimal-free p/q strings, got {text!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {text!r}") from exc
    raise ParseError(f"not a rational: {text!r}")


def parse_int(value, what: str) -> int:
    """An integer given as a JSON int or a string of one; ParseError naming
    `what` otherwise."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def format_rational(q: Fraction) -> str:
    return str(Fraction(q))


# ---------------------------------------------------------------------------
# Dense univariate polynomials, as coefficient lists [c0, c1, ...] with no
# trailing zeros.  This is the one dense kernel of the package: it serves the
# Fraction coefficients of minimal polynomials here, the FieldElement
# coefficients of rootsum and laurent, and ints (rootsum's powers of t modulo
# a monic integer polynomial, divided without /).  It is generic over the
# coefficient ring and uses only + - * /, ==, truthiness and the `zero` and
# `one` the caller passes in.  `poly_series` is the one power-series loop
# (the generating series of powersum, the cofactor of rootsum's cyclic
# inverses over Z, the expansion at infinity of its residue forms); it takes
# the ring's exact division by den[0] from the caller instead of `one`.
# `bareiss`, the one exact elimination, is generic in the same way over
# ints, field elements and Laurent polynomials.
# ---------------------------------------------------------------------------

def poly_trim(p: list) -> list:
    while p and not p[-1]:
        p.pop()
    return p


def poly_mul(a: Sequence, b: Sequence, zero) -> list:
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
    return poly_trim(out)


def poly_divmod(a: Sequence, b: Sequence, zero, one):
    """(q, r) with a = q*b + r and deg r < deg b, for b without trailing zeros."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    db = len(b) - 1
    quo = [zero] * max(0, len(rem) - db)
    lead_inv = one if b[-1] == one else one / b[-1]
    while len(rem) > db:
        c = rem.pop()
        if c:
            c = c * lead_inv
            k = len(rem) - db
            quo[k] = c
            for i in range(db):
                rem[k + i] = rem[k + i] - c * b[i]
    return poly_trim(quo), poly_trim(rem)


def poly_series(num: Sequence, den: Sequence, count: int, zero, div) -> list:
    """The first `count` coefficients of the power series num/den in t, for
    den[0] != 0; `div(x, den[0])` is the ring's exact division, called once
    per coefficient in order."""
    lead, tail = den[0], den[1:]
    out = []
    for k in range(count):
        m = min(k, len(tail))
        s = sum(map(mul, tail[:m], reversed(out[k - m:])), zero)
        out.append(div((num[k] if k < len(num) else zero) - s, lead))
    return out


def poly_mulmod(a: Sequence, b: Sequence, m: Sequence, zero, one) -> list:
    return poly_divmod(poly_mul(a, b, zero), m, zero, one)[1]


def poly_t_power_mod(e: int, m: Sequence, zero, one) -> list:
    """t^e mod m by left-to-right binary powering."""
    out = poly_divmod([one], m, zero, one)[1]
    for bit in bin(e)[2:]:
        out = poly_mulmod(out, out, m, zero, one)
        if bit == "1":
            out = poly_divmod([zero] + out, m, zero, one)[1]
    return out


def poly_invmod(a: Sequence, m: Sequence, zero, one):
    """Inverse of a modulo m, for deg a < deg m, or None when they have a
    common factor.  Extended Euclid with each remainder made monic, which
    keeps the rational coefficients of the remainders small."""
    r0, r1 = m, poly_trim(list(a))
    s0, s1 = [], [one]
    while r1:
        lead_inv = one / r1[-1]
        r1 = [c * lead_inv for c in r1]
        s1 = [c * lead_inv for c in s1]
        q, r = poly_divmod(r0, r1, zero, one)
        r0, r1 = r1, r
        # s_new = s0 - q*s1
        qs1 = poly_mul(q, s1, zero)
        s_new = s0 + [zero] * (len(qs1) - len(s0))
        for i, c in enumerate(qs1):
            s_new[i] = s_new[i] - c
        s0, s1 = s1, poly_trim(s_new)
    # the last remainder r0 is monic: the inverse exists iff it is 1
    return s0 if len(r0) == 1 else None


def _poly_deriv(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def bareiss(aug: list, cols: int, div):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the first
    `cols` columns of the rows `aug`, in place (rows are replaced, never
    mutated), over an integral domain whose exact division is `div`.  Returns
    (pivot columns, D or None, sign of the row swaps), D the last pivot (sign
    * det for a nonsingular square block).  When the pivots are the first
    len(aug) columns (full row rank, no column skipped), the rows end as D
    times the reduced row echelon form.  Otherwise the rows are left as the
    forward pass leaves them, and only the pivots, D and the sign mean
    anything.

    Forward: the pivot is the first nonzero entry at or below the current
    row, and a column without one is skipped.  Each row below becomes
    (pivot * row - f * pivot row) / previous pivot in the columns right of
    the pivot only; the division is exact because every entry is then a
    minor of the input (Sylvester's identity), and the k-th pivot is the
    leading k x k minor on the pivot rows and columns.

    Back: with U the leading r x r block (upper triangular, diagonal
    p_1, ..., p_r = D) and u a later column,
    y = D U^-1 u is that column of D times the echelon form, so
    y_i = (D u_i - sum_(k > i) U_ik y_k) / p_i from the bottom row up
    (y_r = u_r).  Each y_i is an r x r minor of the input, so this division
    is exact too."""
    rows = len(aug)
    pivots, prev, sign = [], None, 1
    base = 0  # rows r, r + 1, ... hold their entries from column `base` on
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        j = c - base
        for p in range(r, rows):
            if aug[p][j]:
                break
        else:
            continue
        if p != r:
            aug[r], aug[p] = aug[p], aug[r]
            sign = -sign
        top = aug[r]
        pivot = top[j]
        right = top[j + 1:]
        for i in range(r + 1, rows):
            row = aug[i]
            f = row[j]
            if prev is None:
                aug[i] = [pivot * x - f * y for x, y in zip(row[j + 1:], right)]
            else:
                aug[i] = [div(pivot * x - f * y, prev) for x, y in zip(row[j + 1:], right)]
        pivots.append(c)
        base, prev = c + 1, pivot
    rank = len(pivots)
    if prev is None or rank < rows or pivots[-1] != rank - 1:
        return pivots, prev, sign
    zero = prev - prev
    zeros, ys = [zero] * rank, []  # ys: the free entries of rows i + 1, i + 2, ...
    for i in range(rank - 1, -1, -1):
        row = aug[i]
        if ys:
            diag, upper = row[0], row[1:rank - i]
            y = [div(prev * x - sum(map(mul, upper, col), zero), diag)
                 for x, col in zip(row[rank - i:], zip(*ys))]
        else:
            y = row[1:]
        ys.insert(0, y)
        out = zeros + y
        out[i] = prev
        aug[i] = out
    return pivots, prev, sign


# ---------------------------------------------------------------------------
# Exact complex rational arithmetic (re, im) pairs, used by the certifier.
# ---------------------------------------------------------------------------

def _c_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _c_abs2(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _c_poly_eval(p: Sequence[Fraction], z):
    acc = (Fraction(0), Fraction(0))
    for c in reversed(p):
        acc = _c_mul(acc, z)
        acc = (acc[0] + c, acc[1])
    return acc


def _sqrt_shift(num: int, den: int) -> int:
    # keep ~128 significant bits in the integer square root so the bounds
    # have relative (not absolute) error ~2^-128
    deficit = 256 - (num.bit_length() - den.bit_length())
    return max(64, (deficit + 1) // 2 + 1)


def sqrt_upper(q: Fraction) -> Fraction:
    """Rational u with u*u >= q >= 0, tight to ~128 bits."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    shift = _sqrt_shift(num, den)
    n = (num << (2 * shift)) // den + 1
    r = math.isqrt(n) + 1
    return Fraction(r, 1 << shift)


def sqrt_lower(q: Fraction) -> Fraction:
    """Rational u >= 0 with u*u <= q, tight to ~128 bits."""
    if q <= 0:
        return Fraction(0)
    num, den = q.numerator, q.denominator
    shift = _sqrt_shift(num, den)
    n = (num << (2 * shift)) // den
    r = math.isqrt(n)
    return Fraction(r, 1 << shift)


def _mpf_to_fraction(x) -> Fraction:
    """Exact conversion; mpmath floats are dyadic rationals."""
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = x._mpf_
    val = Fraction(man, 1)
    val = val * (Fraction(2) ** exp)
    return -val if sign else val


class ComplexBall:
    """Closed disk with exact rational center and radius.

    Addition and multiplication are outward-rounded in exact arithmetic, so a
    ball computed from enclosures of inputs encloses the true result.
    """

    __slots__ = ("re", "im", "radius")

    def __init__(self, re, im, radius=Fraction(0)):
        self.re = Fraction(re)
        self.im = Fraction(im)
        self.radius = Fraction(radius)
        if self.radius < 0:
            raise ValueError("negative radius")

    def __repr__(self):
        return f"ComplexBall({self.re}, {self.im}, r={self.radius})"

    def __add__(self, other):
        other = _as_ball(other)
        return ComplexBall(self.re + other.re, self.im + other.im,
                           self.radius + other.radius)

    def __mul__(self, other):
        other = _as_ball(other)
        c = _c_mul((self.re, self.im), (other.re, other.im))
        r = (sqrt_upper(_c_abs2((self.re, self.im))) * other.radius
             + sqrt_upper(_c_abs2((other.re, other.im))) * self.radius
             + self.radius * other.radius)
        return ComplexBall(c[0], c[1], r)

    __radd__ = __add__
    __rmul__ = __mul__

    def abs_upper(self) -> Fraction:
        return sqrt_upper(_c_abs2((self.re, self.im))) + self.radius

    def abs_lower(self) -> Fraction:
        lo = sqrt_lower(_c_abs2((self.re, self.im))) - self.radius
        return lo if lo > 0 else Fraction(0)

    def to_mpc(self):
        import mpmath
        return mpmath.mpc(mpmath.mpf(self.re.numerator) / self.re.denominator,
                          mpmath.mpf(self.im.numerator) / self.im.denominator)


def _as_ball(x) -> ComplexBall:
    if isinstance(x, ComplexBall):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexBall(Fraction(x), Fraction(0))
    raise TypeError(f"cannot interpret {x!r} as a ball")


# ---------------------------------------------------------------------------
# Number fields
# ---------------------------------------------------------------------------

_MAX_CERTIFY_ATTEMPTS = 8


class NumberField:
    """Q[xi]/(m(xi)) with a preferred complex embedding.

    `root_index` indexes the roots of m sorted by (real part, imaginary
    part) of their certified approximations and selects the embedding used
    by numeric routines.
    """

    def __init__(self, minpoly: Iterable, root_index: int = 0):
        coeffs = [parse_rational(c) for c in minpoly]
        poly_trim(coeffs)
        if len(coeffs) < 2:
            raise ParseError("minpoly must have degree >= 1")
        if coeffs[-1] != 1:
            raise ParseError("minpoly must be monic")
        # m is squarefree iff m' is a unit mod m
        if poly_invmod(_poly_deriv(coeffs), coeffs, Fraction(0), Fraction(1)) is None:
            raise ParseError("minpoly must be squarefree")
        self.minpoly = tuple(coeffs)
        self.degree = len(coeffs) - 1
        if not 0 <= root_index < self.degree:
            raise ParseError(f"root_index {root_index} out of range for degree {self.degree}")
        self.root_index = root_index
        self._roots_cache: dict = {}
        # theta = c xi, c the lcm of the denominators of m, is an algebraic
        # integer: its minimal polynomial has the integer coefficients
        # c^(d-k) m_k.  Elements live on its power basis, where xi^i is
        # theta^i / c^i; _xi_dens holds those c^i (None when they are all 1).
        d = self.degree
        c = lcm(*(q.denominator for q in coeffs))
        self._xi_dens = None if c == 1 or d == 1 else tuple(c ** i for i in range(d))
        # the rows of theta^(d+k) for k = 0..d-2, so that products reduce by
        # table lookup: theta^(d+k+1) = theta * theta^(d+k) with the
        # overflow folded back through the theta^d row
        low = [-(q * c ** (d - k)).numerator for k, q in enumerate(coeffs[:-1])]
        self._int_rows = [low]
        for _ in range(d - 2):
            row = self._int_rows[-1]
            top = row[-1]
            self._int_rows.append([top * low[0]] + [a + top * m for a, m in zip(row, low[1:])])
        self._pad = (0,) * (d - 1)
        self._zero = _make(self, (0,) + self._pad, 1)
        self._one = _make(self, (1,) + self._pad, 1)
        # closed forms replace the generic product and adjugate methods
        if d == 2:
            self._mul_numerators, self._adjugate = _quadratic_kernels(*low)
        self.ring = Numerators(self)

    def _mult_columns(self, num) -> list:
        """Numerators of a, a theta, ..., a theta^(d-1) for the element a
        with numerators `num`, each over 1: the matrix of multiplication by
        a in the power basis, column by column."""
        low = self._int_rows[0]
        col = list(num)
        out = [col]
        for _ in range(self.degree - 1):
            top = col[-1]
            col = [top * low[0]] + [c + top * m for c, m in zip(col, low[1:])]
            out.append(col)
        return out

    def integer_rows(self, elements, target=None) -> tuple:
        """(rows, den): the d integer rows of the block row
        [M(e_1) | ... | M(e_k)] over one positive denominator den, with the
        coordinate column of `target` last when one is given.  M(e) is the
        matrix of multiplication by e in the power basis of theta (column j
        holds the coordinates of e theta^j).  Elements may be ints, Fractions
        or elements of Q."""
        zero, k = self._zero, len(elements)
        items = [e if e.__class__ is FieldElement and e.field is self else zero + e
                 for e in (elements if target is None else [*elements, target])]
        den = lcm(*(e.den for e in items))
        columns = []
        for e in items[:k]:
            f = den // e.den
            cols = self._mult_columns(e.num)
            columns.extend(cols if f == 1 else [[v * f for v in col] for col in cols])
        if target is not None:
            f = den // items[k].den
            columns.append([v * f for v in items[k].num])
        rows = [list(row) for row in zip(*columns)] if columns else [[] for _ in range(self.degree)]
        return rows, den

    def _mul_numerators(self, x, y) -> list:
        """Numerators over 1 of the product of the elements with numerators
        x and y over 1: one integer convolution, the powers
        theta^d ... theta^(2d-2) folded back through the integer rows.  A
        quadratic field replaces it with a closed form
        (`_quadratic_kernels`)."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    conv[j] += a * b
        out = conv[:d]
        for v, row in zip(conv[d:], self._int_rows):
            if v:
                for i, r in enumerate(row):
                    out[i] += v * r
        return out

    def _adjugate(self, y) -> tuple:
        """(w, D) with w / D the inverse of the element with numerators y
        over 1, for D != 0: one `bareiss` of [M | e_0] for the integer
        matrix M of multiplication by y, whose last column ends as D times
        the solution, D the last pivot.  ZeroInverse when M is singular.  A
        quadratic field replaces it with a closed form
        (`_quadratic_kernels`)."""
        d = self.degree
        cols = self._mult_columns(y)
        aug = [[col[i] for col in cols] + [int(i == 0)] for i in range(d)]
        pivots, last, _ = bareiss(aug, d, floordiv)
        if len(pivots) < d:
            raise ZeroInverse("element not invertible; minpoly not squarefree?")
        return [row[d] for row in aug], last

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self.root_index == other.root_index)

    def __hash__(self):
        return hash((self.minpoly, self.root_index))

    def __repr__(self):
        return f"NumberField({[str(c) for c in self.minpoly]}, root_index={self.root_index})"

    # -- element constructors --------------------------------------------------

    def element(self, coords) -> "FieldElement":
        if type(coords) is int:
            return _make(self, (coords,) + self._pad, 1)
        if isinstance(coords, (int, Fraction, str)):
            q = parse_rational(coords)
            return _make(self, (q.numerator,) + self._pad, q.denominator)
        coords = [parse_rational(c) for c in coords]
        if len(coords) > self.degree:
            raise ParseError(f"expected at most {self.degree} coordinates")
        if len(coords) == 1:
            return self.element(coords[0])
        return FieldElement(self, coords + [0] * (self.degree - len(coords)))

    def zero(self) -> "FieldElement":
        return self._zero

    def one(self) -> "FieldElement":
        return self._one

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            return self.element(-self.minpoly[0])
        return self.element([0, 1])

    # -- certified roots -------------------------------------------------------

    def certified_roots(self, precision_digits: int) -> list:
        """All roots of minpoly as pairwise-disjoint certified balls."""
        adequate = [p for p in self._roots_cache if p >= precision_digits]
        if adequate:
            return self._roots_cache[min(adequate)]
        import mpmath
        target = Fraction(1, 10 ** precision_digits)
        dps = max(30, 2 * precision_digits + 20)
        d = self.degree
        p = list(self.minpoly)
        dp = _poly_deriv(p)
        for _ in range(_MAX_CERTIFY_ATTEMPTS):
            with mpmath.workdps(dps):
                coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p)]
                try:
                    approx = mpmath.polyroots(coeffs, maxsteps=200, extraprec=dps)
                except mpmath.libmp.NoConvergence:
                    dps *= 2
                    continue
                centers = [(_mpf_to_fraction(r.real), _mpf_to_fraction(r.imag))
                           for r in approx]
            balls = []
            ok = True
            for z in centers:
                num = _c_poly_eval(p, z)
                dnm = _c_poly_eval(dp, z)
                lo = sqrt_lower(_c_abs2(dnm))
                if lo == 0:
                    ok = False
                    break
                radius = d * sqrt_upper(_c_abs2(num)) / lo
                if radius > target:
                    ok = False
                    break
                balls.append(ComplexBall(z[0], z[1], radius))
            if ok:
                for i in range(d):
                    for j in range(i + 1, d):
                        sep2 = _c_abs2((balls[i].re - balls[j].re,
                                        balls[i].im - balls[j].im))
                        rr = balls[i].radius + balls[j].radius
                        if sep2 <= rr * rr:
                            ok = False
            if ok:
                balls.sort(key=lambda b: (b.re, b.im))
                self._roots_cache[precision_digits] = balls
                return balls
            dps *= 2
        raise PrecisionUnreachable(
            f"could not isolate roots of {list(self.minpoly)} to {precision_digits} digits")

    def root_ball(self, root_index=None, precision_digits: int = 30) -> ComplexBall:
        idx = self.root_index if root_index is None else root_index
        roots = self.certified_roots(precision_digits)
        if not 0 <= idx < len(roots):
            raise ParseError(f"root index {idx} out of range")
        return roots[idx]

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        return {"minpoly": [format_rational(c) for c in self.minpoly],
                "root_index": self.root_index}

    @classmethod
    def from_json(cls, obj) -> "NumberField":
        if not isinstance(obj, dict) or not isinstance(obj.get("minpoly"), list):
            raise ParseError("field description needs a 'minpoly' list")
        return cls(obj["minpoly"], parse_int(obj.get("root_index", 0), "root_index"))


def _quadratic_kernels(c0: int, c1: int) -> tuple:
    """`_mul_numerators` and `_adjugate` of a quadratic field with
    theta^2 = c0 + c1 theta, in closed form.  The product of a0 + a1 theta
    and b0 + b1 theta is a0 b0 + (a0 b1 + a1 b0) theta + a1 b1 theta^2; and
    (a + b theta)(a + c1 b - b theta) = a^2 + c1 a b - c0 b^2, a rational,
    so that pair is the adjugate and the determinant."""

    def mul_numerators(x, y) -> list:
        a0, a1 = x
        b0, b1 = y
        t = a1 * b1
        return [a0 * b0 + c0 * t, a0 * b1 + a1 * b0 + c1 * t]

    def adjugate(y) -> tuple:
        a, b = y
        det = a * a + (c1 * a - c0 * b) * b
        if not det:
            raise ZeroInverse("element not invertible; minpoly not squarefree?")
        return [a + c1 * b, -b], det

    return mul_numerators, adjugate


_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, without the gcd and the
    argument checks of Fraction(n, d); sets the two slots that Fraction
    itself reads."""
    q = _new(Fraction)
    q._numerator = n
    q._denominator = d
    return q


def _make(field: NumberField, num: tuple, den: int) -> "FieldElement":
    """The element num / den of the field, for num and den > 0 already in
    lowest terms."""
    e = _new(FieldElement)
    e.field = field
    e.num = num
    e.den = den
    e._coords = None
    return e


def _add1(field: NumberField, x: int, b: int, y: int, e: int) -> "FieldElement":
    """x/b + y/e in Q, for both in lowest terms (Knuth, TAOCP vol. 2,
    4.5.1): only g = gcd(b, e) can divide the numerator of the sum and its
    denominator."""
    if b == e:
        s = x + y
        if b == 1:
            return _make(field, (s,), 1)
        g = gcd(s, b)
        return _make(field, (s // g,), b // g) if g > 1 else _make(field, (s,), b)
    g = gcd(b, e)
    if g == 1:
        return _make(field, (x * e + y * b,), b * e)
    b1 = b // g
    s = x * (e // g) + y * b1
    g2 = gcd(s, g)
    return _make(field, (s // g2,), b1 * (e // g2)) if g2 > 1 else _make(field, (s,), b1 * e)


def _add(field: NumberField, a, b: int, c, e: int) -> "FieldElement":
    """a/b + c/e for numerator vectors over their denominators, both in
    lowest terms; as `_add1`, only gcd(b, e) can divide the content."""
    if b == e:
        num = [x + y for x, y in zip(a, c)]
        if b == 1:
            return _make(field, tuple(num), 1)
        g = gcd(b, *num)
        if g == 1:
            return _make(field, tuple(num), b)
        return _make(field, tuple([v // g for v in num]), b // g)
    g = gcd(b, e)
    if g == 1:
        return _make(field, tuple([x * e + y * b for x, y in zip(a, c)]), b * e)
    b1, e1 = b // g, e // g
    num = [x * e1 + y * b1 for x, y in zip(a, c)]
    g2 = gcd(g, *num)
    if g2 == 1:
        return _make(field, tuple(num), b1 * e)
    return _make(field, tuple([v // g2 for v in num]), b1 * (e // g2))


class FieldElement:
    """Immutable element of a NumberField: the integer numerators `num` of
    its coordinates on the power basis of theta over one positive common
    denominator `den`, in lowest terms (gcd(den, num...) = 1, and zero is
    0/1).  `coords` gives the coordinates on the power basis of xi as
    Fractions, built on first use, and the constructor takes those."""

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field: NumberField, coords):
        if field._xi_dens is not None:
            coords = [Fraction(c) / f for c, f in zip(coords, field._xi_dens)]
        # the lcm of reduced denominators leaves no common factor
        den = lcm(*[c.denominator for c in coords])
        self.field = field
        self.num = tuple([c.numerator * (den // c.denominator) for c in coords])
        self.den = den
        self._coords = None

    @staticmethod
    def _from_integers(field: NumberField, num, den: int) -> "FieldElement":
        """The element with coordinates num[i] / den, for integers and den != 0."""
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g == 1:
            return _make(field, tuple(num), den)
        return _make(field, tuple([v // g for v in num]), den // g)

    @property
    def coords(self) -> tuple:
        """The coordinates on the power basis of xi as Fractions."""
        if self._coords is None:
            den, dens = self.den, self.field._xi_dens
            num = self.num if dens is None else list(map(mul, self.num, dens))
            gs = [gcd(v, den) for v in num]
            self._coords = tuple([_fraction(v // g, den // g) for v, g in zip(num, gs)])
        return self._coords

    # -- coercion --------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            field = self.field
            if other.field is field or other.field == field:
                return other
            if other.field.degree == 1:
                return _make(field, other.num + field._pad, other.den)
            if field.degree == 1:
                return NotImplemented  # handled by reflected op
            raise TypeError(f"elements of incompatible fields: "
                            f"{field!r} vs {other.field!r}")
        if isinstance(other, (int, Fraction)):
            return self.field.element(other)
        return NotImplemented

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return self._promote_op(other, "add")
        if self.field.degree == 1:
            return _add1(self.field, self.num[0], self.den, o.num[0], o.den)
        return _add(self.field, self.num, self.den, o.num, o.den)

    def __sub__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return self._promote_op(other, "sub")
        if self.field.degree == 1:
            return _add1(self.field, self.num[0], self.den, -o.num[0], o.den)
        return _add(self.field, self.num, self.den, [-v for v in o.num], o.den)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return _make(self.field, tuple([-v for v in self.num]), self.den)

    def __mul__(self, other):
        if other.__class__ is FieldElement and other.field is self.field:
            o = other
        elif other.__class__ is int:
            # the numerators have no factor in common with den, so only
            # g = gcd(other, den) can cancel
            g = gcd(other, self.den)
            if g > 1:
                other //= g
            return _make(self.field, tuple([v * other for v in self.num]), self.den // g)
        else:
            o = self._coerce(other)
            if o is NotImplemented:
                return self._promote_op(other, "mul")
        field = self.field
        b, e = self.den, o.den
        if field.degree == 1:
            # cross-cancel as Fraction multiplication does
            (a,), (c,) = self.num, o.num
            g1, g2 = gcd(a, e), gcd(c, b)
            if g1 > 1:
                a //= g1
                e //= g1
            if g2 > 1:
                c //= g2
                b //= g2
            return _make(field, (a * c,), b * e)
        out = field._mul_numerators(self.num, o.num)
        den = b * e
        g = gcd(den, *out)
        if g == 1:
            return _make(field, tuple(out), den)
        return _make(field, tuple([v // g for v in out]), den // g)

    def _promote_op(self, other, op):
        # self lives in Q, other in a bigger field
        if isinstance(other, FieldElement) and self.field.degree == 1:
            lifted = _make(other.field, self.num + other.field._pad, self.den)
            if op == "add":
                return lifted + other
            if op == "sub":
                return lifted - other
            if op == "mul":
                return lifted * other
            if op == "div":
                return lifted / other
        return NotImplemented

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        num, field = self.num, self.field
        if not any(num):
            raise ZeroInverse("inverse of zero field element")
        if field.degree == 1:
            a = num[0]
            return _make(field, (self.den,), a) if a > 0 else _make(field, (-self.den,), -a)
        # 1/(num / den) = den w / D for the adjugate (w, D) of num
        w, det = field._adjugate(num)
        den = self.den
        return FieldElement._from_integers(field, [v * den for v in w], det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return self._promote_op(other, "div")
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("integer exponents only")
        base = self
        if exponent < 0:
            base = self.inverse()
            exponent = -exponent
        field = self.field
        if field.degree == 1:
            # powers of coprime integers stay coprime
            return _make(field, (base.num[0] ** exponent,), base.den ** exponent)
        if not exponent:
            return field.one()
        # left-to-right binary powering on numerators, so that every product
        # but the squarings is by the base; each bit ends with one content gcd
        mul_numerators = field._mul_numerators
        num, den = base.num, base.den
        for bit in bin(exponent)[3:]:
            num, den = mul_numerators(num, num), den * den
            if bit == "1":
                num, den = mul_numerators(num, base.num), den * base.den
            g = gcd(den, *num)
            if g > 1:
                num, den = [v // g for v in num], den // g
        return _make(field, tuple(num), den)

    # -- predicates --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coords[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.is_rational() and self.num[0] == other.numerator
                    and self.den == other.denominator)
        if isinstance(other, FieldElement):
            try:
                o = self._coerce(other)
            except TypeError:
                return False
            if o is NotImplemented:
                return other.__eq__(self)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            # num[0] / den is in lowest terms when the other numerators vanish
            return hash(_fraction(self.num[0], self.den))
        return hash((self.field, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        if self.is_rational():
            return format_rational(self.coords[0])
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(format_rational(c))
            else:
                xi = "xi" if i == 1 else f"xi^{i}"
                terms.append(f"{format_rational(c)}*{xi}")
        return " + ".join(terms) if terms else "0"

    # -- embeddings ---------------------------------------------------------------

    def embed(self, root_index=None, precision_digits: int = 30) -> ComplexBall:
        """Certified complex ball containing the image of this element."""
        if precision_digits < 1:
            raise ValueError("precision_digits must be >= 1")
        target = Fraction(1, 10 ** precision_digits)
        if self.is_rational():
            return ComplexBall(self.coords[0], Fraction(0))
        extra = 10
        for _ in range(_MAX_CERTIFY_ATTEMPTS):
            root = self.field.root_ball(root_index, precision_digits + extra)
            acc = ComplexBall(Fraction(0), Fraction(0))
            for c in reversed(self.coords):
                acc = acc * root + ComplexBall(c, Fraction(0))
            if acc.radius <= target:
                return acc
            extra *= 2
        raise PrecisionUnreachable(
            f"embedding of {self!r} did not reach {precision_digits} digits")

    def to_mpc(self, precision_digits: int = 30):
        """Approximate complex value (ball center) at the field's embedding."""
        return self.embed(None, precision_digits).to_mpc()

    # -- serialization ---------------------------------------------------------------

    def to_json(self) -> dict:
        return {"minpoly": [format_rational(c) for c in self.field.minpoly],
                "coords": [format_rational(c) for c in self.coords],
                "root_index": self.field.root_index}

    @classmethod
    def from_json(cls, obj, field: NumberField | None = None) -> "FieldElement":
        if isinstance(obj, (str, int)):
            return (field or QQ).element(parse_rational(obj))
        if not isinstance(obj, dict):
            raise ParseError(f"cannot parse field element from {obj!r}")
        if "minpoly" in obj:
            fld = NumberField.from_json(obj)
            if field is not None and fld != field and fld.degree > 1:
                raise ParseError("element minpoly disagrees with file-level field")
        elif field is not None:
            fld = field
        else:
            raise ParseError("element needs a minpoly or an ambient field")
        if "coords" not in obj:
            raise ParseError("element needs 'coords'")
        return fld.element(obj["coords"])


class FieldEmbedding:
    """The embedding of the field F of `source` into the field K of `target`
    that sends source to target, for a source that generates F.

    The generator xi of F is a rational polynomial r in source, found by one
    d x d solve (d = deg F); it maps to r(target), and F's minimal polynomial
    must vanish there.  Both directions are integer matrices over one
    denominator on the numerators of elements, so the image columns are the
    powers of the image of F's theta = c xi: `__call__` maps F into K, and
    `restrict`, a fixed left inverse read off d independent coordinates of
    the image, maps K back.  On those d coordinates the image of its answer
    agrees by construction; membership is checked exactly on the other
    deg K - d, through the composite of the left inverse with those rows of
    the embedding, as one cross-multiplied integer identity per coordinate.
    Construction raises ParseError when no such embedding exists."""

    def __init__(self, source: "FieldElement", target: "FieldElement"):
        F, K = self.source, self.target = source.field, target.field
        d = F.degree
        if F == K and source == target:
            images = _powers(K.generator(), d)
        else:
            # xi = sum_i r_i source^i: solve for r on the coordinates
            aug = [[p.coords[i] for p in _powers(source, d)] + [g]
                   for i, g in enumerate(F.generator().coords)]
            pivots, last, _ = bareiss(aug, d, truediv)
            if len(pivots) < d:
                raise ParseError(f"{source!r} does not generate its field")
            xi = sum((p * (row[d] / last) for p, row in zip(_powers(target, d), aug)),
                     K.zero())
            images = _powers(xi, d + 1)
            if sum((p * c for p, c in zip(images, F.minpoly)), K.zero()):
                raise ParseError(f"no embedding of {F!r} sends {source!r} to "
                                 f"{target!r}")
            images.pop()
        if F._xi_dens is not None:
            # F's elements live on the powers of theta = c xi, which map to
            # the powers of c times the image of xi
            images = [p * f for p, f in zip(images, F._xi_dens)]
        self._den = lcm(*(e.den for e in images))
        # column m holds the numerators of theta^m over self._den
        self._image = [list(row) for row in zip(*(
            [v * (self._den // e.den) for v in e.num] for e in images))]
        if self(source) != target:
            raise ParseError(f"no embedding of {F!r} sends {source!r} to {target!r}")
        # d independent rows of the image and the inverse of that block
        rows = bareiss([list(col) for col in zip(*self._image)], K.degree, floordiv)[0]
        aug = [self._image[p] + [int(i == j) for j in range(d)] for i, p in enumerate(rows)]
        last = bareiss(aug, d, floordiv)[1]
        self._rows = rows
        self._left = [[v * self._den for v in row[d:]] for row in aug]
        self._left_den = last
        # coordinate q outside the rows: y_q / y.den = (_image[q] . x_num) /
        # (_den * x_den) with x_num = _left . y_rows over last * y.den, so
        # y lies in the image iff (_image[q] . _left) . y_rows equals
        # _den * last * y_q; each such identity is kept primitive
        self._outside = []
        for q in sorted(set(range(K.degree)) - set(rows)):
            row = [sum(a * b for a, b in zip(self._image[q], col)) for col in zip(*self._left)]
            g = gcd(*row, self._den * last)
            self._outside.append((q, [v // g for v in row], self._den * last // g))

    def __call__(self, x: "FieldElement") -> "FieldElement":
        """The image of x in K."""
        num = x.num
        return FieldElement._from_integers(
            self.target, [sum(map(mul, row, num)) for row in self._image],
            self._den * x.den)

    def restrict(self, y: "FieldElement") -> "FieldElement":
        """The element x of F with image y; CrossCheckError when y does not
        lie in the image of F."""
        y_num = y.num
        num = [y_num[p] for p in self._rows]
        for q, row, scale in self._outside:
            if sum(map(mul, row, num)) != scale * y_num[q]:
                raise CrossCheckError(f"value does not lie in the image of {self.source!r}")
        return FieldElement._from_integers(
            self.source, [sum(map(mul, row, num)) for row in self._left],
            self._left_den * y.den)


def _powers(x: "FieldElement", count: int) -> list:
    """[1, x, ..., x^(count - 1)]."""
    out = [x.field.one(), x]
    for _ in range(count - 2):
        out.append(out[-1] * x)
    return out[:count]


class Numerators:
    """The ring of numerators of a field's elements over a denominator the
    caller keeps, one per field (`NumberField.ring`): ints over Q, lists of
    field.degree ints with the field's product and adjugate kernels
    otherwise.  `adjugate(y)` is (w, D) with w / D = 1 / y; `add_times(x, y,
    c)` is x + c y; `combine(rows, cs)` is sum_k cs_k x_k for numerators x_k
    given as the d rows of their coordinates."""

    def __init__(self, field: NumberField):
        self.field = field
        if field.degree == 1:
            self.mul = self.times = mul
            self.add = self.plus = add
            self.add_times = lambda x, y, c: x + y * c
            self.adjugate = _linear_adjugate
            self.combine = lambda rows, cs: sum(map(mul, rows[0], cs))
            self.from_ints = lambda xs: xs
            self.zero, self.one = 0, 1
        else:
            pad = [0] * (field.degree - 1)
            self.mul, self.adjugate = field._mul_numerators, field._adjugate
            self.add = lambda x, y: [a + b for a, b in zip(x, y)]
            self.times = lambda x, c: [a * c for a in x]
            self.plus = lambda x, c: [x[0] + c, *x[1:]]
            self.add_times = lambda x, y, c: [a + b * c for a, b in zip(x, y)]
            self.combine = lambda rows, cs: [sum(map(mul, row, cs)) for row in rows]
            self.from_ints = lambda xs: [[x, *pad] for x in xs]
            self.zero, self.one = [0, *pad], [1, *pad]

    def numerator(self, e: FieldElement):
        """The numerator of an element of Q or of the field over e.den."""
        return e.num[0] if self.field.degree == 1 else [*e.num, *self.zero[len(e.num):]]

    def of(self, elements) -> tuple:
        """Elements of Q or of the field as numerators over one denominator > 0."""
        den = lcm(*(e.den for e in elements))
        return [self.times(self.numerator(e), den // e.den) for e in elements], den

    def cyclic(self, terms, a: list, n: int, op=None) -> list:
        """sum_k y_k t^k a(t) mod t^n - 1 for the pairs (k, y_k) of `terms` and
        the n numerators of a; `op` (default `mul`) multiplies y_k by them."""
        op = op or self.mul
        out = [self.zero] * n
        for k, y in terms:
            r = -k % n
            out = list(map(self.add, out, map(op, itertools.repeat(y), a[r:] + a[:r])))
        return out

    def element(self, num, den: int) -> FieldElement:
        """The element num / den, for den != 0."""
        return FieldElement._from_integers(self.field, (num,) if self.field.degree == 1
                                           else num, den)

    def reduce(self, nums: list, den: int) -> tuple:
        """nums / den with the content of all of them and den divided out."""
        vector = self.field.degree > 1
        g = gcd(den, *(itertools.chain.from_iterable(nums) if vector else nums))
        if g == 1:
            return nums, den
        return [[x // g for x in v] if vector else v // g for v in nums], den // g


def _linear_adjugate(y: int) -> tuple:
    """`Numerators.adjugate` over Q: 1 / y is 1 over y."""
    if not y:
        raise ZeroInverse("inverse of zero field element")
    return 1, y


#: The rationals as a degree-1 field (minpoly xi, i.e. xi = 0).
QQ = NumberField([0, 1])

