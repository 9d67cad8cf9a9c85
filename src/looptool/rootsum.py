"""Exact summation of rational functions over roots of unity.

The sum of f = P/Q over the n-th roots of unity is computed by residues in
F[t]/(Q).  Divide P = qQ + r with deg r < d = deg Q.  A monomial t^k sums to
n when n divides k and to 0 otherwise, which gives the polynomial part.  For
the proper part, r(t)/Q(t) * n t^(n-1)/(t^n - 1) has residue r(w)/Q(w) at
each root of unity w and none at infinity, so the sum is minus its residues
at the roots of Q:

    sum_{w^n = 1} r(w)/Q(w) = -n [t^(d-1)] (r x mod Q) / lc(Q),
    x = t^(n-1) (t^n - 1)^(-1) mod Q.

This holds for repeated roots too.  The right-hand side is linear in x: it
is -n w.x with w_j = [t^(d-1)](r t^j mod Q) / lc(Q), the residue
functional of r.  At t = infinity, w_j is the coefficient of t^(-1) in
r t^j / Q, so the expansion of P/Q there holds w_j at t^(-1-j) below the
quotient q at t^0 and up.  A `ResidueForm` holds numerators P_0, P_1, ...
over one Q and stands for sum_i P_i n^(-i) / Q; it expands each P_i/Q at
infinity once, as one power series (`numberfield.poly_series`) of the
reversed polynomials, and keeps q_i and w_i, the latter as the integer
rows of `NumberField.integer_rows`.  Its sum at n is then

    n sum_i n^(-i) (sum_{k = 0 mod n} q_(i,k) - w_i.x),

and a row costs t^(n-1) mod Q, the matrix M_u, one solve and one dot product
per numerator.  x solves M_u x = t^(n-1) mod Q, where M_u, with columns
u t^j mod Q, is multiplication by u = t^n - 1 in F[t]/(Q) (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 4-5); `linalg.solve_integer` solves it
with an exact check, by one fraction-free elimination (`numberfield.bareiss`)
when d is at most `linalg.FRACTION_FREE_MAX` and by p-adic lifting
otherwise.  When Q is over Q and Q / lc(Q) is integral, t^(n-1) and M_u are
built over Z and go to it as they are; otherwise `linalg.integer_system`
writes them over Z first.  M_u is singular exactly when Q vanishes at an
n-th root of unity.  The numerators share one frame: when some P_i reaches
below the lowest power of t in Q, that power of t moves into Q; t^n - 1
stays a unit modulo a power of t.  `av_exact` takes a form, or a
`RationalFunction` or `LaurentPolynomial` as a form with one numerator.

`ResidueForm.from_table` builds the form of a phi-table sum_k c_k(n)
delta^(-k), c_k(n) = sum_i c_(k,i) n^(-i): P_i = sum_k c_(k,i) delta^(kmax-k)
over Q = delta^kmax, kmax = max(0, k), unreduced.  For K the largest k with
c_K(n) != 0, sum_(k <= K) c_k(n) delta^(K-k) = c_K(n) mod delta, so reducing
at n removes delta^(kmax-K) only; that changes no sum and no pole unless
K <= 0 (or no c_k(n) is left) and delta vanishes at an n-th root of unity.
So once M_u turns out singular, `root_sum` sums the integrand as a Laurent
polynomial when Q divides its numerator at n (a test of sum_i n^(-i) w_i = 0
would miss the negative powers of t that the frame moves into the proper part).

The oracle `av_trace` takes a second route: for the n x n cyclic-shift
matrix C (the companion matrix of t^n - 1), whose eigenvalues are the n-th
roots of unity, the sum is trace f(C).  f(C) lives in F[C] = F[t]/(t^n - 1):
fold the exponents mod n, invert the folded denominator against t^n - 1 and
multiply; the trace is n times the constant coefficient.  The inverse
comes from the extended Euclid of the dense kernel, run against t^n - 1
(`ratfun_mod_cyclic`, which `circulant` uses too).

`CyclicMatrixImage` builds the full cyclic image of every entry of a
propagator matrix for `diagrams`: n numerators in the field's ring
(`NumberField.ring`, ints over Q) over one positive denominator.  The
inverse of a denominator D = t^s Q comes from the residue side, once per
distinct D.  For Q over Q, made primitive over Z, v = (t^n - 1)^(-1) mod Q
is one solve of size d = deg Q (`_unit_system` and `linalg.solve_integer`,
after s = lc(Q) t makes Q monic over Z), and the cofactor
a = (1 - v (t^n - 1)) / Q is Q^(-1) mod t^n - 1.  By Gauss's lemma
den(v) a is integral, so its n coefficients, those of the power series of
den(v) (1 + v) / Q, come from `poly_series` by exact integer division by
Q(0): O(d^2 log n + n d) in all.  A Q with irrational coefficients goes
through its norm N(Q) in Q[t], which vanishes at a root of unity exactly
when Q does: Q^(-1) = (N(Q)/Q) N(Q)^(-1), a cofactor that is 1, and so
skipped, for Q over Q.  The inverse A / c is certified by the product
Q A = c mod t^n - 1, at O(n d); a failed check or an inexact division
raises CrossCheckError.  Neither route ever evaluates a complex root of
unity.  What does not depend on n is built once per matrix and kept in a
`CyclicMatrix`: each entry's exponents and numerators over one
denominator, the index of its denominator, and per distinct D its
primitive and monic integer forms, N(Q) and N(Q)/Q, and Q's numerators
for the certificate; Pi(1) and pi0 - Pi(1) on first use.  Per n, each
image is built when it is first asked for, so only an entry that is asked
for raises RootOfUnityPole; when pi0 overrides the value at flow 0, every
coefficient picks up (pi0 - Pi(1))/n, so that each image still sums to
its pi0 entry.

The same M_u gives the cyclic resultant prod_{w^n = 1} delta(w), the
one-loop term of the n-fold cover: for delta = t^s lc m with m monic of
degree d it is (-1)^(nd + (n+1)s) lc^n det M_u, since det M_u is the norm
of t^n - 1 in F[t]/(m) (von zur Gathen and Gerhard), and `bareiss`
takes the determinant at O(d^2 log n + d^3).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from operator import mul, sub, truediv
from typing import Dict, List, Sequence, Tuple

from .errors import (CrossCheckError, MathDomainError, ParseError, PoleOnTorus,
                     ResonantRoot, RootOfUnityPole, SingularError,
                     check_cover_order)
from .laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from .linalg import integer_system, solve_consistent, solve_integer, transpose
from .numberfield import (QQ, FieldElement, NumberField, Numerators, bareiss, poly_divmod,
                          poly_invmod, poly_series, poly_t_power_mod, poly_trim)

#: Largest span of the exponents of t (highest minus lowest) over the
#: numerators and the denominator of a `ResidueForm`.  The form works on dense
#: coefficient lists over that span and, for a denominator Q, a
#: deg Q x deg Q integer solve, so a span of 10^9 exhausts memory before
#: anything else fails; 4096 is far above every knot and sample integrand.
MAX_EXPONENT_SPAN = 4096

# ---------------------------------------------------------------------------
# Images in F[t]/(t^n - 1) and sums by residues in F[t]/(Q), elements as
# dense coefficient lists; division, inverses and powers mod a polynomial
# come from the dense kernel in numberfield.
# ---------------------------------------------------------------------------


def fold_mod_cyclic(p: LaurentPolynomial, n: int) -> List[FieldElement]:
    """Image of a Laurent polynomial in F[t]/(t^n - 1)."""
    field = p.field
    out = [field.zero()] * n
    for k, c in p.coeffs.items():
        out[k % n] = out[k % n] + c
    return out


def _cyc_mul(a: Sequence[FieldElement], b: Sequence[FieldElement], n: int,
             field: NumberField) -> List[FieldElement]:
    out = [field.zero()] * n
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            if y.is_zero():
                continue
            k = (i + j) % n
            out[k] = out[k] + x * y
    return out


def invert_mod_cyclic(a: Sequence[FieldElement], n: int,
                      field: NumberField) -> List[FieldElement] | None:
    """Inverse of a in F[t]/(t^n - 1), or None when gcd(a, t^n - 1) != 1."""
    zero, one = field.zero(), field.one()
    inv = poly_invmod(a, [-one] + [zero] * (n - 1) + [one], zero, one)
    if inv is None:
        return None
    return inv + [zero] * (n - len(inv))


def ratfun_mod_cyclic(f: RationalFunction, n: int) -> List[FieldElement]:
    """Image of f in F[t]/(t^n - 1); raises RootOfUnityPole at denominator zeros."""
    den_inv = invert_mod_cyclic(fold_mod_cyclic(f.den, n), n, f.field)
    if den_inv is None:
        raise RootOfUnityPole(
            f"denominator vanishes at an {n}-th root of unity")
    return _cyc_mul(fold_mod_cyclic(f.num, n), den_inv, n, f.field)


def _norm(q: List[FieldElement], field: NumberField):
    """c N(Q) in Q[t], over Q, for a constant c > 0, and the cofactor
    c N(Q) / Q as numerators over a denominator, for Q = sum q_k t^k: N(Q)
    is the determinant over Q[t] of multiplication by Q on F[t], and a root
    of unity is a root of N(Q) exactly when it is one of Q.  The matrix is
    that of `NumberField.integer_rows(q)`, entry (i, j) =
    sum_k row_i[k d + j] t^k, so c = den^d for its denominator den."""
    d = field.degree
    rows = field.integer_rows(q)[0]
    det = LaurentMatrix(QQ, [[LaurentPolynomial(QQ, dict(enumerate(row[j::d])))
                              for j in range(d)] for row in rows]).det()
    norm = det.as_poly_coeffs()[0]
    cofactor = poly_divmod([field.zero() + c for c in norm], q, field.zero(),
                           field.one())[0]
    return norm, field.ring.of(cofactor)


def _den_forms(den: LaurentPolynomial, ring: Numerators) -> tuple:
    """The parts of den^(-1) mod t^n - 1 that do not depend on n, for
    den = t^shift Q.  For R = Q over Q, else R = N(Q): the lcm L of R's
    denominators, the content g of L R, the primitive qz = L R / g and
    P(s) = lc^(d-1) qz(s / lc), lc = lc(qz), monic over Z; then R / Q and Q
    as numerators over a denominator (None over 1 for R / Q = 1), and shift."""
    q, shift = den.as_poly_coeffs()
    if all(c.is_rational() for c in q):
        norm, cofactor = q, (None, 1)
    else:
        norm, cofactor = _norm(q, ring.field)
    lcd = lcm(*(c.den for c in norm))
    qz = [c.num[0] * (lcd // c.den) for c in norm]
    g = gcd(*qz)
    qz = [c // g for c in qz]
    d, lc = len(qz) - 1, qz[-1]
    P = [c * lc ** (d - 1 - j) for j, c in enumerate(qz[:-1])] + [1]
    return lcd, g, qz, P, cofactor, ring.of(q), shift


def _den_inverse(forms: tuple, n: int, ring: Numerators,
                 where: str) -> Tuple[list, int]:
    """Numerators and a positive denominator c of den^(-1) in
    F[t]/(t^n - 1), from its `_den_forms` and the residue side (see the
    module docstring), certified by den * A = c there before use."""
    lcd, g, qz, P, (cofactor, cofactor_den), (q_num, q_den), shift = forms
    d, lc = len(qz) - 1, qz[-1]
    if d == 0:
        a, c = [qz[0] * lcd] + [0] * (n - 1), g
    else:
        # (t^n - 1) v = 1 mod qz is (s^n - lc^n) y = lc^n mod P, v(t) = y(lc t)
        M_u = _unit_system(n, P, 0, 1, lc ** n)[1]
        y, v_den = _solve_unit(M_u, [lc ** n] + [0] * (d - 1), n)
        v = [c * lc ** j for j, c in enumerate(y)]
        # v_den (1 - (t^n - 1) v) / qz is integral by Gauss's lemma; below
        # t^n it is the power series of v_den (1 + v) / qz
        index = itertools.count()

        def exact(s, q0):
            k = next(index)
            x, r = divmod(s, q0)
            if r:
                raise CrossCheckError(
                    f"{where}: the cofactor (1 - (t^n - 1) v) / Q is not integral: "
                    f"coefficient {k} has numerator {s}, not a multiple of Q(0) = {q0}")
            return x

        a = [x * lcd for x in poly_series([v_den + v[0]] + v[1:], qz, n, 0, exact)]
        c = v_den * g
    inverse = (ring.from_ints(a) if cofactor is None
               else ring.cyclic(enumerate(cofactor), a, n, ring.times))
    c *= cofactor_den
    # the certificate Q A = c Q_den, for den = t^shift Q
    product = ring.cyclic(enumerate(q_num), inverse, n)
    expect = [ring.times(ring.one, c * q_den)] + [ring.zero] * (n - 1)
    if product != expect:
        k = next(k for k, (x, y) in enumerate(zip(product, expect)) if x != y)
        raise CrossCheckError(
            f"{where}: the inverse A / {c} of the denominator fails its check: "
            f"coefficient {k} of Q(t) A(t) mod t^n - 1 is {product[k]}, "
            f"expected {expect[k]}")
    shift %= n
    return inverse[shift:] + inverse[:shift], c


class CyclicMatrix:
    """What the cyclic images of a square matrix of rational functions (or
    Laurent polynomials) read that does not depend on n, built once (see
    the module docstring).  `flow_zero` gives, on first use, the matrix for
    flow value 0 (pi0 when given, else Pi(1)) and pi0 - Pi(1) as numerators
    over denominators; Pi(1) is pi1() when a function pi1 is given."""

    def __init__(self, matrix, field: NumberField, pi0=None, pi1=None):
        self.source, self.field, self.pi0, self._pi1 = matrix, field, pi0, pi1
        self.matrix = [[RationalFunction.from_poly(e) if isinstance(e, LaurentPolynomial)
                        else e for e in row] for row in matrix]
        keys: Dict[tuple, int] = {}
        self.forms: List[tuple] = []
        self.entries = []
        for row in self.matrix:
            self.entries.append([])
            for f in row:
                # keyed by the exact coefficients, which hash faster than f.den
                key = tuple((k, c.num, c.den) for k, c in sorted(f.den.coeffs.items()))
                if key not in keys:
                    keys[key] = len(self.forms)
                    self.forms.append(_den_forms(f.den, field.ring))
                self.entries[-1].append((list(f.num.coeffs),
                                         *field.ring.of(list(f.num.coeffs.values())), keys[key]))
        self._flow_zero = None

    def flow_zero(self) -> tuple:
        if self._flow_zero is None:
            pi1 = (self._pi1() if self._pi1 is not None else
                   [[e.eval(self.field.one()) for e in row] for row in self.matrix])
            pi0 = pi1 if self.pi0 is None else self.pi0
            shift = [list(map(sub, *rows)) for rows in zip(pi0, pi1)]
            self._flow_zero = tuple([[(self.field.ring.numerator(e), e.den) for e in row]
                                     for row in m] for m in (pi0, shift))
        return self._flow_zero


class CyclicMatrixImage:
    """Images in F[t]/(t^n - 1), for one n, of the entries of a
    `CyclicMatrix`: the cover propagator of an n-fold cyclic cover.  `image`
    gives the n integer numerators of an entry (see `Numerators`) over one
    positive denominator, built when first asked for (see the module
    docstring)."""

    def __init__(self, matrix: CyclicMatrix, n: int):
        check_cover_order(n)
        self.source, self.n, self.field, self.ring = matrix, n, matrix.field, matrix.field.ring
        self._images = [[None] * len(row) for row in matrix.entries]
        self._den_inverses: List[Tuple[list, int] | None] = [None] * len(matrix.forms)

    def image(self, i: int, j: int) -> Tuple[list, int]:
        """(numerators, positive denominator) of the image of entry (i, j)."""
        image = self._images[i][j]
        if image is None:
            n, ring, source = self.n, self.ring, self.source
            exponents, nums, den, index = source.entries[i][j]
            inverse = self._den_inverses[index]
            if inverse is None:
                inverse = self._den_inverses[index] = _den_inverse(
                    source.forms[index], n, ring, f"entry ({i}, {j}) at n = {n}")
            inv, inv_den = inverse
            out = ring.cyclic(zip(exponents, nums), inv, n)
            den *= inv_den
            if source.pi0 is not None:
                corr, corr_den = source.flow_zero()[1][i][j]
                common = lcm(den, corr_den * n)
                corr = ring.times(corr, common // (corr_den * n))
                out = [ring.add(ring.times(x, common // den), corr) for x in out]
                den = common
            image = self._images[i][j] = ring.reduce(out, den)
        return image


def av_trace(f: RationalFunction | LaurentPolynomial, n: int) -> FieldElement:
    """Sum of f over the n-th roots of unity as the trace of f at the
    cyclic-shift companion matrix of t^n - 1 (the oracle for av_exact)."""
    check_cover_order(n)
    if isinstance(f, LaurentPolynomial):
        f = RationalFunction.from_poly(f)
    return ratfun_mod_cyclic(f, n)[0] * n


class ResidueForm:
    """sum_i P_i n^(-i) / Q for Laurent polynomials P_0, P_1, ... and Q over
    one field, prepared for its sums over the n-th roots of unity (see the
    module docstring): the polynomial part q_i of each P_i and its residue
    functional w_i, as an integer matrix over one denominator, are built once.
    Zero numerators are allowed and contribute nothing."""

    def __init__(self, numerators, den: LaurentPolynomial):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.numerators = list(numerators)
        self.den = den
        # the frame spans every exponent; bound it before any list is built
        frame = [den] + [p for p in self.numerators if not p.is_zero()]
        low = min(p.min_exp() for p in frame)
        high = max(p.max_exp() for p in frame)
        if high - low > MAX_EXPONENT_SPAN:
            raise MathDomainError(f"integrand exponents of t run from {low} to "
                                  f"{high}, a span of {high - low} above the "
                                  f"bound of {MAX_EXPONENT_SPAN}")
        field = self.field = den.field
        zero = field.zero()
        dpoly, dshift = den.as_poly_coeffs()
        # the common frame: t^lift moves into Q when some P_i reaches below it
        lift = max(0, dshift - min((p.min_exp() for p in self.numerators
                                    if not p.is_zero()), default=dshift))
        lc_inv = dpoly[-1].inverse()
        monic = [zero] * lift + [c * lc_inv for c in dpoly]
        d = self._d = len(monic) - 1
        reversed_monic = poly_trim(monic[::-1])
        self._terms = []
        for i, p in enumerate(self.numerators):
            if p.is_zero():
                continue
            coeffs, shift = p.as_poly_coeffs()
            num = [zero] * (shift - dshift + lift) + coeffs
            num += [zero] * (d - len(num))
            # P/m for m = Q / lc(Q) at t = infinity, the power series of the
            # reversed P over the reversed m, which starts with 1: the
            # quotient by m down to t^0, then lc(Q) w_j at t^(-1-j)
            split = len(num) - d
            series = poly_series(num[::-1], reversed_monic, len(num), zero, lambda x, _: x)
            quo = series[:split][::-1]
            # w as the matrix of x -> w.x on the coordinates of x: column
            # j*deg + k holds those of w_j xi^k
            weights, scale = field.integer_rows([e * lc_inv for e in series[split:]])
            self._terms.append((i, [c * lc_inv for c in quo], weights, scale))
        self._integral = field.degree == 1 and all(c.den == 1 for c in monic)
        self._modulus = [c.num[0] for c in monic] if self._integral else monic

    @classmethod
    def from_table(cls, delta: LaurentPolynomial, table) -> "ResidueForm":
        """The form of sum_k c_k(n) delta^(-k) for a table mapping k to
        [c_(k,0), c_(k,1), ...] (see the module docstring)."""
        kmax = max([0, *table])
        nums = [LaurentPolynomial.zero(delta.field)] * max(map(len, table.values()), default=0)
        for k, coeffs in table.items():
            for i, ci in enumerate(coeffs):
                nums[i] = nums[i] + delta ** (kmax - k) * ci
        return cls(nums, delta ** kmax)

    def numerator(self, n: int) -> LaurentPolynomial:
        """sum_i P_i n^(-i), the numerator over Q at n."""
        return sum((p * Fraction(1, n ** i) for i, p in enumerate(self.numerators)),
                   LaurentPolynomial.zero(self.field))

    def root_sum(self, n: int) -> FieldElement:
        """sum over the n-th roots of unity w of sum_i P_i(w) n^(-i) / Q(w)."""
        check_cover_order(n)
        x, x_den = [], 1
        if self._d and self._terms:
            if self._integral:
                power, M_u = _unit_system(n, self._modulus, 0, 1)
            else:
                power, M_u = _unit_system(n, self._modulus, self.field.zero(),
                                          self.field.one())
                M_u, power = integer_system(self.field, M_u, power)
            try:
                x, x_den = _solve_unit(M_u, power, n)
            except RootOfUnityPole:
                # unless Q divides the numerator at n
                quo, rem = self.numerator(n).divmod_poly(self.den)
                if not rem.is_zero():
                    raise
                return av_exact(quo, n)
        field = self.field
        total = field.zero()
        for i, quo, weights, scale in self._terms:
            value = sum(quo[::n], field.zero()) - FieldElement._from_integers(
                field, [sum(map(mul, row, x)) for row in weights], scale * x_den)
            total = total + value * Fraction(n) ** (1 - i)
        return total


def _unit_system(n: int, m, zero, one, c=None):
    """t^(n-1) mod m and the matrix M_u of multiplication by u = t^n - c
    (c = 1 by default) in F[t]/(m), for monic m of degree d >= 1, both
    padded to length d: column j of M_u is u t^j mod m."""
    d = len(m) - 1
    power = poly_t_power_mod(n - 1, m, zero, one)
    col = poly_divmod([zero] + power, m, zero, one)[1] or [zero]
    col[0] = col[0] - (one if c is None else c)
    columns = []
    for _ in range(d):
        columns.append(col + [zero] * (d - len(col)))
        col = poly_divmod([zero] + col, m, zero, one)[1]
    return power + [zero] * (d - len(power)), transpose(columns)


def _solve_unit(M_u, rhs, n: int):
    """`linalg.solve_integer` of M_u y = rhs, where M_u is singular exactly
    when the modulus vanishes at an n-th root of unity: RootOfUnityPole."""
    try:
        return solve_integer(M_u, rhs)
    except SingularError:
        raise RootOfUnityPole(
            f"denominator vanishes at an {n}-th root of unity") from None


def av_exact(f: ResidueForm | RationalFunction | LaurentPolynomial,
             n: int) -> FieldElement:
    """Exact sum of f over all n-th roots of unity, by the residue
    functional of a `ResidueForm` (see the module docstring); a rational
    function or Laurent polynomial is a form with one numerator."""
    if isinstance(f, LaurentPolynomial):
        f = ResidueForm([f], LaurentPolynomial.one(f.field))
    elif isinstance(f, RationalFunction):
        f = ResidueForm([f.num], f.den)
    return f.root_sum(n)


# ---------------------------------------------------------------------------
# Cyclic resultants
# ---------------------------------------------------------------------------

def cyclic_resultant(delta: LaurentPolynomial, n: int) -> FieldElement:
    """Exact product of delta over all n-th roots of unity: for delta =
    t^s lc m with m monic of degree d, the roots w of t^n - 1 multiply to
    (-1)^(n+1) and prod_w m(w) = (-1)^(nd) prod_{m(r) = 0} (r^n - 1) is
    (-1)^(nd) det M_u (see the module docstring)."""
    check_cover_order(n)
    field = delta.field
    if delta.is_zero():
        return field.zero()
    coeffs, shift = delta.as_poly_coeffs()
    lc = coeffs[-1]
    d = len(coeffs) - 1
    det = field.one()
    if d:
        lc_inv = lc.inverse()
        M_u = _unit_system(n, [c * lc_inv for c in coeffs], field.zero(), field.one())[1]
        pivots, last, sign = bareiss(M_u, d, truediv)
        if len(pivots) < d:
            return field.zero()
        det = last if sign == 1 else -last
    res = lc ** n * det
    return -res if (n * d + (n + 1) * shift) % 2 else res


# ---------------------------------------------------------------------------
# Closed-form sums over poles: sum_{t^n=1} (1 - a t)^(-m)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pole_sum_polynomials(m: int) -> Tuple[Tuple[Fraction, ...], ...]:
    """Universal polynomials beta_{m,i}(n) over Q with

        sum_{t^n=1} (1 - a t)^(-m) = sum_i beta_{m,i}(n) / (1 - a^n)^i.

    Entry [i] is the coefficient list of beta_{m,i} in n.  Derived from the
    geometric case m = 1 by repeatedly differentiating in the pole location;
    the recursion is independent of a.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return ((Fraction(0),), (Fraction(0), Fraction(1)))  # 0 + n/(1-a^n)
    prev = pole_sum_polynomials(m - 1)
    k = m - 1
    out: List[List[Fraction]] = [[Fraction(0)] * (m + 2) for _ in range(m + 1)]

    def add(i: int, poly: Sequence[Fraction], scale: Fraction, shift: int):
        for j, c in enumerate(poly):
            out[i][j + shift] += c * scale

    for i in range(k + 1):
        add(i, prev[i], Fraction(1), 0)
        # + (n/k) * ((i-1)*beta_{k,i-1} - i*beta_{k,i}) at slot i
        add(i, prev[i], Fraction(-i, k), 1)
        if i + 1 <= m:
            add(i + 1, prev[i], Fraction(i, k), 1)
    return tuple(tuple(poly_trim(row) or [Fraction(0)]) for row in out[:m + 1])


def _poly_at(poly: Sequence[Fraction], n: int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * n + c
    return acc


def pole_sum_closed(a: FieldElement, m: int, n: int) -> FieldElement:
    """Closed-form sum_{t^n=1} 1/(1 - a t)^m; requires a^n != 1."""
    an = a ** n
    one_minus = a.field.one() - an
    if one_minus.is_zero():
        raise RootOfUnityPole("a is an n-th root of unity")
    inv = one_minus.inverse()
    table = pole_sum_polynomials(m)
    acc = a.field.zero()
    power = a.field.one()
    for i in range(len(table)):
        coeff = _poly_at(table[i], n)
        if coeff:
            acc = acc + power * coeff
        if i < len(table) - 1:
            power = power * inv
    return acc


# ---------------------------------------------------------------------------
# Quadratic delta(t) = t - (lam + 1/lam) + 1/t power sums (exact, symbolic in n)
# ---------------------------------------------------------------------------

def _check_quadratic_root(lam: FieldElement):
    sq = lam * lam
    if (sq - 1).is_zero():
        raise ResonantRoot("lambda^2 = 1 is resonant")


def one_minus_u_power(b: int) -> List[int]:
    """Coefficients of (1 - u)^b in powers of u."""
    return [(-1) ** k * comb(b, k) for k in range(b + 1)]


def delta_power_sums(lam: FieldElement, k: int) -> List[List[LaurentPolynomial]]:
    """Tables alpha_{j,i}(x) for j = 0..k with

        sum_{t^n=1} delta(t)^(-j)
            = alpha_{j,0}(n) + sum_{i>=1} alpha_{j,i}(n) / (1 - lam^n)^i

    where delta(t) = t - (lam + 1/lam) + 1/t.  Row j has j+1 entries, each a
    Laurent polynomial in x = n with non-negative exponents (evaluated by
    `eval`).  Each row is built once per (lam, j); see `_delta_power_row`.
    """
    _check_quadratic_root(lam)
    return [list(_delta_power_row(lam.field, lam.coords, j)) for j in range(k + 1)]


@lru_cache(maxsize=256)
def _delta_power_row(field: NumberField, coords: tuple,
                     j: int) -> Tuple[LaurentPolynomial, ...]:
    """Row j of `delta_power_sums` for lam with these coordinates, from the
    principal parts of delta^(-j) at its two poles (`_principal_part`) and
    the universal pole-sum polynomials; the basis 1/(1 - lam^{-n})^i is
    rewritten through 1/(1 - lam^{-n}) = 1 - 1/(1 - lam^n).  delta^(-j) is
    proper, so it has no polynomial part.  Keyed by field and coordinates,
    since equal elements of different fields give rows over different
    fields."""
    if j == 0:
        return (LaurentPolynomial.one(field),)
    lam = FieldElement(field, coords)
    row = [LaurentPolynomial.zero(field)] * (j + 1)
    for pole, a in enumerate((lam, lam.inverse())):
        for m, c in enumerate(_principal_part(a, j), 1):
            if c.is_zero():
                continue
            for i, poly in enumerate(pole_sum_polynomials(m)):
                base = LaurentPolynomial.from_coeff_list(field, [c * q for q in poly])
                if pole == 0:
                    # pole at 1/lam: basis 1/(1 - lam^n)^i directly
                    row[i] = row[i] + base
                else:
                    # pole at lam: (1 - lam^{-n})^{-i} = (1 - u)^i, u = 1/(1-lam^n)
                    for p_idx, bc in enumerate(one_minus_u_power(i)):
                        row[p_idx] = row[p_idx] + base * bc
    return tuple(row)


def _principal_part(a: FieldElement, j: int) -> List[FieldElement]:
    """[c_1, ..., c_j] with delta^(-j) = sum_m c_m / (1 - a t)^m plus a part
    regular at t = 1/a, for delta(t) = t - (a + 1/a) + 1/t and a^2 != 1.

    With u = 1 - a t, delta^(-j) = t^j / (u^j (1 - t/a)^j) and
    u^j delta^(-j) = g(u) = a^j (1 - u)^j / (a^2 - 1 + u)^j, so c_m is the
    coefficient of u^(j-m) in g: one power series of length j
    (`numberfield.poly_series`).  Its oracle, the partial-fraction
    decomposition in tests/conftest.py, subtracts rational functions pole by
    pole."""
    field = a.field
    a_j, shift = a ** j, a * a - 1
    num = [a_j * b for b in one_minus_u_power(j)]
    den = [shift ** (j - i) * comb(j, i) for i in range(j + 1)]
    inv0 = den[0].inverse()
    return poly_series(num, den, j, field.zero(), lambda x, _: x * inv0)[::-1]


def delta_basis_inverse(lam: FieldElement, k: int) -> List[List[LaurentPolynomial]]:
    """Inverse beta of the lower-triangular alpha matrix of delta_power_sums.

    Row a of the result expresses 1/(1 - lam^n)^a as

        sum_i beta_{a,i}(1/n) * S_i(n),   S_0 = 1, S_i = sum_{t^n=1} delta(t)^(-i),

    with beta entries Laurent polynomials in x = n (evaluated by `eval`)
    carrying only non-positive exponents (i.e. genuine polynomials in 1/n).
    """
    _check_quadratic_root(lam)
    field = lam.field
    zero = LaurentPolynomial.zero(field)
    alpha = LaurentMatrix(field, [row + [zero] * (k - j) for j, row in
                                  enumerate(delta_power_sums(lam, k))])
    beta = [[e.as_polynomial() for e in row]
            for row in alpha.solve(LaurentMatrix.identity(field, k + 1))]
    for row in beta:
        for entry in row:
            if entry.coeffs and entry.max_exp() > 0:
                raise SingularError("basis inverse has positive powers of n")
    return beta


# ---------------------------------------------------------------------------
# Multivariate torus sums (geometric-expansion oracle)
# ---------------------------------------------------------------------------

class TorusSumSpec:
    """Sum of T0 / prod_i (1 - c_i T_i) over the n-torus of roots of unity.

    T_i for i = 1..d must be the coordinate monomials t_i; the remaining
    monomials T_{d+1}..T_s may only use exponents 0, +1, -1.  T0 is an
    arbitrary integer monomial.  monomials is the tuple of exponent tuples
    of T_1..T_s, constants the tuple of FieldElements c_1..c_s.
    """

    __slots__ = ("d", "t0", "monomials", "constants")

    def __init__(self, d: int, t0: tuple, monomials: tuple, constants: tuple):
        self.d, self.t0, self.monomials, self.constants = d, t0, monomials, constants
        if self.d < 0:
            raise ParseError("torus dimension must be >= 0")
        if len(self.monomials) != len(self.constants):
            raise ParseError("one constant per monomial required")
        if len(self.monomials) < self.d:
            raise ParseError("need at least d monomials")
        if len(self.t0) != self.d:
            raise ParseError("T0 exponent vector has wrong length")
        for i in range(self.d):
            expect = tuple(1 if j == i else 0 for j in range(self.d))
            if tuple(self.monomials[i]) != expect:
                raise ParseError(f"T_{i+1} must equal t_{i+1}")
        for mono in self.monomials[self.d:]:
            if len(mono) != self.d or any(e not in (-1, 0, 1) for e in mono):
                raise ParseError("tail monomial exponents must be in {0, +1, -1}")

    @property
    def s(self) -> int:
        return len(self.monomials)


def torus_sum_oracle(spec: TorusSumSpec, n: int) -> FieldElement:
    """Exact torus sum via the finite geometric expansion.

    Each factor 1/(1 - c_i T_i) expands to (sum_{k<n} (c_i T_i)^k)/(1 - c_i^n)
    on the torus; a monomial survives the sum iff all its exponents vanish
    mod n, contributing n^d.  Free tail indices determine the coordinate
    indices uniquely, so the cost is O(n^(s-d)).
    """
    check_cover_order(n)
    field = spec.constants[0].field if spec.constants else QQ
    one = field.one()
    d, s = spec.d, spec.s
    powers = []
    denom = one
    for c in spec.constants:
        cn = c ** n
        if (one - cn).is_zero():
            raise PoleOnTorus("some c_i is an n-th root of unity")
        denom = denom * (one - cn)
        row = [one]
        for _ in range(n - 1):
            row.append(row[-1] * c)
        powers.append(row)
    total = field.zero()
    tail = s - d
    for idx in itertools.product(range(n), repeat=tail):
        # forced coordinate exponents: k_i = -(T0_i + sum_j e_{ji} k_j) mod n
        prod = one
        for i in range(d):
            e = spec.t0[i]
            for j in range(tail):
                e += spec.monomials[d + j][i] * idx[j]
            k_i = (-e) % n
            if k_i:
                prod = prod * powers[i][k_i]
        for j in range(tail):
            if idx[j]:
                prod = prod * powers[d + j][idx[j]]
        total = total + prod
    scale = Fraction(n) ** d
    return total * denom.inverse() * scale


def fit_rational_shape(values, constants: Sequence[FieldElement], d: int,
                       y_degree: int):
    """Fit torus-sum values to n^d * p(1/(1-c_i^n), ..., n).

    p has x_i-degree at most 1 and y-degree at most y_degree.  `values` is a
    list of (n, FieldElement).  Returns a predictor callable n -> value.
    Raises SingularError when the values are inconsistent with the shape.
    The system is overdetermined (the triangle of acceptance criterion 7
    fits 16 unknowns to 22 values), so it goes to `solve_consistent`, not to
    the square-only `solve`.
    """
    field = constants[0].field if constants else QQ
    one = field.one()
    s = len(constants)
    subsets = []
    for mask in range(1 << s):
        subsets.append([i for i in range(s) if mask & (1 << i)])
    basis = [(subset, beta) for subset in subsets for beta in range(y_degree + 1)]

    def basis_row(n: int):
        xs = []
        for c in constants:
            cn = c ** n
            diff = one - cn
            if diff.is_zero():
                raise PoleOnTorus("c_i^n = 1 inside fit window")
            xs.append(diff.inverse())
        row = []
        nd = Fraction(n) ** d
        for subset, beta in basis:
            v = field.element(nd * Fraction(n) ** beta)
            for i in subset:
                v = v * xs[i]
            row.append(v)
        return row

    A = [basis_row(n) for n, _ in values]
    b = [v for _, v in values]
    coeffs = solve_consistent(field, A, b)

    def predict(n: int) -> FieldElement:
        row = basis_row(n)
        acc = field.zero()
        for c, r in zip(coeffs, row):
            acc = acc + c * r
        return acc

    return predict
