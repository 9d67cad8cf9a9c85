"""Polynomial forms of cover invariant sequences.

`series_coefficients` expands a rational generating series.

CoverPolynomial is the polynomial p(x_1..x_r, y) whose evaluation at
x_j = 1/(1 - lam_j^n), y = n gives the invariant of the n-cover.  The
canonical coefficient basis uses one variable per root pair (total degree
at most 2*ell - 2, y-degree 1..ell-1), which has exactly
(ell-1) * C(r + 2ell - 2, r) coefficients; inputs written in the redundant
two-variables-per-pair form are folded through 1/(1 - lam^{-n}) =
1 - 1/(1 - lam^n).  For a palindromic quadratic delta with root lam,
`CoverPolynomial.from_table` maps a phi-table sum_k c_k(n) delta^(-k) to the
one-root-pair p of its sums over the roots of unity, `DeltaFieldCover`
writes that p over delta's field, and `quad_to_delta_form` maps p back.
Both evaluate on numerators in the field's ring (`NumberField.ring`), plain
ints over Q (the field of a 4_1 row), and normalize once.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (CrossCheckError, HoldoutMismatchError, ParseError,
                     ResonantRoot, SingularError, SingularSystem, UnitCircleRoot)
from .laurent import LaurentPolynomial, RationalFunction
from .linalg import field_vector, solve_integer
from .numberfield import (FieldElement, FieldEmbedding, NumberField, Numerators, QQ,
                          _powers, poly_series)
from .rootsum import delta_basis_inverse, delta_power_sums, one_minus_u_power


def series_coefficients(rf: RationalFunction, count: int) -> List[FieldElement]:
    """First `count` power series coefficients of a rational function that is
    regular at t = 0."""
    zero = rf.field.zero()
    num, nshift = rf.num.as_poly_coeffs()
    den, dshift = rf.den.as_poly_coeffs()
    if dshift != 0:
        raise ParseError("denominator must be regular at t = 0")
    if nshift < 0:
        raise ParseError("series has a pole at t = 0")
    inv0 = den[0].inverse()
    return poly_series([zero] * nshift + num, den, count, zero, lambda x, _: x * inv0)


# ---------------------------------------------------------------------------
# Cover polynomials
# ---------------------------------------------------------------------------

class CoverPolynomial:
    """p(x_1..x_r, y) with x_j standing for 1/(1 - lam_j^n) and y for n.

    terms maps (alpha, beta) -> coefficient with alpha a length-r exponent
    tuple, |alpha| <= 2*ell - 2, and 1 <= beta <= ell - 1.
    """

    def __init__(self, field: NumberField, ell: int, roots: Sequence[FieldElement],
                 terms: Dict[Tuple[Tuple[int, ...], int], FieldElement]):
        self.field = field
        self.ell = int(ell)
        self.roots = list(roots)
        self.r = len(self.roots)
        if self.ell < 2:
            raise ParseError("ell must be >= 2")
        clean = {}
        for (alpha, beta), c in terms.items():
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.r:
                raise ParseError("alpha length must equal the number of root pairs")
            if sum(alpha) > 2 * self.ell - 2:
                raise ParseError("total x-degree exceeds 2*ell - 2")
            if not 1 <= beta <= self.ell - 1:
                raise ParseError("y-degree must lie in 1..ell-1")
            if not c.is_zero():
                clean[(alpha, int(beta))] = c
        self.terms = clean
        self._compiled = None

    @classmethod
    def basis(cls, r: int, ell: int):
        """Canonical dense index set; size (ell-1) * C(r + 2ell - 2, r)."""
        alphas = [a for a in itertools.product(range(2 * ell - 1), repeat=r)
                  if sum(a) <= 2 * ell - 2]
        alphas.sort()
        return [(alpha, beta) for beta in range(1, ell) for alpha in alphas]

    @classmethod
    def from_table(cls, delta: LaurentPolynomial, table,
                   lam: FieldElement) -> "CoverPolynomial":
        """The one-root-pair p with p(1/(1 - lam^n), n) the sum over the n-th
        roots of unity of sum_k c_k(n) delta^(-k), the inverse of
        `quad_to_delta_form`.

        delta = A(t + 1/t) + B is a palindromic quadratic over a field F,
        lam a root of it in a field K that F embeds into
        (`delta_embedding`), and the table maps k >= 0 to
        [c_(k,0), c_(k,1), ...] over F with c_k(n) = sum_j c_(k,j) n^(-j).
        With x = 1/(1 - lam^n), row k of `rootsum.delta_power_sums` gives
        sum delta^(-k) = A^(-k) sum_i alpha_(k,i)(n) x^i for k >= 1, and
        delta^0 sums to n.  ell is the least that holds the result.  Raises
        ParseError for a row k < 0 and when powers n^e with e <= 0 survive,
        which puts p outside the canonical basis; ResonantRoot when
        lam^2 = 1."""
        if any(k < 0 for k in table):
            raise ParseError("cover polynomials take delta-power rows k >= 0 only")
        embed = delta_embedding(delta, lam)
        field = lam.field
        a_inv = delta.coefficient(1).inverse()
        alpha = delta_power_sums(lam, max(table, default=0))
        n_itself = [LaurentPolynomial(field, {1: 1})]
        acc: Dict[Tuple[int, int], FieldElement] = {}
        for k, coeffs in table.items():
            row = alpha[k] if k else n_itself
            scale = a_inv ** k
            for j, cj in enumerate(coeffs):
                if cj.is_zero():
                    continue
                c = embed(cj * scale)
                for i, poly in enumerate(row):
                    for e, a in poly.coeffs.items():
                        key = (i, e - j)
                        acc[key] = acc[key] + c * a if key in acc else c * a
        terms = {key: v for key, v in acc.items() if not v.is_zero()}
        bad = sorted(key for key in terms if key[1] < 1)
        if bad:
            raise ParseError(f"powers n^e with e <= 0 survive at (x-degree, e) "
                             f"= {bad}")
        ell = max([2] + [e + 1 for _, e in terms] + [(i + 1) // 2 + 1 for i, _ in terms])
        return cls(field, ell, [lam], {((i,), e): v for (i, e), v in terms.items()})

    def evaluate(self, n: int) -> FieldElement:
        """p at x_j = 1/(1 - lam_j^n), y = n."""
        return self._evaluate(n, next(_x_steps(self.field, self.roots, [n])))

    def _evaluate(self, n: int, xs: Sequence[FieldElement]) -> FieldElement:
        """p at the values xs of x_j for n, on numerators in the field's
        ring, normalized once.  P_alpha = sum_beta c_(alpha,beta) n^beta is
        a numerator over the common denominator D of the coefficients
        (`_integer_form`, built on first use).  With x_j = X_j / E_j, one
        root pair is a homogenized Horner pass (`_horner`), over D E^top;
        more root pairs are one sum of P_alpha prod_j X_j^alpha_j times
        prod_j E_j^(K_j - alpha_j), over D prod_j E_j^K_j, with K_j the
        largest alpha_j."""
        field, ring = self.field, self.field.ring
        if self._compiled is None:
            self._compiled = _integer_form(field, self.ell, self.terms)
        den, blocks = self._compiled
        if not blocks:
            return field.zero()
        powers = [n ** beta for beta in range(1, self.ell)]
        by_alpha = {alpha: ring.combine(block, powers) for alpha, block in blocks.items()}
        if self.r == 1:
            x = xs[0]
            top = max(a for a, in by_alpha)
            acc, f = _horner(ring, [by_alpha.get((a,)) for a in range(top + 1)],
                             ring.numerator(x), x.den)
            return ring.element(acc, den * f)
        tops = [max(alpha[j] for alpha in by_alpha) for j in range(self.r)]
        # X^a and the powers of E, per root pair
        x_powers, e_powers = [], []
        for x, t in zip(xs, tops):
            table, e = [None, ring.numerator(x)], [1, x.den]
            for _ in range(t - 1):
                table.append(ring.mul(table[-1], table[1]))
                e.append(e[-1] * x.den)
            x_powers.append(table)
            e_powers.append(e)
        acc = ring.zero
        for alpha, p in by_alpha.items():
            f = 1
            for a, t, table, e in zip(alpha, tops, x_powers, e_powers):
                f *= e[t - a]
                if a:
                    p = ring.mul(p, table[a])
            acc = ring.add_times(acc, p, f)
        return ring.element(acc, den * prod(e[t] for e, t in zip(e_powers, tops)))

    def __eq__(self, other):
        return (isinstance(other, CoverPolynomial) and self.ell == other.ell
                and self.roots == other.roots and self.terms == other.terms)

    # -- serialization: alpha emitted in paired (a_j, 0) form ------------------

    def to_json(self) -> dict:
        terms = []
        for (alpha, beta), c in sorted(self.terms.items()):
            paired = []
            for a in alpha:
                paired.extend([a, 0])
            terms.append({"alpha": paired, "beta": beta, "coeff": c.to_json()})
        return {"ell": self.ell, "r": self.r,
                "roots": [lam.to_json() for lam in self.roots],
                "terms": terms}

    @classmethod
    def from_json(cls, obj, field: Optional[NumberField] = None) -> "CoverPolynomial":
        if field is None:
            field = NumberField.from_json(obj["roots"][0]) if obj.get("roots") else QQ
        roots = [FieldElement.from_json(x, field) for x in obj.get("roots", [])]
        ell = int(obj["ell"])
        r = len(roots)
        terms: Dict[Tuple[Tuple[int, ...], int], FieldElement] = {}
        for item in obj.get("terms", []):
            paired = [int(a) for a in item["alpha"]]
            beta = int(item["beta"])
            coeff = FieldElement.from_json(item["coeff"], field)
            if len(paired) == r:
                paired = [x for a in paired for x in (a, 0)]
            if len(paired) != 2 * r:
                raise ParseError("alpha must have length 2r (or r)")
            # fold the redundant second variable of each pair through
            # 1/(1 - lam^{-n}) = 1 - 1/(1 - lam^n)
            expanded = [((0,) * r, coeff)]
            for j in range(r):
                a, b = paired[2 * j], paired[2 * j + 1]
                new = []
                for alpha_vec, c in expanded:
                    # multiply by u_j^a * (1 - u_j)^b
                    for k, bc in enumerate(one_minus_u_power(b)):
                        vec = list(alpha_vec)
                        vec[j] += a + k
                        new.append((tuple(vec), c * bc))
                expanded = new
            for alpha_vec, c in expanded:
                key = (alpha_vec, beta)
                terms[key] = terms.get(key, field.zero()) + c
        return cls(field, ell, roots, {k: v for k, v in terms.items()
                                       if not v.is_zero()})


def _x_steps(field: NumberField, roots: Sequence[FieldElement],
             ns: Sequence[int]) -> Iterator[List[FieldElement]]:
    """For each n of ns in turn, [x_j = 1/(1 - lam_j^n) for each root lam_j].
    lam^n is one product by lam from the previous n when n follows it, and
    binary powering otherwise."""
    one = field.one()
    powers, last = None, None
    for n in ns:
        if last is not None and n == last + 1:
            powers = [p * lam for p, lam in zip(powers, roots)]
        else:
            powers = [lam ** n for lam in roots]
        last = n
        xs = []
        for p in powers:
            diff = one - p
            if diff.is_zero():
                raise ResonantRoot(f"lam^{n} = 1 for a root")
            xs.append(diff.inverse())
        yield xs


def delta_embedding(delta: LaurentPolynomial, lam: FieldElement) -> FieldEmbedding:
    """The embedding of the field of delta = A(t + 1/t) + B into the field
    of its root lam: -B/A = lam + 1/lam.  ParseError when delta is not a
    palindromic quadratic or lam is not its root."""
    A = delta.coefficient(1)
    if set(delta.coeffs) - {-1, 0, 1} or A.is_zero() or delta.coefficient(-1) != A:
        raise ParseError("delta must be a palindromic quadratic A(t + 1/t) + B")
    return FieldEmbedding(-delta.coefficient(0) / A, lam + lam.inverse())


class DeltaFieldCover:
    """A one-root-pair cover polynomial p over the field of its root lam,
    rewritten over the field K of delta = A(t + 1/t) + B as a polynomial in
    y = 1/R_n, R_n = (1 - lam^n)(1 - lam^(-n)) = 2 - s_n, s_n = lam^n + lam^(-n).

    With x = (1 + z)/2, z = (lam^n - lam^(-n)) y changes sign under
    lam <-> 1/lam, z^2 = 1 - 4y and z (1/lam - lam) = (s_(n-1) - s_(n+1)) y.
    So the values of p lie in K when the coefficients of its even part in z,
    and of its odd part over 1/lam - lam, lie in K; construction maps them,
    written in y, into K once (`FieldEmbedding.restrict`), CrossCheckError
    otherwise.  A row is s_n and s_(n+1) by Lucas doubling from the kept s_1
    = -B/A and s_2 (`_lucas`), one adjugate of R_n and one homogenized Horner
    pass in y (`_horner`) in K's ring (ints when K = Q), normalized once."""

    def __init__(self, p: CoverPolynomial, delta: LaurentPolynomial):
        if p.r != 1:
            raise ParseError("a delta-field form needs exactly one root pair")
        lam = p.roots[0]
        embed = delta_embedding(delta, lam)
        field = self.field = embed.source
        self.ell = p.ell
        # ((y-degree, parity), n-degree) -> coefficient: x^i = ((1 + z)/2)^i,
        # z^(2m) = (1 - 4y)^m and z^(2m+1) = (s_(n-1) - s_(n+1)) y (1 - 4y)^m
        # over 1/lam - lam
        parts: Dict[Tuple[Tuple[int, int], int], FieldElement] = {}
        for ((i,), beta), c in p.terms.items():
            c = c * Fraction(1, 2 ** i)
            for k in range(i + 1):
                odd, m = k % 2, k // 2
                for j in range(m + 1):
                    key = ((j + odd, odd), beta)
                    term = c * (comb(i, k) * comb(m, j) * (-4) ** j)
                    parts[key] = parts[key] + term if key in parts else term
        w_inv = (lam.inverse() - lam).inverse()
        terms = {}
        for ((j, odd), beta), a in parts.items():
            try:
                terms[((j, odd), beta)] = embed.restrict(a * w_inv if odd else a)
            except CrossCheckError:
                raise CrossCheckError(
                    f"p is not symmetric under lam <-> 1/lam: the coefficient of "
                    f"y^{j} n^{beta} in its {('even', 'odd')[odd]} part in z does not "
                    f"lie in delta's field") from None
        self._den, blocks = _integer_form(
            field, self.ell, {key: v for key, v in terms.items() if not v.is_zero()})
        top = max((j for j, _ in blocks), default=-1)
        self._blocks = [(blocks.get((j, 0)), blocks.get((j, 1))) for j in range(top + 1)]
        s1 = -delta.coefficient(0) / delta.coefficient(1)
        # s_1 and s_2 = s_1^2 - 2 as numerators over q and q^2
        self._u1, self._q = u1, q = field.ring.numerator(s1), s1.den
        self._u2 = field.ring.plus(field.ring.mul(u1, u1), -2 * q * q)

    def evaluate(self, n: int) -> FieldElement:
        """p at x = 1/(1 - lam^n), y = n, in K; ResonantRoot when R_n = 0."""
        ring, q = self.field.ring, self._q
        mul, combine = ring.mul, ring.combine
        u, v, qn = _lucas(ring, self._u1, self._u2, q, n)
        # s_n - 2 = -R_n over q^n, so y = 1/R_n = q^n w / -det
        r = ring.plus(u, -2 * qn)
        if r == ring.zero:
            raise ResonantRoot(f"R_{n} = 0: lam^{n} = 1 for the root")
        if not self._blocks:
            return self.field.zero()
        w, det = ring.adjugate(r)
        # s_(n-1) - s_(n+1) = s_1 s_n - 2 s_(n+1) = d / q^(n+1), and each
        # coefficient of y goes over den q^(n+1)
        d = ring.add_times(mul(self._u1, u), v, -2)
        lift = qn * q
        powers = [n ** beta for beta in range(1, self.ell)]
        lifted = [p * lift for p in powers]
        coeffs = []
        for even, odd in self._blocks:
            c = None
            if even is not None:
                c = combine(even, lifted)
            if odd is not None:
                o = mul(d, combine(odd, powers))
                c = o if c is None else ring.add(c, o)
            coeffs.append(c)
        acc, f = _horner(ring, coeffs, ring.times(w, qn), -det)
        return ring.element(acc, self._den * lift * f)


def _integer_form(field: NumberField, ell: int, terms) -> tuple:
    """(D, blocks) for coefficients c_(key, beta), beta = 1..ell-1: their
    common denominator D and, per key, d rows (d the field degree) whose
    row i holds coordinate i of the numerators over D of c_(key,1), ...,
    c_(key,ell-1)."""
    zero = field.zero()
    terms = {key: zero + c for key, c in terms.items()}
    den = lcm(*(c.den for c in terms.values()))
    blocks: Dict[object, List[List[int]]] = {}
    for (key, beta), c in terms.items():
        block = blocks.setdefault(key, [[0] * (ell - 1) for _ in c.num])
        f = den // c.den
        for row, v in zip(block, c.num):
            row[beta - 1] = v * f
    return den, blocks


def _lucas(ring: Numerators, u1, u2, q: int, n: int):
    """(u_n, u_(n+1), q^n) with s_m = u_m / q^m for s_m = lam^m + lam^(-m),
    from s_1 = u1 / q and s_2 = u2 / q^2 by Lucas doubling on numerators in
    the field's ring: s_2m = s_m^2 - 2 and s_(2m+1) = s_m s_(m+1) - s_1."""
    mul, plus, add_times = ring.mul, ring.plus, ring.add_times
    a, b, qm = u1, u2, q
    for bit in bin(n)[3:]:
        q2 = qm * qm
        mixed = add_times(mul(a, b), u1, -q2)
        if bit == "1":
            qm = q2 * q
            a, b = mixed, plus(mul(b, b), -2 * qm * q)
        else:
            qm = q2
            a, b = plus(mul(a, a), -2 * q2), mixed
    return a, b, qm


def _horner(ring: Numerators, coeffs: Sequence, X, E: int):
    """(acc, f) with acc / f the sum of coeffs[a] (X / E)^a, for numerators
    coeffs[a] in the field's ring (None for zero; the last is not None) and
    X the numerator of x over E: the homogenized Horner pass
    acc <- acc X + coeffs[a] E^(top - a), over f = E^top."""
    mul, add_times = ring.mul, ring.add_times
    acc, f = coeffs[-1], 1
    for p in reversed(coeffs[:-1]):
        acc = mul(acc, X)
        f *= E
        if p is not None:
            acc = add_times(acc, p, f)
    return acc, f


def _monomial(tables: Sequence[Sequence[FieldElement]], alpha: Tuple[int, ...]):
    """prod_j x_j^alpha_j from the power tables, or None when alpha is 0."""
    v = None
    for table, a in zip(tables, alpha):
        if a:
            v = table[a] if v is None else v * table[a]
    return v


def reconstruction_matrix(field: NumberField, roots: Sequence[FieldElement],
                          ell: int, ns: Sequence[int]) -> List[List[FieldElement]]:
    """One row per n: the canonical basis monomials n^beta prod_j x_j^alpha_j
    at x_j = 1/(1 - lam_j^n), in the order of CoverPolynomial.basis."""
    basis = CoverPolynomial.basis(len(roots), ell)
    alphas = sorted({alpha for alpha, _ in basis})
    rows = []
    for n, xs in zip(ns, _x_steps(field, roots, ns)):
        tables = [_powers(x, 2 * ell - 1) for x in xs]
        monomials = {alpha: _monomial(tables, alpha) for alpha in alphas}
        n_powers = [field.element(n ** beta) for beta in range(ell)]
        rows.append([n_powers[beta] if monomials[alpha] is None
                     else monomials[alpha] * n_powers[beta] for alpha, beta in basis])
    return rows


def reconstruction_system(field: NumberField, roots: Sequence[FieldElement],
                          ell: int, window: Sequence[Tuple[int, FieldElement]],
                          steps: Optional[Iterator[List[FieldElement]]] = None):
    """The square system of `reconstruction_matrix` at the window's n with
    the window's values on the right, written over Z as
    `linalg.solve_integer` takes it (unknown k*d + j is coordinate j of
    basis coefficient k).  Each n gives the d rows of
    `NumberField.integer_rows` of the monomials x^alpha with the value as
    target: the multiplication matrix of each monomial is built once and
    times n^beta serves every beta, and each equation is made primitive.
    `steps`, an iterator of `_x_steps` that starts at the window, lets a
    caller go on stepping lam^n past it."""
    basis = CoverPolynomial.basis(len(roots), ell)
    alphas = sorted({alpha for alpha, _ in basis})
    one = field.one()
    if steps is None:
        steps = _x_steps(field, roots, [n for n, _ in window])
    M, rhs = [], []
    for (n, value), xs in zip(window, steps):
        tables = [_powers(x, 2 * ell - 1) for x in xs]
        monomials = [_monomial(tables, alpha) for alpha in alphas]
        # row c of the columns of every alpha, in basis order, the value last
        rows, _ = field.integer_rows([one if x is None else x for x in monomials], value)
        powers = [n ** beta for beta in range(1, ell)]
        for row in rows:
            v = row.pop()
            eq = [a * p for p in powers for a in row]
            g = gcd(v, *eq)
            if g > 1:
                eq, v = [a // g for a in eq], v // g
            rhs.append(v)
            M.append(eq)
    return M, rhs


def reconstruct_p(values: Sequence[Tuple[int, FieldElement]],
                  roots: Sequence[FieldElement], ell: int, r: int) -> CoverPolynomial:
    """Solve for the cover polynomial from consecutive sequence values.

    Needs at least (ell-1) * C(r + 2ell - 2, r) values; the first that many
    build the square linear system, the rest validate the solution exactly.
    """
    if len(roots) != r:
        raise ParseError("expected one root per pair")
    field = roots[0].field if roots else QQ
    basis = CoverPolynomial.basis(r, ell)
    needed = (ell - 1) * comb(r + 2 * ell - 2, r)
    if len(basis) != needed:
        raise CrossCheckError(f"{len(basis)} basis monomials, count formula "
                              f"says {needed}")
    if len(values) < needed:
        raise ParseError(f"need {needed} values, got {len(values)}")
    # one stepping of lam^n serves the window and then the hold-outs
    steps = _x_steps(field, roots, [n for n, _ in values])
    try:
        num, den = solve_integer(*reconstruction_system(field, roots, ell,
                                                        values[:needed], steps))
    except SingularError as exc:
        raise SingularSystem("reconstruction system is singular "
                             "(resonance or bad window)") from exc
    coeffs = field_vector(field, num, den)
    terms = {key: c for key, c in zip(basis, coeffs) if not c.is_zero()}
    p = CoverPolynomial(field, ell, list(roots), terms)
    for (n, v), xs in zip(values[needed:], steps):
        got = p._evaluate(n, xs)
        if got != v:
            raise HoldoutMismatchError(
                f"reconstruction fails at held-out n = {n}: recovered polynomial "
                f"p({n}) = {got!r}, input value = {v!r}")
    return p


# ---------------------------------------------------------------------------
# Asymptotics
# ---------------------------------------------------------------------------

_ABS_PRECISIONS = (30, 60, 120, 240)


def _abs_vs_one(lam: FieldElement) -> int:
    """+1, -1 by certified comparison of |lam| with 1; UnitCircleRoot if the
    comparison cannot be decided at escalating precision."""
    for digits in _ABS_PRECISIONS:
        ball = lam.embed(None, digits)
        if ball.abs_lower() > 1:
            return 1
        if ball.abs_upper() < 1:
            return -1
    raise UnitCircleRoot(f"|lam| = 1 within precision for {lam!r}")


def leading_asymptotic(p: CoverPolynomial) -> FieldElement:
    """Limit coefficient: substitute x_j -> 0 (|lam_j| > 1) or 1 (|lam_j| < 1)
    and return the coefficient of y^1."""
    subs = []
    for lam in p.roots:
        side = _abs_vs_one(lam)
        subs.append(p.field.zero() if side > 0 else p.field.one())
    out = p.field.zero()
    for (alpha, beta), c in p.terms.items():
        if beta != 1:
            continue
        v = c
        for x, a in zip(subs, alpha):
            if a:
                v = v * x ** a
        out = out + v
    return out


def asymptotic_fit_check(values: Sequence[Tuple[int, FieldElement]],
                         psi: FieldElement, lam_max: FieldElement, ell: int,
                         precision_digits: int = 80) -> bool:
    """Monitor |Phi_n - n psi| / (n^{ell-1} |lam|^{-n}) over the window.

    Returns False when the ratio grows by more than a factor of two from the
    first half of the window to the second (or is unbounded); True when the
    envelope holds.
    """
    if len(values) < 4:
        raise ParseError("need at least 4 values")
    import mpmath
    with mpmath.workdps(precision_digits + 10):
        psi_c = psi.to_mpc(precision_digits)
        lam_abs = abs(lam_max.to_mpc(precision_digits))
        ratios = []
        for n, v in values:
            vc = v.to_mpc(precision_digits)
            diff = abs(vc - n * psi_c)
            # rounding noise floor; exact coincidences must register as zero
            floor = (abs(vc) + abs(n * psi_c) + 1) * mpmath.mpf(10) ** (-precision_digits)
            if diff <= floor:
                diff = mpmath.mpf(0)
            envelope = mpmath.mpf(n) ** (ell - 1) * lam_abs ** (-n)
            ratios.append(diff / envelope)
        mid = len(ratios) // 2
        first = max(ratios[:mid])
        second = max(ratios[mid:])
        if first == 0:
            return second == 0
        return second <= 2 * first


# ---------------------------------------------------------------------------
# Quadratic-delta change of basis
# ---------------------------------------------------------------------------

def quad_to_delta_form(p: CoverPolynomial
                       ) -> Tuple[LaurentPolynomial, Dict[int, List[FieldElement]]]:
    """(delta, table): the monic delta = t - (lam + 1/lam) + 1/t over p's
    field, lam = p.roots[0], and the phi-table of p over it, the exact
    inverse of `CoverPolynomial.from_table`:
    `from_table(delta, table, lam) == p`.  Row k is [c_(k,0), c_(k,1), ...]
    up to its last nonzero slot; a row with no nonzero slot is left out.

    Uses the triangular basis inverse: u^a = sum_i beta_{a,i}(1/n) S_i with
    S_0 = 1 = sum_{t^n=1} (1/n) and S_i the delta power sums; positive
    powers of n must cancel in the assembled table (they do for sequences
    with linear leading asymptotics), otherwise the input is rejected.
    """
    if p.r != 1:
        raise ParseError("quadratic form needs exactly one root pair")
    lam = p.roots[0]
    field = p.field
    a_max = max((alpha[0] for (alpha, _) in p.terms), default=0)
    beta_rows = delta_basis_inverse(lam, a_max) if a_max > 0 else \
        [[LaurentPolynomial.one(field)]]
    out: Dict[Tuple[int, int], FieldElement] = {}
    for (alpha, beta), c in p.terms.items():
        a = alpha[0]
        # n^beta * u^a -> sum_i [beta_{a,i}(1/n) adjusted] delta^(-i)
        row = beta_rows[a]
        for i in range(a + 1):
            entry = row[i]
            if entry.is_zero():
                continue
            for exp, coeff in entry.coeffs.items():
                # exp <= 0 power of n from the basis inverse; S_0 carries an
                # extra 1/n when pushed under the root-of-unity sum
                n_power = exp + beta - (1 if i == 0 else 0)
                key = (i, -n_power)
                out[key] = out.get(key, field.zero()) + c * coeff
    out = {k: v for k, v in out.items() if not v.is_zero()}
    bad = sorted(k for k in out if k[1] < 0)
    if bad:
        raise ParseError(f"positive powers of n survive: {bad}")
    table: Dict[int, List[FieldElement]] = {}
    for (i, j), c in out.items():
        row = table.setdefault(i, [])
        row.extend([field.zero()] * (j + 1 - len(row)))
        row[j] = c
    delta = LaurentPolynomial(field, {1: 1, 0: -(lam + lam.inverse()), -1: 1})
    return delta, table
