"""Laurent polynomials, rational functions and matrices over a number field.

Laurent polynomials are sparse maps exponent -> coefficient with no stored
zeros.  Rational functions are kept reduced (unit gcd) and carry a canonical
unit normalization: the denominator has lowest exponent 0 and constant term
1, which makes serialized forms and equality tests bit-exact.

Determinants and solves G^-1 R of matrices run the fraction-free elimination
`numberfield.bareiss` over the Laurent ring (on [G | R] for a solve), so
entries stay polynomial and every division is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence

from .errors import (MathDomainError, NotDivisible, ParseError, SingularMatrix,
                     ZeroBase)
from .numberfield import (FieldElement, NumberField, bareiss, parse_rational,
                          poly_divmod)


def _as_element(field: NumberField, value) -> FieldElement:
    if isinstance(value, FieldElement):
        if value.field == field:
            return value
        if value.field.degree == 1:
            return field.element(value.coords[0])
        if field.degree == 1:
            raise TypeError("cannot demote a non-rational element to QQ")
        raise TypeError("coefficient from a different field")
    return field.element(parse_rational(value))


class LaurentPolynomial:
    """Sparse Laurent polynomial sum c_k t^k over a fixed number field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: Dict[int, FieldElement] | None = None):
        self.field = field
        clean: Dict[int, FieldElement] = {}
        if coeffs:
            for k, v in coeffs.items():
                v = _as_element(field, v)
                if not v.is_zero():
                    clean[int(k)] = v
        self.coeffs = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field: NumberField) -> "LaurentPolynomial":
        return cls(field, {})

    @classmethod
    def one(cls, field: NumberField) -> "LaurentPolynomial":
        return cls(field, {0: field.one()})

    @classmethod
    def from_coeff_list(cls, field: NumberField, coeffs: Sequence, shift: int = 0):
        return cls(field, {i + shift: c for i, c in enumerate(coeffs)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def min_exp(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    def coefficient(self, k: int) -> FieldElement:
        return self.coeffs.get(k, self.field.zero())

    def as_poly_coeffs(self):
        """Return (dense coefficient list, shift) with p = t^shift * sum c_i t^i."""
        if self.is_zero():
            return [], 0
        lo, hi = self.min_exp(), self.max_exp()
        out = [self.field.zero()] * (hi - lo + 1)
        for k, v in self.coeffs.items():
            out[k - lo] = v
        return out, lo

    def degree_span(self) -> int:
        return 0 if self.is_zero() else self.max_exp() - self.min_exp()

    # -- ring operations ------------------------------------------------------

    def _pair(self, other):
        """(self, other) over one field: a scalar becomes a constant over
        its own field (self's for an int or a Fraction), and the operand over
        Q is lifted into the field of the other.  NotImplemented for other
        types; TypeError for incompatible fields."""
        if isinstance(other, FieldElement):
            other = LaurentPolynomial(other.field, {0: other})
        elif isinstance(other, (int, Fraction)):
            return self, LaurentPolynomial(self.field, {0: other})
        if isinstance(other, LaurentPolynomial):
            if other.field == self.field:
                return self, other
            if other.field.degree == 1:
                return self, LaurentPolynomial(self.field, other.coeffs)
            if self.field.degree == 1:
                return LaurentPolynomial(other.field, self.coeffs), other
            raise TypeError("Laurent polynomials over incompatible fields")
        return NotImplemented

    def _binop(self, other, op):
        pair = self._pair(other)
        return NotImplemented if pair is NotImplemented else op(*pair)

    def __add__(self, other):
        def add(a, b):
            out = dict(a.coeffs)
            for k, v in b.coeffs.items():
                out[k] = out.get(k, a.field.zero()) + v
            return LaurentPolynomial(a.field, out)
        return self._binop(other, add)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(self.field, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a + (-b))

    def __mul__(self, other):
        def mul(a, b):
            out: Dict[int, FieldElement] = {}
            for i, c in a.coeffs.items():
                for j, d in b.coeffs.items():
                    k = i + j
                    prod = c * d
                    if k in out:
                        out[k] = out[k] + prod
                    else:
                        out[k] = prod
            return LaurentPolynomial(a.field, out)
        return self._binop(other, mul)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers only via RationalFunction")
        result = LaurentPolynomial.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPolynomial":
        return LaurentPolynomial(self.field, {e + k: v for e, v in self.coeffs.items()})

    def invert_variable(self) -> "LaurentPolynomial":
        """Substitute t -> 1/t."""
        return LaurentPolynomial(self.field, {-k: v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            other = LaurentPolynomial(other.field, {0: other})
        elif isinstance(other, (int, Fraction)):
            other = LaurentPolynomial(self.field, {0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if other.field != self.field:
            try:
                diff = self - other
            except TypeError:
                return False
            return diff.is_zero()
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(f"({c!r})")
            elif k == 1:
                parts.append(f"({c!r})*t")
            else:
                parts.append(f"({c!r})*t^{k}")
        return " + ".join(parts)

    # -- evaluation -----------------------------------------------------------

    def eval(self, a) -> FieldElement:
        """Exact value sum c_k a^k; a may live in an extension field."""
        if self.is_zero():
            if isinstance(a, FieldElement):
                return a.field.zero()
            return self.field.zero()
        if not isinstance(a, FieldElement):
            a = self.field.element(parse_rational(a))
        if a.is_zero() and self.min_exp() < 0:
            raise ZeroBase("evaluation at 0 with negative exponents present")
        target = a.field if a.field.degree > 1 else self.field
        acc = target.zero()
        for k, c in self.coeffs.items():
            acc = acc + a ** k * c
        return acc

    # -- division --------------------------------------------------------------

    def divmod_poly(self, other: "LaurentPolynomial"):
        """Division in the polynomialized forms; returns (quotient, remainder)
        with self = q*other + r as Laurent polynomials (shifts handled)."""
        pair = self._pair(other)
        if pair is NotImplemented:
            raise TypeError(f"cannot divide a Laurent polynomial by {type(other).__name__}")
        if pair[1].is_zero():
            raise ZeroDivisionError("Laurent division by zero")
        p, o = pair
        if p.is_zero():
            return p, p
        field = p.field
        a, sa = p.as_poly_coeffs()
        b, sb = o.as_poly_coeffs()
        quo, rem = poly_divmod(a, b, field.zero(), field.one())
        q_lp = LaurentPolynomial.from_coeff_list(field, quo, sa - sb)
        r_lp = LaurentPolynomial.from_coeff_list(field, rem, sa)
        return q_lp, r_lp

    def divide_exact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        q, r = self.divmod_poly(other)
        if not r.is_zero():
            raise NotDivisible("inexact Laurent division")
        return q

    def divides(self, other: "LaurentPolynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        return other.divmod_poly(self)[1].is_zero()

    def gcd(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Monic gcd of the polynomialized forms (unit-normalized, exponent 0 low)."""
        a, b = self._pair(other)
        if a.is_zero():
            return b.monic() if not b.is_zero() else b
        if b.is_zero():
            return a.monic()
        a = a.shift(-a.min_exp())
        b = b.shift(-b.min_exp())
        while not b.is_zero():
            a, b = b, a.divmod_poly(b)[1]
            if not b.is_zero():
                b = b.shift(-b.min_exp())
        return a.monic()

    def monic(self) -> "LaurentPolynomial":
        """Normalize: lowest exponent 0, leading (highest) coefficient 1."""
        if self.is_zero():
            return self
        p = self.shift(-self.min_exp())
        lead = p.coeffs[p.max_exp()]
        return p * lead.inverse()

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {str(k): v.to_json() for k, v in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, obj, field: NumberField) -> "LaurentPolynomial":
        if not isinstance(obj, dict):
            raise ParseError("Laurent polynomial must be an object {exponent: element}")
        out = {}
        for k, v in obj.items():
            try:
                exp = int(k)
            except ValueError as exc:
                raise ParseError(f"bad exponent key {k!r}") from exc
            out[exp] = FieldElement.from_json(v, field)
        return cls(field, out)


class RationalFunction:
    """Reduced quotient of Laurent polynomials with canonical normalization."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPolynomial, den: LaurentPolynomial, reduce: bool = True):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = num._pair(den)
        if num.is_zero():
            den = LaurentPolynomial.one(den.field)
        elif reduce:
            g = num.gcd(den)
            if g.degree_span() > 0:
                num = num.divide_exact(g)
                den = den.divide_exact(g)
        # canonical unit: denominator lowest exponent 0, constant term 1
        k = den.min_exp()
        num = num.shift(-k)
        den = den.shift(-k)
        c = den.coefficient(0)
        cinv = c.inverse()
        self.num = num * cinv
        self.den = den * cinv

    @classmethod
    def from_poly(cls, p: LaurentPolynomial) -> "RationalFunction":
        return cls(p, LaurentPolynomial.one(p.field), reduce=False)

    @property
    def field(self):
        return self.num.field if not self.num.is_zero() else self.den.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den == LaurentPolynomial.one(self.den.field)

    def as_polynomial(self) -> LaurentPolynomial:
        if not self.den.divides(self.num):
            raise ValueError("not a Laurent polynomial")
        return self.num.divide_exact(self.den)

    # -- field operations ----------------------------------------------------------

    def _coerce(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, LaurentPolynomial):
            return RationalFunction.from_poly(other)
        if isinstance(other, FieldElement):
            return RationalFunction.from_poly(LaurentPolynomial(other.field, {0: other}))
        if isinstance(other, (int, Fraction)):
            return RationalFunction.from_poly(LaurentPolynomial(self.den.field, {0: other}))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num, reduce=False)

    def __pow__(self, n: int):
        if n == 0:
            return RationalFunction.from_poly(LaurentPolynomial.one(self.field))
        base = self if n > 0 else self.reciprocal()
        return RationalFunction(base.num ** abs(n), base.den ** abs(n), reduce=False)

    def invert_variable(self) -> "RationalFunction":
        return RationalFunction(self.num.invert_variable(), self.den.invert_variable())

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.is_polynomial():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

    def eval(self, a) -> FieldElement:
        d = self.den.eval(a)
        if d.is_zero():
            raise ZeroDivisionError(f"denominator vanishes at {a!r}")
        return self.num.eval(a) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, obj, field: NumberField) -> "RationalFunction":
        if not isinstance(obj, dict) or "num" not in obj or "den" not in obj:
            raise ParseError("rational function needs 'num' and 'den'")
        den = LaurentPolynomial.from_json(obj["den"], field)
        if den.is_zero():
            raise ParseError("rational function has a zero denominator")
        return cls(LaurentPolynomial.from_json(obj["num"], field), den)


class LaurentMatrix:
    """Dense rectangular matrix with LaurentPolynomial entries."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: NumberField, entries: List[List[LaurentPolynomial]]):
        self.field = field
        self.entries = entries
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != self.cols:
                raise ParseError("ragged matrix")

    @classmethod
    def from_rows(cls, field: NumberField, rows) -> "LaurentMatrix":
        out = []
        for row in rows:
            out.append([e if isinstance(e, LaurentPolynomial)
                        else LaurentPolynomial(field, {0: e}) for e in row])
        return cls(field, out)

    @classmethod
    def identity(cls, field: NumberField, n: int) -> "LaurentMatrix":
        one = LaurentPolynomial.one(field)
        zero = LaurentPolynomial.zero(field)
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        return (isinstance(other, LaurentMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and all(self.entries[i][j] == other.entries[i][j]
                        for i in range(self.rows) for j in range(self.cols)))

    def _check_same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise MathDomainError(f"matrix shapes {self.rows}x{self.cols} and "
                                  f"{other.rows}x{other.cols} differ")

    def __add__(self, other):
        self._check_same_shape(other)
        return LaurentMatrix(self.field,
                             [[self.entries[i][j] + other.entries[i][j]
                               for j in range(self.cols)] for i in range(self.rows)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return LaurentMatrix(self.field,
                             [[self.entries[i][j] - other.entries[i][j]
                               for j in range(self.cols)] for i in range(self.rows)])

    def __neg__(self):
        return LaurentMatrix(self.field,
                             [[-self.entries[i][j] for j in range(self.cols)]
                              for i in range(self.rows)])

    def __mul__(self, other):
        if isinstance(other, LaurentMatrix):
            if self.cols != other.rows:
                raise MathDomainError(f"cannot multiply {self.rows}x{self.cols} "
                                      f"by {other.rows}x{other.cols}")
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = LaurentPolynomial.zero(self.field)
                    for k in range(self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return LaurentMatrix(self.field, out)
        return LaurentMatrix(self.field,
                             [[e * other for e in row] for row in self.entries])

    __rmul__ = __mul__

    def transpose(self) -> "LaurentMatrix":
        return LaurentMatrix(self.field,
                             [[self.entries[i][j] for i in range(self.rows)]
                              for j in range(self.cols)])

    def invert_variable(self) -> "LaurentMatrix":
        return LaurentMatrix(self.field,
                             [[e.invert_variable() for e in row] for row in self.entries])

    def exponents(self):
        out = set()
        for row in self.entries:
            for e in row:
                out.update(e.coeffs)
        return sorted(out)

    def coefficient_matrix(self, k: int):
        """k-th coefficient as a plain field matrix (list of lists)."""
        return [[e.coefficient(k) for e in row] for row in self.entries]

    def eval(self, a):
        """Entrywise exact evaluation at a field point; plain field matrix."""
        return [[e.eval(a) for e in row] for row in self.entries]

    def _square(self, what: str) -> int:
        if self.rows != self.cols:
            raise MathDomainError(f"{what} of a non-square {self.rows}x{self.cols} matrix")
        return self.rows

    def det(self) -> LaurentPolynomial:
        """Sign times last pivot of `bareiss`; 0 when a pivot is missing."""
        n = self._square("determinant")
        if n == 0:
            return LaurentPolynomial.one(self.field)
        pivots, last, sign = bareiss(list(self.entries), n, LaurentPolynomial.divide_exact)
        if len(pivots) < n:
            return LaurentPolynomial.zero(self.field)
        return last if sign == 1 else -last

    def solve(self, rhs: "LaurentMatrix"):
        """self^-1 rhs as lists of RationalFunction (right block over the
        last pivot) from one `bareiss` of [self | rhs]; raises SingularMatrix."""
        n = self._square("solve")
        if rhs.rows != n:
            raise MathDomainError(f"solve of a {n}x{n} system with {rhs.rows} rows")
        aug = [a + b for a, b in zip(self.entries, rhs.entries)]
        pivots, last, _ = bareiss(aug, n, LaurentPolynomial.divide_exact)
        if len(pivots) < n:
            raise SingularMatrix("matrix has zero determinant")
        return [[RationalFunction(e, last) for e in row[n:]] for row in aug]

    def inverse(self):
        """`solve` of the identity; kept as the span the bench tracer wraps."""
        return self.solve(LaurentMatrix.identity(self.field, self.rows))
