"""Twisted gluing data: A(t), B(t), shapes, and the derived objects.

Construction validates the structural invariants hard (they are load-bearing
for every downstream identity): shapes away from {0, 1}, the inversion
symmetry A(1/t) B(t)^T = B(1/t) A(t)^T, nonzero det B(t), and divisibility
of det B(t) by t - 1.  Derived objects (the one-loop polynomial, the
symbolic propagator) are computed once and cached on the instance.
"""

from __future__ import annotations

from typing import List, Optional

from .circulant import BlockCirculant, cover_blocks_from_symbolic
from .errors import (NotDivisible, ParseError, SingularAtRoot, SingularMatrix,
                     ValidationError)
from .laurent import LaurentMatrix, LaurentPolynomial
from .numberfield import FieldElement, NumberField, parse_int


class PeripheralRows:
    """Integer completeness rows replacing one gluing row."""

    __slots__ = ("a_mu", "b_mu", "a_lambda", "b_lambda", "replaced_row")

    def __init__(self, a_mu=None, b_mu=None, a_lambda=None, b_lambda=None,
                 replaced_row: int = -1):
        self.a_mu = list(a_mu) if a_mu is not None else None
        self.b_mu = list(b_mu) if b_mu is not None else None
        self.a_lambda = list(a_lambda) if a_lambda is not None else None
        self.b_lambda = list(b_lambda) if b_lambda is not None else None
        self.replaced_row = replaced_row

    def to_json(self):
        rows = {"a_mu": self.a_mu, "b_mu": self.b_mu,
                "a_lambda": self.a_lambda, "b_lambda": self.b_lambda}
        out = {key: row for key, row in rows.items() if row is not None}
        if self.replaced_row >= 0:
            out["replaced_row"] = self.replaced_row
        return out

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ParseError("'peripheral' must be an object")
        rows = [obj.get(key) for key in ("a_mu", "b_mu", "a_lambda", "b_lambda")]
        if not all(row is None or isinstance(row, list) for row in rows):
            raise ParseError("peripheral rows must be lists")
        return cls(*rows, parse_int(obj.get("replaced_row", -1), "replaced_row"))


class TwistedNZData:
    """Validated twisted gluing-exponent data for N tetrahedra."""

    def __init__(self, field: NumberField, A: LaurentMatrix, B: LaurentMatrix,
                 shapes: List[FieldElement],
                 peripheral: Optional[PeripheralRows] = None):
        self.field = field
        self.N = len(shapes)
        if A.rows != self.N or A.cols != self.N or B.rows != self.N or B.cols != self.N:
            raise ValidationError("A(t), B(t) must be N x N with N = number of shapes")
        self.A = A
        self.B = B
        self.shapes = list(shapes)
        self.peripheral = peripheral
        one = field.one()
        for z in self.shapes:
            if z.is_zero() or (z - one).is_zero():
                raise ValidationError("shapes must avoid 0 and 1")
        self.zp = [(one - z).inverse() for z in self.shapes]          # z' = 1/(1-z)
        self._delta = None
        self._pi_symbolic = None
        self._pi1 = None
        self._pi_mu = None
        self.validate()

    # -- validation ---------------------------------------------------------

    def validate(self):
        lhs = self.A.invert_variable() * self.B.transpose()
        rhs = self.B.invert_variable() * self.A.transpose()
        if lhs != rhs:
            raise ValidationError("inversion symmetry A(1/t) B(t)^T = B(1/t) A(t)^T fails")
        detB = self.B.det()
        if detB.is_zero():
            raise ValidationError("det B(t) = 0")
        t_minus_1 = LaurentPolynomial(self.field, {1: 1, 0: -1})
        if not t_minus_1.divides(detB):
            raise ValidationError("det B(t) must vanish at t = 1")

    # -- twisted one-loop polynomial -----------------------------------------

    def _gluing_matrix(self, A: LaurentMatrix, B: LaurentMatrix) -> LaurentMatrix:
        """A - B Delta_{z'}."""
        N = self.N
        scaled = [[B.entries[i][j] * self.zp[j] for j in range(N)]
                  for i in range(N)]
        return A - LaurentMatrix(self.field, scaled)

    def one_loop_determinant(self) -> LaurentPolynomial:
        return self._gluing_matrix(self.A, self.B).det()

    def twisted_one_loop(self) -> LaurentPolynomial:
        """det(A(t) - B(t) Delta_{z'}) / (t - 1), unit-normalized.

        Only well-defined up to a unit +-t^k f; the canonical representative
        has lowest exponent 0 and a leading coefficient whose first nonzero
        rational coordinate is positive.
        """
        if self._delta is not None:
            return self._delta
        det = self.one_loop_determinant()
        t_minus_1 = LaurentPolynomial(self.field, {1: 1, 0: -1})
        if det.is_zero() or not t_minus_1.divides(det):
            raise NotDivisible("determinant not divisible by t - 1; invalid data")
        delta = det.divide_exact(t_minus_1)
        self._delta = normalize_unit(delta)
        return self._delta

    # -- propagators -------------------------------------------------------------

    def propagator_symbolic(self):
        """(-B(t)^{-1} A(t) + Delta_{z'})^{-1} as RationalFunction entries.

        Computed as (A - B Delta)^{-1} (-B): one fraction-free elimination
        of a Laurent matrix.
        """
        if self._pi_symbolic is None:
            self._pi_symbolic = self._gluing_matrix(self.A, self.B).solve(-self.B)
        return self._pi_symbolic

    def propagator_at_one(self):
        """Pi(1), evaluated once per dataset.  An entry whose denominator
        vanishes at t = 1 raises ZeroDivisionError, and nothing is kept."""
        if self._pi1 is None:
            one = self.field.one()
            self._pi1 = [[e.eval(one) for e in row] for row in self.propagator_symbolic()]
        return self._pi1

    def propagator_meridian(self):
        """Pi_mu = (-B_mu^{-1} A_mu + Delta_{z'})^{-1} for the bordered
        matrices A_mu = A(1) + O[a_mu] and B_mu = B(1) + O[b_mu], computed as
        (A_mu - B_mu Delta_{z'})^{-1} (-B_mu) like `propagator_symbolic`,
        kept per `PeripheralRows` object: a new `peripheral` gives a new one."""
        if self._pi_mu is not None and self._pi_mu[0] is self.peripheral:
            return self._pi_mu[1]
        if self.peripheral is None or self.peripheral.a_mu is None:
            raise ParseError("no meridian rows supplied")
        one = self.field.one()
        A1 = self.A.eval(one)
        B1 = self.B.eval(one)
        N = self.N
        row = self.peripheral.replaced_row
        if row < 0:
            row = N - 1
        for j in range(N):
            A1[row][j] = A1[row][j] + self.field.element(self.peripheral.a_mu[j])
            B1[row][j] = B1[row][j] + self.field.element(self.peripheral.b_mu[j])
        A_mu = LaurentMatrix.from_rows(self.field, A1)
        B_mu = LaurentMatrix.from_rows(self.field, B1)
        if B_mu.det().is_zero():
            raise SingularAtRoot("bordered B matrix singular")
        try:
            pi = self._gluing_matrix(A_mu, B_mu).solve(-B_mu)
        except SingularMatrix as exc:
            raise SingularAtRoot("meridian propagator singular") from exc
        self._pi_mu = (self.peripheral, [[e.eval(one) for e in row] for row in pi])
        return self._pi_mu[1]

    # -- cyclic covers --------------------------------------------------------------

    def cover_propagator(self, n: int, pi0=None) -> BlockCirculant:
        """Exact block circulant cover propagator.

        Block c is the coefficient of t^{(-c) mod n} of Pi(t) folded into
        F[t]/(t^n - 1); an optional Pi_0 override (meridian case) adds
        (Pi_0 - Pi(1))/n to every block.
        """
        pi1 = None
        if pi0 is not None:
            try:
                pi1 = self.propagator_at_one()
            except ZeroDivisionError:
                raise SingularAtRoot("propagator singular at t = 1") from None
        return cover_blocks_from_symbolic(self.propagator_symbolic(), n,
                                          self.field, pi0, pi1)

    # -- serialization ------------------------------------------------------------------

    def to_json(self) -> dict:
        def matrix_json(M: LaurentMatrix):
            out = []
            for k in M.exponents():
                coeff = M.coefficient_matrix(k)
                out.append({"exp": k,
                            "matrix": [[_int_or_str(e) for e in row] for row in coeff]})
            return out

        obj = {"field": self.field.to_json(), "N": self.N,
               "shapes": [z.to_json() for z in self.shapes],
               "A": matrix_json(self.A), "B": matrix_json(self.B)}
        if self.peripheral is not None:
            obj["peripheral"] = self.peripheral.to_json()
        return obj

    @classmethod
    def from_json(cls, obj) -> "TwistedNZData":
        if not isinstance(obj, dict):
            raise ParseError("NZ data must be a JSON object")
        try:
            field = NumberField.from_json(obj["field"])
            N = parse_int(obj["N"], "N")
            if not isinstance(obj["shapes"], list):
                raise ParseError("'shapes' must be a list")
            shapes = [FieldElement.from_json(z, field) for z in obj["shapes"]]
            # before the N x N coefficient matrices are allocated
            if len(shapes) != N:
                raise ParseError("number of shapes disagrees with N")
            A = _matrix_from_json(obj["A"], field, N)
            B = _matrix_from_json(obj["B"], field, N)
        except KeyError as exc:
            raise ParseError(f"NZ data missing key {exc}") from exc
        peripheral = None
        if "peripheral" in obj:
            peripheral = PeripheralRows.from_json(obj["peripheral"])
        return cls(field, A, B, shapes, peripheral)


def _int_or_str(e: FieldElement):
    if e.is_rational() and e.coords[0].denominator == 1:
        return int(e.coords[0])
    return e.to_json()


def _matrix_from_json(arr, field, N) -> LaurentMatrix:
    if not isinstance(arr, list):
        raise ParseError("matrix must be a list of {exp, matrix} objects")
    entries = [[dict() for _ in range(N)] for _ in range(N)]
    for item in arr:
        if not isinstance(item, dict):
            raise ParseError("matrix must be a list of {exp, matrix} objects")
        k = parse_int(item["exp"], "exp")
        mat = item["matrix"]
        if not (isinstance(mat, list) and len(mat) == N
                and all(isinstance(r, list) and len(r) == N for r in mat)):
            raise ParseError("coefficient matrix has wrong shape")
        for i in range(N):
            for j in range(N):
                v = mat[i][j]
                if v:
                    entries[i][j][k] = v
    return LaurentMatrix(field,
                         [[LaurentPolynomial(field, entries[i][j]) for j in range(N)]
                          for i in range(N)])


def normalize_unit(p: LaurentPolynomial) -> LaurentPolynomial:
    """Canonical representative modulo units +-t^k: lowest exponent 0 and
    the leading coefficient's first nonzero rational coordinate positive."""
    if p.is_zero():
        return p
    p = p.shift(-p.min_exp())
    lead = p.coeffs[p.max_exp()]
    for c in lead.coords:
        if c > 0:
            return p
        if c < 0:
            return -p
    return p
