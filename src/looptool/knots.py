"""Exact data for the 4_1 and 5_2 knots, the evaluators built on it, and the
tables of `looptool knot`.

Values of the 2-loop invariant of 4_1 covers carry a global sqrt(-3) unit;
they are stored as rational (or Q(sqrt21)) values tagged with that unit, so
all arithmetic stays in real quadratic fields.  The 5_2 data lives in the
cubic field of discriminant -23 generated by the complex root
xi ~ -0.662 - 0.562i of xi^3 - xi - 1.

The average route sums phi_ell^c(t, n) = sum_k c_k(n) delta^(-k) over the
n-th roots of unity.  Both one-loop polynomials are palindromic quadratics
delta = A(t + 1/t) + B, so that sum is the cover polynomial p(x, n) of the
phi-table at x = 1/(1 - lam^n), lam a root of delta
(`powersum.CoverPolynomial.from_table`).  lam lives in Q(sqrt 21) for 4_1
and in the sextic field of `LAMBDA_52_SEXTIC` for 5_2.  The sum is
symmetric under lam <-> 1/lam, so p is also a polynomial over delta's field
K in 1/R_n, R_n = (1 - lam^n)(1 - lam^(-n)) (`powersum.DeltaFieldCover`).
A fixture builds both once per ell, on first use, and checks there that
every coefficient maps back into K.  A row is s_n = lam^n + lam^(-n) and
s_(n+1) by Lucas doubling in K, one inverse of R_n in K (none for 4_1, whose
K is Q) and one homogenized Horner pass on integer numerators, normalized
once.  `CoverPolynomial.evaluate`, mapped back into K, is the test oracle
of these rows.

The residue route (`phi_residue`) sums the same table by residues: one
`rootsum.ResidueForm` per ell, and a row is one deg Q x deg Q integer solve
against M_u; it is the average route's oracle.  4_1 has two more routes: a
closed form, a rational function of lam^n and lam^(-n) over a power of the
resultant (1 - lam^n)(1 - lam^(-n)), and a generating series, which keeps a
prefix of series coefficients that at least doubles when it grows.
`KnotInput.table`, the one loop over n of `looptool knot`, gives the rows of
a fixture or a `DiagramBundle` by one route, or by all of them checked equal.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Tuple

from .diagrams import FeynmanDiagram, VertexFactorTable, loop_invariant
from .errors import CrossCheckError, ParseError, check_cover_order
from .laurent import LaurentPolynomial, RationalFunction
from .numberfield import FieldElement, NumberField, QQ, poly_divmod
from .nzdata import TwistedNZData
from .powersum import CoverPolynomial, DeltaFieldCover, series_coefficients
from .rootsum import ResidueForm, av_exact

#: Real quadratic field Q(sqrt 21); root_index 1 is the positive square root.
FIELD_SQRT21 = NumberField([-21, 0, 1], root_index=1)

#: Cubic field of discriminant -23; root_index 0 is xi ~ -0.662 - 0.562i.
FIELD_52 = NumberField([-1, -1, 0, 1], root_index=0)


class TaggedValue:
    """A field value optionally carrying a formal sqrt(-3) unit."""

    __slots__ = ("value", "sqrt_m3")

    def __init__(self, value: FieldElement, sqrt_m3: bool = False):
        self.value, self.sqrt_m3 = value, sqrt_m3

    def __eq__(self, other):
        if not isinstance(other, TaggedValue):
            return NotImplemented
        if self.value.is_zero() and other.value.is_zero():
            return True
        return self.value == other.value and self.sqrt_m3 == other.sqrt_m3

    def __hash__(self):
        # equal values hash alike: a zero equals its twin of the other unit
        return hash(self.value)

    def __repr__(self):
        return f"{self.value!r}" + (" (unit sqrt(-3))" if self.sqrt_m3 else "")

    def __str__(self):
        """As `looptool` prints it: a rational as str(Fraction) does."""
        value = self.value
        if value.is_rational():
            # num[0] / den is in lowest terms when the other numerators vanish
            num, den = value.num[0], value.den
            text = str(num) if den == 1 else f"{num}/{den}"
        else:
            text = ",".join(str(c) for c in value.coords)
        return text + (" (unit sqrt(-3))" if self.sqrt_m3 else "")


class KnotInput:
    """An input of `looptool knot`: a `name`, and `routes()` mapping each
    route's name to its (ell, n) -> TaggedValue, the first one printed."""

    def table(self, ell: int, nmax: int, mode: str) -> Iterator[Tuple[int, TaggedValue]]:
        """(n, value) for n = 1..nmax by the route `mode` names, or by every
        route, read on the instance, for 'all': the first n where a route
        differs from the first raises CrossCheckError before its row."""
        routes = self.routes()
        if mode != "all":
            if mode not in routes:
                raise ParseError(f"mode {mode!r} not available for {self.name}")
            routes = {mode: routes[mode]}
        for n in range(1, nmax + 1):
            (first, value), *others = [(name, route(ell, n)) for name, route in routes.items()]
            for name, other in others:
                if other != value:
                    raise CrossCheckError(f"{first} and {name} disagree at n = {n}: "
                                          f"{first} = {value}, {name} = {other}")
            yield n, value


def _q(text: str) -> Fraction:
    return Fraction(text)


def _el52(c0="0", c1="0", c2="0") -> FieldElement:
    return FIELD_52.element([_q(str(c0)), _q(str(c1)), _q(str(c2))])


class KnotFixture(KnotInput):
    """One knot's exact data: delta, phi tables, closed forms, asymptotics.

    phi[ell] maps the delta-power k to the coefficient list [c0, c1, c2]
    meaning c0 + c1/n + c2/n^2 multiplying delta(t)^(-k).  lam is a root of
    delta, in a field that delta's field embeds into.
    """

    def __init__(self, name: str, field: NumberField,
                 delta: LaurentPolynomial,
                 phi: Dict[int, Dict[int, List[FieldElement]]],
                 phi_units: Dict[int, bool], lam: FieldElement):
        self.name = name
        self.field = field
        self.delta = delta
        self.phi = phi
        self.phi_units = phi_units
        self.lam = lam
        self._forms: Dict[int, ResidueForm] = {}
        self._covers: Dict[int, CoverPolynomial] = {}
        self._delta_covers: Dict[int, DeltaFieldCover] = {}

    def _check_ell(self, ell: int) -> None:
        if ell not in self.phi:
            raise ParseError(f"no phi table for ell = {ell}")

    def routes(self) -> Dict[str, Callable[[int, int], TaggedValue]]:
        return {"average": self.phi_average, "residue": self.phi_residue}

    def phi_form(self, ell: int) -> ResidueForm:
        """phi_ell^c as a residue form over delta^kmax, built once per ell."""
        self._check_ell(ell)
        if ell not in self._forms:
            self._forms[ell] = ResidueForm.from_table(self.delta, self.phi[ell])
        return self._forms[ell]

    def cover(self, ell: int) -> CoverPolynomial:
        """The cover polynomial of phi_ell^c in x = 1/(1 - lam^n), over the
        field of lam, built once per ell."""
        self._check_ell(ell)
        if ell not in self._covers:
            self._covers[ell] = CoverPolynomial.from_table(self.delta, self.phi[ell],
                                                           self.lam)
        return self._covers[ell]

    def phi_rational_function(self, ell: int, n: int) -> RationalFunction:
        """phi_ell^c(t, n) for fixed n, over the fixture field, as the
        unreduced fraction over delta^kmax; `phi_average` does not build it.
        Kept only as the span the bench tracer wraps (ROADMAP item 8)."""
        form = self.phi_form(ell)
        return RationalFunction(form.numerator(n), form.den, reduce=False)

    def phi_average(self, ell: int, n: int) -> TaggedValue:
        """Av_n(phi_ell^c(t, n)), exact: the cover polynomial of phi_ell^c
        over the fixture field, built once per ell (`DeltaFieldCover`), at n."""
        check_cover_order(n)
        if ell not in self._delta_covers:
            try:
                self._delta_covers[ell] = DeltaFieldCover(self.cover(ell), self.delta)
            except CrossCheckError as exc:
                raise CrossCheckError(f"{self.name} ell = {ell}: {exc}") from None
        value = self._delta_covers[ell].evaluate(n)
        return TaggedValue(value, self.phi_units.get(ell, False))

    def phi_residue(self, ell: int, n: int) -> TaggedValue:
        """Av_n(phi_ell^c(t, n)) by residues, one solve against M_u: the
        oracle of `phi_average`."""
        return TaggedValue(av_exact(self.phi_form(ell), n), self.phi_units.get(ell, False))


# ---------------------------------------------------------------------------
# 4_1
# ---------------------------------------------------------------------------

_DELTA_41 = LaurentPolynomial(QQ, {1: 1, 0: -5, -1: 1})

_PHI_41 = {
    2: {2: [QQ.element(0), QQ.element(_q("4/3"))],
        1: [QQ.element(0), QQ.element(_q("20/63"))],
        0: [QQ.element(_q("55/1512"))]},
    3: {4: [QQ.element(0), QQ.element(0), QQ.element(_q("-80/3"))],
        3: [QQ.element(0), QQ.element(0), QQ.element(_q("-1976/315"))],
        2: [QQ.element(_q("-8/189")), QQ.element(0), QQ.element(_q("916/1323"))],
        1: [QQ.element(_q("473/26460")), QQ.element(0), QQ.element(_q("2036/19845"))]},
}


class FigureEightFixture(KnotFixture):
    """4_1: everything lives in Q or Q(sqrt 21), 2-loop values carry sqrt(-3)."""

    def __init__(self):
        s21 = FIELD_SQRT21.generator()
        super().__init__("4_1", QQ, _DELTA_41, _PHI_41, {2: True, 3: False},
                         (5 + s21) / 2)
        self.sqrt21 = s21
        self.lam_inv = (5 - s21) / 2
        self.psi = {
            2: TaggedValue(FIELD_SQRT21.element(_q("55/1512")), True),
            3: TaggedValue(self.sqrt21 * _q("-317/238140"), False),
        }
        quad = LaurentPolynomial(QQ, {0: 1, 1: -5, 2: 1})          # 1 - 5t + t^2
        quad2 = LaurentPolynomial(QQ, {0: 1, 1: -23, 2: 1})        # (1-lam^2 t)(1-lam^-2 t)
        tm1 = LaurentPolynomial(QQ, {0: -1, 1: 1})                 # -1 + t
        num2 = LaurentPolynomial(QQ, {1: 119, 2: -530, 3: 1068, 4: -530, 5: 119})
        self.series = {
            2: RationalFunction(-num2, (tm1 ** 2) * (quad ** 2) * 504),
            3: RationalFunction(
                LaurentPolynomial(QQ, {1: 1, 2: 1}) * LaurentPolynomial(QQ, {
                    0: 343, 1: -15565, 2: 249432, 3: -1448727, 4: 4346901,
                    5: -6772800, 6: 4346901, 7: -1448727, 8: 249432,
                    9: -15565, 10: 343}),
                (tm1 ** 3) * (quad2 ** 2) * (quad ** 3) * 588),
        }
        self._series_coeff_cache: Dict[int, List[FieldElement]] = {}

    def routes(self) -> Dict[str, Callable[[int, int], TaggedValue]]:
        return {**super().routes(), "closed": self.phi_closed,
                "series": self.series_value}

    # -- closed forms in Q(sqrt 21) -------------------------------------------

    def phi_closed(self, ell: int, n: int) -> TaggedValue:
        lam_n = self.lam ** n
        lam_mn = self.lam_inv ** n
        one = FIELD_SQRT21.one()
        resultant = (one - lam_n) * (one - lam_mn)
        if ell == 2:
            num = (lam_n * 55 + 82 + lam_mn * 55) * Fraction(-n, 1512)
            value = num / resultant
            return TaggedValue(value, self.phi_units[ell])
        if ell == 3:
            sq = resultant * resultant
            part_n2 = (lam_n * _q("32/1323") + _q("32/441") + lam_mn * _q("32/1323")) \
                * Fraction(-n * n)
            sym = (lam_n * lam_n * _q("-317/238140") + lam_n * _q("-1985/166698")
                   + lam_mn * _q("1985/166698") + lam_mn * lam_mn * _q("317/238140"))
            part_n1 = self.sqrt21 * sym * n
            value = (part_n2 + part_n1) / sq
            return TaggedValue(value, self.phi_units[ell])
        raise ParseError(f"no closed form for ell = {ell}")

    # -- generating series ---------------------------------------------------------

    def series_value(self, ell: int, n: int) -> TaggedValue:
        """Recover Phi^c_ell(n) from the t^n series coefficient."""
        if ell not in self.series:
            raise ParseError(f"no series for ell = {ell}")
        cache = self._series_coeff_cache.setdefault(ell, [])
        if len(cache) <= n:
            # at least doubling, so that a table costs one prefix, not n
            cache[:] = series_coefficients(self.series[ell], 2 * (n + 1))
        a_n = cache[n]
        one = FIELD_SQRT21.one()
        resultant = (one - self.lam ** n) * (one - self.lam_inv ** n)
        value = a_n / resultant ** (ell - 1)
        return TaggedValue(value, self.phi_units[ell])


# ---------------------------------------------------------------------------
# 5_2
# ---------------------------------------------------------------------------

_DELTA_52_COEFF = _el52(2, 4, 2)

_DELTA_52 = LaurentPolynomial(FIELD_52, {
    1: _DELTA_52_COEFF, 0: _el52(-5, -2, 3), -1: _DELTA_52_COEFF})

_PHI_52 = {
    2: {
        2: [_el52(), _el52(_q("64912/7705"), _q("12928/7705"), _q("-34716/7705"))],
        1: [_el52(_q("39/46"), _q("-56/46"), _q("-24/46")),
            _el52(_q("104510156/94440185"), _q("-60179356/94440185"),
                  _q("-14887968/94440185"))],
        0: [_el52(_q("123094133/2266564440"), _q("-446744448/2266564440"),
                  _q("259344006/2266564440"))],
    },
    3: {
        4: [_el52(), _el52(),
            _el52(_q("144171776/516235"), _q("86345584/516235"),
                  _q("-136288528/516235"))],
        3: [_el52(),
            _el52(_q("362208/7705"), _q("-57728/7705"), _q("-243704/7705")),
            _el52(_q("2021650619247678416/12919632159420875"),
                  _q("-194429261261137656/12919632159420875"),
                  _q("-1412467704798780848/12919632159420875"))],
        2: [_el52(_q("19464170555699/8731939505100"),
                  _q("-1654507907596/2182984876275"),
                  _q("661858625444/727661625425")),
            _el52(_q("43685924340213/2910646501700"),
                  _q("-13472722690929/1455323250850"),
                  _q("2008555368111/2910646501700")),
            _el52(_q("161627626755245606632/8963543285548396125"),
                  _q("-119998551075098128112/8963543285548396125"),
                  _q("127286031414479468/2987847761849465375"))],
        1: [_el52(_q("59134987864619182444/475067794134064994625"),
                  _q("-1527155471544628788041/1900271176536259978500"),
                  _q("3826051934183205772/6885040494696594125")),
            _el52(_q("1746056639554239/35675794171336900"),
                  _q("-31637787802490587/17837897085668450"),
                  _q("11693862723463677/8918948542834225")),
            _el52(_q("-19378724062777204444/475067794134064994625"),
                  _q("-474092286600322084396/475067794134064994625"),
                  _q("128349517059147927744/158355931378021664875"))],
        0: [_el52(_q("-428855832942393/8918948542834225"),
                  _q("-2998162280908073/35675794171336900"),
                  _q("1615737458359533/17837897085668450"))],
    },
}

#: Minimal polynomial over Q of the root lambda of delta_52 (degree 6).
LAMBDA_52_SEXTIC = [8, -28, 270, -109, 270, -28, 8][::-1]

#: Q(lambda) for LAMBDA_52_SEXTIC / 8; root_index 0 is the root inside the
#: unit disk, lambda ~ 0.0502 - 0.1704i, the one `lambda_numeric` takes.
FIELD_LAMBDA_52 = NumberField([Fraction(c, 8) for c in LAMBDA_52_SEXTIC], root_index=0)

_PSI_52_NUM = {
    2: ([-16601383280, 239466164328, -30998500743, 51073175277,
         -2600093877, 384393303], 1160480993280),
    3: ([3763333983996990578027312, -27832672813601695938777064,
         98732772027957178344155, 1194221340324541487037559,
         -453984084634619809746255, 29998843726647510986933],
        26122110666289424422956544000),
}


class FiveTwoFixture(KnotFixture):
    """5_2: values in the cubic field; asymptotics via the degree-6 lambda."""

    def __init__(self):
        super().__init__("5_2", FIELD_52, _DELTA_52, _PHI_52, {2: False, 3: False},
                         FIELD_LAMBDA_52.generator())
        self.lam_quadratic = (_DELTA_52_COEFF, _el52(-5, -2, 3))  # a t^2 + b t + a

    def lambda_sextic_residue(self) -> List[FieldElement]:
        """Reduce the printed degree-6 polynomial mod the quadratic of lambda
        over the cubic field; a zero (empty) remainder certifies the sextic."""
        a, b = self.lam_quadratic
        zero, one = FIELD_52.zero(), FIELD_52.one()
        # monic quadratic: u^2 + (b/a) u + 1
        quadratic = [one, b / a, one]
        coeffs = [FIELD_52.element(c) for c in LAMBDA_52_SEXTIC]
        return poly_divmod(coeffs, quadratic, zero, one)[1]

    def lambda_numeric(self, precision_digits: int = 60):
        """The root of delta inside the unit disk, numerically."""
        import mpmath
        with mpmath.workdps(precision_digits + 15):
            a = self.lam_quadratic[0].to_mpc(precision_digits + 10)
            b = self.lam_quadratic[1].to_mpc(precision_digits + 10)
            disc = mpmath.sqrt(b * b - 4 * a * a)
            roots = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
            lam = min(roots, key=abs)
            return lam

    def psi_numeric(self, ell: int, precision_digits: int = 100):
        """Leading asymptotic coefficient, numerically.

        The tabulated integer coefficients are those of a polynomial in the
        algebraic integer 2*lambda (the sextic of lambda has leading
        coefficient 8, so 2*lambda is integral); deriving the asymptotics
        exactly from the phi tables reproduces every tabulated coefficient
        under that normalization.
        """
        if ell not in _PSI_52_NUM:
            raise ParseError(f"no asymptotic value for ell = {ell}")
        import mpmath
        coeffs, den = _PSI_52_NUM[ell]
        with mpmath.workdps(precision_digits + 15):
            mu = 2 * self.lambda_numeric(precision_digits + 10)
            acc = mpmath.mpc(0)
            for c in reversed(coeffs):
                acc = acc * mu + c
            return acc / den


_FIXTURES = {}


def fixture(name: str) -> KnotFixture:
    """The shared fixture instance for '4_1' or '5_2'."""
    key = name.replace("-", "_")
    if key not in _FIXTURES:
        if key == "4_1":
            _FIXTURES[key] = FigureEightFixture()
        elif key == "5_2":
            _FIXTURES[key] = FiveTwoFixture()
        else:
            raise ParseError(f"unknown knot fixture {name!r}")
    return _FIXTURES[key]


class DiagramBundle(KnotInput):
    """NZ data and (diagram, vertex table) pairs, from a `looptool knot` file
    {"nz": ..., "diagrams": [...]}; its one route is `loop_invariant`."""

    def __init__(self, name: str, data: TwistedNZData, diagrams: list):
        self.name, self.data, self.diagrams = name, data, diagrams

    @classmethod
    def from_json(cls, obj, name: str) -> "DiagramBundle":
        if not isinstance(obj, dict):
            raise ParseError("expected a JSON object")
        if "nz" not in obj or "diagrams" not in obj:
            raise ParseError("knot file needs 'nz' and 'diagrams' sections")
        if not (isinstance(obj["diagrams"], list)
                and all(isinstance(d, dict) for d in obj["diagrams"])):
            raise ParseError("'diagrams' must be a list of objects")
        data = TwistedNZData.from_json(obj["nz"])
        return cls(name, data, [(FeynmanDiagram.from_json(d),
                                 VertexFactorTable.from_json(d, data.field))
                                for d in obj["diagrams"]])

    def routes(self) -> Dict[str, Callable[[int, int], TaggedValue]]:
        return {"loop_invariant": lambda ell, n: TaggedValue(
            loop_invariant(self.data, n, self.diagrams, ell))}
