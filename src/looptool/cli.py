"""Command-line front end.

Subcommands: `avg` (exact sums over roots of unity), `knot` (tabulate cover
invariants for the bundled knots or an NZ+diagram file), `reconstruct`
(recover the cover polynomial from sequence values), `verify` (property
suites).  Exit codes: 1 parse/usage, 2 mathematical domain error, 3
cross-method disagreement, 4 singular system, 5 holdout mismatch.

`knot` prints the `table` of a `knots.KnotFixture` or a file's
`knots.DiagramBundle` as `n,value` lines.

`verify --prec DIGITS` (at most 60, the default) sets the digits of the
suites' numeric checks and `avg --numeric-check DIGITS` those of its one
numeric check; every other output is exact.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from typing import List, Optional

from .errors import (CrossCheckError, HoldoutMismatchError, MathDomainError,
                     ParseError, SingularError)
from .knots import DiagramBundle, TaggedValue, fixture
from .laurent import LaurentPolynomial, RationalFunction
from .numberfield import FieldElement, NumberField, QQ, parse_rational
from .powersum import reconstruct_p
from .rootsum import MAX_EXPONENT_SPAN, ResidueForm, av_exact
from .verify import SUITES, run_suites


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="looptool",
                     description="exact loop invariants of cyclic covers")
    sub = parser.add_subparsers(dest="command", required=True)

    p_avg = sub.add_parser("avg", help="exact sum of a rational function "
                                       "over the n-th roots of unity")
    p_avg.add_argument("--f", required=True, help="rational-function JSON file")
    p_avg.add_argument("--n", required=True, type=int)
    p_avg.add_argument("--numeric-check", type=int, default=None, metavar="DIGITS")

    p_knot = sub.add_parser("knot", help="tabulate cover invariants")
    p_knot.add_argument("--knot", required=True,
                        help="4_1, 5_2, or a path to an NZ+diagram JSON file")
    p_knot.add_argument("--loop", required=True, type=int, choices=(2, 3))
    p_knot.add_argument("--nmax", required=True, type=int)
    p_knot.add_argument("--mode", default="all",
                        choices=("average", "closed", "series", "all"))

    p_rec = sub.add_parser("reconstruct", help="recover a cover polynomial "
                                               "from sequence values")
    p_rec.add_argument("--values", required=True, help="CSV of n,coords...")
    p_rec.add_argument("--roots", required=True, help="roots JSON file")
    p_rec.add_argument("--ell", required=True, type=int)
    p_rec.add_argument("--r", required=True, type=int)
    p_rec.add_argument("--holdout", type=int, default=0,
                       help="require at least this many validation rows")
    p_rec.add_argument("--out", default=None, help="output polynomial path")

    p_ver = sub.add_parser("verify", help="run property suites")
    p_ver.add_argument("--suite", default="all",
                       choices=tuple(SUITES) + ("all",))
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--prec", type=int, default=60,
                       help="digits of the numeric checks, at most 60, the default")
    return parser


def _read_text(path) -> str:
    """The text of a file; ParseError naming it when it does not decode."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not readable as text: {exc}") from exc


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# avg
# ---------------------------------------------------------------------------

def _exponents(obj) -> list:
    """The integer exponent keys of a Laurent-polynomial object; none for a
    malformed one, which its parser then rejects."""
    try:
        return [int(k) for k in obj] if isinstance(obj, dict) else []
    except ValueError:
        return []


def _check_span(what: str, low: int, high: int):
    """The bound that `ResidueForm` enforces, checked from the keys alone:
    `RationalFunction` builds dense lists before any form exists."""
    if high - low > MAX_EXPONENT_SPAN:
        raise ParseError(f"{what} give exponents of t from {low} to {high}, a span "
                         f"of {high - low} above the bound of {MAX_EXPONENT_SPAN}")


def _load_avg_input(path):
    """A rational function of t as a `ResidueForm`, and its sqrt(-3) unit flag.

    Plain form: {"field": {...}, "num": {...}, "den": {...}, "unit": ...}.
    Phi form: {"field": {...}, "delta": {...}, "delta_powers":
    {"k": [c0, c1, c2...]}, "unit": ...}; coefficient i multiplies n^-i.
    An integrand whose exponents span more than MAX_EXPONENT_SPAN is
    rejected from the keys alone, before any dense list or power of delta
    is built.
    """
    obj = _load_json(path)
    if not isinstance(obj, dict):
        raise ParseError("expected a JSON object")
    field = NumberField.from_json(obj["field"]) if "field" in obj else QQ
    unit = obj.get("unit") in ("sqrt(-3)", "sqrt-3", True)

    if "delta_powers" in obj:
        if "delta" not in obj:
            raise ParseError("delta_powers needs a 'delta'")
        delta = LaurentPolynomial.from_json(obj["delta"], field)
        if delta.is_zero():
            raise ParseError("delta must be nonzero")
        powers = obj["delta_powers"]
        if not isinstance(powers, dict) or not powers:
            raise ParseError("delta_powers must be a nonempty object")
        table = {}
        for k, coeffs in powers.items():
            try:
                k_int = int(k)
            except ValueError as exc:
                raise ParseError(f"delta_powers key {k!r} is not an integer") from exc
            if not isinstance(coeffs, list):
                raise ParseError(f"delta_powers[{k!r}] must be a list of coefficients")
            table[k_int] = [FieldElement.from_json(c, field) for c in coeffs]
        # the form is sum_k c_k delta^(kmax - k) over delta^kmax
        kmax, low, high = max(0, *table), min(delta.coeffs), max(delta.coeffs)
        powers = {kmax - k for k in table} | {kmax}
        _check_span(f"delta_powers keys '{min(table)}' to '{max(table)}'",
                    min(e * low for e in powers), max(e * high for e in powers))
        return ResidueForm.from_table(delta, table), unit
    if "num" not in obj or "den" not in obj:
        raise ParseError("rational-function file needs num/den or delta_powers")
    exponents = _exponents(obj["num"]) + _exponents(obj["den"])
    if exponents:
        _check_span("'num' and 'den'", min(exponents), max(exponents))
    rf = RationalFunction.from_json(obj, field)
    return ResidueForm([rf.num], rf.den), unit


def cmd_avg(args) -> int:
    if args.n < 1:
        raise ParseError("--n must be >= 1")
    if args.numeric_check is not None and args.numeric_check < 1:
        raise ParseError(f"--numeric-check must be at least 1, got {args.numeric_check}")
    form, unit = _load_avg_input(args.f)
    value = av_exact(form, args.n)
    print(TaggedValue(value, unit))
    if args.numeric_check:
        import mpmath
        digits = args.numeric_check
        rf = RationalFunction(form.numerator(args.n), form.den)
        with mpmath.workdps(digits + 10):
            brute = mpmath.mpc(0)
            for k in range(args.n):
                w = mpmath.e ** (2j * mpmath.pi * k / args.n)
                num = sum(c.to_mpc(digits) * w ** e for e, c in rf.num.coeffs.items())
                den = sum(c.to_mpc(digits) * w ** e for e, c in rf.den.coeffs.items())
                brute += num / den
            exact_c = value.to_mpc(digits)
            err = abs(brute - exact_c)
            print(f"numeric check: {mpmath.nstr(brute, min(digits, 30))} "
                  f"(|err| = {mpmath.nstr(err, 3)})")
            if err > mpmath.mpf(10) ** (2 - digits) * (1 + abs(brute)):
                raise CrossCheckError("numeric check disagrees with exact value")
    return 0


# ---------------------------------------------------------------------------
# knot
# ---------------------------------------------------------------------------

def cmd_knot(args) -> int:
    if args.nmax < 1:
        raise ParseError("--nmax must be >= 1")
    source = (fixture(args.knot) if args.knot in ("4_1", "5_2")
              else DiagramBundle.from_json(_load_json(args.knot), args.knot))
    for n, value in source.table(args.loop, args.nmax, args.mode):
        print(f"{n},{value}")
    return 0


# ---------------------------------------------------------------------------
# reconstruct
# ---------------------------------------------------------------------------

def _load_values_csv(path, field: NumberField):
    rows, seen = [], {}
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = line.split(",")
        unit = cells[-1].strip() == "sqrt(-3)"
        if unit:
            cells = cells[:-1]
        if not 1 <= len(cells) - 1 <= field.degree:
            raise ParseError(f"{path} line {number} {line!r}: need n and 1 to "
                             f"{field.degree} coordinates")
        try:
            n = int(cells[0])
        except ValueError as exc:
            raise ParseError(f"{path} line {number} {line!r}: bad n {cells[0]!r}") from exc
        if n < 1:
            raise ParseError(f"{path} line {number} {line!r}: n must be at least 1, "
                             f"got {n}")
        if n in seen:
            raise ParseError(f"{path} line {number} {line!r}: n = {n} repeats line {seen[n]}")
        seen[n] = number
        coords = [parse_rational(c) for c in cells[1:]]
        rows.append((n, field.element(coords), unit))
    if not rows:
        raise ParseError("no value rows found")
    units = {u for _, _, u in rows}
    if len(units) > 1:
        raise ParseError("mixed units in value rows")
    return [(n, v) for n, v, _ in rows], units.pop()


def cmd_reconstruct(args) -> int:
    if args.ell < 2:
        raise ParseError(f"--ell must be at least 2, got {args.ell}")
    if args.r < 1:
        raise ParseError(f"--r must be at least 1, got {args.r}")
    if args.holdout < 0:
        raise ParseError(f"--holdout must be at least 0, got {args.holdout}")
    roots_obj = _load_json(args.roots)
    if not isinstance(roots_obj, dict):
        raise ParseError("roots file must be a JSON object")
    for key in ("field", "roots"):
        if key not in roots_obj:
            raise ParseError(f"roots file needs a {key!r} key")
    if not isinstance(roots_obj["roots"], list):
        raise ParseError("'roots' must be a list")
    field = NumberField.from_json(roots_obj["field"])
    roots = [FieldElement.from_json(x, field) for x in roots_obj["roots"]]
    if len(roots) != args.r:
        raise ParseError(f"roots file has {len(roots)} roots, --r says {args.r}")
    values, unit = _load_values_csv(args.values, field)
    needed = (args.ell - 1) * comb(args.r + 2 * args.ell - 2, args.r)
    holdout = len(values) - needed
    if holdout < args.holdout:
        raise ParseError(f"need {needed} + {args.holdout} values, "
                         f"got {len(values)}")
    poly = reconstruct_p(values, roots, args.ell, args.r)
    out_path = args.out or (args.values + ".poly.json")
    obj = poly.to_json()
    if unit:
        obj["unit"] = "sqrt(-3)"
    with open(out_path, "w") as fh:
        json.dump(obj, fh, indent=1)
    print(f"recovered {len(poly.terms)} coefficients from {needed} values; "
          f"{holdout} holdout rows validated exactly")
    print(f"wrote {out_path}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.prec < 1:
        raise ParseError("--prec must be >= 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names, seed=args.seed, prec=min(args.prec, 60))
    failed = [r for r in results if not r[1]]
    for name, ok, repro in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            print(f"      repro: {repro}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


#: Prefix of the stderr line and exit code of each error; none is two of these.
_EXITS = {ParseError: ("error", 1), MathDomainError: ("math domain error", 2),
         CrossCheckError: ("cross-check failure", 3), SingularError: ("singular system", 4),
         HoldoutMismatchError: ("holdout mismatch", 5), OSError: ("error", 1)}


def main(argv: Optional[List[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # exact values outgrow 4300 digits
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return {"avg": cmd_avg, "knot": cmd_knot, "reconstruct": cmd_reconstruct,
                "verify": cmd_verify}[args.command](args)
    except tuple(_EXITS) as exc:
        prefix, code = next(v for cls, v in _EXITS.items() if isinstance(exc, cls))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
