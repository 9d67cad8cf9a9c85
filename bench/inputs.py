"""Seeded inputs for the bundle-n2 and reconstruct-mix workloads.

Every generator draws from a `random.Random` seeded by the benchmark's
`--seed`, rejects degenerate draws, and returns objects in looptool's file
formats (README, "File formats"), so any item can be replayed through the
`looptool` CLI.  This module does not import looptool: the inputs of a seed
depend on this file alone, and the planted values of a reconstruction are
computed here, independently of the program that has to recover them.

Degenerate draws that are rejected:

* bundle data: a zero vertex factor, a twisted one-loop polynomial of span
  < 2, or one with a root at an n-th root of unity for some n <= nmax
  (checked as divisibility by the cyclotomic polynomials Phi_m, m <= nmax);
* cover polynomials: roots 0 or +-1, repeated roots, reciprocal pairs
  (x_i + x_j = 1 makes the system singular), and windows whose square
  system is singular modulo a fixed prime (a nonzero determinant mod p
  proves the exact system nonsingular).
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

# ---------------------------------------------------------------------------
# Laurent polynomials over Q as {exponent: Fraction}
# ---------------------------------------------------------------------------

Laurent = Dict[int, Fraction]


def lp(coeffs) -> Laurent:
    return {k: Fraction(v) for k, v in coeffs.items() if v}


def lp_add(a: Laurent, b: Laurent, sign: int = 1) -> Laurent:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def lp_mul(a: Laurent, b: Laurent) -> Laurent:
    out: Laurent = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def lp_invert(a: Laurent) -> Laurent:
    """a(1/t)."""
    return {-k: v for k, v in a.items()}


def span(a: Laurent) -> int:
    return max(a) - min(a) if a else -1


def dense(a: Laurent) -> List[Fraction]:
    """Coefficients [c0, c1, ...] of t^(-min exp) * a."""
    lo = min(a)
    out = [Fraction(0)] * (max(a) - lo + 1)
    for k, v in a.items():
        out[k - lo] = v
    return out


def poly_rem(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    """Remainder of dense p by dense q (q with nonzero leading entry)."""
    rem = list(p)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        for i, b in enumerate(q):
            rem[shift + i] -= c * b
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def poly_div_exact(p: Sequence[Fraction], q: Sequence[Fraction]):
    """Quotient of dense p by dense q, or None when q does not divide p."""
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        shift = len(rem) - len(q)
        quo[shift] = c
        for i, b in enumerate(q):
            rem[shift + i] -= c * b
        rem.pop()
    return quo if not any(rem) else None


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Tuple[Fraction, ...]:
    """Dense coefficients of the m-th cyclotomic polynomial."""
    p = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            p = poly_div_exact(p, cyclotomic(d))
    return tuple(p)


def has_root_of_unity_pole(delta: Laurent, nmax: int) -> bool:
    """True when delta vanishes at an n-th root of unity for some n <= nmax."""
    d = dense(delta)
    return any(not poly_rem(d, cyclotomic(m)) for m in range(1, nmax + 1))


# ---------------------------------------------------------------------------
# bundle-n2: twisted NZ data with N tetrahedra and the three l = 2 diagrams
# ---------------------------------------------------------------------------

#: The connected l = 2 vacuum diagrams with cubic and quartic vertices.
DIAGRAMS_L2 = (
    ("theta", [[0, 1], [0, 1], [0, 1]], [3, 3], "12"),
    ("dumbbell", [[0, 0], [0, 1], [1, 1]], [3, 3], "8"),
    ("figure-eight", [[0, 0], [0, 0]], [4], "8"),
)

Matrix = List[List[Laurent]]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc: Laurent = {}
            for k in range(n):
                acc = lp_add(acc, lp_mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(row)
    return out


def mat_det(M: Matrix) -> Laurent:
    """Leibniz expansion; fine for the N <= 3 matrices used here."""
    n = len(M)
    total: Laurent = {}
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term: Laurent = {0: Fraction(sign)}
        for i in range(n):
            term = lp_mul(term, M[i][perm[i]])
        total = lp_add(total, term)
    return total


def _identity(n: int) -> Matrix:
    return [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]


def _unimodular(rng: random.Random, n: int, steps: int = 4) -> Matrix:
    M = _identity(n)
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        mono = {rng.choice([-1, 0, 1]): Fraction(rng.choice([-2, -1, 1, 2]))}
        M[i] = [lp_add(M[i][m], lp_mul(mono, M[j][m])) for m in range(n)]
    return M


def _nonzero_rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    while True:
        q = Fraction(rng.randint(lo, hi), rng.randint(1, den))
        if q:
            return q


def one_loop_polynomial(A: Matrix, B: Matrix, shapes: Sequence[Fraction]):
    """det(A - B diag(1/(1 - z))) / (t - 1), or None if t - 1 does not divide."""
    n = len(shapes)
    zp = [1 / (1 - z) for z in shapes]
    G = [[lp_add(A[i][j], {k: v * zp[j] for k, v in B[i][j].items()}, -1)
          for j in range(n)] for i in range(n)]
    det = mat_det(G)
    if not det:
        return None
    lo = min(det)
    quo = poly_div_exact(dense(det), [Fraction(-1), Fraction(1)])
    if quo is None:
        return None
    return {lo + i: c for i, c in enumerate(quo) if c}


def degenerate_bundle(delta, vertex_factors: Dict[int, List[Fraction]],
                      nmax: int, N: int) -> str:
    """Why a bundle draw is rejected, or '' when it is acceptable.

    Besides the degenerate cases, a span below the generic 2N is rejected:
    cancellations in delta make the cover sums much cheaper, which would
    widen the spread of cost between seeds."""
    if any(v == 0 for vals in vertex_factors.values() for v in vals):
        return "zero vertex factor"
    if delta is None or span(delta) < 2:
        return "one-loop polynomial of span < 2"
    if span(delta) != 2 * N:
        return "one-loop polynomial span below the generic 2N"
    if has_root_of_unity_pole(delta, nmax):
        return "pole at a root of unity"
    return ""


def _matrix_json(M: Matrix) -> list:
    exps = sorted({k for row in M for e in row for k in e})
    out = []
    for k in exps:
        mat = []
        for row in M:
            cells = []
            for e in row:
                v = e.get(k, Fraction(0))
                if v.denominator != 1:
                    raise ValueError("gluing matrices must be integral")
                cells.append(int(v))
            mat.append(cells)
        out.append({"exp": k, "matrix": mat})
    return out


def bundle(rng: random.Random, N: int, nmax: int,
           accept=lambda obj: True) -> Tuple[dict, Laurent]:
    """One accepted knot file {"nz": ..., "diagrams": [...]} and its delta.

    `accept` may reject further draws (the caller's cost band).

    A(t) = B(t) S(t) with S(1/t) = S(t)^T and B = U diag(t - 1, 1, ...) W for
    unimodular U, W, which makes the inversion symmetry and the t - 1 factor
    of det B hold by construction (the construction of looptool.synth).
    """
    while True:
        U, W = _unimodular(rng, N), _unimodular(rng, N)
        D = _identity(N)
        D[0][0] = {1: Fraction(1), 0: Fraction(-1)}
        B = mat_mul(mat_mul(U, D), W)
        M = [[lp({k: rng.randint(-2, 2) for k in (-1, 0, 1)}) for _ in range(N)]
             for _ in range(N)]
        S = [[lp_add(M[i][j], lp_invert(M[j][i])) for j in range(N)]
             for i in range(N)]
        A = mat_mul(B, S)
        shapes = []
        while len(shapes) < N:
            z = _nonzero_rational(rng, -6, 6, 4)
            if z != 1:
                shapes.append(z)
        factors = {3: [_nonzero_rational(rng, -5, 5, 3) for _ in range(N)],
                   4: [_nonzero_rational(rng, -5, 5, 3) for _ in range(N)]}
        gamma0 = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        delta = one_loop_polynomial(A, B, shapes)
        if degenerate_bundle(delta, factors, nmax, N):
            continue
        nz = {"field": {"minpoly": ["0", "1"], "root_index": 0}, "N": N,
              "shapes": [str(z) for z in shapes],
              "A": _matrix_json(A), "B": _matrix_json(B)}
        diagrams = []
        for name, edges, degrees, sigma in DIAGRAMS_L2:
            used = sorted(set(degrees))
            vf = {str(d): [str(v) for v in factors[d]] for d in used}
            vf["hbar_grade"] = {str(d): -1 for d in used}
            diagrams.append({"name": name,
                             "vertices": [{"degree": d} for d in degrees],
                             "edges": edges, "symmetry_factor": sigma,
                             "vertex_factors": vf,
                             "gamma0": {"value": str(gamma0), "grade": 1}})
        obj = {"nz": nz, "diagrams": diagrams}
        if accept(obj):
            return obj, delta


# ---------------------------------------------------------------------------
# Exact arithmetic in Q(sqrt 21) as pairs (a, b) = a + b sqrt 21
# ---------------------------------------------------------------------------

D21 = 21
Quad = Tuple[Fraction, Fraction]


def q_mul(x: Quad, y: Quad) -> Quad:
    return (x[0] * y[0] + D21 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_inv(x: Quad) -> Quad:
    norm = x[0] * x[0] - D21 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def q_pow(x: Quad, e: int) -> Quad:
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = q_mul(out, x)
    return out


# ---------------------------------------------------------------------------
# reconstruct-mix: planted cover polynomials
# ---------------------------------------------------------------------------

QQ_JSON = {"minpoly": ["0", "1"], "root_index": 0}
SQRT21_JSON = {"minpoly": ["-21", "0", "1"], "root_index": 1}

#: Prime for the window test; p = 3 mod 4 and 21 is a square mod p.
PRIME = (1 << 61) - 1
SQRT21_MOD_P = pow(21, (PRIME + 1) // 4, PRIME)


def basis(r: int, ell: int) -> List[Tuple[Tuple[int, ...], int]]:
    """The dense index set of looptool.powersum.CoverPolynomial.basis."""
    alphas = sorted(a for a in itertools.product(range(2 * ell - 1), repeat=r)
                    if sum(a) <= 2 * ell - 2)
    return [(alpha, beta) for beta in range(1, ell) for alpha in alphas]


def unknowns(r: int, ell: int) -> int:
    return (ell - 1) * math.comb(r + 2 * ell - 2, r)


def _mod(q: Fraction) -> int:
    return q.numerator % PRIME * pow(q.denominator % PRIME, -1, PRIME) % PRIME


def _quad_mod(x: Quad) -> int:
    return (_mod(x[0]) + _mod(x[1]) * SQRT21_MOD_P) % PRIME


def window_is_regular(roots: Sequence[Quad], ell: int, ns: Sequence[int]) -> bool:
    """Nonsingularity of the reconstruction system on the window `ns`,
    decided modulo PRIME; False also when the reduction mod p degenerates."""
    try:
        lams = [_quad_mod(lam) for lam in roots]
    except ValueError:          # a denominator divisible by p
        return False
    rows = []
    for n in ns:
        xs = []
        for lam in lams:
            diff = (1 - pow(lam, n, PRIME)) % PRIME
            if diff == 0:
                return False
            xs.append(pow(diff, -1, PRIME))
        row = []
        for alpha, beta in basis(len(roots), ell):
            v = pow(n, beta, PRIME)
            for x, a in zip(xs, alpha):
                v = v * pow(x, a, PRIME) % PRIME
            row.append(v)
        rows.append(row)
    size = len(rows)
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k]), None)
        if pivot is None:
            return False
        rows[k], rows[pivot] = rows[pivot], rows[k]
        inv = pow(rows[k][k], -1, PRIME)
        for i in range(k + 1, size):
            f = rows[i][k] * inv % PRIME
            if f:
                rows[i] = [(a - f * b) % PRIME for a, b in zip(rows[i], rows[k])]
    return True


def degenerate_roots(roots: Sequence[Quad]) -> str:
    """Why a root tuple is rejected, or '' when it is acceptable."""
    one = (Fraction(1), Fraction(0))
    for i, lam in enumerate(roots):
        if lam[0] == 0 and lam[1] == 0:
            return "zero root"
        if lam[1] == 0 and abs(lam[0]) == 1:
            return "root +-1 is resonant"
        for mu in roots[i + 1:]:
            if lam == mu:
                return "repeated root"
            if q_mul(lam, mu) == one:
                return "reciprocal pair"
    return ""


def evaluate(roots: Sequence[Quad], terms, n: int) -> Quad:
    """Value of the cover polynomial sum_k c_k n^beta prod x_j^alpha_j."""
    xs = []
    for lam in roots:
        p = q_pow(lam, n)
        xs.append(q_inv((1 - p[0], -p[1])))
    acc = (Fraction(0), Fraction(0))
    for (alpha, beta), c in terms.items():
        v = (c[0] * n ** beta, c[1] * n ** beta)
        for x, a in zip(xs, alpha):
            for _ in range(a):
                v = q_mul(v, x)
        acc = (acc[0] + v[0], acc[1] + v[1])
    return acc


#: Root magnitudes over Q: the j-th root of a draw is +-RATIONAL_MAGNITUDES[j].
#: The bit size of 1/(1 - lam^n) grows like n log2(p q) for lam = p/q, so
#: fixing the magnitudes per shape keeps the cost of a shape the same for
#: every seed; only signs and coefficients vary.
RATIONAL_MAGNITUDES = (Fraction(3, 2), Fraction(3), Fraction(2))
#: Over Q(sqrt 21): (+-3 +- sqrt 21)/2, all with Mahler measure (3 + sqrt 21)/2.
QUADRATIC_ROOTS = tuple((Fraction(a, 2), Fraction(b, 2)) for a in (3, -3)
                        for b in (1, -1))


def _roots(rng: random.Random, quadratic: bool, r: int) -> List[Quad]:
    if quadratic:
        return [rng.choice(QUADRATIC_ROOTS) for _ in range(r)]
    return [(rng.choice([-1, 1]) * m, Fraction(0)) for m in RATIONAL_MAGNITUDES[:r]]


def _coeff(rng: random.Random, quadratic: bool) -> Quad:
    def q():
        return Fraction(rng.choice([-1, 1]) * rng.randrange(1 << 6, 1 << 7),
                        rng.randrange(1 << 2, 1 << 3))
    return (q(), q() if quadratic else Fraction(0))


def _coords(x: Quad, quadratic: bool) -> List[Fraction]:
    return [x[0], x[1]] if quadratic else [x[0]]


def _root_json(x: Quad, quadratic: bool) -> dict:
    field = SQRT21_JSON if quadratic else QQ_JSON
    return dict(field, coords=[str(c) for c in _coords(x, quadratic)])


def planted_cover(rng: random.Random, quadratic: bool, r: int, ell: int,
                  holdout: int) -> dict:
    """One accepted planted polynomial with its values on n = 1..m + holdout.

    Returns {"roots": roots file, "poly": cover-polynomial file,
    "values": [(n, coords)]}.
    """
    m = unknowns(r, ell)
    ns = list(range(1, m + 1))
    while True:
        roots = _roots(rng, quadratic, r)
        if degenerate_roots(roots) or not window_is_regular(roots, ell, ns):
            continue
        terms = {key: _coeff(rng, quadratic) for key in basis(r, ell)}
        roots_json = [_root_json(x, quadratic) for x in roots]
        poly = {"ell": ell, "r": r, "roots": roots_json,
                "terms": [{"alpha": list(alpha), "beta": beta,
                           "coeff": ({"coords": [str(v) for v in c]} if quadratic
                                     else str(c[0]))}
                          for (alpha, beta), c in sorted(terms.items())]}
        values = [(n, _coords(evaluate(roots, terms, n), quadratic))
                  for n in range(1, m + holdout + 1)]
        return {"roots": {"field": SQRT21_JSON if quadratic else QQ_JSON,
                          "roots": roots_json},
                "poly": poly, "values": values}


def values_csv(values) -> str:
    """Rows `n,coord_0,...` as `looptool reconstruct --values` reads them."""
    return "".join(f"{n}," + ",".join(str(c) for c in coords) + "\n"
                   for n, coords in values)
