"""Deterministic property suites behind the `verify` CLI subcommand.

Each suite returns a list of (name, passed, repro) triples; repro is the
command line that reruns just that suite with the same seed and precision.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .circulant import BlockCirculant, block_diagonalize_check, cover_blocks_from_symbolic
from .diagrams import FeynmanDiagram, connected_multigraphs, enumerate_flows, \
    is_conserved, weight_direct, weight_flow
from .errors import RootOfUnityPole
from .knots import FIELD_SQRT21, fixture
from .laurent import LaurentPolynomial, RationalFunction
from .linalg import (field_vector, mat_mul, solve, solve_gauss_jordan,
                     solve_integer)
from .numberfield import QQ
from .powersum import (CoverPolynomial, quad_to_delta_form, reconstruct_p,
                       reconstruction_matrix, reconstruction_system)
from .rootsum import (ResidueForm, TorusSumSpec, av_exact, av_trace, cyclic_resultant,
                      delta_basis_inverse, delta_power_sums, fit_rational_shape,
                      pole_sum_closed, torus_sum_oracle)
from .synth import (random_laurent_matrix, random_nz_data,
                    random_symmetric_propagator, random_vertex_table)

Result = Tuple[str, bool, str]


def _repro(suite: str, seed: int, prec: int) -> str:
    return f"looptool verify --suite {suite} --seed {seed} --prec {prec}"


def suite_circulant(seed: int = 0, prec: int = 50) -> List[Result]:
    import mpmath
    rng = random.Random(seed)
    repro = _repro("circulant", seed, prec)
    results = []
    ok = True
    for _ in range(10):
        n, N = rng.randint(1, 8), rng.randint(1, 3)
        rep = random_laurent_matrix(rng, QQ, N, (-2, 3))
        C = BlockCirculant.from_representer(rep, n)
        if BlockCirculant.from_representer(C.representer(), n) != C:
            ok = False
    results.append(("representer roundtrip (n<=8, N<=3)", ok, repro))
    ok = True
    for _ in range(6):
        n, N = rng.randint(1, 6), rng.randint(1, 2)
        r1 = random_laurent_matrix(rng, QQ, N, (-1, 2))
        r2 = random_laurent_matrix(rng, QQ, N, (-1, 2))
        C1 = BlockCirculant.from_representer(r1, n)
        C2 = BlockCirculant.from_representer(r2, n)
        if (C1 * C2) != BlockCirculant.from_representer(r1 * r2, n):
            ok = False
        if (C1 * C2).to_full() != mat_mul(C1.to_full(), C2.to_full()):
            ok = False
    results.append(("product representer is product mod t^n-1", ok, repro))
    tol = mpmath.mpf(10) ** (10 - prec)
    ok = True
    for _ in range(4):
        n, N = rng.randint(2, 6), rng.randint(1, 3)
        rep = random_laurent_matrix(rng, QQ, N, (-2, 3))
        C = BlockCirculant.from_representer(rep, n)
        off, dev = block_diagonalize_check(C, prec)
        if off > tol or dev > tol:
            ok = False
    results.append((f"numeric diagonalization residual < 1e-{prec - 10}", ok, repro))
    ok = True
    for _ in range(2):
        N, n = rng.randint(1, 2), rng.randint(2, 5)
        data = random_nz_data(rng, N, regular_orders=(n,))
        cov = data.cover_propagator(n)
        off, dev = block_diagonalize_check(cov, prec)
        if off > tol or dev > tol:
            ok = False
    results.append(("cover propagator diagonal blocks = Pi(w^k)", ok, repro))
    return results


def suite_feynman(seed: int = 0, prec: int = 50) -> List[Result]:
    rng = random.Random(seed)
    repro = _repro("feynman", seed, prec)
    results = []
    catalogue = connected_multigraphs(3)
    ok = True
    for g in catalogue:
        for n in (2, 5):
            flows = list(enumerate_flows(g, n))
            if len(flows) != n ** g.first_betti:
                ok = False
            if not all(is_conserved(g, f, n) for f in flows):
                ok = False
    results.append(("flow count n^d and conservation", ok, repro))
    ok = True
    trials = 0
    while trials < 50:
        N = rng.randint(1, 2)
        n = rng.randint(1, 6)
        pi = random_symmetric_propagator(rng, N)
        cover = cover_blocks_from_symbolic(pi, n, QQ)
        g = catalogue[rng.randrange(len(catalogue))]
        table = random_vertex_table(rng, N, set(g.degrees))
        if weight_flow(g, n, pi, table, N) != weight_direct(g, n, cover, table, N):
            ok = False
        trials += 1
    results.append(("flow weight = direct cover weight (50 random)", ok, repro))
    ok = True
    for _ in range(5):
        N, n = rng.randint(1, 2), rng.randint(2, 4)
        pi = random_symmetric_propagator(rng, N)
        g = catalogue[rng.randrange(len(catalogue))]
        table = random_vertex_table(rng, N, set(g.degrees))
        base = weight_flow(g, n, pi, table, N)
        for k in range(len(g.edges)):
            edges = list(g.edges)
            u, v = edges[k]
            edges[k] = (v, u)
            g2 = FeynmanDiagram(g.n_vertices, edges, g.symmetry_factor)
            if weight_flow(g2, n, pi, table, N) != base:
                ok = False
    results.append(("orientation independence", ok, repro))
    return results


def _random_laurent(rng, lo: int, hi: int) -> LaurentPolynomial:
    return LaurentPolynomial(QQ, {k: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                  for k in range(lo, hi + 1)})


def _root_sum_or_pole(route, f, n):
    try:
        return route(f, n)
    except RootOfUnityPole:
        return None


def suite_identities(seed: int = 0, prec: int = 50) -> List[Result]:
    import mpmath
    rng = random.Random(seed)
    repro = _repro("identities", seed, prec)
    results = []
    ok = True
    for _ in range(8):
        den = _random_laurent(rng, 0, rng.randint(1, 2)) ** 2 * _random_laurent(rng, 0, 2)
        num = _random_laurent(rng, rng.randint(-3, 0), rng.randint(0, 8))
        if den.is_zero():
            continue
        f = RationalFunction(num, den)
        for n in range(1, 13):
            if _root_sum_or_pole(av_exact, f, n) != _root_sum_or_pole(av_trace, f, n):
                ok = False
    results.append(("residue route matches companion trace", ok, repro))
    ok = True
    for a in (Fraction(2), Fraction(3, 2), Fraction(-3)):
        ae = QQ.element(a)
        for m in range(1, 5):
            f = RationalFunction(LaurentPolynomial.one(QQ),
                                 LaurentPolynomial(QQ, {0: 1, 1: -a}) ** m)
            for n in range(1, 21):
                if av_exact(f, n) != pole_sum_closed(ae, m, n):
                    ok = False
    results.append(("geometric pole sums (orders 1..4) match closed forms", ok, repro))
    ok = True
    lam = QQ.element(2)
    for n in range(1, 31):
        num = LaurentPolynomial(QQ, {1: 1})
        den = LaurentPolynomial(QQ, {0: -2, 1: 1}) * LaurentPolynomial(QQ, {0: Fraction(-1, 2), 1: 1})
        got = av_exact(RationalFunction(num, den), n)
        ln = Fraction(2) ** n
        expect = Fraction(n) / Fraction(3, 2) * (Fraction(1) / (1 - ln) - Fraction(1) / (1 - 1 / ln))
        if got != expect:
            ok = False
    results.append(("toy quadratic identity (n = 1..30)", ok, repro))
    ok = True
    with mpmath.workdps(prec + 10):
        f = RationalFunction(LaurentPolynomial.one(QQ),
                             LaurentPolynomial(QQ, {1: 1, 0: -5, -1: 1}) ** 2)
        for n in (3, 7, 12):
            brute = mpmath.mpc(0)
            for k in range(n):
                w = mpmath.e ** (2j * mpmath.pi * k / n)
                brute += 1 / (w - 5 + 1 / w) ** 2
            q = av_exact(f, n).rational_value()
            exact_c = mpmath.mpf(q.numerator) / q.denominator
            if abs(brute - exact_c) > mpmath.mpf(10) ** (1 - prec):
                ok = False
    results.append(("residue route matches complex summation", ok, repro))
    ok = True
    delta41 = LaurentPolynomial(QQ, {1: 1, 0: -5, -1: 1})
    if cyclic_resultant(delta41, 1) != -3 or cyclic_resultant(delta41, 2) != 21:
        ok = False
    results.append(("cyclic resultants of the 4_1 polynomial", ok, repro))
    ok = True
    triangle = TorusSumSpec(2, (0, 0), ((1, 0), (0, 1), (-1, -1)),
                            (QQ.element(2), QQ.element(3),
                             QQ.element(Fraction(5, 7))))
    values = [(n, torus_sum_oracle(triangle, n)) for n in range(2, 24)]
    predict = fit_rational_shape(values, triangle.constants, 2, 1)
    for n in range(24, 28):
        if predict(n) != torus_sum_oracle(triangle, n):
            ok = False
    results.append(("torus-sum shape fit extrapolates exactly", ok, repro))
    ok = True
    for field, coords, ell in ((QQ, [[Fraction(3, 2)]], 4),
                               (FIELD_SQRT21, [[Fraction(3, 2), Fraction(1, 2)]], 3)):
        roots = [field.element(c) for c in coords]
        size = len(CoverPolynomial.basis(len(roots), ell))
        ns = range(1, size + 1)
        A = reconstruction_matrix(field, roots, ell, ns)
        b = [field.element([Fraction(rng.randint(-99, 99), rng.randint(1, 9))
                            for _ in range(field.degree)]) for _ in A]
        direct = field_vector(field, *solve_integer(
            *reconstruction_system(field, roots, ell, list(zip(ns, b)))))
        if not solve(field, A, b) == direct == solve_gauss_jordan(field, A, b):
            ok = False
    results.append(("reconstruction: direct integer system and p-adic solve "
                    "match Gauss-Jordan", ok, repro))
    return results


def suite_quadratic(seed: int = 0, prec: int = 50) -> List[Result]:
    rng = random.Random(seed)
    repro = _repro("quadratic", seed, prec)
    results = []
    lam = QQ.element(2)
    rows = delta_power_sums(lam, 4)
    ok = True
    for k in range(1, 5):
        expect = QQ.element(2) * lam ** k * ((lam * lam - 1).inverse()) ** k
        if rows[k][k].coeffs != {k: expect}:
            ok = False
    results.append(("top alpha coefficient 2 lam^k (lam^2-1)^-k x^k", ok, repro))
    ok = True
    dmon = LaurentPolynomial(QQ, {1: 1, 0: -Fraction(5, 2), -1: 1})
    # S_k = sum_{t^n=1} dmon^(-k), row k of the alpha table as a cover polynomial
    S = {k: CoverPolynomial.from_table(dmon, {k: [QQ.one()]}, lam) for k in range(1, 5)}
    for k in range(1, 5):
        fk = RationalFunction(LaurentPolynomial.one(QQ), dmon) ** k
        for n in range(1, 21):
            if S[k].evaluate(n) != av_exact(fk, n):
                ok = False
    results.append(("alpha expansion matches residue route (k<=4, n<=20)", ok, repro))
    ok = True
    beta = delta_basis_inverse(lam, 4)
    for a in range(5):
        for n in (3, 5, 9):
            lhs = (QQ.one() - lam ** n).inverse() ** a
            rhs = QQ.zero()
            for i in range(5):
                if beta[a][i].is_zero():
                    continue
                Si = QQ.one() if i == 0 else S[i].evaluate(n)
                rhs = rhs + beta[a][i].eval(n) * Si
            if lhs != rhs:
                ok = False
    results.append(("triangular basis inverse (k<=4)", ok, repro))
    ok = True
    fx = fixture("4_1")
    vals = [(n, fx.phi_average(2, n).value) for n in range(1, 4)]
    p2 = reconstruct_p(vals, [fx.lam], ell=2, r=1)
    form = ResidueForm.from_table(*quad_to_delta_form(p2))
    for n in range(1, 16):
        if av_exact(form, n) != fx.phi_average(2, n).value:
            ok = False
    results.append(("quadratic form reproduces 4_1 averages (n<=15)", ok, repro))
    return results


SUITES = {
    "circulant": suite_circulant,
    "feynman": suite_feynman,
    "identities": suite_identities,
    "quadratic": suite_quadratic,
}


def run_suites(names, seed: int = 0, prec: int = 50) -> List[Result]:
    out = []
    for name in names:
        out.extend(SUITES[name](seed, prec))
    return out
