"""Flow enumeration, Feynman weights, and the flow = direct oracle identity."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from looptool.circulant import BlockCirculant, cover_blocks_from_symbolic
from looptool.diagrams import (FeynmanDiagram, VertexFactorTable,
                               connected_multigraphs, enumerate_flows,
                               is_conserved, loop_invariant, weight_direct,
                               weight_flow)
from looptool.errors import (CoverOrderError, CrossCheckError, GradeMismatch,
                             MathDomainError, MissingVertexFactor, RootOfUnityPole,
                             SingularAtRoot, ValidationError)
from looptool import rootsum
from looptool.knots import DiagramBundle
from looptool.laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from looptool.numberfield import QQ
from looptool.nzdata import PeripheralRows, TwistedNZData
from looptool.rootsum import (CyclicMatrix, CyclicMatrixImage, ResidueForm, TorusSumSpec,
                              av_exact, av_trace, cyclic_resultant, ratfun_mod_cyclic,
                              torus_sum_oracle)
from looptool.synth import random_nz_data, random_symmetric_propagator, random_vertex_table

THETA = FeynmanDiagram(2, [(0, 1), (0, 1), (0, 1)], Fraction(8))
BOUQUET = FeynmanDiagram(1, [(0, 0), (0, 0)])
TREE = FeynmanDiagram(3, [(0, 1), (1, 2)])


def random_symmetric_matrix(rng: random.Random, N: int):
    """Random symmetric rational matrix (a stand-in Pi_0 for meridian tests)."""
    vals = [[QQ.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             for _ in range(N)] for _ in range(N)]
    return [[vals[min(i, j)][max(i, j)] for j in range(N)] for i in range(N)]


def test_degrees_and_betti():
    assert THETA.degrees == [3, 3] and THETA.first_betti == 2
    assert BOUQUET.degrees == [4] and BOUQUET.first_betti == 2
    assert TREE.degrees == [1, 2, 1] and TREE.first_betti == 0


def test_disconnected_rejected():
    with pytest.raises(ValidationError):
        FeynmanDiagram(3, [(0, 1)])


def test_flow_counts():
    assert len(list(enumerate_flows(TREE, 7))) == 1
    assert list(enumerate_flows(TREE, 7))[0] == (0, 0)
    assert len(list(enumerate_flows(THETA, 3))) == 9
    assert len(list(enumerate_flows(BOUQUET, 5))) == 25


def test_flows_conserved_everywhere(rng):
    for g in connected_multigraphs(3):
        for n in (2, 3, 5):
            flows = list(enumerate_flows(g, n))
            assert len(flows) == n ** g.first_betti
            assert len(set(flows)) == len(flows)
            assert all(is_conserved(g, f, n) for f in flows)


def test_tree_edge_exponents_in_unit_range():
    for g in connected_multigraphs(3):
        for vec in g.exponents:
            assert all(c in (-1, 0, 1) for c in vec)


def test_catalogue_has_expected_shapes():
    cat = connected_multigraphs(3)
    keys = {(g.n_vertices, len(g.edges)) for g in cat}
    assert (1, 1) in keys      # single self-loop
    assert (2, 3) in keys      # theta
    assert (4, 3) in keys      # 3-edge trees
    assert all(len(g.edges) <= 3 for g in cat)


def test_missing_vertex_factor_raises():
    table = VertexFactorTable({2: [QQ.one()]})
    with pytest.raises(MissingVertexFactor):
        weight_flow(THETA, 2, random_symmetric_propagator(
            __import__("random").Random(0), 1), table, 1)


def test_n1_flow_reduces_to_plain_weight(rng):
    # single trivial flow: the weight is the plain Feynman rule value
    N = 2
    pi = random_symmetric_propagator(rng, N)
    pi1 = [[e.eval(QQ.one()) for e in row] for row in pi]
    table = random_vertex_table(rng, N, {3})
    w = weight_flow(THETA, 1, pi, table, N)
    sigma_inv = Fraction(1, 8)
    expect = QQ.zero()
    for i in range(N):
        for j in range(N):
            term = table.lookup(3, i)[0] * table.lookup(3, j)[0]
            for _ in range(3):
                term = term * pi1[i][j]
            expect = expect + term
    assert w == {3: expect * sigma_inv}


def test_theta_weight_matches_hand_formula(rng):
    # (1/8n) sum_{ij} sum_{a,b} G_i G_j (Pi_a)_ij (Pi_b)_ij (Pi_{-a-b})_ij
    import mpmath
    N, n = 2, 3
    pi = random_symmetric_propagator(rng, N)
    table = random_vertex_table(rng, N, {3})
    w = weight_flow(THETA, n, pi, table, N)[3]
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for i in range(N):
            for j in range(N):
                g = (table.lookup(3, i)[0] * table.lookup(3, j)[0]).to_mpc(30)
                for a in range(n):
                    for b in range(n):
                        val = mpmath.mpc(1)
                        for residue in (a, b, (-a - b) % n):
                            wz = mpmath.e ** (2j * mpmath.pi * residue / n)
                            num = sum(c.to_mpc(30) * wz ** e
                                      for e, c in pi[i][j].num.coeffs.items())
                            den = sum(c.to_mpc(30) * wz ** e
                                      for e, c in pi[i][j].den.coeffs.items())
                            val *= num / den
                        total += g * val
        total /= 8 * n
        q = w.rational_value()
        assert abs(total - mpmath.mpf(q.numerator) / q.denominator) < 1e-25


def test_flow_equals_direct_catalogue(rng):
    cat = connected_multigraphs(3)
    for _ in range(4):
        N = rng.randint(1, 2)
        n = rng.randint(1, 6)
        pi = random_symmetric_propagator(rng, N)
        cover = cover_blocks_from_symbolic(pi, n, QQ)
        full = cover.to_full()
        assert full == [list(col) for col in zip(*full)]
        for g in cat:
            table = random_vertex_table(rng, N, set(g.degrees))
            assert weight_flow(g, n, pi, table, N) == \
                weight_direct(g, n, cover, table, N)


def test_flow_equals_direct_with_pi0_override(rng):
    cat = connected_multigraphs(3)
    for _ in range(2):
        N, n = rng.randint(1, 2), rng.randint(2, 5)
        pi = random_symmetric_propagator(rng, N)
        pi1 = [[e.eval(QQ.one()) for e in row] for row in pi]
        pi0 = random_symmetric_matrix(rng, N)
        cover = cover_blocks_from_symbolic(pi, n, QQ, pi0=pi0, pi1=pi1)
        for g in cat[:9]:
            table = random_vertex_table(rng, N, set(g.degrees))
            assert weight_flow(g, n, pi, table, N, pi0=pi0) == \
                weight_direct(g, n, cover, table, N)


def test_orientation_independence(rng):
    N, n = 2, 4
    pi = random_symmetric_propagator(rng, N)
    for g in (THETA, BOUQUET, FeynmanDiagram(2, [(0, 1), (1, 1)])):
        table = random_vertex_table(rng, N, set(g.degrees))
        base = weight_flow(g, n, pi, table, N)
        for k in range(len(g.edges)):
            edges = list(g.edges)
            u, v = edges[k]
            edges[k] = (v, u)
            g2 = FeynmanDiagram(g.n_vertices, edges, g.symmetry_factor)
            assert weight_flow(g2, n, pi, table, N) == base


def test_weight_direct_rejects_a_cover_of_another_order(rng):
    # n must be the cover's own order: another n sums the wrong labelings
    N = 2
    pi = random_symmetric_propagator(rng, N)
    table = random_vertex_table(rng, N, {3})
    cover = cover_blocks_from_symbolic(pi, 3, QQ)
    assert weight_direct(THETA, 3, cover, table, N) == weight_flow(THETA, 3, pi, table, N)
    for n in (2, 4):
        with pytest.raises(CoverOrderError, match="^n = .* disagrees with the 3-fold cover"):
            weight_direct(THETA, n, cover, table, N)


def test_weight_direct_rejects_another_block_size(rng):
    # N must be the cover's block size: N = 1 on 2 x 2 blocks gave -239/2
    # where the theta weight is 777
    N = 2
    pi = random_symmetric_propagator(rng, N)
    table = random_vertex_table(rng, N, {3})
    cover = cover_blocks_from_symbolic(pi, 3, QQ)
    assert weight_direct(THETA, 3, cover, table, N) == weight_flow(THETA, 3, pi, table, N)
    for wrong in (1, 3):
        with pytest.raises(CoverOrderError, match="^N = .* disagrees with the 2 x 2 blocks"):
            weight_direct(THETA, 3, cover, table, wrong)


def _cover_order_entry_points():
    """Every public entry point that takes a cyclic cover order n."""
    rng = random.Random(13)
    data = random_nz_data(rng, 2)
    pi = random_symmetric_propagator(rng, 2)
    f = RationalFunction(LaurentPolynomial(QQ, {-1: 1}), LaurentPolynomial(QQ, {0: 1, 1: -2}))
    table = random_vertex_table(rng, 2, {3})
    spec = TorusSumSpec(1, (0,), ((1,),), (QQ.element(2),))
    return {
        "av_exact": lambda n: av_exact(f, n),
        "av_trace": lambda n: av_trace(f, n),
        "cyclic_resultant": lambda n: cyclic_resultant(f.den, n),
        "torus_sum_oracle": lambda n: torus_sum_oracle(spec, n),
        "CyclicMatrixImage": lambda n: CyclicMatrixImage(CyclicMatrix(pi, QQ), n),
        "ResidueForm.root_sum": lambda n: ResidueForm([f.num], f.den).root_sum(n),
        "BlockCirculant.from_representer": lambda n: BlockCirculant.from_representer(data.A, n),
        "cover_blocks_from_symbolic": lambda n: cover_blocks_from_symbolic(pi, n, QQ),
        "enumerate_flows": lambda n: list(enumerate_flows(THETA, n)),
        "weight_direct": lambda n: weight_direct(THETA, n, cover_blocks_from_symbolic(pi, 1, QQ),
                                                 table, 2),
    }


@pytest.mark.parametrize("name", sorted(_cover_order_entry_points()))
def test_every_cover_entry_point_rejects_n_below_one(name):
    call = _cover_order_entry_points()[name]
    for n in (0, -3):
        with pytest.raises(CoverOrderError, match=f"^n (must be >= 1, got |= ){n}") as excinfo:
            call(n)
        assert isinstance(excinfo.value, MathDomainError) and isinstance(excinfo.value, ValueError)


def test_rational_propagator_from_nz_data(rng):
    # flow = direct also for genuinely rational propagator entries
    data = random_nz_data(rng, 2, regular_orders=(2, 3))
    pi = data.propagator_symbolic()
    for n in (2, 3):
        cover = data.cover_propagator(n)
        for g in (THETA, TREE):
            table = random_vertex_table(rng, 2, set(g.degrees))
            assert weight_flow(g, n, pi, table, 2) == \
                weight_direct(g, n, cover, table, 2)


def test_hbar_grading():
    # grades: per edge 1, vertex grade from table
    table = VertexFactorTable({3: [QQ.one()]}, grades={3: -1})
    pi = [[RationalFunction.from_poly(LaurentPolynomial.one(QQ))]]
    w = weight_flow(THETA, 2, pi, table, 1)
    # 3 edges + 2 vertices * (-1) = grade 1
    assert list(w) == [1]


def test_loop_invariant_gamma0_and_grades(rng):
    data = random_nz_data(rng, 1)
    gamma0 = (QQ.element(Fraction(7, 2)), 1)
    table = VertexFactorTable({3: [QQ.one()]}, grades={3: -1}, gamma0=gamma0)
    # theta diagram contributes at grade 1 = ell - 1
    val = loop_invariant(data, 3, [(THETA, table)], 2)
    w = weight_flow(THETA, 3, data.propagator_symbolic(), table, 1)
    assert val == w[1] + Fraction(7, 2)
    with pytest.raises(GradeMismatch):
        loop_invariant(data, 3, [(THETA, table)], 4)


def test_summation_order_regression(rng):
    # exact field arithmetic commutes; guard against any future
    # order-sensitive accumulation
    N, n = 2, 3
    pi = random_symmetric_propagator(rng, N)
    table = random_vertex_table(rng, N, {3})
    base = weight_flow(THETA, n, pi, table, N)
    relabeled = FeynmanDiagram(2, [(1, 0), (1, 0), (1, 0)],
                               THETA.symmetry_factor)
    assert weight_flow(relabeled, n, pi, table, N) == base


def test_diagram_json_roundtrip():
    obj = THETA.to_json()
    back = FeynmanDiagram.from_json(obj)
    assert back.edges == THETA.edges
    assert back.symmetry_factor == THETA.symmetry_factor
    obj["vertices"][0]["degree"] = 5
    with pytest.raises(ValidationError):
        FeynmanDiagram.from_json(obj)


# -- contraction with several cycle tree edges and free edges -------------------

K4 = FeynmanDiagram(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
CYCLE4 = FeynmanDiagram(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
CHORDED4 = FeynmanDiagram(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
DUMBBELL = FeynmanDiagram(2, [(0, 0), (0, 1), (1, 1)], Fraction(8))

# denominators without roots of unity, one per entry
DENOMINATORS = [{0: 1, 1: -2}, {0: 3, 1: 1}, {0: 2, 1: -1, 2: 1}, {0: 1, 2: 3}]


def distinct_denominator_propagator(rng, N):
    """Rational N x N propagator whose entries have pairwise different
    denominators (not symmetric)."""
    return [[RationalFunction(
        LaurentPolynomial(QQ, {k: rng.randint(-3, 3) or 1 for k in range(-1, 2)}),
        LaurentPolynomial(QQ, DENOMINATORS[N * i + j])) for j in range(N)]
        for i in range(N)]


def test_contraction_shapes_cover_cycle_tree_and_free_edges():
    # (cycle tree edges m, free edges d): the closing by lookup sees m, d >= 2
    for g, m, d in ((K4, 3, 3), (CYCLE4, 3, 1), (CHORDED4, 3, 2), (DUMBBELL, 0, 2)):
        tree_idx, free_idx, exponents = g.tree_edges, g.free_edges, g.exponents
        assert len(free_idx) == d
        assert sum(1 for idx in tree_idx if any(exponents[idx])) == m


@pytest.mark.parametrize("N", [1, 2])
def test_flow_equals_direct_beyond_three_edges(rng, N):
    for n in (1, 2, 3):
        pi = distinct_denominator_propagator(rng, N)
        pi1 = [[e.eval(QQ.one()) for e in row] for row in pi]
        pi0 = random_symmetric_matrix(rng, N)
        plain = cover_blocks_from_symbolic(pi, n, QQ)
        shifted = cover_blocks_from_symbolic(pi, n, QQ, pi0=pi0, pi1=pi1)
        for i in range(N):
            for j in range(N):
                image = ratfun_mod_cyclic(pi[i][j], n)
                corr = (pi0[i][j] - pi1[i][j]) / n
                for c in range(n):
                    assert plain.blocks[c][i][j] == image[c]
                    assert shifted.blocks[c][i][j] == image[c] + corr
        for g in (K4, CYCLE4, CHORDED4, DUMBBELL):
            table = random_vertex_table(rng, N, set(g.degrees))
            assert weight_flow(g, n, pi, table, N) == \
                weight_direct(g, n, plain, table, N), (g, n)
            assert weight_flow(g, n, pi, table, N, pi0=pi0) == \
                weight_direct(g, n, shifted, table, N), (g, n)


class _Bundle:
    """The parts of TwistedNZData that loop_invariant reads."""

    def __init__(self, pi, pi_mu):
        self.pi, self.pi_mu = pi, pi_mu
        self.field, self.N = QQ, len(pi)

    def propagator_symbolic(self):
        return self.pi

    def propagator_meridian(self):
        return self.pi_mu

    def propagator_at_one(self):
        return [[e.eval(QQ.one()) for e in row] for row in self.pi]


def _bench_diagrams(rng, N, gamma0):
    # theta, dumbbell and figure-eight all at hbar grade 1
    tables = [random_vertex_table(rng, N, {3}, {3: -1}),
              random_vertex_table(rng, N, {3}, {3: -1}),
              random_vertex_table(rng, N, {4}, {4: -1})]
    tables[0].gamma0 = gamma0
    return list(zip((THETA, DUMBBELL, BOUQUET), tables))


@pytest.mark.parametrize("peripheral", ["lambda", "mu"])
def test_loop_invariant_sums_weights_with_shared_images(rng, peripheral):
    N = 2
    gamma0 = (QQ.element(Fraction(-5, 3)), 1)
    for n in (1, 2, 3, 7):
        data = _Bundle(distinct_denominator_propagator(rng, N),
                       random_symmetric_matrix(rng, N))
        diags = _bench_diagrams(rng, N, gamma0)
        pi0 = data.pi_mu if peripheral == "mu" else None
        # blocks built entry by entry by ratfun_mod_cyclic, independent of
        # the images that loop_invariant and weight_flow share
        cover = cover_blocks_from_symbolic(data.pi, n, QQ, pi0=pi0,
                                           pi1=data.propagator_at_one())
        expect = direct = gamma0[0]
        for g, table in diags:
            expect = expect + weight_flow(g, n, data.pi, table, N, pi0=pi0).get(
                1, QQ.zero())
            direct = direct + weight_direct(g, n, cover, table, N).get(1, QQ.zero())
        assert loop_invariant(data, n, diags, 2, peripheral=peripheral) == expect
        assert expect == direct


def test_loop_invariant_raises_on_cyclotomic_denominator(rng):
    pi = distinct_denominator_propagator(rng, 2)
    cyclo3 = LaurentPolynomial(QQ, {0: 1, 1: 1, 2: 1})
    pi[1][0] = RationalFunction(pi[1][0].num, pi[1][0].den * cyclo3)
    data = _Bundle(pi, random_symmetric_matrix(rng, 2))
    diags = _bench_diagrams(rng, 2, None)
    for n in (1, 2, 4, 5):
        loop_invariant(data, n, diags, 2)
    for n in (3, 6):
        with pytest.raises(RootOfUnityPole):
            loop_invariant(data, n, diags, 2)


def test_loop_invariant_evaluates_pi_at_one_once_per_dataset(rng, monkeypatch):
    data = random_nz_data(rng, 2)
    diags = _bench_diagrams(rng, 2, None)
    expect = {n: loop_invariant(data, n, diags, 2) for n in (1, 2, 3, 5)}
    data = TwistedNZData(data.field, data.A, data.B, data.shapes)  # nothing cached
    evaluated = []
    real = RationalFunction.eval
    monkeypatch.setattr(RationalFunction, "eval",
                        lambda self, a: evaluated.append(a) or real(self, a))
    for n in (1, 2, 3, 5):
        assert loop_invariant(data, n, diags, 2) == expect[n]
    assert len(evaluated) == data.N ** 2 and all(a == 1 for a in evaluated)


def test_meridian_table_eliminates_once(monkeypatch):
    # Pi_mu is kept with its meridian rows: one Laurent elimination for a
    # 10-row mu table once Pi(t) is built, and new rows give a new Pi_mu
    rng = random.Random(7)
    while True:
        data = random_nz_data(rng, 2, regular_orders=range(1, 11))
        data.peripheral = PeripheralRows(a_mu=[rng.randint(-2, 2) for _ in range(2)],
                                         b_mu=[rng.randint(-2, 2) for _ in range(2)])
        try:
            fresh = TwistedNZData(data.field, data.A, data.B, data.shapes,
                                  data.peripheral).propagator_meridian()
            break
        except SingularAtRoot:
            continue
    diags = _bench_diagrams(rng, 2, None)
    data.propagator_symbolic()
    solves = []
    real = LaurentMatrix.solve
    monkeypatch.setattr(LaurentMatrix, "solve",
                        lambda self, rhs: solves.append(rhs) or real(self, rhs))
    values = [loop_invariant(data, n, diags, 2, peripheral="mu") for n in range(1, 11)]
    assert len(solves) == 1 and data.propagator_meridian() == fresh
    for n, value in enumerate(values, 1):
        cover = cover_blocks_from_symbolic(data.propagator_symbolic(), n, QQ, pi0=fresh,
                                           pi1=data.propagator_at_one())
        assert value == sum((weight_direct(g, n, cover, table, 2).get(1, QQ.zero())
                             for g, table in diags), QQ.zero()), n
    data.peripheral = PeripheralRows(a_mu=[0, 0], b_mu=[0, 0])
    with pytest.raises(SingularAtRoot):
        data.propagator_meridian()


def test_loop_invariant_inverts_each_denominator_by_one_small_solve(rng, monkeypatch):
    # no extended Euclid against t^n - 1 and no solve beyond one in F[t]/(Q)
    # per distinct denominator, however many entries share it
    from looptool import numberfield, rootsum
    pi = distinct_denominator_propagator(rng, 2)
    pi[1][1] = RationalFunction(pi[1][1].num, pi[0][0].den)
    data = _Bundle(pi, random_symmetric_matrix(rng, 2))
    diags = _bench_diagrams(rng, 2, None)
    calls = {"poly_invmod": 0, "solve_integer": 0}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(rootsum, "poly_invmod")
    counted(numberfield, "poly_invmod")
    counted(rootsum, "solve_integer")
    for peripheral in ("lambda", "mu"):
        calls.update(poly_invmod=0, solve_integer=0)
        loop_invariant(data, 40, diags, 2, peripheral=peripheral)
        assert calls == {"poly_invmod": 0, "solve_integer": 3}


@pytest.mark.parametrize("entry, check", [((0, 0), "fails its check"),
                                          ((0, 1), "is not integral")])
def test_wrong_small_solve_raises_cross_check_error(rng, monkeypatch, entry, check):
    # 1 - 2t at (0, 0) has Q(0) = 1, so only the certificate can catch a
    # wrong v; 3 + t at (0, 1) has Q(0) = 3 and fails the exact division
    from looptool import rootsum
    real = rootsum.solve_integer

    def wrong(M, rhs):
        num, den = real(M, rhs)
        return [num[0] + 1] + num[1:], den
    monkeypatch.setattr(rootsum, "solve_integer", wrong)
    data = _Bundle(distinct_denominator_propagator(rng, 2), random_symmetric_matrix(rng, 2))
    i, j = entry
    with pytest.raises(CrossCheckError) as excinfo:
        rootsum.CyclicMatrixImage(rootsum.CyclicMatrix(data.pi, QQ), 7).image(i, j)
    message = str(excinfo.value)
    assert message.startswith(f"entry ({i}, {j}) at n = 7: ") and check in message
    assert "coefficient" in message and "\n" not in message
    if entry == (0, 0):
        with pytest.raises(CrossCheckError, match=r"^entry \(0, 0\) at n = 7: "):
            loop_invariant(data, 7, _bench_diagrams(rng, 2, None), 2)


def test_pi_singular_at_one_keeps_each_routes_exception(rng):
    data = random_nz_data(rng, 2)
    diags = _bench_diagrams(rng, 2, None)
    t_minus_1 = LaurentPolynomial(QQ, {0: -1, 1: 1})
    pi = data.propagator_symbolic()
    pi[0][1] = RationalFunction(pi[0][1].num, pi[0][1].den * t_minus_1)
    # loop_invariant evaluates the entry at t = 1; the cover propagator with a
    # flow-0 override reports the singular propagator
    with pytest.raises(ZeroDivisionError) as excinfo:
        loop_invariant(data, 2, diags, 2)
    assert excinfo.type is ZeroDivisionError
    with pytest.raises(SingularAtRoot, match="t = 1"):
        data.cover_propagator(2, pi0=random_symmetric_matrix(rng, 2))
    with pytest.raises(ZeroDivisionError):
        loop_invariant(data, 3, diags, 2)


# -- cyclic images and weights over number fields ------------------------------

def _raw_quotient(num, den):
    """num / den kept exactly as given: RationalFunction would move a shift
    of den into num and scale den to constant term 1."""
    f = object.__new__(RationalFunction)
    f.num, f.den = num, den
    return f


def _field_propagator(rng, field):
    """3 x 3 matrix over the field whose denominators are non-monic and
    non-integral, of degree 0, 1 and 2, shifted, rational, and one of them
    shared by three entries; none vanishes at a root of unity."""
    xi = field.generator()
    c1, c2, c3 = 3 + xi / 5, 2 - xi / 7, (1 + xi / 4) / 3

    def lp(coeffs):
        return LaurentPolynomial(field, coeffs)

    def num():
        return lp({k: field.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                                     for _ in range(field.degree)])
                   for k in range(rng.randint(-2, 0), rng.randint(1, 3))})

    linear = lp({0: 1, 1: -c1})
    quadratic = lp({0: 1, 1: -c2}) * lp({0: 1, 1: -c3})
    shifted = lp({-1: Fraction(2, 3), 0: -c2})
    constant = lp({0: Fraction(7, 3) + xi / 2})
    rational = lp({0: 1, 1: Fraction(1, 2)})
    return [[RationalFunction(num(), linear), RationalFunction(num(), linear),
             RationalFunction(num(), quadratic)],
            [_raw_quotient(num(), shifted), _raw_quotient(num(), constant), num()],
            [RationalFunction(num(), rational), _raw_quotient(num(), quadratic),
             _raw_quotient(num(), linear * 2)]]


def _field_matrix(rng, field, N):
    xi = field.generator()
    return [[field.element(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
             + xi * Fraction(rng.randint(-3, 3), rng.randint(1, 2))
             for _ in range(N)] for _ in range(N)]


def _elements(images, i, j):
    """The image of entry (i, j) as field elements."""
    nums, den = images.image(i, j)
    return [images.ring.element(x, den) for x in nums]


@pytest.mark.parametrize("fixture", ["field_sqrt21", "field_cubic", "field_nonintegral"])
def test_cyclic_images_equal_ratfun_mod_cyclic_over_number_fields(request, fixture):
    field = request.getfixturevalue(fixture)
    rng = random.Random(41 + field.degree)
    pi = _field_propagator(rng, field)
    pi1 = [[e.eval(field.one()) for e in row] for row in pi]
    pi0 = _field_matrix(rng, field, 3)
    plain_matrix = CyclicMatrix(pi, field)
    shifted_matrix = CyclicMatrix(pi, field, pi0, lambda: pi1)
    for n in range(1, 41):
        plain = CyclicMatrixImage(plain_matrix, n)
        shifted = CyclicMatrixImage(shifted_matrix, n)
        for i in range(3):
            for j in range(3):
                f = pi[i][j]
                if isinstance(f, LaurentPolynomial):
                    f = RationalFunction.from_poly(f)
                image = ratfun_mod_cyclic(f, n)
                corr = (pi0[i][j] - pi1[i][j]) / n
                assert _elements(plain, i, j) == image, (n, i, j)
                assert _elements(shifted, i, j) == [c + corr for c in image], (n, i, j)


def test_cyclic_images_over_sqrt21_through_the_norm_and_without_a_cofactor(field_sqrt21):
    """Over Q(sqrt 21) a denominator over Q has the cofactor 1, so its
    inverse is the integer series itself with no cofactor pass; an
    irrational one goes through its norm N(Q) and the cofactor N(Q) / Q.
    Both images, certified by Q A = c, equal ratfun_mod_cyclic."""
    field, s = field_sqrt21, field_sqrt21.generator()

    def lp(coeffs):
        return LaurentPolynomial(field, coeffs)

    over_q = RationalFunction(lp({0: 1 + s, 2: 3}), lp({0: 5, 1: -2, 2: 1}))
    irrational = RationalFunction(lp({-1: 2, 1: s}), lp({0: 3 + s, 1: Fraction(1, 2)}))
    assert rootsum._den_forms(over_q.den, field.ring)[4] == (None, 1)
    assert rootsum._den_forms(irrational.den, field.ring)[4][0] is not None
    entries = [[over_q, irrational], [irrational, over_q]]
    matrix = CyclicMatrix(entries, field)
    for n in range(1, 31):
        images = CyclicMatrixImage(matrix, n)
        for i, row in enumerate(entries):
            for j, f in enumerate(row):
                assert _elements(images, i, j) == ratfun_mod_cyclic(f, n), (n, i, j)


class _FieldBundle(_Bundle):
    """A 2 x 2 propagator over a number field, for loop_invariant."""

    def __init__(self, pi, pi_mu, field):
        super().__init__(pi, pi_mu)
        self.field = field

    def propagator_at_one(self):
        return [[e.eval(self.field.one()) for e in row] for row in self.pi]


def _field_table(rng, field, N, degrees, grades=None, gamma0=None):
    xi = field.generator()
    factors = {d: [field.element(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                          rng.randint(1, 3)))
                   + xi * Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                   for _ in range(N)] for d in degrees}
    return VertexFactorTable(factors, grades, gamma0)


def _field_weights_agree(field, data, n, diags, peripheral):
    """loop_invariant and weight_flow against weight_direct on blocks built
    entry by entry by ratfun_mod_cyclic."""
    pi0 = data.pi_mu if peripheral == "mu" else None
    pi1 = data.propagator_at_one()
    cover = cover_blocks_from_symbolic(data.pi, n, field, pi0=pi0, pi1=pi1)
    expect = diags[0][1].gamma0[0]
    for g, table in diags:
        direct = weight_direct(g, n, cover, table, data.N, field=field)
        assert weight_flow(g, n, data.pi, table, data.N, pi0=pi0,
                           field=field) == direct, (g, n, peripheral)
        expect = expect + direct.get(1, field.zero())
    assert loop_invariant(data, n, diags, 2, peripheral=peripheral) == expect, \
        (n, peripheral)


@pytest.mark.parametrize("fixture", ["field_sqrt21", "field_cubic"])
@pytest.mark.parametrize("peripheral", ["lambda", "mu"])
def test_loop_invariant_over_number_fields_equals_direct(request, fixture, peripheral):
    field = request.getfixturevalue(fixture)
    rng = random.Random(53 + field.degree)
    pi = [row[:2] for row in _field_propagator(rng, field)[1:]]
    pi = [[e if not isinstance(e, LaurentPolynomial) else RationalFunction.from_poly(e)
           for e in row] for row in pi]
    data = _FieldBundle(pi, _field_matrix(rng, field, 2), field)
    gamma0 = (field.element(Fraction(-5, 3)) + field.generator(), 1)
    diags = [(THETA, _field_table(rng, field, 2, {3}, {3: -1}, gamma0)),
             (DUMBBELL, _field_table(rng, field, 2, {3}, {3: -1}, gamma0)),
             (BOUQUET, _field_table(rng, field, 2, {4}, {4: -1}, gamma0))]
    for n in list(range(1, 13)) + [40]:
        _field_weights_agree(field, data, n, diags, peripheral)


@pytest.mark.parametrize("fixture", ["field_sqrt21", "field_cubic"])
def test_catalogue_over_number_fields_equals_direct(request, fixture):
    field = request.getfixturevalue(fixture)
    rng = random.Random(59 + field.degree)
    pi = [row[:2] for row in _field_propagator(rng, field)[:2]]
    data = _FieldBundle(pi, _field_matrix(rng, field, 2), field)
    for n in (1, 2, 3):
        for peripheral in ("lambda", "mu"):
            diags = [(g, _field_table(rng, field, 2, set(g.degrees)))
                     for g in connected_multigraphs(3)]
            pi0 = data.pi_mu if peripheral == "mu" else None
            cover = cover_blocks_from_symbolic(data.pi, n, field, pi0=pi0,
                                               pi1=data.propagator_at_one())
            for g, table in diags:
                assert weight_flow(g, n, data.pi, table, 2, pi0=pi0, field=field) \
                    == weight_direct(g, n, cover, table, 2, field=field), (g, n)


# -- the spanning tree and the flow lattice: golden and validation ----------------


def _random_multigraph(rng):
    """Connected by construction (each vertex after the first is joined to an
    earlier one), then extra edges with self-loops and parallel edges; the
    vertices are relabeled and the edge order and orientations shuffled."""
    n_v = rng.randint(1, 7)
    edges = [(v, rng.randrange(v)) for v in range(1, n_v)]
    edges += [(rng.randrange(n_v), rng.randrange(n_v)) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.5:
        u = rng.randrange(n_v)
        edges += [(u, u)] * rng.randint(1, 2)
    if edges and rng.random() < 0.5:
        edges.append(rng.choice(edges))
    if not edges:
        edges = [(0, 0)]
    perm = list(range(n_v))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
             for u, v in edges]
    rng.shuffle(edges)
    return FeynmanDiagram(n_v, edges)


def test_tree_data_golden():
    # recorded before the spanning tree and the exponents came from one walk
    rng = random.Random(314)
    graphs = connected_multigraphs(4) + [_random_multigraph(rng) for _ in range(600)]
    assert len(graphs) == 647
    text = json.dumps([[g.tree_edges, g.free_edges, g.exponents] for g in graphs])
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "8911d307c048b437f670d2d8feef03931fd3c17176e65d3a493d9d7d78f2a871"


@pytest.mark.parametrize("n_vertices, edges, message", [
    (0, [], "diagram must be connected"),
    (4, [(0, 1), (2, 3), (3, 3)], "diagram must be connected"),
    (2, [(0, 2)], "edge endpoint out of range"),
    (2, [(-1, 0)], "edge endpoint out of range"),
    (0, [(0, 0)], "edge endpoint out of range"),
    # both faults: the endpoint check comes first
    (4, [(0, 1), (2, 7)], "edge endpoint out of range"),
    (3, [(5, 5)], "edge endpoint out of range"),
])
def test_invalid_diagrams_raise_validation_error(n_vertices, edges, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        FeynmanDiagram(n_vertices, edges)


# -- what a bundle row builds once per input, and what per n ---------------------


def _seeded_bundle(seed):
    """A seeded N = 2 bundle whose meridian propagator exists, with the
    theta, dumbbell and figure-eight diagrams; the same seed gives equal,
    fresh objects."""
    rng = random.Random(seed)
    while True:
        data = random_nz_data(rng, 2, regular_orders=range(1, 9))
        data.peripheral = PeripheralRows(a_mu=[rng.randint(-2, 2) for _ in range(2)],
                                         b_mu=[rng.randint(-2, 2) for _ in range(2)])
        try:
            data.propagator_meridian()
            break
        except SingularAtRoot:
            continue
    return data, _bench_diagrams(rng, 2, (QQ.element(Fraction(-5, 3)), 1))


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("peripheral", ["lambda", "mu"])
def test_rows_in_any_order_equal_the_in_order_rows_and_the_direct_sum(seed, peripheral):
    data, diags = _seeded_bundle(seed)
    in_order = {n: loop_invariant(data, n, diags, 2, peripheral=peripheral)
                for n in range(1, 9)}
    order = list(range(1, 9))
    random.Random(seed).shuffle(order)
    data, diags = _seeded_bundle(seed)
    shuffled = {n: loop_invariant(data, n, diags, 2, peripheral=peripheral) for n in order}
    assert shuffled == in_order
    pi0 = data.propagator_meridian() if peripheral == "mu" else None
    for n in range(1, 9):
        cover = cover_blocks_from_symbolic(data.propagator_symbolic(), n, QQ, pi0=pi0,
                                           pi1=data.propagator_at_one())
        direct = sum((weight_direct(g, n, cover, table, 2).get(1, QQ.zero())
                      for g, table in diags), QQ.element(Fraction(-5, 3)))
        assert in_order[n] == direct, n


def test_vertex_factors_are_looked_up_on_the_first_row_only(monkeypatch):
    data, diags = _seeded_bundle(5)
    looked_up = []
    real = VertexFactorTable.lookup
    monkeypatch.setattr(VertexFactorTable, "lookup",
                        lambda self, d, i: looked_up.append((d, i)) or real(self, d, i))
    loop_invariant(data, 4, diags, 2)
    first = len(looked_up)
    # N^|V| labelings of |V| vertices per diagram: 4 * 2 + 4 * 2 + 2 * 1
    assert first == 18
    for n in (1, 2, 3, 5, 9):
        loop_invariant(data, n, diags, 2)
        loop_invariant(data, n, diags, 2, peripheral="mu")
    assert len(looked_up) == first


def test_missing_vertex_factor_raises_on_the_first_row_and_in_the_cli(tmp_path, capsys):
    data, diags = _seeded_bundle(5)
    G, table = diags[2]
    short = VertexFactorTable({4: table.factors[4][:1]}, table.grades)
    for n in (1, 2):
        with pytest.raises(MissingVertexFactor, match="^no vertex factor for degree 4, index 1$"):
            loop_invariant(data, n, [diags[0], (G, short)], 2)
    from looptool.cli import main
    path = tmp_path / "bundle.json"
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "synthetic_theta_bundle.json")) as fh:
        obj = json.load(fh)
    obj["diagrams"][0]["vertex_factors"]["3"] = []
    path.write_text(json.dumps(obj))
    code = main(["knot", "--knot", str(path), "--loop", "2", "--nmax", "3"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: no vertex factor for degree 3, index 0\n")


def test_bundle_table_rows_are_loop_invariant_rows():
    # the theta file, and a seeded N = 2 bundle whose tables carry gamma0;
    # the rows of each against loop_invariant on fresh, equal objects
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "data",
                           "synthetic_theta_bundle.json")) as fh:
        obj = json.load(fh)
    theta = DiagramBundle.from_json(obj, "theta")
    data = TwistedNZData.from_json(obj["nz"])
    diags = [(FeynmanDiagram.from_json(d), VertexFactorTable.from_json(d, data.field))
             for d in obj["diagrams"]]
    seeded = DiagramBundle("seeded", *_seeded_bundle(3))
    for bundle, (data, diags), nmax in ((theta, (data, diags), 20),
                                        (seeded, _seeded_bundle(3), 8)):
        rows = list(bundle.table(2, nmax, "all"))
        assert [n for n, _ in rows] == list(range(1, nmax + 1))
        for n, value in rows:
            assert not value.sqrt_m3
            assert value.value == loop_invariant(data, n, diags, 2), (bundle.name, n)


def test_grade_mismatch_without_a_labeling_at_the_grade(rng):
    data = _Bundle(distinct_denominator_propagator(rng, 2), random_symmetric_matrix(rng, 2))
    table = random_vertex_table(rng, 2, {4}, {4: -1})
    # every labeling at grade 1, none at grade 2
    assert loop_invariant(data, 3, [(BOUQUET, table)], 2) != 0
    with pytest.raises(GradeMismatch, match="^no hbar\\^2 component present$"):
        loop_invariant(data, 3, [(BOUQUET, table)], 3)
    # no labeling at all: every product of vertex factors is zero
    zero = VertexFactorTable({4: [QQ.zero(), QQ.zero()]}, {4: -1})
    assert weight_flow(BOUQUET, 3, data.pi, zero, 2) == {}
    with pytest.raises(GradeMismatch, match="^no hbar\\^1 component present$"):
        loop_invariant(data, 3, [(BOUQUET, zero)], 2)


def test_grade_mismatch_when_the_labelings_at_the_grade_cancel(rng):
    data = _Bundle(distinct_denominator_propagator(rng, 2), random_symmetric_matrix(rng, 2))
    n = 4
    # the figure-eight has one vertex, so its weight is linear in the factors
    w0, w1 = (weight_flow(BOUQUET, n, data.pi, VertexFactorTable({4: f}, {4: -1}), 2)[1]
              for f in ([QQ.one(), QQ.zero()], [QQ.zero(), QQ.one()]))
    assert w0 != 0 and w1 != 0
    table = VertexFactorTable({4: [w1, -w0]}, {4: -1})
    assert weight_flow(BOUQUET, n, data.pi, table, 2) == {}
    with pytest.raises(GradeMismatch, match="^no hbar\\^1 component present$"):
        loop_invariant(data, n, [(BOUQUET, table)], 2)
    # a vacuum term at the grade is a component, even where the diagrams cancel
    with_vacuum = VertexFactorTable({4: [w1, -w0]}, {4: -1}, (QQ.element(Fraction(2, 7)), 1))
    assert loop_invariant(data, n, [(BOUQUET, with_vacuum)], 2) == Fraction(2, 7)
    assert loop_invariant(data, n, [(BOUQUET, table), (THETA, VertexFactorTable(
        {3: [QQ.one(), QQ.one()]}, {3: -1}))], 2) == weight_flow(
            THETA, n, data.pi, VertexFactorTable({3: [QQ.one(), QQ.one()]}, {3: -1}), 2)[1]
