"""Feynman diagrams, flows with values in Z/nZ, and diagram weights.

Two evaluation routes for the weight of a diagram on an n-cyclic cover:

* weight_flow: the flow formula.  The sum over flows is a sum over an
  n-torus of roots of unity; it is the coefficient of the trivial monomial
  in the group ring F[(Z/nZ)^d] (d = first betti number), where the
  propagator applied to a flow monomial folds into F[t]/(t^n - 1).  Only
  the tree edges that lie on a cycle are multiplied out, over partial sums
  in (Z/nZ)^d; each free edge carries one cycle coordinate, so its residue
  is forced and it is closed by a lookup.  Per vertex labeling this costs
  O(|E| n min(n^m, n^d)) products of integer numerators, m the number of
  tree edges on a cycle.  Built once per input and kept with it: each
  table's weighted labelings of a diagram (those with a nonzero product of
  vertex factors, that product times 1/sigma as numerators over one
  denominator, and their grade), and on the NZ data what the images read
  that does not depend on n (rootsum.CyclicMatrix).  Built per n: the images
  (rootsum.CyclicMatrixImage), shared by all diagrams, and the contraction,
  a sum on integer numerators that loop_invariant normalizes once per row.
  No complex root of unity is ever evaluated.

* weight_direct: the brute expansion over all (nN)^|V| vertex labelings of
  the cover, with the cover propagator as a block circulant.  Exponentially
  slower; used as the oracle the flow formula is checked against, on blocks
  that circulant.cover_blocks_from_symbolic folds entry by entry with the
  extended Euclid, sharing no code with the images.

Both return exact field values graded by powers of hbar: every edge carries
grade one, vertex factors carry their declared grades.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .circulant import BlockCirculant
from .errors import (CoverOrderError, GradeMismatch, MissingVertexFactor, ParseError,
                     ValidationError, check_cover_order)
from .numberfield import FieldElement, NumberField, Numerators, QQ, parse_int, parse_rational
from .rootsum import CyclicMatrix, CyclicMatrixImage

FlowAssignment = Tuple[int, ...]  # one residue per edge, aligned with .edges


class FeynmanDiagram:
    """Connected multigraph with oriented edges, loops and multi-edges allowed.

    Construction walks the graph once, breadth-first from vertex 0, and keeps
    the flow lattice: `tree_edges` are the indices of the edges that reach a
    new vertex, `free_edges` the others, and `exponents[i]` is the exponent
    vector of edge i's flow value as a monomial in the free-edge values.
    Free edge k carries the unit vector e_k; a tree edge carries the signed
    count of fundamental cycles through it, in {-1, 0, 1}.
    """

    def __init__(self, n_vertices: int, edges: Sequence[Tuple[int, int]],
                 symmetry_factor=Fraction(1)):
        self.n_vertices = n_v = int(n_vertices)
        self.edges = [(int(u), int(v)) for u, v in edges]
        self.symmetry_factor = parse_rational(symmetry_factor)
        if self.symmetry_factor <= 0:
            raise ValidationError("symmetry factor must be positive")
        for u, v in self.edges:
            if not (0 <= u < n_v and 0 <= v < n_v):
                raise ValidationError("edge endpoint out of range")
        self.degrees = [0] * n_v
        adj: List[List[Tuple[int, int]]] = [[] for _ in range(n_v)]
        for idx, (u, v) in enumerate(self.edges):
            self.degrees[u] += 1
            self.degrees[v] += 1
            adj[u].append((v, idx))
            adj[v].append((u, idx))
        # paths[w]: the signed tree edges of the path from vertex 0 to w,
        # +1 where the edge points away from vertex 0
        paths: Dict[int, Dict[int, int]] = {0: {}}
        order = [0] if n_v else []
        tree = set()
        for w in order:
            for x, idx in adj[w]:
                if x not in paths:
                    paths[x] = {**paths[w], idx: 1 if x == self.edges[idx][1] else -1}
                    tree.add(idx)
                    order.append(x)
        # without vertices, vertex 0 itself is not in the graph
        if len(paths) != n_v:
            raise ValidationError("diagram must be connected")
        self.tree_edges = sorted(tree)
        self.free_edges = [i for i in range(len(self.edges)) if i not in tree]
        self.first_betti = len(self.free_edges)
        # edge i's signed count in the cycle of free edge f, closed by the
        # tree path from f's head back to its tail
        self.exponents: List[Tuple[int, ...]] = [
            tuple(int(i == f) + paths[self.edges[f][0]].get(i, 0)
                  - paths[self.edges[f][1]].get(i, 0) for f in self.free_edges)
            for i in range(len(self.edges))]

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"vertices": [{"degree": d} for d in self.degrees],
                "edges": [[u, v] for u, v in self.edges],
                "symmetry_factor": str(self.symmetry_factor)}

    @classmethod
    def from_json(cls, obj) -> "FeynmanDiagram":
        edges = obj.get("edges", [])
        vertices = obj.get("vertices", [])
        if not (isinstance(edges, list)
                and all(isinstance(e, list) and len(e) == 2 for e in edges)):
            raise ParseError("'edges' must be a list of [u, v] pairs")
        if not (isinstance(vertices, list) and all(isinstance(v, dict) for v in vertices)):
            raise ParseError("'vertices' must be a list of objects")
        edges = [(parse_int(u, "edge endpoint"), parse_int(v, "edge endpoint"))
                 for u, v in edges]
        sigma = obj.get("symmetry_factor", "1")
        diag = cls(len(vertices), edges, sigma)
        declared = [parse_int(v.get("degree", -1), "degree") for v in vertices]
        for i, d in enumerate(declared):
            if d >= 0 and d != diag.degrees[i]:
                raise ValidationError(
                    f"vertex {i} declares degree {d}, edges give {diag.degrees[i]}")
        return diag

    def __repr__(self):
        return (f"FeynmanDiagram(V={self.n_vertices}, edges={self.edges}, "
                f"sigma={self.symmetry_factor})")


def enumerate_flows(G: FeynmanDiagram, n: int) -> Iterator[FlowAssignment]:
    """Yield all n^d flows; free edges range over Z/nZ, tree edges follow."""
    check_cover_order(n)
    exponents = G.exponents
    for idx in itertools.product(range(n), repeat=G.first_betti):
        yield tuple(sum(c * x for c, x in zip(vec, idx)) % n for vec in exponents)


def is_conserved(G: FeynmanDiagram, flow: FlowAssignment, n: int) -> bool:
    for v in range(G.n_vertices):
        into = sum(flow[i] for i, (a, b) in enumerate(G.edges) if b == v)
        out = sum(flow[i] for i, (a, b) in enumerate(G.edges) if a == v)
        if (into - out) % n:
            return False
    return True


class VertexFactorTable:
    """Vertex factors per (degree, tetrahedron index), with hbar grades.

    gamma0 is the optional vacuum contribution as (value, grade).
    """

    def __init__(self, factors: Dict[int, List[FieldElement]],
                 grades: Optional[Dict[int, int]] = None,
                 gamma0: Optional[Tuple[FieldElement, int]] = None):
        self.factors = {int(k): list(v) for k, v in factors.items()}
        self.grades = {int(k): int(v) for k, v in (grades or {}).items()}
        self.gamma0 = gamma0
        self._weighted: Dict[tuple, tuple] = {}

    def weighted_labelings(self, G: FeynmanDiagram, N: int,
                           field: NumberField) -> Tuple[list, int, int]:
        """G's labelings by indices 0..N-1 whose product of vertex factors
        is not zero, with that product times 1/sigma as numerators over one
        denominator (`NumberField.ring`), the denominator, and the grade
        they share; built on first use and kept, keyed by what they read."""
        key = (tuple(G.degrees), G.symmetry_factor, N)
        found = self._weighted.get(key)
        # the field is compared, not hashed: its hash reads every coefficient
        if found is None or (found[0] is not field and found[0] != field):
            labelings, values = [], []
            for labeling in itertools.product(range(N), repeat=G.n_vertices):
                value = field.element(1 / G.symmetry_factor)
                for degree, index in zip(G.degrees, labeling):
                    value = value * self.lookup(degree, index)[0]
                if not value.is_zero():
                    labelings.append(labeling)
                    values.append(value)
            nums, den = field.ring.of(values) if values else ([], 1)
            grade = len(G.edges) + sum(self.grades.get(d, 0) for d in G.degrees)
            found = self._weighted[key] = (field, list(zip(labelings, nums)), den, grade)
        return found[1:]

    def lookup(self, degree: int, index: int) -> Tuple[FieldElement, int]:
        if degree not in self.factors or index >= len(self.factors[degree]):
            raise MissingVertexFactor(f"no vertex factor for degree {degree}, "
                                      f"index {index}")
        return self.factors[degree][index], self.grades.get(degree, 0)

    def to_json(self) -> dict:
        out = {str(k): [e.to_json() for e in v] for k, v in self.factors.items()}
        if self.grades:
            out["hbar_grade"] = {str(k): v for k, v in self.grades.items()}
        obj = {"vertex_factors": out}
        if self.gamma0 is not None:
            obj["gamma0"] = {"value": self.gamma0[0].to_json(),
                             "grade": self.gamma0[1]}
        return obj

    @classmethod
    def from_json(cls, obj, field: NumberField) -> "VertexFactorTable":
        vf = obj.get("vertex_factors", {})
        if not isinstance(vf, dict):
            raise ParseError("'vertex_factors' must be an object")
        grades = {}
        factors = {}
        for k, v in vf.items():
            if k == "hbar_grade":
                if not isinstance(v, dict):
                    raise ParseError("'hbar_grade' must be an object")
                grades = {parse_int(kk, "degree"): parse_int(vv, "hbar grade")
                          for kk, vv in v.items()}
                continue
            if not isinstance(v, list):
                raise ParseError(f"vertex_factors[{k!r}] must be a list")
            factors[parse_int(k, "degree")] = [FieldElement.from_json(e, field) for e in v]
        gamma0 = None
        if obj.get("gamma0") is not None:
            g = obj["gamma0"]
            if not isinstance(g, dict) or "value" not in g:
                raise ParseError("'gamma0' must be an object with a 'value'")
            gamma0 = (FieldElement.from_json(g["value"], field),
                      parse_int(g.get("grade", 0), "gamma0 grade"))
        return cls(factors, grades, gamma0)


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

def weight_flow(G: FeynmanDiagram, n: int, pi_symbolic, table: VertexFactorTable,
                N: int, pi0=None, field: Optional[NumberField] = None
                ) -> Dict[int, FieldElement]:
    """Flow-formula weight, graded by hbar.

    pi_symbolic is the N x N matrix of RationalFunction (or Laurent
    polynomial) entries of Pi(t); pi0 optionally overrides the value used
    for flow value 0 (defaults to Pi(1), the longitude case).

    Per labeling, the flow sum is n^d times the coefficient of the trivial
    monomial in the product over edges of the propagator entry applied to
    that edge's flow monomial, evaluated in F[(Z/nZ)^d]; the 1/n^{d-1}
    prefactor leaves n times that coefficient.  Bridges carry flow 0 and
    enter as scalars.  The other tree edges are multiplied out over partial
    sums s in (Z/nZ)^d, at most min(n^m, n^d) of them for m such edges.
    Free edge i carries the unit vector e_i, so its residue is forced to
    -s_i and each free edge is closed by one lookup.  That costs
    O(|E| n min(n^m, n^d)) products of the images' integer numerators per
    labeling: O(n) for the theta graph, O(1) for the dumbbell and the
    figure-eight.  The weighted labelings (built once per table) and the
    bridges' flow-0 entries enter as integer numerators; the labelings are
    added over the lcm of their denominators and divided once.  Per n, the
    images cost one solve of size deg Q and O(n deg Q) integer operations
    per distinct denominator Q, and O(n) per entry numerator term (see
    rootsum); here their n-independent parts are built too.
    """
    if field is None:
        field = _field_of(pi_symbolic, table)
    images = CyclicMatrixImage(CyclicMatrix(pi_symbolic, field, pi0), n)
    grade, num, den = _contract(G, table, N, images)
    return {} if num == images.ring.zero else {grade: images.ring.element(num, den)}


def _contract(G: FeynmanDiagram, table: VertexFactorTable, N: int,
              images: CyclicMatrixImage) -> Tuple[int, object, int]:
    """weight_flow on the cover propagator images of one n: its grade and
    its value as a numerator over a positive denominator, not reduced."""
    n, ring = images.n, images.ring
    mul, add = ring.mul, ring.add
    zero_entries = images.source.flow_zero()[0]
    labelings, weight_den, grade = table.weighted_labelings(G, N, images.field)
    tree_idx, free_idx, exponents = G.tree_edges, G.free_edges, G.exponents
    bridges = [G.edges[idx] for idx in tree_idx if not any(exponents[idx])]
    cycle_tree = [idx for idx in tree_idx if any(exponents[idx])]
    # residues of k * (exponent vector) for k in Z/nZ, per cycle tree edge
    steps = [[tuple(k * c % n for c in exponents[idx]) for k in range(n)]
             for idx in cycle_tree]
    cycle_edges = [G.edges[idx] for idx in cycle_tree + free_idx]
    m = len(cycle_tree)
    total, total_den = ring.zero, 1
    zero_key = (0,) * len(free_idx)
    for labeling, weight in labelings:
        folds, den = [], weight_den
        for u, v in cycle_edges:
            fold, fold_den = images.image(labeling[u], labeling[v])
            folds.append(fold)
            den *= fold_den
        for u, v in bridges:
            entry, entry_den = zero_entries[labeling[u]][labeling[v]]
            weight = mul(weight, entry)
            den *= entry_den
        if weight == ring.zero:
            continue
        acc = {zero_key: ring.one}
        for fold, step in zip(folds, steps):
            acc = _multiply_edge(acc, fold, step, n, mul, add)
        closing = list(enumerate(folds[m:]))
        term_sum = ring.zero
        for key, term in acc.items():
            for pos, fold in closing:
                term = mul(term, fold[-key[pos] % n])
                if not term:
                    break
            term_sum = add(term_sum, term)
        total, total_den = _add_fractions(ring, total, total_den, mul(term_sum, weight), den)
    return grade, ring.times(total, n), total_den


def _add_fractions(ring: Numerators, a, a_den: int, b, b_den: int) -> Tuple[object, int]:
    """a / a_den + b / b_den on numerators, over the lcm of the denominators."""
    if a_den == b_den:
        return ring.add(a, b), a_den
    common = lcm(a_den, b_den)
    return ring.add(ring.times(a, common // a_den), ring.times(b, common // b_den)), common


def _multiply_edge(acc: dict, fold: list, step: List[tuple], n: int, mul, add) -> dict:
    """acc times sum_k fold[k] T^(k * exponent vector), keyed by residues,
    on integer numerators."""
    if len(acc) == 1:
        (key, a), = acc.items()
        if not any(key):
            # from the trivial monomial alone the residues are the steps
            return dict(zip(step, map(mul, itertools.repeat(a), fold)))
    out: dict = {}
    for key, a in acc.items():
        for k, c in enumerate(fold):
            if not c:
                continue
            new = tuple([(x + y) % n for x, y in zip(key, step[k])])
            prod = mul(a, c)
            out[new] = add(out[new], prod) if new in out else prod
    return out


def weight_direct(G: FeynmanDiagram, n: int, pi_cover: BlockCirculant,
                  table: VertexFactorTable, N: int,
                  field: Optional[NumberField] = None) -> Dict[int, FieldElement]:
    """Oracle weight: expand over all (nN)^|V| cover labelings.

    The cover vertex factors repeat the base ones n times, matching the
    n-fold repetition of the shape parameters along the cover.
    """
    if n != pi_cover.n:
        raise CoverOrderError(f"n = {n} disagrees with the {pi_cover.n}-fold cover propagator")
    if N != pi_cover.block_size:
        raise CoverOrderError(f"N = {N} disagrees with the {pi_cover.block_size} x "
                              f"{pi_cover.block_size} blocks of the cover propagator")
    if field is None:
        field = pi_cover.field
    size = n * N
    result: Dict[int, FieldElement] = {}
    for labeling in itertools.product(range(size), repeat=G.n_vertices):
        value = field.one()
        grade = len(G.edges)
        for v in range(G.n_vertices):
            gv, gr = table.lookup(G.degrees[v], labeling[v] % N)
            value = value * gv
            grade += gr
        if not value.is_zero():
            for u, v in G.edges:
                value = value * pi_cover.entry(labeling[u], labeling[v])
                if value.is_zero():
                    break
            if not value.is_zero():
                result[grade] = result.get(grade, field.zero()) + value
    inv_sigma = field.element(1 / G.symmetry_factor)
    return {g: v * inv_sigma for g, v in result.items() if not v.is_zero()}


def _field_of(pi_matrix, table: VertexFactorTable) -> NumberField:
    """The first field of degree above 1 among the entries, then the vertex
    factors; else the entries' field, else Q."""
    fields = [e.field for row in pi_matrix for e in row if hasattr(e, "field")]
    factors = [e.field for values in table.factors.values() for e in values]
    return next((f for f in fields + factors if f.degree > 1), fields[0] if fields else QQ)


def loop_invariant(data, n: int, diagrams, ell: int,
                   peripheral: str = "lambda") -> FieldElement:
    """Coefficient of hbar^(ell-1) in the summed diagram weights plus the
    vacuum contribution.

    `diagrams` is a list of (FeynmanDiagram, VertexFactorTable); the tables
    carry the vacuum value, and those that do must agree on it.
    The first row builds what does not depend on n and keeps it, on the
    tables and, per peripheral, on `data` (rebuilt when its propagator
    matrices change); a row builds the images of its n and normalizes once.
    """
    pi_symbolic = data.propagator_symbolic()
    pi0 = None
    if peripheral == "mu":
        pi0 = data.propagator_meridian()
    elif peripheral != "lambda":
        raise ParseError("peripheral curve must be 'lambda' or 'mu'")
    kept = vars(data).setdefault("_cyclic_matrices", {})
    matrix = kept.get(peripheral)
    if matrix is None or matrix.source is not pi_symbolic or matrix.pi0 is not pi0:
        matrix = kept[peripheral] = CyclicMatrix(pi_symbolic, data.field, pi0,
                                                 data.propagator_at_one)
    images = CyclicMatrixImage(matrix, n)
    ring = images.ring
    total, total_den, present, gamma0 = ring.zero, 1, False, None
    for G, table in diagrams:
        grade, num, den = _contract(G, table, data.N, images)
        if grade == ell - 1 and num != ring.zero:
            total, total_den = _add_fractions(ring, total, total_den, num, den)
            present = True
        if table.gamma0 is not None:
            if gamma0 is not None and gamma0 != table.gamma0:
                raise ValidationError("inconsistent vacuum contributions")
            gamma0 = table.gamma0
    value = ring.element(total, total_den)
    if gamma0 is not None and gamma0[1] == ell - 1:
        value, present = value + gamma0[0], True
    if not present:
        raise GradeMismatch(f"no hbar^{ell - 1} component present")
    return value


def connected_multigraphs(max_edges: int = 3) -> List[FeynmanDiagram]:
    """All connected multigraphs with 1..max_edges edges, up to isomorphism.

    Vertices up to max_edges + 1; includes self-loops and parallel edges.
    """
    from itertools import combinations_with_replacement, permutations
    canon_seen = set()
    out = []
    for n_e in range(1, max_edges + 1):
        for n_v in range(1, n_e + 2):
            pairs = [(i, j) for i in range(n_v) for j in range(i, n_v)]
            for combo in combinations_with_replacement(pairs, n_e):
                touched = set()
                for u, v in combo:
                    touched.add(u)
                    touched.add(v)
                if touched != set(range(n_v)):
                    continue
                canon = None
                for perm in permutations(range(n_v)):
                    relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v])))
                                             for u, v in combo))
                    if canon is None or relabeled < canon:
                        canon = relabeled
                key = (n_v, canon)
                if key in canon_seen:
                    continue
                try:
                    diag = FeynmanDiagram(n_v, combo)
                except ValidationError:
                    continue
                canon_seen.add(key)
                out.append(diag)
    return out
