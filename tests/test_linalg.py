"""Exact linear algebra: the Gauss-Jordan consistent solve, and the p-adic
square solve checked against the Gauss-Jordan oracle."""

import operator
import random
from fractions import Fraction
from math import lcm

import pytest

from conftest import random_element
from looptool import linalg, rootsum
from looptool.errors import CrossCheckError, MathDomainError, SingularError
from looptool.knots import FIELD_52, fixture
from looptool.linalg import (PRIMES, mat_mul, solve, solve_consistent,
                             solve_gauss_jordan, solve_integer)
from looptool.numberfield import QQ, FieldElement, NumberField, bareiss
from looptool.powersum import reconstruction_matrix
from looptool.rootsum import _unit_system


@pytest.fixture(params=["QQ", "sqrt21"])
def field(request, field_sqrt21):
    return QQ if request.param == "QQ" else field_sqrt21


@pytest.fixture(params=["QQ", "sqrt21", "FIELD_52"])
def any_field(request, field_sqrt21):
    return {"QQ": QQ, "sqrt21": field_sqrt21, "FIELD_52": FIELD_52}[request.param]


def _random_matrix(rng, field, rows, cols):
    return [[random_element(rng, field) for _ in range(cols)] for _ in range(rows)]


def _apply(A, x):
    return [row[0] for row in mat_mul(A, [[c] for c in x])]


def test_solve(field):
    rng = random.Random(5)
    for n in (1, 2, 4, 6):
        A = _random_matrix(rng, field, n, n)
        if n > 1:
            # a zero in the top-left corner forces a row swap
            A[0][0] = field.zero()
        b = [random_element(rng, field) for _ in range(n)]
        assert _apply(A, solve(field, A, b)) == b


def test_singular_matrix_raises(any_field):
    rng = random.Random(6)
    A = _random_matrix(rng, any_field, 3, 3)
    A[2] = [a + b for a, b in zip(A[0], A[1])]
    b = [random_element(rng, any_field) for _ in range(3)]
    with pytest.raises(SingularError):
        solve(any_field, A, b)


def test_consistent_rank_deficient_system(field):
    rng = random.Random(7)
    # rank 2 in 4 unknowns, 5 equations; columns 1 and 3 are free
    base = _random_matrix(rng, field, 2, 4)
    for row in base:
        row[1] = row[0] * 3
        row[3] = row[0] - row[2]
    weights = _random_matrix(rng, field, 5, 2)
    A = mat_mul(weights, base)
    b = _apply(A, [random_element(rng, field) for _ in range(4)])
    x = solve_consistent(field, A, b)
    assert _apply(A, x) == b
    assert x[1].is_zero() and x[3].is_zero()


def test_inconsistent_system_raises(field):
    rng = random.Random(8)
    A = _random_matrix(rng, field, 3, 2)
    A[2] = [a + b for a, b in zip(A[0], A[1])]
    b = [random_element(rng, field) for _ in range(3)]
    b[2] = b[0] + b[1] + 1
    with pytest.raises(SingularError):
        solve_consistent(field, A, b)


# -- p-adic solve against the Gauss-Jordan oracle ---------------------------


def _big_element(rng, field, bits):
    return field.element([Fraction(rng.getrandbits(bits) - (1 << (bits - 1)),
                                   rng.getrandbits(bits) | 1)
                          for _ in range(field.degree)])


def _integer_matrix(rng, diagonal):
    """L D U with unit triangular integer L, U: its determinant is the
    product of the diagonal of D."""
    n = len(diagonal)
    L = [[1 if i == j else rng.randint(-9, 9) if j < i else 0 for j in range(n)]
         for i in range(n)]
    DU = [[diagonal[i] if i == j else diagonal[i] * rng.randint(-9, 9) if j > i else 0
           for j in range(n)] for i in range(n)]
    return mat_mul(L, DU)


def test_solve_rejects_non_square_systems():
    # a ragged row would otherwise be packed into the modular LU unnoticed,
    # and zip would drop a surplus right-hand side
    one = QQ.one()
    for A, b in (([[1, 2, 3]], [5]),
                 ([[one, one], [one]], [one, one]),
                 ([[one, one], [one, -one]], [one]),
                 ([[one]], [one, one])):
        for call in (lambda: solve(QQ, A, b), lambda: solve_integer(A, b),
                     lambda: solve_gauss_jordan(QQ, A, b)):
            with pytest.raises(MathDomainError, match="^solve needs a square system") as info:
                call()
            assert "\n" not in str(info.value)


def _dixon_solve(field, A, b):
    """`solve` through Dixon's lifting modulo the first listed prime,
    whatever the size of the system."""
    M, rhs = linalg.integer_system(field, A, b)
    num, den = linalg._dixon(M, rhs, linalg._ModularLU(M, PRIMES[0]))
    d = field.degree
    return [FieldElement._from_integers(field, num[k:k + d], den)
            for k in range(0, len(num), d)]


def test_padic_solve_matches_gauss_jordan(any_field):
    rng = random.Random(11)
    for n in (1, 2, 3, 5, 8):
        A = _random_matrix(rng, any_field, n, n)
        b = [random_element(rng, any_field) for _ in range(n)]
        want = solve_gauss_jordan(any_field, A, b)
        assert solve(any_field, A, b) == want == _dixon_solve(any_field, A, b)


def test_padic_solve_recovers_large_solutions(any_field):
    # a 400-bit numerator over a 400-bit denominator needs a modulus above
    # 2^800, i.e. at least 14 lifting steps; the 1 x 1 systems take early
    # reconstructions that only the exact check A x = b rejects
    rng = random.Random(12)
    for n, bits in [(1, 400)] * 6 + [(2, 400), (4, 200), (7, 64)]:
        A = _random_matrix(rng, any_field, n, n)
        x = [_big_element(rng, any_field, bits) for _ in range(n)]
        b = _apply(A, x)
        assert solve(any_field, A, b) == x == _dixon_solve(any_field, A, b)
        assert solve_gauss_jordan(any_field, A, b) == x


@pytest.mark.parametrize("singular_mod", [1, len(PRIMES)])
def test_singular_modulo_listed_primes(singular_mod):
    # nonsingular over Q, singular modulo the first `singular_mod` primes:
    # the solve moves to the next prime, or Gauss-Jordan decides
    rng = random.Random(13)
    ints = _integer_matrix(rng, list(PRIMES[:singular_mod]) + [1, 1, 1])
    for p in PRIMES[:singular_mod]:
        with pytest.raises(SingularError):
            linalg._ModularLU(ints, p)
    A = [[QQ.element(v) for v in row] for row in ints]
    x = [random_element(rng, QQ) for _ in A]
    b = _apply(A, x)
    assert solve(QQ, A, b) == x == solve_gauss_jordan(QQ, A, b)


# -- the modular LU against the list-of-rows elimination -----------------------


def _reference_lu(M, p):
    """(perm, lower, upper, pivot_inverses) of P M = L U mod p by row
    operations on lists, pivoting on the first row nonzero mod p; the oracle
    of the packed `_ModularLU`."""
    n = len(M)
    a = [[x % p for x in row] for row in M]
    perm = list(range(n))
    inverses = []
    for c in range(n):
        r = next((i for i in range(c, n) if a[i][c]), None)
        if r is None:
            raise SingularError(f"singular modulo {p}")
        a[c], a[r] = a[r], a[c]
        perm[c], perm[r] = perm[r], perm[c]
        inverses.append(pow(a[c][c], -1, p))
        tail = a[c][c + 1:]
        for row in a[c + 1:]:
            # the multiplier takes the eliminated slot, so swaps carry it along
            f = row[c] * inverses[-1] % p
            if f:
                row[c + 1:] = [(x - f * y) % p for x, y in zip(row[c + 1:], tail)]
            row[c] = f
    return (perm, [row[:i] for i, row in enumerate(a)],
            [row[i + 1:] for i, row in enumerate(a)], inverses)


def _packed_lu(M, p):
    lu = linalg._ModularLU(M, p)
    return lu.perm, lu.lower, lu.upper, lu.pivot_inverses


def _outcome(factor, M, p):
    """factor(M, p), or the message of the SingularError it raises."""
    try:
        return factor(M, p)
    except SingularError as exc:
        return str(exc)


def _lu_test_matrix(rng, n, p):
    """A seeded n x n integer matrix of one of four kinds (n mod 4): dense;
    dense with column 0 divisible by p in its top half (a swap at step 0);
    upper triangular mod p with its rows shuffled (a swap at nearly every
    step); dense with its last row congruent to its first (singular mod p
    for n > 1).  Entries are 0 to 1024 bits with either sign, one in eight
    a multiple of p."""
    bits = rng.choice([0, 1, 8, 60, 61, 62, 64, 122, 123, 256, 1024])

    def entry():
        if rng.random() < 0.125:
            return rng.randint(-3, 3) * p
        return rng.choice([-1, 1]) * rng.getrandbits(bits)

    kind = n % 4
    M = [[entry() for _ in range(n)] for _ in range(n)]
    if kind == 1:
        for row in M[:n // 2 + 1]:
            row[0] = rng.randint(-3, 3) * p
    elif kind == 2:
        M = [[(rng.randrange(1, p) if i == j else entry() % p if j > i else 0)
              + rng.randint(-2, 2) * p for j in range(n)] for i in range(n)]
        rng.shuffle(M)
    elif kind == 3:
        M[-1] = [x + rng.randint(-2, 2) * p for x in M[0]]
    return M


@pytest.mark.parametrize("p", [PRIMES[0], PRIMES[3]])
def test_modular_lu_matches_list_reference(p):
    rng = random.Random(p)
    outcomes = set()
    for n in range(1, 65):
        M = _lu_test_matrix(rng, n, p)
        want = _outcome(_reference_lu, M, p)
        assert _outcome(_packed_lu, M, p) == want, n
        if isinstance(want, str):
            outcomes.add("singular")
        else:
            outcomes.add("swapped" if want[0] != sorted(want[0]) else "in order")
    assert outcomes == {"singular", "swapped", "in order"}


@pytest.mark.parametrize("n", [127, 128])
@pytest.mark.parametrize("upper", ["zero", "near p - 1"])
def test_modular_lu_slot_growth(n, upper):
    # M = L U mod p with every multiplier p - 1 or p - 2.  With U zero off
    # the diagonal each elimination adds f p, at least (p - 2) p, to every
    # slot of every row below: the largest growth the slot width allows for
    # (a width without its bitlen(n) term overflows here).  The second case
    # takes U's entries near p - 1 as well.  n = 127 and 128 lie either side
    # of the step in bitlen(n) that sets the width
    p = PRIMES[0]
    rng = random.Random(n)
    L = [[p - 1 - rng.randrange(2) if j < i else int(i == j) for j in range(n)]
         for i in range(n)]
    if upper == "zero":
        U = [[p - 1 - rng.randrange(4) if i == j else 0 for j in range(n)] for i in range(n)]
    else:
        U = [[p - 1 - rng.randrange(4) if j >= i else 0 for j in range(n)] for i in range(n)]
    columns = list(zip(*U))
    M = [[sum(map(operator.mul, row, col)) % p for col in columns] for row in L]
    factors = _packed_lu(M, p)
    assert factors == _reference_lu(M, p)
    perm, lower, upper_rows, _ = factors
    assert perm == list(range(n))
    assert lower == [row[:i] for i, row in enumerate(L)]
    assert upper_rows == [row[i + 1:] for i, row in enumerate(U)]


def test_modular_lu_solve_inverts_mod_p():
    rng = random.Random(17)
    p = PRIMES[0]
    for n in (1, 2, 5, 9, 16, 33):
        M = [[rng.choice([-1, 1]) * rng.getrandbits(rng.choice([8, 64, 300]))
              for _ in range(n)] for _ in range(n)]
        if n > 1:
            M[0][0] = 2 * p  # a pivot swap at step 0
        lu = linalg._ModularLU(M, p)
        for _ in range(3):
            v = [rng.randrange(p) for _ in range(n)]
            x = lu.solve(v)
            assert all(0 <= c < p for c in x)
            assert [sum(map(operator.mul, row, x)) % p for row in M] == v


# -- the integer core ---------------------------------------------------------


def _over_q(M, rhs):
    return [[QQ.element(v) for v in row] for row in M], [QQ.element(v) for v in rhs]


def test_integer_solve_matches_gauss_jordan():
    rng = random.Random(16)
    solved = 0
    for n in (1, 2, 3, 5, 8, 12) * 3:
        M = [[rng.randint(-40, 40) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-(1 << 200), 1 << 200) for _ in range(n)]
        num, den = solve_integer(M, rhs)
        assert den > 0 and len(num) == n
        expect = solve_gauss_jordan(QQ, *_over_q(M, rhs))
        assert [Fraction(v, den) for v in num] == [c.coords[0] for c in expect]
        solved += 1
    assert solved == 18


def test_integer_solve_singular_modulo_every_listed_prime():
    # nonsingular over Z, singular modulo every prime: Gauss-Jordan decides
    rng = random.Random(13)
    M = _integer_matrix(rng, list(PRIMES) + [1, 1, 1])
    for p in PRIMES:
        with pytest.raises(SingularError):
            linalg._ModularLU(M, p)
    rhs = [rng.randint(-99, 99) for _ in M]
    num, den = solve_integer(M, rhs)
    assert den > 0
    assert all(sum(a * v for a, v in zip(row, num)) == den * b for row, b in zip(M, rhs))


def test_integer_solve_raises_on_a_singular_unit_matrix():
    # Q = (t^2 + t + 1)(t - 2)^2 vanishes at the cube roots of unity, so
    # multiplication by t^3 - 1 is singular in Z[t]/(Q), and not by t^4 - 1
    Q = [4, 0, 1, -3, 1]
    power, M_u = _unit_system(3, Q, 0, 1)
    with pytest.raises(SingularError):
        solve_integer(M_u, power)
    power, M_u = _unit_system(4, Q, 0, 1)
    num, den = solve_integer(M_u, power)
    assert all(sum(a * v for a, v in zip(row, num)) == den * b
               for row, b in zip(M_u, power))
    # a plain singular matrix as well
    with pytest.raises(SingularError):
        solve_integer([[1, 2], [2, 4]], [1, 1])


def test_step_cap_reached_raises_cross_check(monkeypatch):
    # more unknowns than FRACTION_FREE_MAX, so the solve lifts p-adically
    rng = random.Random(15)
    n = linalg.FRACTION_FREE_MAX + 1
    A = _random_matrix(rng, QQ, n, n)
    b = _apply(A, [_big_element(rng, QQ, 400) for _ in range(n)])
    monkeypatch.setattr(linalg, "_step_cap", lambda M, rhs, p: 2)
    with pytest.raises(CrossCheckError, match="within its Hadamard bound of 2 steps"):
        solve(QQ, A, b)


def test_dixon_reads_a_one_digit_solution_before_the_cap(monkeypatch):
    """A solution that the first p-adic digit already determines is returned
    before the step cap is computed; one with a large denominator still
    lifts several steps, computes the cap once and gets the exact answer."""
    rng = random.Random(16)
    n = linalg.FRACTION_FREE_MAX + 2
    M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    num = [rng.randint(-99, 99) for _ in range(n)]
    scaled = [[7 * v for v in row] for row in M]
    rhs = [sum(map(operator.mul, row, num)) for row in M]
    caps = []
    real_cap = linalg._step_cap

    def forbidden(*args):
        raise AssertionError("the step cap was computed")

    monkeypatch.setattr(linalg, "_step_cap", forbidden)
    got, den = solve_integer(scaled, rhs)
    assert [Fraction(v, den) for v in got] == [Fraction(v, 7) for v in num]
    monkeypatch.setattr(linalg, "_step_cap",
                        lambda *args: caps.append(1) or real_cap(*args))
    big = [[rng.getrandbits(200) - (1 << 199) for _ in range(n)] for _ in range(n)]
    rhs = [rng.getrandbits(200) for _ in range(n)]
    lu = linalg._ModularLU(big, PRIMES[0])
    digits = []
    real_solve = lu.solve
    lu.solve = lambda v: digits.append(1) or real_solve(v)
    assert linalg._dixon(big, rhs, lu) == linalg._fraction_free(big, rhs)
    assert len(digits) > 8 and caps == [1]


def test_fraction_free_solve_is_checked_exactly(monkeypatch):
    # a wrong last column out of `bareiss` is caught by the check M x = rhs
    def perturbed(aug, cols, div):
        out = bareiss(aug, cols, div)
        aug[-1] = aug[-1][:-1] + [aug[-1][-1] + 1]
        return out

    monkeypatch.setattr(linalg, "bareiss", perturbed)
    M = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    with pytest.raises(CrossCheckError, match="3x3 .* at row 1$"):
        solve_integer(M, [1, 2, 3])


def _integer_system_of_rank(rng, m, bits, rank):
    """A seeded m x m integer matrix of the given rank, entries of about
    `bits` bits: a product of m x rank and rank x m factors."""
    half = max(1, bits // 2)
    left = [[rng.getrandbits(half) - (1 << (half - 1)) for _ in range(rank)]
            for _ in range(m)]
    right = [[rng.getrandbits(half) - (1 << (half - 1)) for _ in range(m)]
             for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(m)]
            for i in range(m)]


def _three_routes(M, rhs):
    """`solve_integer`, `_dixon` over `_ModularLU` and Gauss-Jordan over Q on
    one integer system, each as its list of Fractions or "singular"."""
    def dixon():
        for p in PRIMES:
            try:
                lu = linalg._ModularLU(M, p)
            except SingularError:
                continue
            return linalg._dixon(M, rhs, lu)
        raise SingularError("singular modulo every listed prime")

    def gauss_jordan():
        return [c.coords[0] for c in solve_gauss_jordan(QQ, *_over_q(M, rhs))]

    out = []
    for route in (lambda: solve_integer(M, rhs), dixon):
        try:
            num, den = route()
        except SingularError:
            out.append("singular")
            continue
        assert den > 0
        out.append([Fraction(v, den) for v in num])
    try:
        out.append(gauss_jordan())
    except SingularError:
        out.append("singular")
    return out


def test_integer_routes_agree_on_seeded_systems():
    rng = random.Random(18)
    singular = 0
    for m in range(1, linalg.FRACTION_FREE_MAX + 1):
        for bits in (8, 64, 256, 1024):
            rank = m - 1 if (m + bits) % 3 == 0 else m
            M = _integer_system_of_rank(rng, m, bits, rank)
            rhs = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(m)]
            fast, dixon, oracle = _three_routes(M, rhs)
            assert fast == dixon == oracle, (m, bits)
            singular += fast == "singular"
    assert singular > 4


def _row_systems(monkeypatch, knot, ell, ns):
    """The integer systems that the residue route solves for the rows of
    `knot` at loop `ell`, captured at `rootsum.solve_integer`."""
    captured = []

    def capture(M, rhs):
        captured.append((M, rhs))
        return solve_integer(M, rhs)

    fx = fixture(knot)
    fx.phi_form(ell)
    with monkeypatch.context() as patch:
        patch.setattr(rootsum, "solve_integer", capture)
        for n in ns:
            fx.phi_residue(ell, n)
    return captured


def test_integer_routes_agree_on_figure_eight_rows(monkeypatch):
    systems = _row_systems(monkeypatch, "4_1", 3, [*range(1, 71), 1000])
    assert len(systems) == 71 and {len(M) for M, _ in systems} == {8}
    for M, rhs in systems:
        fast, dixon, oracle = _three_routes(M, rhs)
        assert fast == dixon == oracle != "singular"


def test_small_systems_take_bareiss_and_large_ones_dixon(monkeypatch):
    # one 4_1 row by the residue route: one `bareiss`, no modular LU; a
    # 10-unknown reconstruction system: no `bareiss`
    fx = fixture("4_1")
    fx.phi_form(3)
    calls = {"bareiss": 0, "lu": 0}

    def counted_bareiss(*args):
        calls["bareiss"] += 1
        return bareiss(*args)

    class CountedLU(linalg._ModularLU):
        def __init__(self, *args):
            calls["lu"] += 1
            super().__init__(*args)

    monkeypatch.setattr(linalg, "bareiss", counted_bareiss)
    monkeypatch.setattr(linalg, "_ModularLU", CountedLU)
    assert fx.phi_residue(3, 37) == fx.phi_closed(3, 37)
    assert calls == {"bareiss": 1, "lu": 0}
    rng = random.Random(19)
    ns = range(1, 11)
    A = reconstruction_matrix(QQ, [QQ.element(2)], 3, ns)
    x = [random_element(rng, QQ) for _ in ns]
    assert len(A) == len(A[0]) == 10 > linalg.FRACTION_FREE_MAX
    calls.update(bareiss=0, lu=0)
    assert solve(QQ, A, _apply(A, x)) == x
    assert calls == {"bareiss": 0, "lu": 1}


def _reference_integer_system(field, A, b):
    """integer_system on Fraction coordinates in the power basis of the
    algebraic integer theta = c xi, c the lcm of the denominators of the
    minimal polynomial m (whose theta-form has coefficients c^(d-k) m_k and
    on whose basis xi^i = theta^i / c^i): the multiplication matrix of each
    entry column by column, each rational equation scaled by the lcm of its
    reduced denominators."""
    d = field.degree
    factor = lcm(*(q.denominator for q in field.minpoly))
    lows = [q * factor ** (d - k) for k, q in enumerate(field.minpoly[:-1])]

    def theta_coords(x):
        return [q / factor ** i for i, q in enumerate((field.zero() + x).coords)]

    def columns(x):
        col = theta_coords(x)
        out = [col]
        for _ in range(field.degree - 1):
            top = col[-1]
            col = [-top * lows[0]] + [c - top * m for c, m in zip(col[:-1], lows[1:])]
            out.append(col)
        return out

    M, rhs = [], []
    for row, target in zip(A, b):
        blocks = [columns(a) for a in row]
        for c, t in enumerate(theta_coords(target)):
            eq = [col[c] for cols in blocks for col in cols] + [t]
            scale = lcm(*(q.denominator for q in eq))
            ints = [q.numerator * (scale // q.denominator) for q in eq]
            rhs.append(ints.pop())
            M.append(ints)
    return M, rhs


@pytest.mark.parametrize("minpoly", [[0, 1], [-21, 0, 1], [-1, -1, 0, 1],
                                     ["-3/4", 0, 1], ["-1/3", "-1/2", 0, 1]],
                         ids=["QQ", "sqrt21", "cubic", "x2-3/4", "cubic-non-integral"])
def test_integer_system_matches_fraction_reference(minpoly):
    field = NumberField(minpoly)
    rng = random.Random(str(minpoly))
    for n in (1, 2, 3, 5):
        A = _random_matrix(rng, field, n, n)
        A[0][-1] = field.zero()
        A[-1][0] = QQ.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        b = [random_element(rng, field, den=30) for _ in range(n - 1)] + [7]
        for rhs in (b, [field.zero()] + b[1:]):
            assert linalg.integer_system(field, A, rhs) == _reference_integer_system(field, A, rhs)
        try:
            want = solve_gauss_jordan(field, [[field.zero() + a for a in row] for row in A],
                                      [field.zero() + v for v in b])
        except SingularError:
            continue
        assert solve(field, A, b) == want
