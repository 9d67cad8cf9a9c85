"""Twisted gluing data: validation, one-loop polynomial, propagators, covers."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from conftest import is_palindromic_up_to_unit, proportional_up_to_unit
from looptool.circulant import BlockCirculant, block_diagonalize_check
from looptool.errors import SingularAtRoot, SingularError, ValidationError
from looptool.laurent import LaurentMatrix, LaurentPolynomial, RationalFunction
from looptool.linalg import mat_mul, solve_gauss_jordan
from looptool.numberfield import QQ
from looptool.nzdata import TwistedNZData, normalize_unit
from looptool.synth import random_nz_data

LP = LaurentPolynomial
T_MINUS_1 = LP(QQ, {1: 1, 0: -1})
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")


def one_tet_data(A_poly, B_poly, z):
    A = LaurentMatrix.from_rows(QQ, [[A_poly]])
    B = LaurentMatrix.from_rows(QQ, [[B_poly]])
    return TwistedNZData(QQ, A, B, [QQ.element(z)])


def test_synthetic_one_tet_example():
    # A = B = (t-1), z' = 1/(1-z) = 3 at z = 2/3: det = -2(t-1), delta constant
    data = one_tet_data(T_MINUS_1, T_MINUS_1, Fraction(2, 3))
    assert data.one_loop_determinant() == LP(QQ, {1: -2, 0: 2})
    assert data.twisted_one_loop().degree_span() == 0


FIG8_A = LP(QQ, {2: 1, 1: -4, 0: 4, -1: -1})


def test_fig8_delta_flag():
    # any valid input with this delta must reproduce t - 5 + 1/t up to unit
    data = one_tet_data(FIG8_A, T_MINUS_1, Fraction(1, 2))
    delta = data.twisted_one_loop()
    assert proportional_up_to_unit(delta, LP(QQ, {1: 1, 0: -5, -1: 1}))
    assert is_palindromic_up_to_unit(delta)


def test_shape_validation():
    with pytest.raises(ValidationError):
        one_tet_data(T_MINUS_1, T_MINUS_1, Fraction(1))
    with pytest.raises(ValidationError):
        one_tet_data(T_MINUS_1, T_MINUS_1, Fraction(0))


def test_symmetry_validation():
    # A = t breaks A(1/t) B(t)^T = B(1/t) A(t)^T against B = t - 1
    with pytest.raises(ValidationError):
        one_tet_data(LP(QQ, {1: 1}), T_MINUS_1, Fraction(1, 2))


def test_det_b_divisibility_validation():
    # B = 1 is symmetric-compatible with A = t + 1/t... check it trips on t-1
    with pytest.raises(ValidationError):
        one_tet_data(LP(QQ, {1: 1, -1: 1}), LP.one(QQ), Fraction(1, 2))


def test_random_data_invariants(rng):
    made = 0
    while made < 6:
        N = rng.randint(1, 3)
        data = random_nz_data(rng, N)
        made += 1
        Pi = data.propagator_symbolic()
        for i in range(N):
            for j in range(N):
                assert Pi[i][j].invert_variable() == Pi[j][i]
        P1 = data.propagator_at_one()
        assert all(P1[i][j] == P1[j][i] for i in range(N) for j in range(N))
        delta = data.twisted_one_loop()
        assert is_palindromic_up_to_unit(delta)
        detB = data.B.det()
        assert T_MINUS_1.divides(detB)
        big = T_MINUS_1 * delta
        for i in range(N):
            for j in range(N):
                den = Pi[i][j].den
                assert den.degree_span() == 0 or den.divides(big)


def test_propagator_n1_scalar():
    data = one_tet_data(FIG8_A, T_MINUS_1, Fraction(1, 2))
    Pi = data.propagator_symbolic()
    # N = 1: Pi = 1/(-B^{-1}A + z') = -1/delta here
    from looptool.laurent import RationalFunction
    assert Pi[0][0] == -RationalFunction(LP.one(QQ), LP(QQ, {1: 1, 0: -5, -1: 1}))


def test_cover_matrices_fold(rng):
    data = random_nz_data(rng, 2)
    # n = 1 gives X(1)
    assert BlockCirculant.from_representer(data.A, 1).blocks[0] == data.A.eval(QQ.one())
    # representer roundtrip
    for n in (2, 3, 5):
        An = BlockCirculant.from_representer(data.A, n)
        assert BlockCirculant.from_representer(An.representer(), n) == An


def test_fold_mod_two_supported_exponents():
    # X supported on exponents {-1,0,1}: n = 2 blocks (X0, X1 + X-1)
    data = one_tet_data(T_MINUS_1, T_MINUS_1, Fraction(2, 3))
    M = LaurentMatrix.from_rows(QQ, [[LP(QQ, {-1: 2, 0: 3, 1: 7})]])
    C = BlockCirculant.from_representer(M, 2)
    assert C.blocks[0] == [[QQ.element(3)]]
    assert C.blocks[1] == [[QQ.element(9)]]


def test_cover_propagator_defining_identity(rng):
    # B^(n) itself is singular (det B(1) = 0), so the defining relation is
    # checked multiplicatively: (B^(n) Delta^(n) - A^(n)) Pi^(n) = B^(n)
    for _ in range(4):
        N = rng.randint(1, 2)
        n = rng.randint(1, 4)
        data = random_nz_data(rng, N, regular_orders=(n,))
        Af = BlockCirculant.from_representer(data.A, n).to_full()
        Bf = BlockCirculant.from_representer(data.B, n).to_full()
        size = n * N
        lhs = [[Bf[i][j] * data.zp[j % N] - Af[i][j] for j in range(size)]
               for i in range(size)]
        Pn = data.cover_propagator(n).to_full()
        assert mat_mul(lhs, Pn) == Bf


def test_cover_propagator_diagonalizes_to_pi_at_roots(rng):
    import mpmath
    for _ in range(2):
        N, n = rng.randint(1, 2), rng.randint(2, 5)
        data = random_nz_data(rng, N, regular_orders=(n,))
        cov = data.cover_propagator(n)
        off, dev = block_diagonalize_check(cov, 50)
        assert off < 1e-40 and dev < 1e-40
        with mpmath.workdps(60):
            w = mpmath.e ** (2j * mpmath.pi / n)
            Pi = data.propagator_symbolic()
            rep = cov.representer()
            for k in range(n):
                for i in range(N):
                    for j in range(N):
                        num = sum(c.to_mpc(50) * w ** (e * k)
                                  for e, c in Pi[i][j].num.coeffs.items())
                        den = sum(c.to_mpc(50) * w ** (e * k)
                                  for e, c in Pi[i][j].den.coeffs.items())
                        via = sum(c.to_mpc(50) * w ** (e * k)
                                  for e, c in rep.entries[i][j].coeffs.items())
                        assert abs(num / den - via) < 1e-38


def test_cover_diag_blocks_match_direct_complex_inverse(rng):
    # independent numeric route: invert (-B(w^k)^{-1} A(w^k) + Delta) with
    # complex arithmetic and compare against the cover-propagator representer
    import mpmath
    N, n = 2, 4
    data = random_nz_data(rng, N, regular_orders=(n,))
    cov = data.cover_propagator(n)
    rep = cov.representer()
    with mpmath.workdps(60):
        w = mpmath.e ** (2j * mpmath.pi / n)
        for k in range(1, n):  # k = 0 needs the bordered limit, skip
            wk = w ** k
            Ak = mpmath.matrix(N, N)
            Bk = mpmath.matrix(N, N)
            for i in range(N):
                for j in range(N):
                    Ak[i, j] = sum(c.to_mpc(50) * wk ** e
                                   for e, c in data.A.entries[i][j].coeffs.items())
                    Bk[i, j] = sum(c.to_mpc(50) * wk ** e
                                   for e, c in data.B.entries[i][j].coeffs.items())
            G = -(Bk ** -1) * Ak
            for i in range(N):
                G[i, i] += data.zp[i].to_mpc(50)
            Pik = G ** -1
            for i in range(N):
                for j in range(N):
                    via_rep = sum(c.to_mpc(50) * wk ** e
                                  for e, c in rep.entries[i][j].coeffs.items())
                    assert abs(Pik[i, j] - via_rep) < 1e-38, (k, i, j)


def test_meridian_bordered_propagator(rng):
    from looptool.nzdata import PeripheralRows
    found = False
    for _ in range(40):
        data = random_nz_data(rng, 2)
        rows = PeripheralRows(a_mu=[rng.randint(-2, 2) for _ in range(2)],
                              b_mu=[rng.randint(-2, 2) for _ in range(2)])
        data.peripheral = rows
        try:
            pi_mu = data.propagator_meridian()
        except SingularAtRoot:
            continue
        found = True
        assert len(pi_mu) == 2 and len(pi_mu[0]) == 2
        # with zero rows the bordered matrix stays singular
        data.peripheral = PeripheralRows(a_mu=[0, 0], b_mu=[0, 0])
        with pytest.raises(SingularAtRoot):
            data.propagator_meridian()
        break
    assert found


def test_normalize_unit_sign_and_shift():
    p = LP(QQ, {-3: -2, -2: 10, -1: -2})
    q = normalize_unit(p)
    assert q.min_exp() == 0
    assert q.coeffs[q.max_exp()].coords[0] > 0


def test_json_roundtrip(tmp_path, rng):
    from looptool.nzdata import PeripheralRows
    data = random_nz_data(rng, 2)
    data.peripheral = PeripheralRows(a_mu=[1, 0], b_mu=[0, 2],
                                     a_lambda=[1, 1], b_lambda=[2, -1])
    path = tmp_path / "nz.json"
    path.write_text(json.dumps(data.to_json()))
    back = TwistedNZData.from_json(json.loads(path.read_text()))
    assert back.A == data.A and back.B == data.B
    assert back.shapes == data.shapes
    assert back.peripheral.a_mu == [1, 0] and back.peripheral.b_lambda == [2, -1]


# -- the symbolic propagator: goldens and its defining identity ---------------


def _lifted(data, field, shapes):
    """`data` with A and B written over `field` and new shapes."""
    def lift(M):
        return LaurentMatrix(field, [[LP(field, e.coeffs) for e in row]
                                     for row in M.entries])
    return TwistedNZData(field, lift(data.A), lift(data.B), shapes)


def _propagator_inputs():
    with open(os.path.join(DATA, "synthetic_theta_bundle.json")) as fh:
        theta = TwistedNZData.from_json(json.load(fh)["nz"])
    with open(os.path.join(DATA, "nz_synthetic_fig8.json")) as fh:
        fig8 = TwistedNZData.from_json(json.load(fh))
    return {"fig8": fig8,
            "theta": theta,
            "N2": random_nz_data(random.Random(5), 2),
            "N3": random_nz_data(random.Random(6), 3)}


def _sqrt21_data(field):
    s = field.generator()
    return _lifted(random_nz_data(random.Random(5), 2), field,
                   [(1 + s) / 2, 3 - s / 5])


@pytest.mark.parametrize("name, digest", [
    ("fig8", "e064cc66107603a50cfcbe8d8ca22cbc96dd51d92936312147c548a5ce2cfc19"),
    ("theta", "e064cc66107603a50cfcbe8d8ca22cbc96dd51d92936312147c548a5ce2cfc19"),
    ("N2", "b8ab35bf84936c294314254b22520a97f9dcd65310bb50932bedcf4c68934541"),
    ("N3", "df1e60c86b9a56b05faa4f92fe9af4f6eacf4b84ab2c028ba24e0272cb6d8f44"),
])
def test_propagator_symbolic_golden(name, digest):
    pi = _propagator_inputs()[name].propagator_symbolic()
    text = json.dumps([[e.to_json() for e in row] for row in pi])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_propagator_solves_its_defining_identity(field_sqrt21):
    # (A - B Delta_{z'}) Pi = -B, by RationalFunction products only
    cases = list(_propagator_inputs().values()) + [_sqrt21_data(field_sqrt21)]
    for data in cases:
        N, pi = data.N, data.propagator_symbolic()
        for i in range(N):
            for j in range(N):
                acc = RationalFunction.from_poly(LP.zero(data.field))
                for k in range(N):
                    g = data.A.entries[i][k] - data.B.entries[i][k] * data.zp[k]
                    acc = acc + g * pi[k][j]
                assert acc == RationalFunction.from_poly(-data.B.entries[i][j])


# -- the meridian propagator: golden and its defining identity -----------------


def _meridian_draws():
    """150 seeded datasets with N = 1, 2, 3 in turn and random meridian rows."""
    from looptool.nzdata import PeripheralRows
    draws = []
    for seed in range(150):
        rng = random.Random(seed)
        N = 1 + seed % 3
        data = random_nz_data(rng, N)
        data.peripheral = PeripheralRows(a_mu=[rng.randint(-2, 2) for _ in range(N)],
                                         b_mu=[rng.randint(-2, 2) for _ in range(N)],
                                         replaced_row=rng.randrange(-1, N))
        draws.append(data)
    return draws


def _bordered(data):
    """A(1) and B(1) with the meridian rows added to the replaced row."""
    one = data.field.one()
    A1, B1 = data.A.eval(one), data.B.eval(one)
    row = data.peripheral.replaced_row
    if row < 0:
        row = data.N - 1
    for j in range(data.N):
        A1[row][j] = A1[row][j] + data.peripheral.a_mu[j]
        B1[row][j] = B1[row][j] + data.peripheral.b_mu[j]
    return A1, B1


def test_meridian_propagator_golden():
    # recorded before Pi_mu came from the elimination of the symbolic propagator
    out = []
    for data in _meridian_draws():
        try:
            out.append([[e.to_json() for e in row] for row in data.propagator_meridian()])
        except SingularAtRoot as exc:
            out.append(str(exc))
    assert sum(isinstance(v, list) for v in out) == 92
    assert out.count("bordered B matrix singular") == 54
    assert out.count("meridian propagator singular") == 4
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == \
        "0413f14274937665d9a9480c6e638e21b1ee94fe45781ce10a805cdc700c969f"


def test_meridian_propagator_inverts_its_defining_matrix():
    # Pi_mu (-B(1)^-1 A(1) + Delta_{z'}) = I on the bordered matrices, with
    # B(1)^-1 A(1) formed column by column by Gauss-Jordan
    checked = 0
    for data in _meridian_draws():
        field, N = data.field, data.N
        A1, B1 = _bordered(data)
        try:
            cols = [solve_gauss_jordan(field, B1, [row[j] for row in A1])
                    for j in range(N)]
        except SingularError:
            with pytest.raises(SingularAtRoot, match="^bordered B matrix singular$"):
                data.propagator_meridian()
            continue
        G = [[-cols[j][i] + (data.zp[i] if i == j else 0) for j in range(N)]
             for i in range(N)]
        try:
            pi_mu = data.propagator_meridian()
        except SingularAtRoot as exc:
            assert str(exc) == "meridian propagator singular"
            with pytest.raises(SingularError):
                solve_gauss_jordan(field, G, [field.one()] + [field.zero()] * (N - 1))
            continue
        identity = [[int(i == j) for j in range(N)] for i in range(N)]
        assert mat_mul(pi_mu, G) == identity
        checked += 1
    assert checked == 92
