"""Field arithmetic, inverses, certified embeddings, serialization."""

import math
import random
from fractions import Fraction
from operator import floordiv, truediv

import mpmath
import pytest

from conftest import random_element
from looptool import laurent, linalg, numberfield, powersum, rootsum
from looptool.errors import CrossCheckError, ParseError, SingularError, ZeroInverse
from looptool.knots import FIELD_52, FIELD_LAMBDA_52, FIELD_SQRT21, fixture
from looptool.laurent import LaurentPolynomial, RationalFunction
from looptool.synth import random_nz_data
from looptool.numberfield import (ComplexBall, FieldElement, FieldEmbedding, NumberField, QQ,
                                  bareiss, parse_rational, poly_divmod, poly_invmod,
                                  poly_mul, poly_mulmod, poly_series, poly_trim, sqrt_lower,
                                  sqrt_upper)


def test_rational_parsing_roundtrip():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-5") == -5
    with pytest.raises(ParseError):
        parse_rational("0.5")
    with pytest.raises(ParseError):
        parse_rational("1e3")


def test_inverse_identity_in_qq():
    one = QQ.one()
    assert one.inverse() == one


def test_inverse_cubic_example():
    # xi^3 = xi + 1: 1/xi = xi^2 - 1 since xi(xi^2 - 1) = xi^3 - xi = 1
    K = NumberField([-1, -1, 0, 1])
    xi = K.generator()
    assert xi.inverse() == K.element([-1, 0, 1])
    assert xi * xi.inverse() == 1


def test_inverse_golden_pair(field_sqrt21):
    s21 = field_sqrt21.generator()
    lam = (5 + s21) / 2
    assert lam.inverse() == (5 - s21) / 2
    assert lam * ((5 - s21) / 2) == 1


def test_zero_inverse_raises():
    with pytest.raises(ZeroInverse):
        QQ.zero().inverse()


def test_field_axioms_random(rng, field_cubic):
    for _ in range(300):
        a = random_element(rng, field_cubic)
        b = random_element(rng, field_cubic)
        c = random_element(rng, field_cubic)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_minpoly_must_be_squarefree():
    with pytest.raises(ParseError):
        NumberField([1, 2, 1])  # (x+1)^2
    with pytest.raises(ParseError):
        NumberField([2, -3, 0, 1])  # (x-1)^2 (x+2)


# -- the dense polynomial kernel, over Fractions and over field elements ---------

RINGS = {
    "Q": (Fraction(0), Fraction(1), lambda rng: random_element(rng, QQ).coords[0]),
    "cubic": (FIELD_52.zero(), FIELD_52.one(), lambda rng: random_element(rng, FIELD_52)),
}


def _random_poly(rng, draw, degree):
    p = [draw(rng) for _ in range(degree + 1)]
    while not p[-1]:
        p[-1] = draw(rng)
    return p


def _poly_add(a, b, zero):
    out = [zero] * max(len(a), len(b))
    for p in (a, b):
        for i, c in enumerate(p):
            out[i] = out[i] + c
    return poly_trim(out)


def _gcd_is_one(a, m, zero, one):
    while a:
        m, a = a, poly_divmod(m, a, zero, one)[1]
    return len(m) == 1


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_kernel_divmod_identity(ring):
    zero, one, draw = RINGS[ring]
    rng = random.Random(11)
    for _ in range(25):
        a = _random_poly(rng, draw, rng.randint(0, 9))
        b = _random_poly(rng, draw, rng.randint(0, 5))
        q, r = poly_divmod(a, b, zero, one)
        assert len(r) < len(b) and r == poly_trim(list(r))
        assert _poly_add(poly_mul(q, b, zero), r, zero) == a


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_kernel_invmod_inverts_or_reports_common_factor(ring):
    zero, one, draw = RINGS[ring]
    rng = random.Random(12)
    t_minus_1 = [-one, one]
    inverted = 0
    for _ in range(15):
        h = _random_poly(rng, draw, rng.randint(0, 4))
        g = _random_poly(rng, draw, rng.randint(0, 3))
        m = poly_mul(t_minus_1, h, zero)
        common = poly_divmod(poly_mul(t_minus_1, g, zero), m, zero, one)[1]
        assert poly_invmod(common, m, zero, one) is None
        for a in (poly_divmod(g, m, zero, one)[1], common):
            inv = poly_invmod(a, m, zero, one)
            assert (inv is None) == (not _gcd_is_one(a, m, zero, one))
            if inv is not None:
                assert poly_mulmod(a, inv, m, zero, one) == [one]
                inverted += 1
    assert inverted > 5


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_inverse_with_large_coordinates(field_sqrt21, field_cubic, bits):
    rng = random.Random(bits)
    for field in (field_sqrt21, field_cubic):
        for _ in range(4):
            x = field.element([Fraction(rng.getrandbits(bits) - (1 << (bits - 1)),
                                        rng.getrandbits(bits) | 1)
                               for _ in range(field.degree)])
            assert x * x.inverse() == 1


@pytest.mark.parametrize("minpoly", [[-21, 0, 1], [Fraction(-1, 2), 0, 1],
                                     [Fraction(-3, 4), 0, 1], [Fraction(-5, 7), Fraction(1, 3), 1]])
def test_quadratic_kernels_equal_the_generic_route(minpoly):
    """At degree 2 the closed-form product and adjugate equal the generic
    convolution and `bareiss` route on seeded elements, the inverse among
    them; zero, and a zero divisor of a split minimal polynomial, still
    raise ZeroInverse."""
    field = NumberField(minpoly)
    assert {"_mul_numerators", "_adjugate"} <= vars(field).keys()
    assert not {"_mul_numerators", "_adjugate"} & vars(FIELD_52).keys()
    rng = random.Random(22)
    for bits in (4, 40, 400):
        for _ in range(25):
            x, y = ([rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(2)]
                    for _ in range(2))
            assert field._mul_numerators(x, y) == NumberField._mul_numerators(field, x, y)
            if not any(x):
                continue
            w, det = field._adjugate(x)
            v, last = NumberField._adjugate(field, x)
            assert [Fraction(a, det) for a in w] == [Fraction(a, last) for a in v]
            e = FieldElement._from_integers(field, x, rng.getrandbits(bits) | 1)
            v, last = NumberField._adjugate(field, e.num)
            assert e.inverse() == FieldElement._from_integers(
                field, [a * e.den for a in v], last)
            assert e * e.inverse() == 1
    with pytest.raises(ZeroInverse):
        field.zero().inverse()
    split = NumberField([-1, 0, 1])
    with pytest.raises(ZeroInverse):
        split.element([1, 1]).inverse()
    with pytest.raises(ZeroInverse):
        NumberField._adjugate(split, [1, 1])


@pytest.mark.parametrize("minpoly", [[0, 1], [3, 1], [Fraction(-5, 6), 1]])
def test_linear_ring_equals_the_generic_route(minpoly):
    """Over a degree-1 field a numerator is an int: the ring's product and
    adjugate equal the generic convolution and `bareiss` route on seeded
    operands, the field keeps no closed-form kernel of its own, and the
    adjugate of zero raises ZeroInverse."""
    field = NumberField(minpoly)
    ring = field.ring
    assert not {"_mul_numerators", "_adjugate"} & vars(field).keys()
    rng = random.Random(23)
    for bits in (4, 400):
        for _ in range(25):
            x, y = rng.getrandbits(bits) - (1 << (bits - 1)), rng.getrandbits(bits) + 1
            assert [ring.mul(x, y)] == NumberField._mul_numerators(field, [x], [y])
            w, det = ring.adjugate(y)
            v, last = NumberField._adjugate(field, [y])
            assert Fraction(w, det) == Fraction(v[0], last) == Fraction(1, y)
    with pytest.raises(ZeroInverse):
        ring.adjugate(0)
    with pytest.raises(ZeroInverse):
        NumberField._adjugate(field, [0])


@pytest.mark.parametrize("name", ["QQ", "field_sqrt21", "field_cubic", "field_nonintegral"])
def test_ring_operations_equal_field_arithmetic(request, name):
    """Each operation of a field's ring of numerators, read back over a
    denominator, equals the same `FieldElement` arithmetic; over Q a
    numerator is a plain int."""
    field = QQ if name == "QQ" else request.getfixturevalue(name)
    ring = field.ring
    rng = random.Random(29 + field.degree)
    for _ in range(20):
        x, y = random_element(rng, field), random_element(rng, field)
        (a, b), den = ring.of([x, y])
        assert isinstance(a, int) == (field.degree == 1)
        c = rng.randint(-50, 50)
        assert ring.element(a, den) == x and ring.element(b, den) == y
        assert ring.element(ring.mul(a, b), den * den) == x * y
        assert ring.element(ring.add(a, b), den) == x + y
        assert ring.element(ring.times(a, c), den) == x * c
        assert ring.element(ring.plus(a, c), den) == x + Fraction(c, den)
        assert ring.element(ring.add_times(a, b, c), den) == x + y * c
        # combine reads the numerators as the rows of their coordinates
        rows = [[a, b]] if field.degree == 1 else [list(row) for row in zip(a, b)]
        assert ring.element(ring.combine(rows, [c, 3]), den) == x * c + y * 3
        assert ring.element(ring.from_ints([c])[0], 1) == field.element(c)
        if x:
            w, det = ring.adjugate(a)
            assert ring.element(ring.times(w, den), det) == x.inverse()
    assert ring.element(ring.zero, 1) == 0 and ring.element(ring.one, 1) == 1


def test_minpoly_must_be_monic():
    with pytest.raises(ParseError):
        NumberField([-21, 0, 2])


def test_embed_rational_is_exact_point():
    ball = QQ.element(Fraction(3, 4)).embed(precision_digits=10)
    assert ball.re == Fraction(3, 4) and ball.im == 0 and ball.radius == 0


def test_embed_sqrt21_30_digits(field_sqrt21):
    ball = field_sqrt21.generator().embed(precision_digits=30)
    assert ball.radius <= Fraction(1, 10 ** 30)
    want = mpmath.mpf("4.5825756949558400065880471937280")
    assert abs(ball.to_mpc().real - want) < mpmath.mpf(10) ** -28
    assert ball.to_mpc().real > 0  # root_index selects the positive root


def test_embed_cubic_complex_root(field_cubic):
    # the geometric root is approximately -0.662 - 0.562 i
    ball = field_cubic.generator().embed(precision_digits=25)
    z = ball.to_mpc()
    assert abs(z.real - mpmath.mpf("-0.6623589786")) < 1e-9
    assert abs(z.imag - mpmath.mpf("-0.5622795120")) < 1e-9


def _contains_ball(outer, inner):
    """Whether the ball `inner` lies inside the ball `outer`."""
    gap = outer.radius - inner.radius
    return gap >= 0 and (outer.re - inner.re) ** 2 + (outer.im - inner.im) ** 2 <= gap * gap


def test_embedding_homomorphism_many_pairs(rng, field_cubic, field_sqrt21):
    def digits_of(radius):
        if radius == 0:
            return 40
        return min(120, int(-mpmath.log10(
            mpmath.mpf(radius.numerator) / radius.denominator)))

    for field in (field_cubic, field_sqrt21):
        for _ in range(500):
            a = random_element(rng, field)
            b = random_element(rng, field)
            outer = a.embed(precision_digits=15) * b.embed(precision_digits=15)
            inner = (a * b).embed(precision_digits=digits_of(outer.radius) + 3)
            assert _contains_ball(outer, inner)


def test_certified_roots_pairwise_disjoint(field_cubic):
    balls = field_cubic.certified_roots(30)
    assert len(balls) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            d2 = (balls[i].re - balls[j].re) ** 2 + (balls[i].im - balls[j].im) ** 2
            rr = balls[i].radius + balls[j].radius
            assert d2 > rr * rr


def test_abs_bounds_certify_unit_circle_side(field_sqrt21):
    lam = (5 + field_sqrt21.generator()) / 2
    assert lam.embed(precision_digits=20).abs_lower() > 1
    assert lam.inverse().embed(precision_digits=20).abs_upper() < 1


def test_sqrt_bounds_tiny_values():
    q = Fraction(1, 10 ** 200)
    up, lo = sqrt_upper(q), sqrt_lower(q)
    assert lo * lo <= q <= up * up
    assert up < Fraction(2, 10 ** 100)


def test_serialization_roundtrip(rng, field_cubic):
    for _ in range(50):
        a = random_element(rng, field_cubic)
        assert FieldElement.from_json(a.to_json()) == a
    b = QQ.element(Fraction(-7, 3))
    assert FieldElement.from_json(b.to_json()) == b
    assert FieldElement.from_json("4/9", QQ) == Fraction(4, 9)


def test_cross_field_promotion(field_sqrt21):
    a = QQ.element(Fraction(1, 2))
    s = field_sqrt21.generator()
    assert (a + s) - s == field_sqrt21.element(Fraction(1, 2))
    assert (a * s) / s == Fraction(1, 2)


def test_ball_arithmetic_encloses():
    b1 = ComplexBall(Fraction(1), Fraction(2), Fraction(1, 100))
    b2 = ComplexBall(Fraction(-3), Fraction(1, 2), Fraction(1, 50))
    prod = b1 * b2
    # true product of centers lies inside
    assert _contains_ball(prod, ComplexBall(b1.re * b2.re - b1.im * b2.im,
                                            b1.re * b2.im + b1.im * b2.re))


# -- integer numerators over one denominator, against Fraction coordinates ------

def _oracle_mul(field, a, b):
    """The schoolbook product of Fraction coordinate tuples in the powers
    of xi, reduced modulo the minimal polynomial by polynomial division."""
    zero = Fraction(0)
    out = poly_divmod(poly_mul(a, b, zero), field.minpoly, zero, Fraction(1))[1]
    return tuple(out + [zero] * (field.degree - len(out)))


def _oracle_inverse(field, a):
    inv = poly_invmod(list(a), field.minpoly, Fraction(0), Fraction(1))
    return tuple(inv + [Fraction(0)] * (field.degree - len(inv)))


def _oracle_pow(field, a, k):
    base = _oracle_inverse(field, a) if k < 0 else a
    out = (Fraction(1),) + (Fraction(0),) * (field.degree - 1)
    for _ in range(abs(k)):
        out = _oracle_mul(field, out, base)
    return out


ORACLE_FIELDS = {
    "Q": QQ,
    "sqrt21": NumberField([-21, 0, 1], root_index=1),
    "cubic_52": FIELD_52,
    "x2-3/4": NumberField(["-3/4", 0, 1]),
    "cubic_non_integral": NumberField(["-1/3", "-1/2", 0, 1]),
}


def _oracle_coords(rng, field):
    """Coordinates of small, large and zero sizes, sometimes over one shared
    denominator, sometimes over unrelated ones."""
    kind = rng.choice(["small", "shared", "large", "zero", "sparse"])
    if kind == "zero":
        return [Fraction(0)] * field.degree
    bound, den = {"small": (9, 12), "shared": (10 ** 6, 1), "large": (2 ** 80, 2 ** 70),
                  "sparse": (50, 30)}[kind]
    shared = rng.randint(1, 2 ** 40)
    coords = []
    for _ in range(field.degree):
        num = rng.randint(-bound, bound)
        if kind == "sparse" and rng.random() < 0.5:
            num = 0
        coords.append(Fraction(num, shared if kind == "shared" else rng.randint(1, den)))
    return coords


def _assert_canonical(e, field):
    assert e.field is field
    assert type(e.num) is tuple and len(e.num) == field.degree
    assert all(type(v) is int for v in e.num) and type(e.den) is int
    assert e.den > 0 and math.gcd(e.den, *e.num) == 1
    if not any(e.num):
        assert e.den == 1
    assert type(e.coords) is tuple
    assert all(type(c) is Fraction for c in e.coords)
    # num / den are the coordinates on the powers of theta = c xi, c the lcm
    # of the denominators of the minimal polynomial, so coordinate i on the
    # powers of xi is c^i num[i] / den
    c = math.lcm(*(q.denominator for q in field.minpoly))
    assert e.coords == tuple(Fraction(v * c ** i, e.den) for i, v in enumerate(e.num))


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
def test_arithmetic_matches_fraction_oracle(name):
    field = ORACLE_FIELDS[name]
    rng = random.Random(name)
    for _ in range(120):
        a, b = _oracle_coords(rng, field), _oracle_coords(rng, field)
        x, y = field.element(a), field.element(b)
        assert x.coords == tuple(a)
        results = {
            "add": (x + y, tuple(p + q for p, q in zip(a, b))),
            "sub": (x - y, tuple(p - q for p, q in zip(a, b))),
            "neg": (-x, tuple(-p for p in a)),
            "mul": (x * y, _oracle_mul(field, a, b)),
            "rsub": (3 - x, tuple([3 - a[0]] + [-p for p in a[1:]])),
            "scalar": (x * Fraction(-5, 7), tuple(p * Fraction(-5, 7) for p in a)),
        }
        if any(b):
            results["div"] = (x / y, _oracle_mul(field, a, _oracle_inverse(field, b)))
            results["inverse"] = (y.inverse(), _oracle_inverse(field, b))
        for k in (-2, 0, 1, 3) if any(a) else (0, 1, 3):
            results[f"pow{k}"] = (x ** k, _oracle_pow(field, a, k))
        for op, (got, want) in results.items():
            _assert_canonical(got, field)
            assert got.coords == want, (name, op, a, b)
            assert got == field.element(list(want)), (name, op)


def test_representation_invariants(field_sqrt21):
    K = field_sqrt21
    s = K.generator()
    for field in (QQ, K, ORACLE_FIELDS["x2-3/4"]):
        zero = field.zero()
        assert zero.num == (0,) * field.degree and zero.den == 1
        x = field.element([Fraction(6, 4)] + [Fraction(3, 9)] * (field.degree - 1))
        assert (x - x).num == zero.num and (x - x).den == 1
        # rational elements hash and compare like the Fraction they hold
        for q in (Fraction(3, 4), Fraction(-7), Fraction(0), Fraction(10 ** 30 + 1, 3 ** 40)):
            e = field.element(q)
            assert hash(e) == hash(q) and e == q and q == e
            if q.denominator == 1:
                assert e == int(q) and hash(e) == hash(int(q))
    assert (s * s) == 21 and s != 21 and s * s != Fraction(43, 2)
    # FieldElement(field, coords) takes Fractions and ints; the private
    # constructor normalizes sign and content
    assert FieldElement(K, (Fraction(1, 2), 3)) == K.element([Fraction(1, 2), 3])
    e = FieldElement._from_integers(K, [2, -4], -6)
    assert (e.num, e.den) == ((-1, 2), 3)
    _assert_canonical(e, K)
    # promotion from Q into Q(sqrt21), on either side of each operation
    half = QQ.element(Fraction(1, 2))
    for got, want in ((half + s, [Fraction(1, 2), 1]), (s + half, [Fraction(1, 2), 1]),
                      (half - s, [Fraction(1, 2), -1]), (s - half, [Fraction(-1, 2), 1]),
                      (half * s, [0, Fraction(1, 2)]), (s * half, [0, Fraction(1, 2)]),
                      (half / s, [0, Fraction(1, 42)]), (s / half, [0, 2])):
        assert got.field is K and got == K.element(want)
        _assert_canonical(got, K)
    assert half == K.element(Fraction(1, 2)) and K.element(Fraction(1, 2)) == half
    assert hash(half) == hash(K.element(Fraction(1, 2)))


def test_fraction_fast_path_matches_fraction():
    rng = random.Random(5)
    for _ in range(50):
        den = rng.randint(1, 10 ** 20)
        num = rng.randint(-10 ** 25, 10 ** 25)
        e = QQ.element(Fraction(num, den))
        q = e.coords[0]
        assert type(q) is Fraction and q == Fraction(num, den)
        assert (q.numerator, q.denominator) == (Fraction(num, den).numerator,
                                                Fraction(num, den).denominator)
        assert hash(q) == hash(Fraction(num, den)) and str(q) == str(Fraction(num, den))


def test_rational_hash_skips_the_coordinates(field_sqrt21):
    # num[0] / den is already in lowest terms: hashing builds no coords
    for field in (QQ, field_sqrt21):
        for q in (Fraction(-7, 12), Fraction(5), Fraction(0), Fraction(2 ** 70, 3 ** 50)):
            e = field.element(q) * 1
            assert e._coords is None
            assert hash(e) == hash(q) and e._coords is None
            if q.denominator == 1:
                assert hash(e) == hash(int(q))
    s = field_sqrt21.generator()
    assert hash(s * s / 4) == hash(Fraction(21, 4))


# -- the one power-series loop -------------------------------------------------


def _strict_floordiv(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"{a} is not a multiple of {b}")
    return q


@pytest.mark.parametrize("ring", ["int", "Fraction", "FieldElement"])
def test_poly_series_times_den_is_num_mod_t_count(ring, field_cubic):
    rng = random.Random(17)
    zero = {"int": 0, "Fraction": Fraction(0), "FieldElement": field_cubic.zero()}[ring]

    def coeff(nonzero=False):
        while True:
            if ring == "FieldElement":
                c = random_element(rng, field_cubic, -5, 5, 4)
            else:
                c = rng.randint(-6, 6) if ring == "int" else Fraction(rng.randint(-6, 6),
                                                                      rng.randint(1, 5))
            if c or not nonzero:
                return c

    for _ in range(40):
        count = rng.randint(0, 12)
        den = [coeff(True)] + [coeff() for _ in range(rng.randint(0, 4))]
        if ring == "int":
            # num = den s for an integer series s, so every division is exact
            expect = [coeff() for _ in range(count)]
            num = poly_mul(expect, den, 0)[:count + rng.randint(0, 3)]
            series = poly_series(num, den, count, zero, _strict_floordiv)
            assert series == expect
        else:
            num = [coeff() for _ in range(rng.randint(0, 8))]
            series = poly_series(num, den, count, zero, truediv)
        assert len(series) == count
        product = poly_mul(series, den, zero) + [zero] * count
        assert product[:count] == (list(num) + [zero] * count)[:count]


def test_poly_series_stops_at_an_inexact_division():
    # 2 + t over 2 + 2t: the coefficient of t is (1 - 2) / 2
    with pytest.raises(ArithmeticError, match="-1 is not a multiple of 2"):
        poly_series([2, 1], [2, 2], 3, 0, _strict_floordiv)


# -- the one fraction-free elimination ----------------------------------------


def _exact(a, b):
    q, r = divmod(a, b)
    assert r == 0, f"{a} / {b} is not exact"
    return q


def _rref(aug, cols):
    """Pivot columns, reduced row echelon form over Fraction and the sign of
    the row swaps, with the pivot search of `bareiss`."""
    A = [[Fraction(x) for x in row] for row in aug]
    pivots, sign = [], 1
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(A)) if A[i][c]), None)
        if p is None:
            continue
        if p != r:
            A[r], A[p] = A[p], A[r]
            sign = -sign
        A[r] = [x / A[r][c] for x in A[r]]
        for i in range(len(A)):
            if i != r:
                A[i] = [x - A[i][c] * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
    return pivots, A, sign


def test_bareiss_is_last_pivot_times_rref():
    # products L R over Z, often rank-deficient, with extra right-hand
    # columns: every division is exact, missing pivots are skipped, pivots
    # and sign match elimination over Fraction, and with full row rank and
    # no column skipped the rows end as the last pivot times the reduced row
    # echelon form
    rng = random.Random(3)
    deficient = full = 0
    for _ in range(400):
        rows, cols, rank = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 4)
        L = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
        R = [[rng.randint(-4, 4) * rng.randint(0, 1) for _ in range(cols)]
             for _ in range(rank)]
        aug = [[sum(a * b for a, b in zip(L[i], col)) for col in zip(*R)] if rank
               else [0] * cols for i in range(rows)]
        aug = [row + [rng.randint(-5, 5) for _ in range(2)] for row in aug]
        pivots, ref, swaps = _rref(aug, cols)
        work = [list(row) for row in aug]
        got, last, sign = bareiss(work, cols, _exact)
        assert (got, sign) == (pivots, swaps)
        deficient += len(pivots) < min(rows, cols)
        if pivots == list(range(rows)):
            full += 1
            assert [[Fraction(x, last) for x in row] for row in work] == ref
    assert deficient > 50 and full > 50, (deficient, full)


def test_bareiss_sign_times_last_pivot_is_the_determinant():
    assert bareiss([[0, 1], [1, 0]], 2, floordiv)[1:] == (1, -1)
    assert bareiss([[2, 1], [4, 5]], 2, floordiv)[1:] == (6, 1)
    assert bareiss([[0, 0], [0, 0]], 2, floordiv) == ([], None, 1)


def test_one_elimination_serves_every_exact_solve(monkeypatch, field_cubic):
    # one call each for the propagator, a cubic inverse, an integer system
    # singular modulo every listed prime, a cyclic resultant and the delta
    # basis inverse, and no field Gauss-Jordan there
    calls = []

    def counted(*args):
        calls.append(1)
        return bareiss(*args)

    for module in (numberfield, laurent, linalg, rootsum):
        monkeypatch.setattr(module, "bareiss", counted)
    monkeypatch.setattr(linalg, "solve_gauss_jordan", None)
    data = random_nz_data(random.Random(5), 2)
    calls.clear()
    data.propagator_symbolic()
    assert len(calls) == 1
    calls.clear()
    a = field_cubic.element([Fraction(3, 2), -1, Fraction(5, 7)])
    assert a * a.inverse() == 1 and len(calls) == 1
    P = math.prod(linalg.PRIMES)
    M = [[P, 3], [2 * P, 7]]
    for p in linalg.PRIMES:
        with pytest.raises(SingularError):
            linalg._ModularLU(M, p)
    calls.clear()
    assert linalg.solve_integer(M, [1, 3]) == ([-2, P], P)
    assert len(calls) == 1
    calls.clear()
    delta = LaurentPolynomial(QQ, {-1: 1, 0: -5, 1: 1})
    assert rootsum.cyclic_resultant(delta, 2) == 21 and len(calls) == 1
    calls.clear()
    rootsum.delta_basis_inverse(QQ.element(2), 3)
    assert len(calls) == 1


def test_one_series_loop_serves_every_power_series(monkeypatch):
    # the generating series, a cyclic image over Q and a residue form each
    # expand their power series through poly_series
    calls = []

    def counted(*args):
        calls.append(1)
        return poly_series(*args)

    for module in (rootsum, powersum):
        monkeypatch.setattr(module, "poly_series", counted)
    t = LaurentPolynomial(QQ, {1: 1})
    one_minus_2t = LaurentPolynomial(QQ, {0: 1, 1: -2})
    f = RationalFunction(t + 3, one_minus_2t * one_minus_2t)
    powersum.series_coefficients(f, 5)
    assert len(calls) == 1
    calls.clear()
    rootsum.CyclicMatrixImage(rootsum.CyclicMatrix([[f]], QQ), 7).image(0, 0)
    assert len(calls) == 1
    calls.clear()
    rootsum.ResidueForm([f.num, t * t], f.den)
    assert len(calls) == 2


def test_field_embedding_is_a_homomorphism_with_an_exact_left_inverse(rng):
    # the cubic field into the sextic through c = lam + 1/lam, Q into
    # Q(sqrt 21), and a field into itself
    lam = FIELD_LAMBDA_52.generator()
    a, b = FIELD_52.element([2, 4, 2]), FIELD_52.element([-5, -2, 3])
    s21 = FIELD_SQRT21.generator()
    cases = [(-b / a, lam + lam.inverse()), (QQ.element(5), s21 * 0 + 5),
             (s21, s21), (FIELD_52.generator(), FIELD_52.generator())]
    for source, target in cases:
        embed = FieldEmbedding(source, target)
        assert embed(source) == target
        for _ in range(4):
            x, y = random_element(rng, source.field), random_element(rng, source.field)
            assert embed(x * y + y) == embed(x) * embed(y) + embed(y)
            assert embed.restrict(embed(x)) == x
    embed = FieldEmbedding(-b / a, lam + lam.inverse())
    with pytest.raises(CrossCheckError, match="does not lie in the image"):
        embed.restrict(lam)
    with pytest.raises(ParseError, match="no embedding"):
        FieldEmbedding(-b / a, lam)
    with pytest.raises(ParseError, match="does not generate"):
        FieldEmbedding(FIELD_52.element(2), lam)


def _in_image_by_reembedding(embed, y):
    """The former membership check of `restrict`, kept as its oracle: map y
    back through the left inverse, embed the answer and compare."""
    num = [y.num[p] for p in embed._rows]
    x = FieldElement._from_integers(
        embed.source, [sum(a * b for a, b in zip(row, num)) for row in embed._left],
        embed._left_den * y.den)
    return embed(x) == y


@pytest.mark.parametrize("knot", ["4_1", "5_2"])
def test_restrict_checks_membership_off_the_rows_like_reembedding(rng, knot):
    # both fixture embeddings: Q into Q(sqrt 21) and the cubic field into
    # the sextic, each through delta_embedding
    fx = fixture(knot)
    embed = powersum.delta_embedding(fx.delta, fx.lam)
    K = embed.target
    assert len(embed._outside) == K.degree - embed.source.degree
    outside = 0
    for _ in range(30):
        x = random_element(rng, embed.source, -99, 99, 50)
        y = embed(x)
        assert _in_image_by_reembedding(embed, y)
        assert embed.restrict(y) == x
        # off the image: a random element, and y moved along one coordinate
        # outside the rows
        q = rng.choice(sorted(set(range(K.degree)) - set(embed._rows)))
        step = K.element([int(i == q) for i in range(K.degree)]) * rng.randint(1, 9)
        for z in (random_element(rng, K), y + step, step):
            if _in_image_by_reembedding(embed, z):
                assert embed(embed.restrict(z)) == z
            else:
                outside += 1
                with pytest.raises(CrossCheckError, match="does not lie in the image"):
                    embed.restrict(z)
    assert outside >= 60
