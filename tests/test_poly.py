import random
from fractions import Fraction

import pytest

from lowrank import GF, QQ, ZZ, NotAUnit, Polynomial, exact_div, poly_gcd

from common import horner


def random_poly(spec, rng, max_deg=5, span=9):
    deg = rng.randint(0, max_deg)
    if spec.kind == "Fp":
        coeffs = [rng.randrange(spec.p) for _ in range(deg + 1)]
    else:
        coeffs = [rng.randint(-span, span) for _ in range(deg + 1)]
    return Polynomial(spec, coeffs)


def test_trailing_zeros_stripped():
    f = Polynomial(ZZ, [1, 2, 0, 0])
    assert f.degree() == 1
    assert len(f.coeffs) == 2
    zero = Polynomial(ZZ, [0, 0])
    assert zero.is_zero()
    assert zero.degree() == -1


def test_variable_and_constant():
    t = Polynomial.variable(QQ)
    assert t.degree() == 1
    c = Polynomial.constant(QQ, QQ.element(3))
    assert c.degree() == 0
    assert (t + c).to_strings() == ["3", "1"]


def test_ring_laws_random():
    for spec in (ZZ, GF(7), QQ):
        rng = random.Random(13)
        for _ in range(200):
            f = random_poly(spec, rng)
            g = random_poly(spec, rng)
            h = random_poly(spec, rng)
            assert (f + g) * h == f * h + g * h
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f - f == Polynomial(spec, [])
            if not (f.is_zero() or g.is_zero()):
                assert (f * g).degree() == f.degree() + g.degree()


def test_division_identity_over_field():
    rng = random.Random(17)
    for _ in range(200):
        f = random_poly(GF(11), rng, max_deg=6)
        g = random_poly(GF(11), rng, max_deg=3)
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree() < g.degree()


def test_exact_division_over_z():
    t = Polynomial.variable(ZZ)
    f = t * t - 1
    g = t - 1
    q, r = divmod(f, g)
    assert r.is_zero()
    assert q == t + 1
    assert g.divides(f)
    assert not (t - 2).divides(f)


def test_evaluate_matches_power_sum():
    rng = random.Random(19)
    for _ in range(200):
        f = random_poly(QQ, rng)
        x = QQ.element(rng.randint(-5, 5))
        naive = QQ.zero
        for k, c in enumerate(f.coeffs):
            naive = naive + c * x**k
        assert f.evaluate(x) == naive


def test_evaluate_with_identity_embedding():
    # matrices need the constant term scaled onto an explicit identity
    from lowrank import SquareMatrix

    t = Polynomial.variable(ZZ)
    f = t * t - 2 * t + 1
    m = SquareMatrix(ZZ, [[ZZ.element(1), ZZ.element(1)], [ZZ.element(0), ZZ.element(1)]])
    value = horner(f, m, SquareMatrix.identity(ZZ, 2))
    assert value == SquareMatrix.zero(ZZ, 2)


def test_monic_and_shift():
    f = Polynomial(GF(5), [1, 0, 2])
    assert f.monic().coeffs[-1] == GF(5).one
    assert f.monic() == Polynomial(GF(5), [3, 0, 1])
    assert f.shift(2) == Polynomial(GF(5), [0, 0, 1, 0, 2])


def test_poly_gcd():
    t = Polynomial.variable(QQ)
    f = t * t - 1
    g = t * t - 2 * t + 1
    assert poly_gcd(f, g) == t - 1
    assert poly_gcd(f, t - 2).degree() == 0
    rng = random.Random(29)
    for _ in range(100):
        a = random_poly(GF(7), rng, max_deg=4)
        b = random_poly(GF(7), rng, max_deg=4)
        if a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a, b)
        assert d.divides(a) and d.divides(b)


def test_to_strings_ascending():
    t = Polynomial.variable(ZZ)
    f = (t - 1) * (t - 2) * t
    # T^3 - 3T^2 + 2T
    assert f.to_strings() == ["0", "2", "-3", "1"]


# -- the RingElement loops Polynomial once ran, kept as oracles ----------------


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def ring_element_mul(spec, f, g):
    """The RingElement double loop of Polynomial.__mul__: the oracle."""
    if not (f and g):
        return ()
    out = [spec.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return trimmed(out)


def ring_element_divmod(spec, f, g):
    """The RingElement long division of Polynomial.__divmod__: the oracle."""
    rem = list(f)
    quo = [spec.zero] * max(len(rem) - len(g) + 1, 0)
    lead, d = g[-1], len(g) - 1
    while len(rem) - 1 >= d and rem:
        q = exact_div(rem[-1], lead)
        pos = len(rem) - 1 - d
        quo[pos] = q
        for k, c in enumerate(g):
            rem[pos + k] = rem[pos + k] - q * c
        while rem and rem[-1].is_zero():
            rem.pop()
    return trimmed(quo), tuple(rem)


def ring_element_monic(f):
    inv = f[-1].inverse()
    return tuple(c * inv for c in f)


def ring_element_gcd(spec, f, g):
    while g:
        f, g = g, ring_element_divmod(spec, f, g)[1]
    return ring_element_monic(f) if f else f


def random_values(spec, rng, max_deg=6):
    """Raw coefficients with zeros, interior and trailing, one in three."""
    def draw():
        if rng.random() < 1 / 3:
            return 0
        if spec.kind == "Fp":
            return rng.randrange(spec.p)
        if spec.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.choice((-1, 1)) if rng.random() < 0.5 else rng.randint(-9, 9)

    return [draw() for _ in range(rng.randint(0, max_deg))]


def assert_canonical(poly, want):
    """poly holds the oracle's coefficients as canonical raw values: of the
    ring's type, reduced mod p, and trimmed."""
    spec = poly.spec
    kind = Fraction if spec.kind == "Q" else int
    assert poly.coeffs == want
    assert all(type(v) is kind for v in poly._values)
    if spec.p:
        assert all(0 <= v < spec.p for v in poly._values)
    assert not poly._values or poly._values[-1] != 0


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(7), GF(9973)])
def test_raw_arithmetic_matches_ring_element_oracle(spec):
    rng = random.Random(37)
    for _ in range(300):
        raw = random_values(spec, rng)
        f = Polynomial(spec, raw)
        g = Polynomial(spec, random_values(spec, rng, max_deg=3))
        fs, gs = f.coeffs, g.coeffs
        assert_canonical(f, trimmed(map(spec.element, raw)))
        assert_canonical(f * g, ring_element_mul(spec, fs, gs))
        if fs and fs[-1].is_unit():
            assert_canonical(f.monic(), ring_element_monic(fs))
        if gs:
            try:
                want_q, want_r = ring_element_divmod(spec, fs, gs)
            except NotAUnit:
                with pytest.raises(NotAUnit):
                    divmod(f, g)
            else:
                q, r = divmod(f, g)
                assert_canonical(q, want_q)
                assert_canonical(r, want_r)
        if spec.is_field():
            assert_canonical(poly_gcd(f, g), ring_element_gcd(spec, fs, gs))
