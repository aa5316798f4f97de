import contextlib
import io
import json
import random
import re
import sys
import time

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    ArtinSchreierClass,
    BinaryCubicForm,
    CubicCoefficients,
    DiscriminantClass,
    GeneralCubicTable,
    InputError,
    NotAUnit,
    Polynomial,
    QuadraticAlgebra,
    RingElement,
    RingSpec,
    SpecMismatch,
    SquareMatrix,
    StructureConstants,
    UnsupportedRing,
    bezout,
    exact_div,
    square_class_equal,
    square_class_witness,
)
from fractions import Fraction
from lowrank import cli, rings
from lowrank.involutions import Involution
from lowrank.rings import _canonical_json, _is_prime, _PRIME_BOUND, _PRIME_PSI


def random_element(spec, rng, span=50):
    if spec.kind == "Z":
        return spec.element(rng.randint(-span, span))
    if spec.kind == "Q":
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        return spec.element(Fraction(num, den))
    return spec.element(rng.randrange(spec.p))


def test_spec_construction_and_equality():
    assert GF(5) == GF(5)
    assert GF(5) != GF(7)
    assert ZZ != QQ
    assert ZZ.characteristic() == 0
    assert GF(7).characteristic() == 7
    assert not ZZ.is_field()
    assert QQ.is_field()
    assert GF(2).is_field()


def test_nonprime_modulus_rejected():
    with pytest.raises(InputError):
        GF(6)
    with pytest.raises(InputError):
        GF(1)
    with pytest.raises(InputError):
        RingSpec("Fp", -5)
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(InputError, match=f"Fp needs a prime modulus, got {n}"):
            GF(n)


def test_large_prime_modulus():
    start = time.perf_counter()
    spec = GF(2**61 - 1)
    assert time.perf_counter() - start < 0.1
    assert spec.element(-1).value == 2**61 - 2
    # primality is decided only below the Sorenson-Webster bound, the least
    # strong pseudoprime to the first twelve prime bases
    bound = 318665857834031151167461
    for n in (bound, bound + 2, 2**89 - 1):
        with pytest.raises(InputError, match="too large"):
            GF(n)


def test_canonical_forms():
    # residues reduce into [0, p)
    a = GF(5).element(12)
    assert a.value == 2
    assert GF(5).element(-1).value == 4
    # rationals reduce with positive denominator
    q = QQ.element(Fraction(-4, -6))
    assert q.value == Fraction(2, 3)
    # re-canonicalizing is the identity
    for spec in (ZZ, QQ, GF(5)):
        rng = random.Random(11)
        for _ in range(200):
            x = random_element(spec, rng)
            assert spec.element(x.value) == x


def test_parse_and_str_round_trip():
    assert ZZ.parse("-3").value == -3
    assert QQ.parse("2/7").value == Fraction(2, 7)
    assert GF(5).parse("13").value == 3
    rng = random.Random(23)
    for spec in (ZZ, QQ, GF(13)):
        for _ in range(200):
            x = random_element(spec, rng)
            assert spec.parse(str(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        ZZ.parse("2/3")
    with pytest.raises(InputError):
        QQ.parse("2/0")
    with pytest.raises(InputError):
        GF(5).parse("x")
    with pytest.raises(InputError):
        ZZ.parse(3)
    # only ASCII [+-]?[0-9]+, plus /[0-9]+ or .[0-9]+ over Q
    for spec in (ZZ, QQ, GF(5)):
        for text in ("1e400000", "1_000", "\u0663", ".5", "1/-2", "", "-"):
            with pytest.raises(InputError):
                spec.parse(text)
    assert QQ.parse(" -2/6 ") == QQ.parse("-1/3")
    # decimal notation is part of the grammar over Q
    assert QQ.parse("1.5") == QQ.parse("3/2")


F5 = GF(5)
SEVEN = GF(7).one
F5_LINE = StructureConstants(F5, [[[1]]])


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: StructureConstants(F5, [[[SEVEN]]]), id="StructureConstants"),
        pytest.param(lambda: F5_LINE.element([SEVEN]), id="AlgebraElement"),
        pytest.param(lambda: F5_LINE.one() * SEVEN, id="AlgebraElement-scalar"),
        pytest.param(lambda: SquareMatrix(F5, [[SEVEN]]), id="SquareMatrix"),
        pytest.param(lambda: Polynomial(F5, [0, SEVEN]), id="Polynomial"),
        pytest.param(lambda: QuadraticAlgebra(F5, 0, SEVEN), id="QuadraticAlgebra"),
        pytest.param(lambda: GeneralCubicTable(F5, m=SEVEN), id="GeneralCubicTable"),
        pytest.param(lambda: BinaryCubicForm(F5, 0, 0, 0, SEVEN), id="BinaryCubicForm"),
        pytest.param(
            lambda: CubicCoefficients(F5, 0, 0, 0, 0, 0, SEVEN), id="CubicCoefficients"
        ),
        pytest.param(lambda: DiscriminantClass(F5, SEVEN), id="DiscriminantClass"),
        # these classes live in characteristic 2 only
        pytest.param(lambda: ArtinSchreierClass(GF(2), SEVEN), id="ArtinSchreierClass"),
    ],
)
def test_constructors_reject_other_rings(build):
    """Values enter a ring only through RingSpec.element, so no
    constructor keeps an element of another ring."""
    with pytest.raises(SpecMismatch, match="cannot move 1 into"):
        build()


def test_ring_axioms_random():
    """Associativity, commutativity, distributivity on random triples."""
    for spec in (ZZ, QQ, GF(2), GF(5)):
        rng = random.Random(5)
        for _ in range(1000):
            a = random_element(spec, rng)
            b = random_element(spec, rng)
            c = random_element(spec, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a + spec.zero == a
            assert a * spec.one == a
            assert a - a == spec.zero


def test_arithmetic_results_are_canonical():
    """Results of + - * and negation, built without re-validation, equal
    the validated RingElement of the same raw value, in value and type."""
    for spec in (ZZ, QQ, GF(2), GF(5), GF(9973)):
        rng = random.Random(13)
        for _ in range(300):
            a = random_element(spec, rng, span=10**6)
            b = random_element(spec, rng, span=10**6)
            for got, raw in (
                (a + b, a.value + b.value),
                (a - b, a.value - b.value),
                (a * b, a.value * b.value),
                (-a, -a.value),
                (a + 3, a.value + 3),
                (3 - a, 3 - a.value),
            ):
                want = RingElement(spec, raw)
                assert got.spec is spec
                assert got == want and type(got.value) is type(want.value)
                if spec.kind == "Fp":
                    assert type(got.value) is int and 0 <= got.value < spec.p
                elif spec.kind == "Z":
                    assert type(got.value) is int
                else:
                    assert type(got.value) is Fraction


def test_int_coercion_both_sides():
    a = GF(7).element(3)
    assert 2 + a == GF(7).element(5)
    assert a - 1 == GF(7).element(2)
    assert 4 * a == GF(7).element(5)
    assert a**3 == GF(7).element(6)


def test_inverses():
    spec = GF(7)
    for u in spec.units():
        assert u * u.inverse() == spec.one
    with pytest.raises(NotAUnit):
        spec.zero.inverse()
    with pytest.raises(NotAUnit):
        ZZ.element(2).inverse()
    assert ZZ.element(-1).inverse() == ZZ.element(-1)
    rng = random.Random(7)
    for _ in range(100):
        x = random_element(QQ, rng)
        if not x.is_zero():
            assert x * x.inverse() == QQ.one
            assert (x / x) == QQ.one


def test_exact_div():
    rng = random.Random(31)
    for _ in range(300):
        a = ZZ.element(rng.randint(-90, 90))
        b = ZZ.element(rng.randint(1, 30))
        assert exact_div(a * b, b) == a
    with pytest.raises(NotAUnit):
        exact_div(ZZ.element(3), ZZ.element(2))


def test_bezout_identity():
    # frozen small case: a*t - s*b = 1 for (a, b) = (3, 5)
    s, t = bezout(ZZ.element(3), ZZ.element(5))
    assert (s.value, t.value) == (1, 2)
    rng = random.Random(41)
    import math

    found = 0
    for _ in range(314):  # 200 of these draws are coprime pairs
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if math.gcd(a, b) != 1:
            continue
        found += 1
        ea, eb = ZZ.element(a), ZZ.element(b)
        s, t = bezout(ea, eb)
        assert ea * t - s * eb == ZZ.one, f"identity fails for ({a}, {b})"
    assert found >= 200
    # field case: everything with a unit coordinate works
    spec = GF(7)
    for a in spec.elements():
        for b in spec.elements():
            if a.is_zero() and b.is_zero():
                continue
            s, t = bezout(a, b)
            assert a * t - s * b == spec.one
    with pytest.raises(NotAUnit):
        bezout(ZZ.element(2), ZZ.element(4))


def test_square_classes_f5():
    spec = GF(5)
    squares = {(u * u).value for u in spec.units()}
    assert squares == {1, 4}
    # the three classes: {0}, {1,4}, {2,3}
    assert square_class_equal(spec.element(1), spec.element(4))
    assert square_class_equal(spec.element(2), spec.element(3))
    assert not square_class_equal(spec.element(1), spec.element(2))
    assert not square_class_equal(spec.element(0), spec.element(1))
    assert square_class_equal(spec.element(0), spec.element(0))
    # witnesses really conjugate one into the other
    u = square_class_witness(spec.element(4), spec.element(1))
    assert u is not None and u * u * spec.element(1) == spec.element(4)


def unit_scan_witness(d, big_d):
    """The scan over every unit that square_class_witness once ran over
    F_p: the oracle."""
    spec = d.spec
    if d.is_zero() and big_d.is_zero():
        return spec.one
    if d.is_zero() or big_d.is_zero():
        return None
    for a in spec.units():
        if a * a * big_d == d:
            return a
    return None


def test_square_class_witness_matches_unit_scan():
    for p in (2, 3, 5, 7, 13, 17):
        spec = GF(p)
        for d in spec.elements():
            for big_d in spec.elements():
                assert square_class_witness(d, big_d) == unit_scan_witness(d, big_d)


def test_square_class_equivalence_relation():
    for p in (3, 5, 7, 11, 13):
        spec = GF(p)
        rng = random.Random(p)
        pool = list(spec.elements())
        for _ in range(300):
            a, b, c = (rng.choice(pool) for _ in range(3))
            assert square_class_equal(a, a)
            if square_class_equal(a, b):
                assert square_class_equal(b, a)
            if square_class_equal(a, b) and square_class_equal(b, c):
                assert square_class_equal(a, c)


def test_square_classes_q_and_z():
    assert square_class_equal(QQ.element(8), QQ.element(2))
    assert square_class_equal(QQ.element(Fraction(1, 2)), QQ.element(2))
    assert not square_class_equal(QQ.element(2), QQ.element(3))
    assert not square_class_equal(QQ.element(1), QQ.element(-1))
    u = square_class_witness(QQ.element(8), QQ.element(2))
    assert u * u * QQ.element(2) == QQ.element(8)
    # over Z the only units are +-1, so classes are equality up to nothing
    assert square_class_equal(ZZ.element(3), ZZ.element(3))
    assert not square_class_equal(ZZ.element(3), ZZ.element(-3))


def test_enumeration():
    spec = GF(5)
    assert [e.value for e in spec.elements()] == [0, 1, 2, 3, 4]
    assert [u.value for u in spec.units()] == [1, 2, 3, 4]
    with pytest.raises(UnsupportedRing):
        list(ZZ.elements())
    with pytest.raises(UnsupportedRing):
        list(QQ.units())


def test_spec_json_round_trip():
    for spec in (ZZ, QQ, GF(11)):
        assert RingSpec.from_json(spec.to_json()) == spec
    with pytest.raises(InputError):
        RingSpec.from_json({"kind": "R"})
    with pytest.raises(InputError):
        RingSpec.from_json({"kind": "Fp", "p": 9})
    with pytest.raises(InputError):
        RingSpec.from_json({"kind": "Fp"})
    with pytest.raises(InputError):
        RingSpec.from_json("Z")


def test_cross_ring_operations_rejected():
    from lowrank import SpecMismatch

    with pytest.raises(SpecMismatch):
        ZZ.element(1) + GF(5).element(1)


# -- decoding ------------------------------------------------------------------


def _old_parse_value(spec, text):
    """The raw value RingSpec.parse gave before decoding went straight to
    raw values: the element of the grammar's Fraction or int, through
    RingSpec.value."""
    if not isinstance(text, str):
        raise InputError(f"element must be a string, got {type(text).__name__}")
    digits = text.strip()
    rational = spec.kind == "Q"
    grammar = r"[+-]?[0-9]+(?:[/.][0-9]+)?" if rational else r"[+-]?[0-9]+"
    if re.fullmatch(grammar, digits):
        try:
            return spec.value(Fraction(digits) if rational else int(digits))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"cannot parse {text!r} as an element of {spec!r}")


def _decode_edge_strings():
    big, over = "7" * 4300, "7" * 4301
    texts = [
        "0", "-0", "+0", "+5", "-5", "007", "-007", " 12 ", "\t-3\n", "\u00a09\u2003",
        "2/7", "-2/6", "+4/-2", "4/+2", "0/5", "5/0", "-0/0", "/0", "/5", "1/", "0002/0004",
        "1.5", "-1.50", "+0.125", ".5", "1.", "-.5", "1.2.3", "1/2/3", "1/2.5", "1.5/2",
        "1e3", "1E3", "1.5e2", "1_000", "1_0/3", "\u0663", "1\u0663", "\uff11", "", " ",
        "-", "+", "--1", "+-1", "1 2", "1/ 2", "1 /2", "x", "0x1f", "inf", "nan",
        big, over, "-" + big, "-" + over, "0" + big, "+" + big,
        big + "/1", over + "/1", "1/" + big, "1/" + over, big + "/" + big, "-" + big + "/" + over,
        big + ".5", over + ".5", "1." + big, "1." + over, "-" + big + "." + big, "0." + over,
    ]
    return texts + [3, 1.5, None, b"1", ["1"]]


def _random_decode_strings(rng, count):
    alphabet = "0123456789" * 3 + "+-/. _e\t\u0663"
    return [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
        for _ in range(count)
    ]


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(9973)], ids=repr)
def test_decode_matches_the_element_path(spec):
    """The raw decode gives the value (of the same type) that the old
    path through Fraction(digits) or int(digits) and RingSpec.value gave,
    or raises InputError with the same message."""
    texts = _decode_edge_strings() + _random_decode_strings(random.Random(38), 3000)
    for text in texts:
        try:
            expected = _old_parse_value(spec, text)
        except InputError as exc:
            with pytest.raises(InputError) as raised:
                spec._parse_value(text)
            assert str(raised.value) == str(exc), text
            with pytest.raises(InputError, match=re.escape(str(exc))):
                spec.parse(text)
            continue
        got = spec._parse_value(text)
        assert type(got) is type(expected) and got == expected, text
        element = spec.parse(text)
        assert type(element.value) is type(expected) and element.value == expected, text


def _refuse(*args, **kwargs):
    raise AssertionError("a RingElement was built")


@pytest.mark.parametrize(
    "spec, one, half",
    [(ZZ, "1", "3"), (QQ, "1", "1/2"), (GF(7), "8", "4")],
    ids=["Z", "Q", "F7"],
)
def test_requests_decode_with_no_element(monkeypatch, spec, one, half):
    """Tables, involutions and six-tuples are read, and alg assoc and
    cubic build answer, with both element constructors refusing."""
    monkeypatch.setattr(rings.RingElement, "__init__", _refuse)
    for name, module in list(sys.modules.items()):
        if name.startswith("lowrank") and hasattr(module, "_trusted"):
            monkeypatch.setattr(module, "_trusted", _refuse)
    ring = spec.to_json()
    algebra = {
        "ring": ring,
        "rank": 2,
        "table": [[[one, "0"], ["0", "1"]], [["0", "1"], [half, "0"]]],
    }
    alg = StructureConstants.from_json(algebra)
    assert alg._values[1][1] == (spec.value(Fraction(half)), 0)
    inv = Involution.from_json({**algebra, "images": [[one, "0"], ["0", "-1"]]})
    assert inv.images[1]._values == (0, spec.value(-1))
    coeffs = {"b": half, "c": "0", "m": "0", "n": "0", "y": "0", "z": "0"}
    assert CubicCoefficients.from_json(spec, coeffs)._values[0] == spec.value(Fraction(half))
    for argv in (
        ["alg", "assoc", json.dumps(algebra)],
        ["cubic", "build", json.dumps(coeffs), "--ring", json.dumps(ring)],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        assert json.loads(out.getvalue())


# -- primality -----------------------------------------------------------------


def _twelve_rounds(n):
    """Miller-Rabin with all twelve prime bases, every round run: the
    primality test before the rounds stopped at their psi bound."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


PSI_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


def test_psi_bounds_are_composite_strong_pseudoprimes():
    assert _PRIME_PSI[-1] == _PRIME_BOUND and len(_PRIME_PSI) == 12
    assert sorted(set(_PRIME_PSI[:-1])) == sorted(PSI_FACTORS)
    for psi, factors in PSI_FACTORS.items():
        product = 1
        for q in factors:
            assert _twelve_rounds(q)
            product *= q
        assert product == psi
        assert not _is_prime(psi) and not _twelve_rounds(psi)
    for n in (561, 1105, 1729):
        assert not _is_prime(n)
    with pytest.raises(
        InputError,
        match=f"Fp modulus {_PRIME_BOUND} is too large: primality is decided only below {_PRIME_BOUND}",
    ):
        RingSpec("Fp", _PRIME_BOUND)


def test_primality_matches_twelve_rounds():
    for n in range(-2, 10**5):
        assert _is_prime(n) == _twelve_rounds(n), n
    rng = random.Random(3801)
    for psi in sorted(set(_PRIME_PSI)):
        window = [psi - 2, psi - 1, psi, psi + 1, psi + 2]
        window += [psi + rng.randint(-10**4, 10**4) for _ in range(3000)]
        for n in window:
            assert _is_prime(n) == _twelve_rounds(n), n
    for _ in range(5000):
        n = rng.randrange(_PRIME_BOUND) | 1
        assert _is_prime(n) == _twelve_rounds(n), n


# -- the canonical JSON writer ---------------------------------------------------


def _dumps(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def test_canonical_json_matches_json_dumps_on_edge_cases():
    def nest(leaf, depth):
        for k in range(depth):
            leaf = [leaf] if k % 2 else {"k": leaf}
        return leaf

    cases = [nest(leaf, depth) for leaf in ({}, [], (), "", 0) for depth in range(5)]
    cases += [
        {"a": (), "b": [(), {}], "c": ((1, "x"), [True, False, None])},
        ["\u00e9\u0661\U0001f600", "\x00\x1f\x7f", '"', "\\", "\n\t\r\b\f", "/"],
        {"\u00e9": 1, '"': 2, "\\": 3, "\n": 4, "": 5, "B": 6, "a": 7, "A": 8},
        [-1, 0, -(10**4299), 10**4299, int("9" * 4300), -int("9" * 4300)],
        [True, 1, False, 0, None, "true", "1"],
        {"n": True, "m": 1, "o": [1, True], "p": {"q": False, "r": 0}},
        "plain", 7, -7, True, False, None,
    ]
    for obj in cases:
        assert _canonical_json(obj) == _dumps(obj), obj


def test_canonical_json_refuses_what_it_cannot_write():
    for obj in (1.5, Fraction(1, 2), {1, 2}, {1: "a"}, {("a",): 1}, [1, 2.0], {"a": {"b": {3}}}, b"x"):
        with pytest.raises(TypeError):
            _canonical_json(obj)
    too_long = 10**4300
    with pytest.raises(ValueError) as theirs:
        _dumps([too_long])
    with pytest.raises(ValueError) as ours:
        _canonical_json([too_long])
    assert str(ours.value) == str(theirs.value)


@pytest.mark.parametrize(
    "argv, code, stderr",
    [
        (
            ["alg", "assoc", json.dumps({"ring": {"kind": "Q"}, "rank": 1, "table": [[["\u0661/\"\\\t\u00e9"]]]})],
            2,
            '{\n  "error": {\n    "message": "cannot parse \'\\u0661/\\"\\\\\\\\\\\\t\\u00e9\' as an element of QQ",'
            '\n    "type": "InputError"\n  }\n}\n',
        ),
        (
            ["cubic", "build", json.dumps({"b": "1", "c": "0", "m": "1", "n": "0", "y": "0", "z": "0"}), "--ring", '{"kind": "Z"}'],
            1,
            '{\n  "error": {\n    "message": "violated: bm = mn, m^2 = mz",\n    "type": "RelationViolation",'
            '\n    "violations": [\n      "bm = mn",\n      "m^2 = mz"\n    ]\n  }\n}\n',
        ),
    ],
    ids=["exit-2", "exit-1"],
)
def test_refusal_stderr_bytes_are_pinned(argv, code, stderr):
    """The stderr of two refusals, byte for byte as json.dumps wrote them
    before the package had its own writer."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == code
    assert err.getvalue() == stderr
