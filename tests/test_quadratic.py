import itertools
import random
from fractions import Fraction

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    ArtinSchreierClass,
    DiscriminantClass,
    NotAUnit,
    QuadraticAlgebra,
    SpecMismatch,
    UnsupportedRing,
    WrongCase,
    artin_schreier_class,
    artin_schreier_class_count,
    complete_basis_to_unity,
    complete_square,
    is_isomorphic_2unit,
    is_isomorphic_over_z,
    is_separable,
    norm,
    split_idempotent,
    square_class_equal,
    standard_involution_quadratic,
    trace,
    verify_involution,
    verify_standard,
)


def test_structure_table():
    alg = QuadraticAlgebra(ZZ, 3, -2)
    s = alg.structure()
    ok, _ = s.verify_associativity()
    assert ok
    assert s.is_commutative()
    x = s.basis(1)
    # x^2 = t x - n
    assert x * x == x * alg.t - s.scalar(alg.n)
    assert QuadraticAlgebra.from_json(alg.to_json()) == alg
    for alg in (QuadraticAlgebra(QQ, Fraction(1, 3), -2), QuadraticAlgebra(GF(5), 3, 8)):
        assert QuadraticAlgebra.from_json(alg.to_json()) == alg


def test_discriminant_class_semantics():
    spec = GF(5)
    d1 = QuadraticAlgebra(spec, 1, 1).discriminant()
    d2 = QuadraticAlgebra(spec, 0, 1).discriminant()  # disc -4 = 1
    d3 = QuadraticAlgebra(spec, 0, 2).discriminant()  # disc -8 = 2
    assert str(d1.representative) == "2"
    assert d1 == d3
    assert d1 != d2
    assert d2 == DiscriminantClass(spec, spec.element(4))  # 1 and 4 both square
    with pytest.raises(SpecMismatch):
        d1 == DiscriminantClass(GF(7), GF(7).one)


def test_complete_square():
    alg = QuadraticAlgebra(GF(5), 1, 1)
    d, m = complete_square(alg)
    assert str(d) == "2"
    assert m.verify_isomorphism()
    rng = random.Random(3)
    for _ in range(50):
        t = QQ.element(rng.randint(-9, 9))
        n = QQ.element(rng.randint(-9, 9))
        alg = QuadraticAlgebra(QQ, t, n)
        d, m = complete_square(alg)
        assert d == t * t - 4 * n
        assert m.verify_isomorphism()
    with pytest.raises(NotAUnit):
        complete_square(QuadraticAlgebra(ZZ, 1, 1))
    with pytest.raises(NotAUnit):
        complete_square(QuadraticAlgebra(GF(2), 1, 1))


def test_iso_2unit_agrees_with_exhaustive_search():
    """Check the discriminant criterion against a full search over all
    unital linear maps x -> a y + b on every pair over F5."""
    spec = GF(5)
    algebras = [
        QuadraticAlgebra(spec, t, n)
        for t, n in itertools.product(range(5), repeat=2)
    ]

    def exhaustive(a, b):
        sa, sb = a.structure(), b.structure()
        x2 = sa.basis(1) * sa.basis(1)
        for scale in spec.units():
            for shift in spec.elements():
                img = sb.element([shift, scale])
                # x -> img extends to an algebra map iff img^2 matches x^2
                want = sb.scalar(x2.coeffs[0]) + img * x2.coeffs[1]
                if img * img == want:
                    return True
        return False

    agree = 0
    for a in algebras:
        for b in algebras:
            ok, witness = is_isomorphic_2unit(a, b)
            assert ok == exhaustive(a, b), f"{a!r} vs {b!r}"
            if ok:
                assert witness.verify_isomorphism()
                # discriminant class is carried over
                assert a.discriminant() == b.discriminant()
                agree += 1
    # three classes of sizes 5, 10, 10 give 25 + 100 + 100 ordered pairs
    assert agree == 225


def test_iso_2unit_frozen_case():
    spec = GF(5)
    ok, m = is_isomorphic_2unit(
        QuadraticAlgebra(spec, 1, 1), QuadraticAlgebra(spec, 0, 2)
    )
    assert ok
    assert [str(c) for c in m.images[1].coeffs] == ["3", "1"]
    ok, m = is_isomorphic_2unit(
        QuadraticAlgebra(spec, 1, 1), QuadraticAlgebra(spec, 0, 1)
    )
    assert not ok and m is None


def test_iso_over_z():
    rng = random.Random(5)
    for _ in range(200):
        t = rng.randint(-30, 30)
        n = rng.randint(-30, 30)
        k = rng.randint(-15, 15)
        a = QuadraticAlgebra(ZZ, t, n)
        b = QuadraticAlgebra(ZZ, t - 2 * k, n - k * t + k * k)
        ok, m = is_isomorphic_over_z(a, b)
        assert ok, f"(t, n, k) = ({t}, {n}, {k})"
        assert m.verify_isomorphism()
    ok, m = is_isomorphic_over_z(
        QuadraticAlgebra(ZZ, 0, -1), QuadraticAlgebra(ZZ, 2, 0)
    )
    assert ok and m.verify_isomorphism()
    # different discriminants: 0 vs 4
    ok, _ = is_isomorphic_over_z(
        QuadraticAlgebra(ZZ, 0, 0), QuadraticAlgebra(ZZ, 0, -1)
    )
    assert not ok
    # same discriminant class over Q does not help over Z: disc 1 vs 9
    ok, _ = is_isomorphic_over_z(
        QuadraticAlgebra(ZZ, 1, 0), QuadraticAlgebra(ZZ, 3, 0)
    )
    assert not ok
    with pytest.raises(UnsupportedRing):
        is_isomorphic_over_z(
            QuadraticAlgebra(QQ, 0, 0), QuadraticAlgebra(QQ, 0, 0)
        )


def test_separability_char2():
    spec = GF(2)
    assert is_separable(QuadraticAlgebra(spec, 1, 0))
    assert is_separable(QuadraticAlgebra(spec, 1, 1))
    assert not is_separable(QuadraticAlgebra(spec, 0, 0))
    assert not is_separable(QuadraticAlgebra(spec, 0, 1))
    with pytest.raises(UnsupportedRing):
        is_separable(QuadraticAlgebra(GF(5), 1, 1))


def test_artin_schreier_classes():
    spec = GF(2)
    split = artin_schreier_class(QuadraticAlgebra(spec, 1, 0))
    field = artin_schreier_class(QuadraticAlgebra(spec, 1, 1))
    assert str(split.representative) == "0"
    assert str(field.representative) == "1"
    assert split != field
    assert split == ArtinSchreierClass(spec, spec.zero)
    with pytest.raises(WrongCase):
        artin_schreier_class(QuadraticAlgebra(spec, 0, 1))


def test_f2_partition_matches_invariants():
    """The four rank-2 tables over F2 fall into three classes: the two
    inseparable ones coincide (x -> y + 1 maps x^2 = 0 onto y^2 = 1),
    while the separable split and field cases stand alone."""
    spec = GF(2)
    algebras = {
        (t, n): QuadraticAlgebra(spec, t, n)
        for t, n in itertools.product(range(2), repeat=2)
    }
    from lowrank import is_isomorphic_bruteforce

    iso_pairs = {
        (a, b)
        for a in algebras
        for b in algebras
        if is_isomorphic_bruteforce(
            algebras[a].structure(), algebras[b].structure()
        )[0]
    }
    expected = {(k, k) for k in algebras} | {
        ((0, 0), (0, 1)),
        ((0, 1), (0, 0)),
    }
    assert iso_pairs == expected
    # the separable ones are told apart by the Artin-Schreier class
    assert artin_schreier_class(algebras[(1, 0)]) != artin_schreier_class(
        algebras[(1, 1)]
    )


def test_artin_schreier_counts():
    assert artin_schreier_class_count(2) == 2
    assert artin_schreier_class_count(4) == 2
    with pytest.raises(UnsupportedRing):
        artin_schreier_class_count(8)


def test_standard_involution():
    for spec, t, n in ((GF(5), 1, 1), (ZZ, 3, -2), (QQ, 0, 7)):
        alg = QuadraticAlgebra(spec, t, n)
        inv = standard_involution_quadratic(alg)
        assert verify_involution(inv)[0]
        assert verify_standard(inv)[0]
        x = inv.algebra.basis(1)
        assert trace(inv, x) == alg.t
        assert norm(inv, x) == alg.n


def test_iso_over_z_is_decided_by_the_discriminant():
    # t^2 - 4n = t^2 mod 4: equal discriminants force t_a = t_b mod 2
    rng = random.Random(43)
    pairs = [((t, n), (s, m)) for t, n, s, m in itertools.product(range(-4, 5), repeat=4)]
    for _ in range(300):
        t, n = rng.randint(-50, 50), rng.randint(-50, 50)
        # t two apart: n + t + 1 keeps the discriminant, a random n seldom does
        for m in (n + t + 1, rng.randint(-50, 50)):
            pairs.append(((t, n), (t + 2, m)))
    equal = 0
    for (t, n), (s, m) in pairs:
        a, b = QuadraticAlgebra(ZZ, t, n), QuadraticAlgebra(ZZ, s, m)
        same = a.discriminant() == b.discriminant()
        ok, phi = is_isomorphic_over_z(a, b)
        assert ok == same, ((t, n), (s, m))
        assert (phi is not None) == same
        equal += same
    assert 500 < equal < len(pairs) / 2


def test_split_idempotent():
    for spec in (GF(3), QQ, ZZ):
        alg = QuadraticAlgebra(spec, 1, 0)
        fwd, back = split_idempotent(alg)
        assert fwd.verify_isomorphism() and back.verify_isomorphism()
        # fwd is not verified inside; it is the inverse of the verified back
        basis = [fwd.source.basis(k) for k in range(2)]
        assert [back.apply(fwd.apply(e)) for e in basis] == basis
        x = basis[1]
        assert x * x == x  # idempotent generator
    with pytest.raises(WrongCase):
        split_idempotent(QuadraticAlgebra(ZZ, 0, 0))
    with pytest.raises(WrongCase):
        split_idempotent(QuadraticAlgebra(ZZ, 1, 1))


def test_complete_basis_to_unity():
    import math

    rng = random.Random(7)
    found = 0
    for _ in range(168):  # 100 of these draws are coprime pairs
        a, b = rng.randint(-40, 40), rng.randint(-40, 40)
        if math.gcd(a, b) != 1:
            continue
        found += 1
        m = complete_basis_to_unity(ZZ, ZZ.element(a), ZZ.element(b))
        assert m.det() == ZZ.one
        assert (m[0, 0].value, m[0, 1].value) == (a, b)
    assert found >= 100
    spec = GF(7)
    for a in spec.elements():
        for b in spec.elements():
            if a.is_zero() and b.is_zero():
                continue
            m = complete_basis_to_unity(spec, a, b)
            assert m.det() == spec.one
    with pytest.raises(NotAUnit):
        complete_basis_to_unity(ZZ, ZZ.element(2), ZZ.element(4))
