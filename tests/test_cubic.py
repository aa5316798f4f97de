import itertools
import math
import random
from fractions import Fraction

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    BinaryCubicForm,
    CubicCase,
    CubicCoefficients,
    GeneralCubicTable,
    NotAUnit,
    RelationViolation,
    RingElement,
    SquareMatrix,
    StructureConstants,
    WrongCase,
    algebra_from_form,
    build_algebra,
    char_poly_exceptional,
    classify_case,
    commutative_from_form,
    enumerate_cubic,
    exceptional_norm,
    exceptional_normal_form,
    exceptional_witness,
    form_from_commutative,
    gl2_act,
    left_regular_rep,
    matrix_rep,
    norm,
    normalize,
    standard_involution_exceptional,
    validate_relations,
    verify_involution,
    verify_standard,
)


def random_commutative(spec, rng, span=9):
    draw = (
        (lambda: rng.randrange(spec.p))
        if spec.kind == "Fp"
        else (lambda: rng.randint(-span, span))
    )
    return CubicCoefficients(spec, draw(), draw(), 0, 0, draw(), draw())


def random_exceptional(spec, rng, span=9):
    draw = (
        (lambda: rng.randrange(spec.p))
        if spec.kind == "Fp"
        else (lambda: rng.randint(-span, span))
    )
    while True:
        m, n = draw(), draw()
        if spec.element(m).is_zero() and spec.element(n).is_zero():
            continue
        return CubicCoefficients(spec, n, 0, m, n, 0, m)


def test_good_basis_clears_mixed_linear_terms():
    rng = random.Random(43)
    for spec in (ZZ, GF(5)):
        for _ in range(200):
            raw = {
                k: rng.randint(-9, 9) if spec.kind == "Z" else rng.randrange(5)
                for k in GeneralCubicTable.FIELDS
            }
            table = GeneralCubicTable(spec, **raw)
            shifted = table.good_basis()
            assert shifted.e.is_zero() and shifted.f.is_zero()
            # shifting again is the identity once e = f = 0
            assert shifted.good_basis() == shifted


def test_good_basis_frozen_value():
    table = GeneralCubicTable(ZZ, d=1, e=2, f=3)
    assert table.good_basis().d == ZZ.element(7)


def test_good_basis_preserves_isomorphism_class():
    """The shifted table is the same algebra written in a new basis, so
    products of shifted generators must match the shifted products."""
    rng = random.Random(47)
    spec = GF(7)
    for _ in range(100):
        raw = {k: rng.randrange(7) for k in GeneralCubicTable.FIELDS}
        table = GeneralCubicTable(spec, **raw)
        old = table.structure()
        new = table.good_basis().structure()
        # the change of basis sends i -> i - f, j -> j - e as elements
        # of the original algebra; check the three defining products
        i_new = old.basis(1) - old.scalar(table.f)
        j_new = old.basis(2) - old.scalar(table.e)
        for pair, x, y in (
            ((1, 1), i_new, i_new),
            ((1, 2), i_new, j_new),
            ((2, 1), j_new, i_new),
            ((2, 2), j_new, j_new),
        ):
            got = x * y
            want_coeffs = new.table[pair[0]][pair[1]]
            want = (
                old.scalar(want_coeffs[0])
                + i_new * want_coeffs[1]
                + j_new * want_coeffs[2]
            )
            assert got == want


def test_normalize_upper_triangular():
    # span of 1, E00, E01 inside the 2x2 matrices over F2:
    # i^2 = i, ij = j, ji = 0, j^2 = 0
    spec = GF(2)
    table = GeneralCubicTable(spec, b=1, f=1)
    coeffs = normalize(table)
    assert tuple(str(v) for v in coeffs.as_tuple()) == ("1", "0", "0", "1", "0", "0")
    assert classify_case(coeffs) is CubicCase.EXCEPTIONAL


def test_normalize_rejects_broken_scalars():
    with pytest.raises(RelationViolation) as info:
        normalize(GeneralCubicTable(ZZ, d=1))
    assert "d = cy" in info.value.violations


def test_validate_relations_frozen():
    ok, violated = validate_relations(ZZ, 0, 0, 1, 1, 0, 1)
    assert not ok
    assert violated == ["bm = mn", "n^2 = bn"]
    ok, violated = validate_relations(ZZ, 1, 1, 0, 0, 1, 1)
    assert ok and violated == []


def ring_element_validate_relations(spec, b, c, m, n, y, z):
    """The RingElement evaluation validate_relations once ran: the oracle."""
    b, c, m, n, y, z = map(spec.element, (b, c, m, n, y, z))
    zero = spec.zero
    checks = (
        c * m == zero,
        c * n == zero,
        n * y == zero,
        m * y == zero,
        b * m == m * n,
        m * n == n * z,
        n * n == b * n,
        m * m == m * z,
    )
    names = ("cm = 0", "cn = 0", "ny = 0", "my = 0",
             "bm = mn", "mn = nz", "n^2 = bn", "m^2 = mz")
    violated = [name for name, ok in zip(names, checks) if not ok]
    return not violated, violated


def test_validate_relations_matches_ring_element_oracle():
    rng = random.Random(17)
    for spec in (ZZ, QQ, GF(2), GF(5), GF(9973)):
        if spec.kind == "Fp":
            draw = lambda: rng.randrange(spec.p)
        elif spec.kind == "Q":
            draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        else:
            draw = lambda: rng.randint(-9, 9)
        for _ in range(300):
            # free tuples violate some relations; the two valid families
            # and a zeroed coordinate reach the other verdicts
            tup = [draw() for _ in range(6)]
            shape = rng.randrange(4)
            if shape == 1:
                tup[2] = tup[3] = 0
            elif shape == 2:
                n, m = tup[0], tup[1]
                tup = [n, 0, m, n, 0, m]
            elif shape == 3:
                tup[rng.randrange(6)] = 0
            want = ring_element_validate_relations(spec, *tup)
            assert validate_relations(spec, *tup) == want
            assert validate_relations(spec, *map(spec.element, tup)) == want
            if want[0]:
                assert CubicCoefficients(spec, *tup).as_tuple() == tuple(
                    map(spec.element, tup)
                )
            else:
                with pytest.raises(RelationViolation) as info:
                    CubicCoefficients(spec, *tup)
                assert info.value.violations == want[1]


def test_coefficients_validation():
    with pytest.raises(RelationViolation) as info:
        CubicCoefficients(ZZ, 0, 0, 1, 1, 0, 1)
    assert info.value.violations == ["bm = mn", "n^2 = bn"]
    coeffs = CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3)
    assert CubicCoefficients.from_json(GF(5), coeffs.to_json()) == coeffs
    for coeffs in (
        CubicCoefficients(ZZ, 3, 0, -2, 3, 0, -2),
        CubicCoefficients(QQ, 2, Fraction(3, 4), 0, 0, -1, Fraction(-1, 2)),
    ):
        assert CubicCoefficients.from_json(coeffs.spec, coeffs.to_json()) == coeffs


def test_coefficients_value_semantics_across_constructors():
    # (ring, inputs, canonical strings): exceptional and commutative tuples
    cases = (
        (ZZ, (3, 0, -2, 3, 0, -2), ("3", "0", "-2", "3", "0", "-2")),
        (ZZ, (4, -1, 0, 0, 5, 2), ("4", "-1", "0", "0", "5", "2")),
        (
            QQ,
            (Fraction(1, 2), 0, Fraction(-2, 3), Fraction(1, 2), 0, Fraction(-2, 3)),
            ("1/2", "0", "-2/3", "1/2", "0", "-2/3"),
        ),
        (QQ, (2, Fraction(3, 4), 0, 0, -1, 0), ("2", "3/4", "0", "0", "-1", "0")),
        (GF(7), (3, 0, -2, 3, 0, -2), ("3", "0", "5", "3", "0", "5")),
        (GF(7), (10, 1, 0, 0, -1, 6), ("3", "1", "0", "0", "6", "6")),
    )
    fields = CubicCoefficients.FIELDS
    for spec, raw, want in cases:
        built = (
            CubicCoefficients(spec, *raw),
            CubicCoefficients(spec, *map(spec.element, raw)),
            CubicCoefficients.from_json(
                spec, {k: str(v) for k, v in zip(fields, raw)}
            ),
        )
        for coeffs in built:
            assert coeffs == built[0] and hash(coeffs) == hash(built[0])
            values = coeffs.as_tuple()
            assert values == tuple(getattr(coeffs, k) for k in fields)
            assert values == tuple(map(spec.element, raw))
            for v in values:
                assert type(v) is RingElement and v.spec == spec
            assert tuple(map(str, values)) == want
            assert coeffs.to_json() == dict(zip(fields, want))
            assert repr(coeffs) == "CubicCoefficients" + str(want)
        assert len(set(built)) == 1
    # equal values over different rings are different tuples
    assert CubicCoefficients(ZZ, 1, 0, 0, 0, 0, 0) != CubicCoefficients(
        GF(7), 1, 0, 0, 0, 0, 0
    )
    assert CubicCoefficients(ZZ, 1, 0, 0, 0, 0, 0) != CubicCoefficients(
        ZZ, 2, 0, 0, 0, 0, 0
    )


def test_build_algebra_frozen_table():
    coeffs = CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1)
    alg = build_algebra(coeffs)
    ok, _ = alg.verify_associativity()
    assert ok
    one, i, j = (alg.basis(k) for k in range(3))
    assert i * i == -one + i + j
    assert i * j == one
    assert j * i == one
    assert j * j == -one + i + j
    assert classify_case(coeffs) is CubicCase.COMMUTATIVE


def test_case_split():
    assert classify_case(CubicCoefficients(ZZ, 0, 0, 0, 0, 0, 0)) is CubicCase.NILPRODUCT
    assert classify_case(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1)) is CubicCase.COMMUTATIVE
    assert classify_case(CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0)) is CubicCase.EXCEPTIONAL
    # exceptional tables are never commutative as algebras
    rng = random.Random(53)
    for _ in range(100):
        coeffs = random_exceptional(GF(5), rng)
        assert not build_algebra(coeffs).is_commutative()
        assert build_algebra(random_commutative(GF(5), rng)).is_commutative()


def test_random_valid_tables_are_associative():
    rng = random.Random(59)
    for spec in (ZZ, GF(5), QQ):
        for _ in range(100):
            pick = random_commutative if rng.random() < 0.5 else random_exceptional
            alg = build_algebra(pick(spec, rng))
            ok, witness = alg.verify_associativity()
            assert ok, witness


def checked_table(coeffs):
    """The table of build_algebra's docstring, left unreduced and given to
    the public constructor, which checks and canonicalises every cell."""
    b, c, m, n, y, z = (v.value for v in coeffs.as_tuple())
    return StructureConstants(
        coeffs.spec,
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [-(c * z), b, c], [c * y, 0, 0]],
            [[0, 0, 1], [c * y - b * m, m, n], [-(b * y), y, z]],
        ],
    )


def test_build_algebra_stores_what_the_public_constructor_would():
    cases = [c for p in (2, 3, 5) for c in enumerate_cubic(GF(p))]
    rng = random.Random(67)
    draws = {
        "Z": lambda: rng.randint(-99, 99),
        "Q": lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
        "Fp": lambda: rng.randrange(9973),
    }
    for spec in (ZZ, QQ, GF(9973)):
        draw = draws[spec.kind]
        for _ in range(200):
            b, c, m, n, y, z = (draw() for _ in range(6))
            tup = (b, c, 0, 0, y, z) if rng.random() < 0.5 else (n, 0, m, n, 0, m)
            cases.append(CubicCoefficients(spec, *tup))
    # over Q the constants must be Fractions too, which == cannot see
    types = lambda alg: [type(v) for row in alg._values for cell in row for v in cell]
    for coeffs in cases:
        built, checked = build_algebra(coeffs), checked_table(coeffs)
        assert built._values == checked._values, coeffs
        assert types(built) == types(checked), coeffs
        assert built == checked and built.rank == 3


def test_exceptional_involution():
    coeffs = CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0)
    inv = standard_involution_exceptional(coeffs)
    images = [[str(c) for c in im.coeffs] for im in inv.images]
    assert images == [["1", "0", "0"], ["1", "-1", "0"], ["0", "0", "-1"]]
    rng = random.Random(61)
    for spec in (GF(5), ZZ):
        for _ in range(50):
            inv = standard_involution_exceptional(random_exceptional(spec, rng))
            assert verify_involution(inv)[0]
            assert verify_standard(inv)[0]
    with pytest.raises(WrongCase):
        standard_involution_exceptional(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1))


def test_exceptional_norm_closed_form():
    coeffs = CubicCoefficients(ZZ, 1, 0, 1, 1, 0, 1)
    assert str(exceptional_norm(coeffs, (1, 1, 1))) == "4"
    rng = random.Random(67)
    for spec in (GF(5), ZZ):
        for _ in range(100):
            coeffs = random_exceptional(spec, rng)
            inv = standard_involution_exceptional(coeffs)
            x = (
                inv.algebra.element(
                    [rng.randrange(5) for _ in range(3)]
                    if spec.kind == "Fp"
                    else [rng.randint(-9, 9) for _ in range(3)]
                )
            )
            assert exceptional_norm(coeffs, x.coeffs) == norm(inv, x)
    # a commutative table has no standard involution to take a norm for;
    # the nilproduct table, which is both, keeps its norm
    with pytest.raises(WrongCase):
        exceptional_norm(CubicCoefficients(ZZ, 1, 0, 0, 0, 0, 1), (1, 1, 1))
    nil = CubicCoefficients(ZZ, 0, 0, 0, 0, 0, 0)
    inv = standard_involution_exceptional(nil)
    x = inv.algebra.element([2, -3, 5])
    assert exceptional_norm(nil, x.coeffs) == norm(inv, x) == ZZ.element(4)


def test_exceptional_witness_identities():
    coeffs = CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0)
    w = exceptional_witness(coeffs)
    i_gen, j_gen = w.gen_i, w.gen_j
    assert i_gen * i_gen == i_gen * w.t_i
    assert i_gen * j_gen == j_gen * w.t_i
    assert j_gen * i_gen == i_gen * w.t_j
    assert j_gen * j_gen == j_gen * w.t_j
    assert (str(w.t_i), str(w.t_j)) == ("1", "0")
    with pytest.raises(WrongCase):
        exceptional_witness(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1))
    # the span of the generators is a two-sided ideal: products of
    # arbitrary elements with generators stay in the span
    rng = random.Random(71)
    for _ in range(50):
        coeffs = random_exceptional(GF(7), rng)
        w = exceptional_witness(coeffs)
        alg = w.algebra
        x = alg.element([rng.randrange(7) for _ in range(3)])
        for gen in (w.gen_i, w.gen_j):
            for prod in (x * gen, gen * x):
                # the coefficients on i and j pin the only possible
                # combination; membership means it reproduces prod
                alpha = -prod.coeffs[1]
                beta = prod.coeffs[2]
                assert prod == w.gen_i * alpha + w.gen_j * beta


def reference_matrix_rep(coeffs):
    """The closed-form generator matrices of a valid table."""
    b, c, m, n, y, z = coeffs.as_tuple()
    spec = coeffs.spec
    z0, o = spec.zero, spec.one
    mat_i = SquareMatrix(spec, [[z0, -(c * z), c * y], [o, b, z0], [z0, c, z0]])
    mat_j = SquareMatrix(
        spec, [[z0, c * y - b * m, -(b * y)], [z0, m, y], [o, n, z]]
    )
    return mat_i, mat_j


def random_fraction_tuple(rng, commutative):
    """A valid six-tuple over QQ with fractional coefficients."""
    draw = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    if commutative:
        return CubicCoefficients(QQ, draw(), draw(), 0, 0, draw(), draw())
    m, n = draw(), draw()
    return CubicCoefficients(QQ, n, 0, m, n, 0, m)


def test_exceptional_normal_form_over_z_and_q():
    """(n, 0, m, n, 0, m) maps to (d, 0, 0, d, 0, 0), d = gcd(m, n) over
    Z and 1 over Q, by a map that verifies.  Over Z, d is the content of
    the non-scalar part of ij - ji, the commutator invariant."""
    rng = random.Random(23)
    seen = 0
    while seen < 300:
        m, n = rng.randint(-60, 60), rng.randint(-60, 60)
        if not (m or n):
            continue
        seen += 1
        d = math.gcd(m, n)
        for spec, want in ((ZZ, d), (QQ, 1)):
            coeffs = CubicCoefficients(spec, n, 0, m, n, 0, m)
            normal, phi = exceptional_normal_form(coeffs)
            assert normal == CubicCoefficients(spec, want, 0, 0, want, 0, 0)
            assert phi.source == build_algebra(coeffs)
            assert phi.target == build_algebra(normal)
            assert phi.verify_isomorphism(), (spec, m, n)
        alg = build_algebra(CubicCoefficients(ZZ, n, 0, m, n, 0, m))
        i, j = alg.basis(1), alg.basis(2)
        _, ci, cj = (i * j - j * i)._values
        assert math.gcd(ci, cj) == d


def test_exceptional_normal_form_edge_cases():
    """The zero table is its own normal form, by the identity; a
    commutative nonzero tuple has none."""
    for spec in (ZZ, QQ, GF(2), GF(5)):
        zero = CubicCoefficients(spec, 0, 0, 0, 0, 0, 0)
        alg = build_algebra(zero)
        normal, phi = exceptional_normal_form(zero)
        assert normal == zero
        assert phi == AlgebraMap(alg, alg, [alg.basis(k) for k in range(3)])
        with pytest.raises(WrongCase):
            exceptional_normal_form(CubicCoefficients(spec, 1, 0, 0, 0, 0, 0))
    # over F_p every nonzero member maps to (1, 0, 0, 1, 0, 0)
    for n, m in itertools.product(range(5), repeat=2):
        if n or m:
            normal, phi = exceptional_normal_form(
                CubicCoefficients(GF(5), n, 0, m, n, 0, m)
            )
            assert normal == CubicCoefficients(GF(5), 1, 0, 0, 1, 0, 0)
            assert phi.verify_isomorphism()


def test_matrix_rep_identities():
    coeffs = CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0)
    mat_i, mat_j = matrix_rep(coeffs)
    assert mat_i.to_json() == [["0", "0", "0"], ["1", "1", "0"], ["0", "0", "0"]]
    assert mat_j.to_json() == [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]]
    rng = random.Random(73)
    for _ in range(50):
        pick = random_commutative if rng.random() < 0.5 else random_exceptional
        coeffs = pick(ZZ, rng)
        mat_i, mat_j = matrix_rep(coeffs)
        # the matrices reproduce left multiplication by i and j
        alg = build_algebra(coeffs)
        assert mat_i == left_regular_rep(alg.basis(1))
        assert mat_j == left_regular_rep(alg.basis(2))
    # and equal the closed forms written out from the table
    for spec in (ZZ, QQ, GF(2), GF(7)):
        for _ in range(50):
            commutative = rng.random() < 0.5
            if spec == QQ:
                coeffs = random_fraction_tuple(rng, commutative)
            else:
                pick = random_commutative if commutative else random_exceptional
                coeffs = pick(spec, rng)
            assert matrix_rep(coeffs) == reference_matrix_rep(coeffs)


def test_char_poly_exceptional_closed_form():
    coeffs = CubicCoefficients(ZZ, 0, 0, 1, 0, 0, 1)
    f = char_poly_exceptional(coeffs, (1, 1, 1))
    assert [str(c) for c in f.coeffs] == ["-4", "8", "-5", "1"]
    rng = random.Random(79)
    for _ in range(100):
        coeffs = random_exceptional(GF(7), rng)
        alg = build_algebra(coeffs)
        p, q, r = (GF(7).element(rng.randrange(7)) for _ in range(3))
        closed = char_poly_exceptional(coeffs, (p, q, r))
        # the coordinates name p + q j + r (n - i); characteristic
        # polynomials do not change under a change of basis, so the
        # closed form must match the table-basis matrix exactly
        x = alg.element([p + r * coeffs.n, -r, q])
        assert closed == left_regular_rep(x).char_poly()
    with pytest.raises(WrongCase):
        char_poly_exceptional(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1), (0, 0, 0))


def test_exceptional_triangular_representation():
    """In the basis (1, j, n - i) every element of an exceptional
    algebra acts lower triangularly, with the repeated diagonal entry
    p + mq + rn."""
    rng = random.Random(101)
    for _ in range(50):
        coeffs = random_exceptional(GF(5), rng)
        m, n = coeffs.m, coeffs.n
        spec = coeffs.spec
        tri = GeneralCubicTable(
            spec, b=m, f=m, m=n, z=n
        ).structure()
        ok, witness = tri.verify_associativity()
        assert ok, witness
        p, q, r = (spec.element(rng.randrange(5)) for _ in range(3))
        mat = left_regular_rep(tri.element([p, q, r]))
        for row in range(3):
            for col in range(row + 1, 3):
                assert mat.entries[row][col].is_zero()
        diag = [mat.entries[k][k] for k in range(3)]
        assert diag[0] == p
        assert diag[1] == p + m * q + r * n
        assert diag[2] == p + m * q + r * n
        # the triangular table is the same algebra in a new basis
        alg = build_algebra(coeffs)
        iso = AlgebraMap(
            tri,
            alg,
            [alg.one(), alg.basis(2), alg.scalar(n) - alg.basis(1)],
        )
        assert iso.verify_isomorphism()


def test_form_discriminant_frozen():
    form = BinaryCubicForm(ZZ, 1, 0, -1, 0)
    assert str(form.discriminant()) == "4"
    assert BinaryCubicForm.from_json(ZZ, form.to_json()) == form
    for form in (
        BinaryCubicForm(QQ, Fraction(1, 2), 0, Fraction(-3, 4), 2),
        BinaryCubicForm(GF(7), 1, 0, -1, 9),
    ):
        assert BinaryCubicForm.from_json(form.spec, form.to_json()) == form


def test_gl2_action_frozen_swap():
    spec = QQ
    swap = SquareMatrix(spec, [[spec.zero, spec.one], [spec.one, spec.zero]])
    form = BinaryCubicForm(spec, 1, 2, 3, 4)
    acted = gl2_act(swap, form)
    assert tuple(str(v) for v in acted.as_tuple()) == ("-4", "-3", "-2", "-1")


def test_gl2_action_is_group_action():
    rng = random.Random(83)
    spec = QQ

    def random_invertible():
        while True:
            g = SquareMatrix(
                spec,
                [
                    [spec.element(rng.randint(-5, 5)) for _ in range(2)]
                    for _ in range(2)
                ],
            )
            if g.det().is_unit():
                return g

    ident = SquareMatrix.identity(spec, 2)
    for _ in range(100):
        form = BinaryCubicForm(spec, *[rng.randint(-9, 9) for _ in range(4)])
        g, h = random_invertible(), random_invertible()
        assert gl2_act(ident, form) == form
        assert gl2_act(g * h, form) == gl2_act(g, gl2_act(h, form))
        # discriminant covariance with weight det^2
        d = g.det()
        assert gl2_act(g, form).discriminant() == d * d * form.discriminant()
    singular = SquareMatrix(spec, [[spec.one, spec.one], [spec.one, spec.one]])
    with pytest.raises(NotAUnit):
        gl2_act(singular, BinaryCubicForm(spec, 1, 0, 0, 1))


def reference_algebra_from_form(form):
    """The multiplication table written out from the form's coefficients."""
    a, b, c, d = form.as_tuple()
    spec = form.spec
    z0, o = spec.zero, spec.one
    return StructureConstants(
        spec,
        [
            [[o, z0, z0], [z0, o, z0], [z0, z0, o]],
            [[z0, o, z0], [-(a * c), b, -a], [-(a * d), z0, z0]],
            [[z0, z0, o], [-(a * d), z0, z0], [-(b * d), d, -c]],
        ],
    )


def test_form_translation_round_trip():
    spec = GF(3)
    for b, c, y, z in itertools.product(range(3), repeat=4):
        coeffs = CubicCoefficients(spec, b, c, 0, 0, y, z)
        form = form_from_commutative(coeffs)
        assert commutative_from_form(form) == coeffs
        # the independent direct table agrees entry for entry
        assert algebra_from_form(form) == reference_algebra_from_form(form)
        assert algebra_from_form(form) == build_algebra(coeffs)
    rng = random.Random(83)
    for spec in (ZZ, QQ, GF(2), GF(5), GF(7)):
        for _ in range(60):
            if spec.kind == "Fp":
                raw = [rng.randrange(spec.p) for _ in range(4)]
            elif spec.kind == "Q":
                raw = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            else:
                raw = [rng.randint(-9, 9) for _ in range(4)]
            form = BinaryCubicForm(spec, *raw)
            assert algebra_from_form(form) == reference_algebra_from_form(form)
    rng = random.Random(89)
    for _ in range(100):
        form = BinaryCubicForm(ZZ, *[rng.randint(-9, 9) for _ in range(4)])
        assert form_from_commutative(commutative_from_form(form)) == form
    with pytest.raises(WrongCase):
        form_from_commutative(CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0))


def test_form_discriminant_invariant_under_translation():
    # unimodular action keeps the discriminant itself, not just its class
    rng = random.Random(97)
    spec = QQ
    for _ in range(100):
        form = BinaryCubicForm(spec, *[rng.randint(-9, 9) for _ in range(4)])
        shear = SquareMatrix(
            spec,
            [
                [spec.one, spec.element(rng.randint(-5, 5))],
                [spec.zero, spec.one],
            ],
        )
        assert gl2_act(shear, form).discriminant() == form.discriminant()


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(7)])
def test_forms_and_polynomials_build_only_the_elements_they_return(spec, ring_elements_built):
    """Polynomial arithmetic and gcds, char_poly, min_poly, gl2_act,
    normalize, the two discriminants and matrix_rep work on raw values:
    each builds exactly the RingElements it returns, so none at all for
    a polynomial, form, table, class or matrix."""
    from lowrank import Polynomial, QuadraticAlgebra, min_poly, poly_gcd

    f = Polynomial(spec, [3, 0, -2, 1])
    g = Polynomial(spec, [-1, 1])
    form = BinaryCubicForm(spec, 1, -2, 3, 5)
    coeffs = commutative_from_form(form)
    x = build_algebra(coeffs).element([1, 2, -3])
    built = ring_elements_built
    assert built == [], "building the inputs built elements"
    runs = [
        ("Polynomial *", lambda: f * g),
        ("divmod", lambda: divmod(f, g)),
        ("monic", lambda: f.monic()),
        ("char_poly", lambda: left_regular_rep(x).char_poly()),
        ("gl2_act", lambda: gl2_act(SquareMatrix(spec, [[1, 2], [0, 1]]), form)),
        ("normalize", lambda: normalize(GeneralCubicTable(spec, b=1, f=1))),
        ("QuadraticAlgebra.discriminant", lambda: QuadraticAlgebra(spec, 3, 5).discriminant()),
        ("matrix_rep", lambda: matrix_rep(coeffs)),
    ]
    if spec.is_field():
        runs += [("poly_gcd", lambda: poly_gcd(f * g, g)), ("min_poly", lambda: min_poly(x))]
    for name, run in runs:
        run()
        assert built == [], f"{name} built elements over {spec!r}"
    assert form.discriminant().spec is spec and len(built) == 1
