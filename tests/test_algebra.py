import random
from fractions import Fraction

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    RingElement,
    CubicCoefficients,
    GeneralCubicTable,
    Polynomial,
    SpecMismatch,
    SquareMatrix,
    StructureConstants,
    TableError,
    algebra_degree,
    build_algebra,
    direct_product,
    element_to_matrix,
    left_regular_rep,
    matrix_algebra,
    matrix_to_element,
    min_poly,
    poly_gcd,
    product_components,
    product_element,
    quaternion_algebra,
    rank_one,
)


def f4_algebra():
    """Rank-2 table over F2 with x^2 = x + 1 (the four-element field)."""
    spec = GF(2)
    o, z = spec.one, spec.zero
    return StructureConstants(spec, [[[o, z], [z, o]], [[z, o], [o, o]]])


def random_algebra_element(alg, rng, span=9):
    spec = alg.spec
    if spec.kind == "Fp":
        return alg.element([rng.randrange(spec.p) for _ in range(alg.rank)])
    return alg.element([rng.randint(-span, span) for _ in range(alg.rank)])


def sample_algebras():
    """A few associative algebras of different ranks and rings."""
    coeffs = CubicCoefficients(GF(5), 2, 0, 0, 0, 3, 1)
    exc = CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3)
    return [
        f4_algebra(),
        build_algebra(coeffs),
        build_algebra(exc),
        quaternion_algebra(QQ, QQ.element(-1), QQ.element(-1)),
        matrix_algebra(GF(3), 2),
    ]


def test_identity_convention_enforced():
    spec = GF(3)
    o, z = spec.one, spec.zero
    # first basis element must be a two-sided identity
    with pytest.raises(TableError):
        StructureConstants(spec, [[[z, o], [z, o]], [[z, o], [o, z]]])
    with pytest.raises(TableError):
        StructureConstants(spec, [[[o, z], [z, o]], [[o, z], [o, o]]])


def test_shape_validation():
    spec = GF(3)
    with pytest.raises(TableError):
        StructureConstants(spec, [[[spec.one]], [[spec.zero]]])


def test_f4_is_associative_and_commutative():
    alg = f4_algebra()
    ok, witness = alg.verify_associativity()
    assert ok and witness is None
    assert alg.is_commutative()


def test_general_table_failure_witness():
    cases = [
        # only the mixed product has a scalar part: violates the forced
        # scalar identities, so (i i) j != i (i j), found at indices (1,1,2)
        (GeneralCubicTable(ZZ, d=1), (1, 1, 2)),
        (GeneralCubicTable(QQ, m=Fraction(3, 4), y=1), (2, 2, 1)),
        # the same table over Z first fails at (1,2,1), which holds mod 5
        (GeneralCubicTable(GF(5), e=2, l=3, n=1), (1, 2, 2)),
    ]
    for general, first_failure in cases:
        ok, witness = general.structure().verify_associativity()
        assert not ok
        assert witness == first_failure


def ring_element_mul_vec(alg, u, v):
    """The RingElement triple loop that _mul_vec once was: the oracle."""
    out = [alg.spec.zero] * alg.rank
    for i, a in enumerate(u):
        if a.is_zero():
            continue
        row = alg.table[i]
        for j, b in enumerate(v):
            if b.is_zero():
                continue
            ab = a * b
            for l, c in enumerate(row[j]):
                if not c.is_zero():
                    out[l] = out[l] + ab * c
    return tuple(out)


def random_coeff(spec, rng):
    if rng.random() < 0.3:
        return spec.zero
    if spec.kind == "Fp":
        return spec.element(rng.randrange(spec.p))
    if spec.kind == "Q":
        return spec.element(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    return spec.element(rng.randint(-9, 9))


def random_table(spec, rank, rng):
    """A unital table, not necessarily associative, with random cells."""
    return StructureConstants(
        spec,
        [
            [
                [spec.one if l == i + j else spec.zero for l in range(rank)]
                if i == 0 or j == 0
                else [random_coeff(spec, rng) for _ in range(rank)]
                for j in range(rank)
            ]
            for i in range(rank)
        ],
    )


def test_mul_vec_matches_ring_element_loop():
    rng = random.Random(109)
    algebras = [matrix_algebra(GF(3), 2)]
    for spec in (ZZ, QQ, GF(2), GF(5), GF(7)):
        for rank in (1, 2, 3):
            algebras += [random_table(spec, rank, rng) for _ in range(5)]
    for alg in algebras:
        for _ in range(40):
            u = tuple(random_coeff(alg.spec, rng) for _ in range(alg.rank))
            v = tuple(random_coeff(alg.spec, rng) for _ in range(alg.rank))
            want = ring_element_mul_vec(alg, u, v)
            assert alg._mul_vec(u, v) == want
            raw = alg._mul_values([a.value for a in u], [b.value for b in v])
            assert raw == tuple(c.value for c in want)


def test_lazy_table_matches_eager_wrap():
    rng = random.Random(23)
    for spec in (ZZ, QQ, GF(2), GF(5), GF(9973)):
        for rank in (1, 2, 3):
            alg = random_table(spec, rank, rng)
            eager = tuple(
                tuple(tuple(RingElement(spec, c) for c in cell) for cell in row)
                for row in alg._values
            )
            table = alg.table
            assert table == eager and table is alg.table
            for row, want_row in zip(table, eager):
                for cell, want_cell in zip(row, want_row):
                    for c, w in zip(cell, want_cell):
                        assert c.spec is spec and type(c.value) is type(w.value)


def test_table_equality_ignores_input_types():
    """Tables given by ints, RingElements or Fractions are one table when
    their entries agree in the ring."""
    cases = (
        (ZZ, 2, Fraction(4, 2)),
        (QQ, 2, Fraction(6, 3)),
        (GF(5), 3, Fraction(1, 2)),
    )
    for spec, as_int, as_fraction in cases:
        def table(x):
            return StructureConstants(
                spec, [[[1, 0], [0, 1]], [[0, 1], [x, spec.element(-1)]]]
            )

        tables = [table(as_int), table(spec.element(as_int)), table(as_fraction)]
        for t in tables:
            assert t == tables[0] and hash(t) == hash(tables[0])
            assert t.table == tables[0].table
        assert table(as_int + 1) != tables[0]


def test_random_triples_associative():
    for alg in sample_algebras():
        rng = random.Random(alg.rank)
        for _ in range(500):
            x = random_algebra_element(alg, rng)
            y = random_algebra_element(alg, rng)
            z = random_algebra_element(alg, rng)
            assert (x * y) * z == x * (y * z)


def test_element_arithmetic():
    alg = f4_algebra()
    x = alg.basis(1)
    assert x * x == x + alg.one()
    assert x**3 == alg.one()  # F4 units have order dividing 3
    assert (x - x).is_zero()
    assert alg.scalar(GF(2).one) == alg.one()
    assert (2 * x).is_zero()
    assert alg.one().is_scalar() and alg.one().scalar_part() == GF(2).one
    assert not x.is_scalar()


def test_left_regular_rep_is_multiplicative():
    for alg in sample_algebras():
        rng = random.Random(97)
        for _ in range(100):
            x = random_algebra_element(alg, rng)
            y = random_algebra_element(alg, rng)
            assert left_regular_rep(x) * left_regular_rep(y) == left_regular_rep(x * y)
            assert left_regular_rep(x).apply(y.coeffs) == tuple((x * y).coeffs)
    assert left_regular_rep(f4_algebra().one()) == SquareMatrix.identity(GF(2), 2)


def test_cayley_hamilton_instances():
    for alg in sample_algebras():
        rng = random.Random(101)
        for _ in range(50):
            x = random_algebra_element(alg, rng)
            f = left_regular_rep(x).char_poly()
            assert f.evaluate(x, one=alg.one()) == alg.zero()


def test_min_poly_divides_char_poly():
    for alg in sample_algebras():
        if alg.spec.kind == "Z":
            continue
        rng = random.Random(103)
        for _ in range(60):
            x = random_algebra_element(alg, rng)
            mp = min_poly(x)
            cp = left_regular_rep(x).char_poly()
            assert mp.divides(cp)
            assert mp.evaluate(x, one=alg.one()) == alg.zero()
            assert mp.coeffs[-1] == alg.spec.one


def test_min_poly_small_cases():
    alg = f4_algebra()
    t = Polynomial.variable(GF(2))
    assert min_poly(alg.one()) == t - 1
    assert min_poly(alg.basis(1)) == t * t + t + 1
    # an idempotent satisfies T^2 - T and nothing smaller
    spec = GF(3)
    o, z = spec.one, spec.zero
    split = StructureConstants(spec, [[[o, z], [z, o]], [[z, o], [z, o]]])
    tt = Polynomial.variable(spec)
    assert min_poly(split.basis(1)) == tt * tt - tt


def naive_rational_det(entries):
    """Gaussian elimination over Fraction, for cross-checking."""
    m = [[Fraction(e.value) for e in row] for row in entries]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for cc in range(col, n):
                m[r][cc] -= factor * m[col][cc]
    return det


def test_det_matches_naive_elimination():
    rng = random.Random(107)
    for n in (1, 2, 3, 4, 5, 6):
        for _ in range(30):
            mat = SquareMatrix(
                ZZ,
                [
                    [ZZ.element(rng.randint(-9, 9)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            assert Fraction(mat.det().value) == naive_rational_det(mat.entries)


def test_det_multiplicative():
    rng = random.Random(109)
    for _ in range(100):
        a = SquareMatrix(
            GF(7), [[GF(7).element(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
        )
        b = SquareMatrix(
            GF(7), [[GF(7).element(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
        )
        assert (a * b).det() == a.det() * b.det()


def test_char_poly_frozen_cases():
    spec = GF(5)
    d = SquareMatrix(
        spec,
        [
            [spec.element(0), spec.zero, spec.zero],
            [spec.zero, spec.element(-1), spec.zero],
            [spec.zero, spec.zero, spec.element(1)],
        ],
    )
    # T^3 - T, ascending coefficients
    assert [str(c) for c in d.char_poly().coeffs] == ["0", "4", "0", "1"]
    ident = SquareMatrix.identity(QQ, 2)
    t = Polynomial.variable(QQ)
    assert ident.char_poly() == (t - 1) * (t - 1)


def test_char_poly_agrees_with_det_at_points():
    # char_poly(M)(k) = det(k Id - M), including the Bareiss path (n = 5)
    rng = random.Random(113)
    for n in (2, 5):
        for _ in range(20):
            mat = SquareMatrix(
                ZZ,
                [
                    [ZZ.element(rng.randint(-6, 6)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            f = mat.char_poly()
            assert f.degree() == n
            for k in (-2, 0, 1, 3):
                shifted = SquareMatrix.identity(ZZ, n) * ZZ.element(k) - mat
                assert f.evaluate(ZZ.element(k)) == shifted.det()


def test_matrix_inverse():
    rng = random.Random(127)
    spec = GF(7)
    found = 0
    while found < 50:
        mat = SquareMatrix(
            spec, [[spec.element(rng.randrange(7)) for _ in range(3)] for _ in range(3)]
        )
        if not mat.is_invertible():
            continue
        found += 1
        assert mat * mat.inverse() == SquareMatrix.identity(spec, 3)
        assert mat.inverse() * mat == SquareMatrix.identity(spec, 3)
    singular = SquareMatrix(
        spec, [[spec.one, spec.one], [spec.one, spec.one]]
    )
    assert not singular.is_invertible()


def test_algebra_degree_cases():
    assert algebra_degree(rank_one(GF(3))) == 1
    pair = direct_product(rank_one(GF(3)), rank_one(GF(3)))
    assert algebra_degree(pair) == 2
    upper = build_algebra(CubicCoefficients(GF(2), 1, 0, 0, 1, 0, 0))
    assert algebra_degree(upper) == 2
    assert algebra_degree(matrix_algebra(GF(2), 3)) == 3


def test_direct_product_componentwise():
    a = f4_algebra()
    b = rank_one(GF(2))
    prod = direct_product(a, b)
    ok, _ = prod.verify_associativity()
    assert ok
    rng = random.Random(131)
    for _ in range(200):
        xa = random_algebra_element(a, rng)
        xb = random_algebra_element(b, rng)
        ya = random_algebra_element(a, rng)
        yb = random_algebra_element(b, rng)
        x = product_element(prod, a, b, xa, xb)
        y = product_element(prod, a, b, ya, yb)
        left, right = product_components(prod, a, b, x * y)
        assert left == xa * ya and right == xb * yb
        back_a, back_b = product_components(prod, a, b, x)
        assert back_a == xa and back_b == xb
    # orthogonal components annihilate
    x = product_element(prod, a, b, a.one(), b.zero())
    y = product_element(prod, a, b, a.zero(), b.one())
    assert (x * y).is_zero()
    assert x + y == prod.one()


def test_matrix_algebra_units():
    spec = GF(3)
    m2 = matrix_algebra(spec, 2)
    ok, _ = m2.verify_associativity()
    assert ok
    assert not m2.is_commutative()
    e12 = SquareMatrix(spec, [[spec.zero, spec.one], [spec.zero, spec.zero]])
    e21 = SquareMatrix(spec, [[spec.zero, spec.zero], [spec.one, spec.zero]])
    e11 = SquareMatrix(spec, [[spec.one, spec.zero], [spec.zero, spec.zero]])
    x = matrix_to_element(m2, e12) * matrix_to_element(m2, e21)
    assert x == matrix_to_element(m2, e11)
    rng = random.Random(137)
    for _ in range(100):
        mat = SquareMatrix(
            spec, [[spec.element(rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        )
        elem = matrix_to_element(m2, mat)
        assert element_to_matrix(m2, elem, 2) == mat
    # multiplication agrees with matrix multiplication
    for _ in range(100):
        p = SquareMatrix(
            spec, [[spec.element(rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        )
        q = SquareMatrix(
            spec, [[spec.element(rng.randrange(3)) for _ in range(2)] for _ in range(2)]
        )
        assert matrix_to_element(m2, p) * matrix_to_element(m2, q) == matrix_to_element(
            m2, p * q
        )


def test_algebra_map_checks():
    alg = f4_algebra()
    ident = AlgebraMap(alg, alg, [alg.one(), alg.basis(1)])
    assert ident.verify_isomorphism()
    # x -> x + 1 is the conjugation automorphism of F4 over F2
    frob = AlgebraMap(alg, alg, [alg.one(), alg.one() + alg.basis(1)])
    assert frob.verify_isomorphism()
    # sending the generator to a scalar is not multiplicative
    broken = AlgebraMap(alg, alg, [alg.one(), alg.one()])
    ok, pair = broken.is_multiplicative()
    assert not ok and pair == (1, 1)
    other = rank_one(GF(3))
    with pytest.raises(SpecMismatch):
        AlgebraMap(alg, other, [other.one(), other.one()])


def test_structure_json_round_trip():
    for alg in sample_algebras():
        assert StructureConstants.from_json(alg.to_json()) == alg
    from lowrank import InputError

    with pytest.raises(InputError):
        StructureConstants.from_json({"ring": {"kind": "Z"}, "rank": 2})
    with pytest.raises(InputError):
        StructureConstants.from_json(
            {"ring": {"kind": "Z"}, "rank": 2, "table": [[["1"]]]}
        )


def test_element_enumeration():
    alg = f4_algebra()
    seen = list(alg.elements())
    assert len(seen) == 4
    assert len({tuple(c.value for c in e.coeffs) for e in seen}) == 4
