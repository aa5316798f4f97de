import random
from fractions import Fraction

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    RingElement,
    RingSpec,
    CubicCoefficients,
    GeneralCubicTable,
    GuardExceeded,
    InputError,
    Involution,
    NotAUnit,
    Polynomial,
    QuadraticAlgebra,
    SpecMismatch,
    SquareMatrix,
    StructureConstants,
    TableError,
    algebra_degree,
    build_algebra,
    direct_product,
    element_to_matrix,
    enumerate_cubic,
    exceptional_ring,
    is_isomorphic_2unit,
    is_isomorphic_bruteforce,
    is_isomorphic_over_z,
    left_regular_rep,
    m2_adjoint,
    matrix_algebra,
    matrix_to_element,
    min_poly,
    poly_gcd,
    product_components,
    product_element,
    quadratic_census,
    quaternion_algebra,
    rank_one,
    rebase,
    split_idempotent,
)
from lowrank.algebra import _row_reduce

from common import f4_algebra, horner, random_algebra_element


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
    """The RingElement triple loop that element products once ran: the
    oracle."""
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
            got = alg.element(u) * alg.element(v)
            assert got.coeffs == want
            assert got._values == tuple(c.value for c in want)
            for c, w in zip(got.coeffs, want):
                assert c.spec is alg.spec and type(c.value) is type(w.value)
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
            assert table == eager
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


def test_element_arithmetic_over_z_and_q():
    """Sums, differences, negation, scalar multiples and products over Z
    and Q agree with RingElement arithmetic on the coefficients, and every
    coordinate of a result, zero included, has the ring's canonical type:
    an int over Z, a Fraction over Q."""
    rng = random.Random(211)
    for spec, kind in ((ZZ, int), (QQ, Fraction)):
        for rank in (2, 3, 4):
            alg = random_table(spec, rank, rng)
            for _ in range(30):
                u = [random_coeff(spec, rng) for _ in range(rank)]
                v = [random_coeff(spec, rng) for _ in range(rank)]
                c = random_coeff(spec, rng)
                x, y = alg.element(u), alg.element(v)
                cases = (
                    (x + y, [a + b for a, b in zip(u, v)]),
                    (x - y, [a - b for a, b in zip(u, v)]),
                    (-x, [-a for a in u]),
                    (c * x, [c * a for a in u]),
                    (x * 3, [a * 3 for a in u]),
                    (x - x, [spec.zero] * rank),
                    (x * y, ring_element_mul_vec(alg, u, v)),
                )
                for got, want in cases:
                    assert got.coeffs == tuple(want)
                    assert all(type(w) is kind for w in got._values)
                    assert all(
                        a.spec is spec and type(a.value) is kind for a in got.coeffs
                    )


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
            assert horner(f, x, alg.one()) == alg.zero()


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
            assert horner(mp, x, alg.one()) == alg.zero()
            assert mp.coeffs[-1] == alg.spec.one


def ring_element_min_poly(x):
    """The RingElement row reduction that min_poly once was: the oracle."""
    spec = x.algebra.spec
    k = x.algebra.rank
    pivots = []  # (pivot index, reduced vector, combination polynomial)
    power = x.algebra.one()
    for m in range(k + 1):
        vec = list(power.coeffs)
        combo = Polynomial(spec, (spec.zero,) * m + (spec.one,))
        for pi, pvec, pcombo in pivots:
            f = vec[pi]
            if not f.is_zero():
                vec = [a - f * b for a, b in zip(vec, pvec)]
                combo = combo - f * pcombo
        if all(a.is_zero() for a in vec):
            return combo
        lead = next(i for i, a in enumerate(vec) if not a.is_zero())
        inv = vec[lead].inverse()
        vec = [a * inv for a in vec]
        combo = inv * combo
        pivots.append((lead, vec, combo))
        power = power * x
    raise AssertionError("no dependence among rank+1 powers")


def assert_min_poly_matches_oracle(x):
    got, want = min_poly(x), ring_element_min_poly(x)
    assert got == want, f"{x}: {got} != {want}"
    assert [type(c.value) for c in got.coeffs] == [type(c.value) for c in want.coeffs]
    return got


def test_min_poly_matches_ring_element_elimination():
    # every element of the small algebras over GF(2) and GF(3)
    small = [f4_algebra()]
    for p in (2, 3):
        spec = GF(p)
        small += [build_algebra(c) for c in enumerate_cubic(spec)]
        small += [
            matrix_algebra(spec, 2),
            direct_product(rank_one(spec), rank_one(spec)),
            direct_product(f4_algebra() if p == 2 else rank_one(spec), matrix_algebra(spec, 2)),
        ]
    count = 0
    for alg in small:
        for x in alg.elements():
            assert_min_poly_matches_oracle(x)
            count += 1
    assert count > 2500
    # random elements of M3 and quaternion algebras over GF(7) and QQ
    rng = random.Random(139)
    for spec in (GF(7), QQ):
        for alg in (matrix_algebra(spec, 3), quaternion_algebra(spec, -1, 3)):
            for _ in range(40):
                if spec.kind == "Q":
                    x = alg.element([random_coeff(spec, rng) for _ in range(alg.rank)])
                else:
                    x = random_algebra_element(alg, rng)
                assert_min_poly_matches_oracle(x)


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
    # scalars, nilpotents and idempotents of M3, also against the oracle
    for spec in (GF(2), GF(7), QQ):
        t = Polynomial.variable(spec)
        m3 = matrix_algebra(spec, 3)
        e12, e11, e33 = (
            matrix_to_element(
                m3, SquareMatrix(spec, [[int((i, j) == u) for j in range(3)] for i in range(3)])
            )
            for u in ((0, 1), (0, 0), (2, 2))
        )
        two = spec.element(2)
        cases = [
            (m3.zero(), t),
            (m3.scalar(two), t - two),
            (e12, t * t),
            (e11, t * t - t),
            (e33, t * t - t),
            (m3.one() - e11, t * t - t),
        ]
        for x, want in cases:
            assert assert_min_poly_matches_oracle(x) == want


def naive_det(spec, entries):
    """Gaussian elimination over Fraction, or over F_p with modular
    inverses, for cross-checking."""
    p = spec.p
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
        inv = pow(int(m[col][col]), -1, p) if p else 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            for cc in range(col, n):
                m[r][cc] -= factor * m[col][cc]
                if p:
                    m[r][cc] %= p
    return det % p if p else det


def assert_row_reduced(spec, rows, det):
    """_row_reduce of a square matrix over a field gives a reduced
    row-echelon form of full rank exactly when det is nonzero."""
    n = len(rows)
    reduced, pivots = _row_reduce(spec.p, rows)
    assert pivots == sorted(pivots)
    for r, col in enumerate(pivots):
        assert [row[col] for row in reduced] == [int(i == r) for i in range(n)]
    assert not any(any(row) for row in reduced[len(pivots):])
    assert (len(pivots) == n) == (det != 0)
    if spec.p:
        assert all(0 <= x < spec.p for row in reduced for x in row)


def test_det_matches_naive_elimination():
    rng = random.Random(107)
    for spec in (ZZ, QQ, GF(2), GF(7), GF(9973)):
        for n in range(1, 10):
            for _ in range(30 if n <= 6 else 5):
                mat = SquareMatrix(
                    spec,
                    [
                        [spec.element(rng.randint(-9, 9)) for _ in range(n)]
                        for _ in range(n)
                    ],
                )
                det = naive_det(spec, mat.entries)
                assert Fraction(mat.det().value) == det
                if spec.is_field():
                    assert_row_reduced(spec, mat._values, det)


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
    # char_poly(M)(k) = det(k Id - M)
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


def unimodular_matrix(rng, n):
    """A random integer matrix of determinant +-1: a product of
    elementary row operations, row swaps and sign flips."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        kind = rng.randrange(3)
        if kind == 0 and i != j:
            c = rng.randint(-3, 3)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-a for a in m[i]]
    return m


def test_matrix_inverse():
    rng = random.Random(127)
    cases = []  # matrices with a unit determinant
    for n in (1, 3, 4, 5):
        for _ in range(60 if n == 3 else 12):
            mat = SquareMatrix(
                GF(7), [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
            )
            if mat.is_invertible():
                cases.append(mat)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            cases.append(SquareMatrix(ZZ, unimodular_matrix(rng, n)))
            mat = SquareMatrix(
                QQ,
                [
                    [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            if mat.is_invertible():
                cases.append(mat)
    assert len(cases) > 100
    assert {(m.spec, m.n) for m in cases} >= {
        (spec, n) for spec in (GF(7), ZZ, QQ) for n in (1, 3, 4, 5)
    }
    for mat in cases:
        ident = SquareMatrix.identity(mat.spec, mat.n)
        inv = mat.inverse()
        assert mat * inv == ident
        assert inv * mat == ident
    spec = GF(7)
    singular = SquareMatrix(
        spec, [[spec.one, spec.one], [spec.one, spec.one]]
    )
    assert not singular.is_invertible()
    with pytest.raises(NotAUnit):
        singular.inverse()
    # a non-unit determinant over Z has no inverse either
    with pytest.raises(NotAUnit):
        SquareMatrix(ZZ, [[2, 0], [0, 1]]).inverse()


def test_rebase_refusals_and_ranks():
    """rebase refuses a change of basis without a unit determinant
    (NotAUnit), a first image that is not the unit (TableError) and
    images of the wrong number or length (ValueError).  At
    ranks 2, 3 and 4 its map onto the new table verifies, sends each
    image to its basis element, and the map back is the images."""
    alg = build_algebra(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1))
    with pytest.raises(NotAUnit):
        rebase(alg, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])  # det 2 over Z
    five = build_algebra(CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3))
    with pytest.raises(NotAUnit):
        rebase(five, [(1, 0, 0), (0, 1, 2), (3, 2, 4)])  # singular
    with pytest.raises(TableError):
        rebase(five, [(2, 0, 0), (0, 1, 0), (0, 0, 1)])
    with pytest.raises(TableError):
        rebase(five, [(0, 1, 0), (1, 0, 0), (0, 0, 1)])  # det -1
    for images in ([(1, 0), (0, 1)], [(1, 0, 0), (0, 1, 0), (0, 0)]):
        with pytest.raises(ValueError):
            rebase(five, images)
    cases = [
        (QuadraticAlgebra(QQ, 3, 5).structure(), [(1, 0), (Fraction(1, 2), 3)]),
        (QuadraticAlgebra(GF(7), 1, 1).structure(), [(1, 0), (4, 5)]),
        (alg, [(1, 0, 0), (4, 1, 1), (-2, 3, 4)]),
        (five, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        (
            quaternion_algebra(QQ, -1, -1),
            [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (Fraction(1, 2), 0, 0, 2)],
        ),
        (
            matrix_algebra(ZZ, 2),
            [(1, 0, 0, 0), (3, 1, 0, 0), (-1, 2, 1, 0), (0, 5, -2, 1)],
        ),
        (
            matrix_algebra(GF(5), 2),
            [(1, 0, 0, 0), (2, 0, 1, 0), (0, 1, 0, 0), (4, 3, 2, 3)],
        ),
    ]
    for source, images in cases:
        table, phi = rebase(source, images)
        assert phi.source == source and phi.target == table
        assert phi.verify_isomorphism()
        assert AlgebraMap(table, source, images).verify_isomorphism()
        for k, im in enumerate(images):
            assert phi.apply(source.element(im)) == table.basis(k)
    # the basis the table already has gives it back, by the identity
    table, phi = rebase(five, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert table == five
    assert phi == AlgebraMap(five, five, [five.basis(k) for k in range(3)])


def reference_char_poly(mat):
    """det(T*I - M) from a matrix of Polynomial entries: expansion by minors
    for n <= 4, fraction-free (Bareiss) elimination above that."""
    spec = mat.spec
    n = mat.n
    t = Polynomial.variable(spec)
    rows = [
        [
            (t if i == j else Polynomial(spec)) - mat.entries[i][j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    zero = Polynomial(spec)
    if n <= 4:
        return _reference_det_cofactor(rows, zero)
    return _reference_det_bareiss(rows, zero, Polynomial.constant(spec, 1))


def _reference_det_cofactor(rows, zero):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = zero
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        term = rows[0][j] * _reference_det_cofactor(minor, zero)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def _reference_det_bareiss(m, zero, one):
    n = len(m)
    sign = 1
    prev = one
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return zero
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(m[i][j] * m[k][k] - m[i][k] * m[k][j], prev)
                assert r.is_zero(), "fraction-free elimination left a remainder"
                m[i][j] = q
            m[i][k] = zero
        prev = m[k][k]
    out = m[n - 1][n - 1]
    return out if sign > 0 else -out


def test_kernel_matches_reference_char_poly():
    rng = random.Random(131)
    for spec in (ZZ, QQ, GF(2), GF(7)):
        for n in range(1, 10):
            for trial in range(6 if n <= 5 else 2):
                if spec.kind == "Q":
                    entries = [
                        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                        for _ in range(n)
                    ]
                else:
                    # small entries on odd trials: many zeros for the
                    # kernel to skip, and unit determinants over Z
                    span = 1 if trial % 2 else 6
                    entries = [
                        [rng.randint(-span, span) for _ in range(n)] for _ in range(n)
                    ]
                mat = SquareMatrix(spec, entries)
                ref = reference_char_poly(mat)
                c0 = ref.coefficient(0)
                assert mat.char_poly() == ref
                assert mat.det() == (-c0 if n % 2 else c0)
                if c0.is_unit():
                    ident = SquareMatrix.identity(spec, n)
                    assert mat * mat.inverse() == ident
                else:
                    assert not mat.is_invertible()
                    with pytest.raises(NotAUnit):
                        mat.inverse()


def test_algebra_degree_cases():
    assert algebra_degree(rank_one(GF(3))) == 1
    pair = direct_product(rank_one(GF(3)), rank_one(GF(3)))
    assert algebra_degree(pair) == 2
    upper = build_algebra(CubicCoefficients(GF(2), 1, 0, 0, 1, 0, 0))
    assert algebra_degree(upper) == 2
    assert algebra_degree(matrix_algebra(GF(2), 3)) == 3


def test_algebra_degree_guard_counts_the_representatives(monkeypatch):
    """The guard counts the (p^(k-1) - 1)/(p - 1) elements the scan
    visits, before it starts: M_2(F_37) has rank 4 and degree 2, so the
    scan visits all 37^2 + 37 + 1 = 1407 of them, though its 37^4
    elements exceed the default ceiling of 10^6."""
    alg = matrix_algebra(GF(37), 2)
    monkeypatch.delenv("LOWRANK_GUARD", raising=False)
    assert algebra_degree(alg) == 2
    monkeypatch.setenv("LOWRANK_GUARD", "1407")
    assert algebra_degree(alg) == 2
    monkeypatch.setenv("LOWRANK_GUARD", "1406")
    with pytest.raises(GuardExceeded) as info:
        algebra_degree(alg)
    assert str(info.value) == (
        "degree enumeration needs 1407 steps, over the limit of 1406; "
        "set LOWRANK_GUARD to override (unsafe)"
    )
    # p = 1009 is the first prime past the default ceiling at rank 4
    monkeypatch.delenv("LOWRANK_GUARD")
    with pytest.raises(GuardExceeded, match="needs 1019091 steps, over the limit of 1000000"):
        algebra_degree(matrix_algebra(GF(1009), 2))


def test_direct_product_componentwise():
    factors = [(f4_algebra(), rank_one(GF(2)))]
    for spec in (ZZ, QQ, GF(5)):
        factors.append((
            quaternion_algebra(spec, spec.element(-1), spec.element(-1)),
            QuadraticAlgebra(spec, 1, -1).structure(),
        ))
    rng = random.Random(131)
    for a, b in factors:
        prod = direct_product(a, b)
        ok, _ = prod.verify_associativity()
        assert ok

        def draw(alg):
            return alg.element([random_coeff(alg.spec, rng) for _ in range(alg.rank)])

        for _ in range(200):
            xa, xb, ya, yb = draw(a), draw(b), draw(a), draw(b)
            x = product_element(prod, a, b, xa, xb)
            y = product_element(prod, a, b, ya, yb)
            assert product_element(prod, a, b, xa.coeffs, xb._values) == x
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
    # the zero-skipping matrix product against the naive entrywise sum, at
    # n = 2 and 3 over every kind of ring, on matrices with many zeros
    for spec in (ZZ, QQ, GF(2), GF(3), GF(7)):
        for n in (2, 3):
            alg = matrix_algebra(spec, n)
            for _ in range(30):
                p, q = sparse_matrix(spec, n, rng), sparse_matrix(spec, n, rng)
                assert p * q == naive_matrix_product(p, q)
                x, y = matrix_to_element(alg, p), matrix_to_element(alg, q)
                assert element_to_matrix(alg, x, n) == p
                assert x * y == matrix_to_element(alg, p * q)

    # the raw matrix layer: entries are read as RingElements of the spec,
    # every stored value, results included, has the ring's canonical type,
    # and int, Fraction and element inputs build one matrix
    for spec, kind in ((ZZ, int), (QQ, Fraction), (GF(7), int)):
        for _ in range(20):
            p, q = sparse_matrix(spec, 3, rng), sparse_matrix(spec, 3, rng)
            c = random_coeff(spec, rng)
            for i in range(3):
                for j in range(3):
                    a = p[i, j]
                    assert type(a) is RingElement and a.spec is spec
                    assert a == p.entries[i][j] and a.value == p._values[i][j]
            pe, qe = p.entries, q.entries
            cases = (
                (p + q, [[a + b for a, b in zip(r, t)] for r, t in zip(pe, qe)]),
                (p - q, [[a - b for a, b in zip(r, t)] for r, t in zip(pe, qe)]),
                (-p, [[-a for a in r] for r in pe]),
                (c * p, [[c * a for a in r] for r in pe]),
                (Fraction(c.value) * p, [[c * a for a in r] for r in pe]),
                (p * 3, [[a * 3 for a in r] for r in pe]),
                (p - p, [[spec.zero] * 3] * 3),
                (p * q, naive_matrix_product(p, q).entries),
            )
            for got, want in cases:
                assert got.entries == tuple(map(tuple, want))
                assert all(type(v) is kind for row in got._values for v in row)
                if spec.p:
                    assert all(0 <= v < spec.p for row in got._values for v in row)
            as_elements = SquareMatrix(spec, pe)
            as_fractions = SquareMatrix(
                spec, [[Fraction(v) for v in row] for row in p._values]
            )
            for same in (as_elements, as_fractions):
                assert same == p and hash(same) == hash(p)
        stranger = GF(5).element(2)
        with pytest.raises(SpecMismatch) as want:
            spec.element(stranger)
        with pytest.raises(SpecMismatch) as got:
            SquareMatrix(spec, [[1, 0], [0, stranger]])
        assert str(got.value) == str(want.value)


def test_matrix_layer_builds_no_ring_elements(ring_elements_built):
    """matrix_algebra, left_regular_rep, AlgebraMap.matrix and
    element_to_matrix work on raw values: none constructs a RingElement,
    by either constructor."""
    m3 = matrix_algebra(QQ, 3)
    x = m3.element([Fraction(k - 4, k + 1) for k in range(9)])
    phi = AlgebraMap(m3, m3, [m3.basis(k) + x * k for k in range(9)])
    built = ring_elements_built
    assert built == [], "building the inputs built elements"
    assert matrix_algebra(GF(7), 3).rank == 9
    assert built == [], "matrix_algebra built elements"
    rep = left_regular_rep(x)
    assert rep.n == 9
    assert built == [], "left_regular_rep built elements"
    assert phi.matrix().n == 9
    assert built == [], "AlgebraMap.matrix built elements"
    assert element_to_matrix(m3, x, 3)._values[2][2] == x._values[0]
    assert built == [], "element_to_matrix built elements"
    # reading the entries is where RingElements are built
    assert rep[0, 0].spec is QQ and len(built) == 1


def sparse_matrix(spec, n, rng):
    """A random n x n matrix over spec whose entries are zero two times in three."""
    def draw():
        if rng.random() < 2 / 3:
            return 0
        if spec.kind == "Fp":
            return rng.randrange(spec.p)
        if spec.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        return rng.randint(-9, 9)

    return SquareMatrix(spec, [[draw() for _ in range(n)] for _ in range(n)])


def naive_matrix_product(p, q):
    """p q as the full entrywise sum over all n terms, zeros included."""
    n, zero = p.n, p.spec.zero
    return SquareMatrix(
        p.spec,
        [
            [sum((p[i, k] * q[k, j] for k in range(n)), start=zero) for j in range(n)]
            for i in range(n)
        ],
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


def test_algebra_map_value_equality():
    for spec in (GF(5), QQ, ZZ):
        alg = QuadraticAlgebra(spec, 1, 0)
        (f1, b1), (f2, b2) = split_idempotent(alg), split_idempotent(alg)
        assert f1 is not f2 and f1.to_json() == f2.to_json()
        assert f1 == f2 and hash(f1) == hash(f2)
        assert b1 == b2 and hash(b1) == hash(b2)
        assert len({f1, f2}) == 1
    # same images on another target, and other images on the same one
    alg = f4_algebra()
    ident = AlgebraMap(alg, alg, [alg.one(), alg.basis(1)])
    frob = AlgebraMap(alg, alg, [alg.one(), alg.one() + alg.basis(1)])
    assert ident != frob
    line = rank_one(GF(2))
    pair = direct_product(line, line)
    assert AlgebraMap(alg, pair, [[1, 0], [0, 1]]) != ident
    # an Involution is an AlgebraMap and equals one with the same images
    for spec in (GF(7), QQ):
        inv = m2_adjoint(spec)
        plain = AlgebraMap(inv.algebra, inv.algebra, inv.images)
        assert type(plain) is AlgebraMap
        assert inv == plain and plain == inv
        assert hash(inv) == hash(plain)
        again = Involution(inv.algebra, [im.coeffs for im in inv.images])
        assert again == inv and hash(again) == hash(inv)
    assert "__eq__" not in vars(Involution) and "__hash__" not in vars(Involution)


def element_is_multiplicative(phi):
    """The AlgebraElement loop that is_multiplicative once was: the oracle."""
    k = phi.source.rank
    for a in range(k):
        for b in range(k):
            lhs = phi.apply(phi.source.element(phi.source._values[a][b]))
            rhs = phi.images[a] * phi.images[b]
            if lhs != rhs:
                return False, (a, b)
    return True, None


def test_is_multiplicative_matches_element_loop():
    # random unital maps between census tables, and the witnesses of
    # isomorphic pairs (multiplicative by construction)
    rng = random.Random(149)
    seen = set()
    for p in (3, 5):
        tables = [build_algebra(c) for c in enumerate_cubic(GF(p))]
        for _ in range(150):
            a, b = rng.choice(tables), rng.choice(tables)
            images = [b.one()] + [random_algebra_element(b, rng) for _ in range(2)]
            maps = [AlgebraMap(a, b, images)]
            found, phi = is_isomorphic_bruteforce(a, b)
            if found:
                maps.append(phi)
            for phi in maps:
                want = element_is_multiplicative(phi)
                assert phi.is_multiplicative() == want
                seen.add(want[1])
    # the multiplicative verdict and first failures at several pairs
    assert seen >= {None, (1, 1), (1, 2), (2, 2)}


def random_images(spec, rank, rng, unital, kind):
    """Image rows of a map between rank-`rank` tables.  A unital map
    keeps the unit first and completes it by a unimodular block; kind
    "unimodular" has determinant +-1, "double" doubles the last image
    (+-2), "singular" repeats the first image in the last place (or
    zeroes it at rank 1) and "random" draws every entry."""
    if kind == "random":
        return [[random_coeff(spec, rng) for _ in range(rank)] for _ in range(rank)]
    if unital:
        rows = [[1] + [0] * (rank - 1)] + [
            [rng.randint(-3, 3)] + row for row in unimodular_matrix(rng, rank - 1)
        ]
    else:
        rows = unimodular_matrix(rng, rank)
    if kind == "double":
        rows[-1] = [2 * a for a in rows[-1]]
    elif kind == "singular":
        rows[-1] = list(rows[0]) if rank > 1 else [0]
    return rows


def test_raw_map_checks_match_the_element_and_matrix_oracles():
    """is_unital compares the image of 1 with the target's cell e_0 e_0,
    and is_invertible takes the determinant of the raw image rows, the
    transpose of matrix().  On random maps over Z, Q and GF(5) at ranks
    1-4, unital or not, singular or not, and over Z with determinants
    +-1 and +-2, they agree with images[0] == target.one() and with
    matrix().is_invertible().  Unequal ranks still raise ValueError."""
    rng = random.Random(37)
    seen = set()
    for spec in (ZZ, QQ, GF(5)):
        for rank in (1, 2, 3, 4):
            source, target = random_table(spec, rank, rng), random_table(spec, rank, rng)
            for _ in range(24):
                unital = rng.random() < 0.5
                kind = rng.choice(("unimodular", "double", "singular", "random"))
                phi = AlgebraMap(source, target, random_images(spec, rank, rng, unital, kind))
                assert phi.is_unital() == (phi.images[0] == target.one())
                assert phi.is_invertible() == phi.matrix().is_invertible()
                seen.add((spec, phi.is_unital(), phi.is_invertible()))
                if spec == ZZ:
                    seen.add(phi.matrix().det().value)
    assert {(s, u, i) for s in (ZZ, QQ, GF(5)) for u in (True, False) for i in (True, False)} <= seen
    assert {1, -1, 2, -2, 0} <= seen
    small, big = random_table(GF(5), 2, rng), random_table(GF(5), 3, rng)
    phi = AlgebraMap(small, big, [big.one(), big.basis(1)])
    for check in (phi.is_invertible, phi.matrix):
        with pytest.raises(ValueError, match="matrix form needs equal ranks"):
            check()
    assert not phi.verify_isomorphism()


def test_verify_isomorphism_builds_no_scaffolding(monkeypatch):
    """verify_isomorphism reads the unit and the determinant off raw
    values, so it builds no SquareMatrix and no target.one(): maps made
    by rebase, the brute-force search and quadratic._affine_map still
    verify with both patched to raise, and maps that are not unital,
    not multiplicative or not invertible (over Z, determinant 2) still
    fail.  The rank-2 tables of quadratic_census are stored unchecked,
    so it answers with the table constructor patched to raise."""
    good, bad = [], []
    alg = build_algebra(CubicCoefficients(ZZ, 1, 1, 0, 0, 1, 1))
    good.append(rebase(alg, [(1, 0, 0), (4, 1, 1), (-2, 3, 4)])[1])
    quat = quaternion_algebra(QQ, -1, -1)
    good.append(rebase(quat, [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 0, 2)])[1])
    a = build_algebra(CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3))
    b = build_algebra(CubicCoefficients(GF(5), 1, 0, 0, 1, 0, 0))
    found, phi = is_isomorphic_bruteforce(a, b)
    assert found
    good.append(phi)
    # the witnesses of both rank-2 tests come from quadratic._affine_map
    for test, spec, ta, tb in (
        (is_isomorphic_2unit, GF(13), (3, 5), (0, 11)),
        (is_isomorphic_2unit, QQ, (1, 1), (3, 3)),
        (is_isomorphic_over_z, ZZ, (2, 7), (0, 6)),
    ):
        found, phi = test(QuadraticAlgebra(spec, *ta), QuadraticAlgebra(spec, *tb))
        assert found
        good.append(phi)
    for phi in good:
        target, images = phi.target, [im._values for im in phi.images]
        bad.append(AlgebraMap(phi.source, target, [target.scalar(2)] + images[1:]))
        bad.append(AlgebraMap(phi.source, target, images[:-1] + [target.one()]))
    # the zero table: 1 -> 1, i -> 2i, j -> j is unital and multiplicative,
    # with determinant 2, a unit over Q and GF(5) but not over Z
    for spec in (ZZ, QQ, GF(5)):
        zero = build_algebra(CubicCoefficients(spec, 0, 0, 0, 0, 0, 0))
        double = AlgebraMap(zero, zero, [(1, 0, 0), (0, 2, 0), (0, 0, 1)])
        (bad if spec == ZZ else good).append(double)
        bad.append(AlgebraMap(zero, zero, [(1, 0, 0), (0, 0, 0), (0, 0, 1)]))
    # the oracle, with the scaffolding the old checks built
    oracle = lambda phi: (
        phi.images[0] == phi.target.one()
        and phi.is_multiplicative()[0]
        and phi.matrix().is_invertible()
    )
    assert all(map(oracle, good)) and not any(map(oracle, bad))
    assert any(phi.is_unital() and phi.is_multiplicative()[0] for phi in bad)

    def refuse(*args, **kwargs):
        raise AssertionError("scaffolding built")

    with monkeypatch.context() as m:
        m.setattr(SquareMatrix, "__init__", refuse)
        m.setattr(StructureConstants, "one", refuse)
        assert all(phi.verify_isomorphism() for phi in good)
        assert not any(phi.verify_isomorphism() for phi in bad)
    with monkeypatch.context() as m:
        m.setattr(StructureConstants, "__init__", refuse)
        report = quadratic_census(GF(5))
    assert [len(cls) for cls in report.classes] == [5, 10, 10]
    assert report.partitions_agree()


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
    for rank in (True, 1.0):
        with pytest.raises(InputError):
            StructureConstants.from_json(
                {"ring": {"kind": "Z"}, "rank": rank, "table": [[["1"]]]}
            )


# -- decoding: one refusal per bad table, on both paths -------------------------

DECODE_SPECS = [ZZ, QQ, GF(7)]


def _refusal(build):
    """The type and message of the exception that build() raises."""
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


def _unit_json(k):
    return [["1" if l == j else "0" for l in range(k)] for j in range(k)]


@pytest.mark.parametrize("spec", DECODE_SPECS, ids=repr)
def test_decoder_and_constructor_refuse_alike(spec):
    """StructureConstants.from_json stores the values of read_elements
    without converting them again, so it checks the empty table and the
    identity through the same helper as the checking constructor: both
    refuse those tables with the same type and message.  The JSON
    reader refuses a ragged table, a rank that does not match the table
    and a bool rank level by level, before any table exists, with
    InputError; the constructor refuses a ragged table with TableError."""
    def both(rank, table):
        obj = {"ring": spec.to_json(), "rank": rank, "table": table}
        values = [[list(map(spec._parse_value, cell)) for cell in row] for row in table]
        return _refusal(lambda: StructureConstants.from_json(obj)), _refusal(
            lambda: StructureConstants(spec, values)
        )

    unit = _unit_json(3)
    square = [["1", "2", "0"], ["0", "3", "1"]]
    tables = {
        "empty": (0, []),
        "row 0": (3, [[unit[0], unit[2], unit[2]], [unit[1], *square], [unit[2], *square]]),
        "column 0": (3, [unit, [unit[1], *square], [unit[1], *square]]),
        "unit at 0": (3, [[unit[1], unit[1], unit[2]], [unit[1], *square], [unit[2], *square]]),
        "scalar 2": (2, [[["2", "0"], ["0", "1"]], [["0", "1"], ["1", "1"]]]),
    }
    want = {
        "empty": "empty table",
        "row 0": "basis element 0 is not a two-sided identity at index 1",
        "column 0": "basis element 0 is not a two-sided identity at index 2",
        "unit at 0": "basis element 0 is not a two-sided identity at index 0",
        "scalar 2": "basis element 0 is not a two-sided identity at index 0",
    }
    for name, (rank, table) in tables.items():
        decoded, built = both(rank, table)
        assert decoded == built == (TableError, want[name]), name
    # the JSON reader refuses by level, before the table checks
    ragged = [_unit_json(2), [["0", "1"]]]
    long_cell = [_unit_json(2), [["0", "1"], ["1", "1", "1"]]]
    for rank, table, message in (
        (2, ragged, "table row must be a list of 2 entries"),
        (2, long_cell, "table cell must be a list of 2 entries"),
        (3, [_unit_json(2), _unit_json(2)], "table must be a list of 3 entries"),
        (True, [[["1"]]], "table must be a list of True entries"),
        (False, [], "table must be a list of False entries"),
    ):
        obj = {"ring": spec.to_json(), "rank": rank, "table": table}
        assert _refusal(lambda: StructureConstants.from_json(obj)) == (InputError, message)
    for table in (ragged, long_cell):
        values = [[list(map(spec._parse_value, cell)) for cell in row] for row in table]
        assert _refusal(lambda: StructureConstants(spec, values)) == (
            TableError, "table must be 2x2 cells of 2 coefficients"
        )


def test_from_json_reads_each_value_once(monkeypatch):
    """StructureConstants.from_json stores the values that read_elements
    decodes and converts none of them again through RingSpec.value, on
    every ring; the stored table is the one the constructor builds."""
    tables = {spec: build_algebra(CubicCoefficients(spec, 2, 0, 3, 2, 0, 3)).to_json()
              for spec in DECODE_SPECS}
    converted = []
    value = RingSpec.value
    monkeypatch.setattr(RingSpec, "value", lambda self, x: converted.append(x) or value(self, x))
    decoded = {spec: StructureConstants.from_json(obj) for spec, obj in tables.items()}
    assert converted == []
    monkeypatch.undo()
    for spec, alg in decoded.items():
        assert alg == StructureConstants(spec, alg._values) == build_algebra(
            CubicCoefficients(spec, 2, 0, 3, 2, 0, 3))


def _leaf_types(values):
    return {
        t for v in values
        for t in (_leaf_types(v) if isinstance(v, (tuple, list)) else {type(v)})
    }


def test_every_value_over_q_is_a_fraction():
    """Over Q every stored value is a Fraction, the shared 0 and 1
    included (the AlgebraElement invariant): decoded tables, elements
    and the tables the constructions build.  The ints -1, 0 and 1 and
    the strings "-1", "0" and "1" give the same shared Fractions, and
    every other string a Fraction of its own."""
    from lowrank.rings import _Q_CONSTANTS

    for v in (-1, 0, 1):
        shared = _Q_CONSTANTS[v]
        assert type(shared) is Fraction and shared == v
        assert QQ.value(v) is shared and QQ._parse_value(str(v)) is shared
        assert QQ._parse_value(f" {v} ") is shared
    assert QQ.zero.value is _Q_CONSTANTS[0] and QQ.one.value is _Q_CONSTANTS[1]
    for text, want in (("-0", 0), ("+1", 1), ("2/2", 1), ("1.0", 1), ("7", 7), ("6/4", Fraction(3, 2))):
        got = QQ._parse_value(text)
        assert type(got) is Fraction and got == want
    table = [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
             [["0", "1", "0"], ["-1", "2/4", "-0"], ["0", "+1", "1.5"]],
             [["0", "0", "1"], ["1", "0", "-1"], ["7", "0", "3/9"]]]
    alg = StructureConstants.from_json({"ring": {"kind": "Q"}, "rank": 3, "table": table})
    assert alg == StructureConstants(QQ, [[[QQ._parse_value(c) for c in cell] for cell in row] for row in table])
    assert alg._values[0][0][0] is _Q_CONSTANTS[1] and alg._values[1][1][0] is _Q_CONSTANTS[-1]
    built = [
        alg,
        build_algebra(CubicCoefficients(QQ, Fraction(1, 2), 0, 3, Fraction(1, 2), 0, 3)),
        build_algebra(CubicCoefficients(QQ, 1, -2, 0, 0, Fraction(5, 3), 0)),
        QuadraticAlgebra(QQ, 0, -1).structure(),
        direct_product(rank_one(QQ), alg),
        matrix_algebra(QQ, 2),
        quaternion_algebra(QQ, -1, 3),
        exceptional_ring(QQ, [0, 1, Fraction(2, 3)]),
    ]
    for table in built:
        assert _leaf_types(table._values) == {Fraction}, table
        x = table.element([Fraction(1, 2)] + [-1] * (table.rank - 1))
        assert _leaf_types((x * x)._values) == {Fraction}
        assert _leaf_types(left_regular_rep(x)._values) == {Fraction}


def test_element_enumeration():
    alg = f4_algebra()
    seen = list(alg.elements())
    assert len(seen) == 4
    assert len({tuple(c.value for c in e.coeffs) for e in seen}) == 4
