import itertools
import random

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    CubicCoefficients,
    GuardExceeded,
    Involution,
    LowrankError,
    QuadraticAlgebra,
    SpecMismatch,
    SquareMatrix,
    StructureConstants,
    UnsupportedRing,
    all_standard_involutions,
    build_algebra,
    direct_product,
    element_to_matrix,
    exceptional_ring,
    exceptional_witness,
    find_standard_involution,
    m2_adjoint,
    matrix_algebra,
    norm,
    pair_swap,
    product_element,
    quadratic_certificate,
    quaternion_algebra,
    quaternion_conjugation,
    quaternion_norm_form,
    rank_one,
    rebase,
    standard_involution_exceptional,
    standard_involution_quadratic,
    trace,
    verify_involution,
    verify_standard,
)
from lowrank.involutions import _conjugation

from common import f4_algebra, random_algebra_element


def standard_examples():
    return [
        standard_involution_quadratic(QuadraticAlgebra(GF(5), 1, 1)),
        standard_involution_quadratic(QuadraticAlgebra(ZZ, 3, -2)),
        quaternion_conjugation(QQ, QQ.element(-1), QQ.element(-1)),
        quaternion_conjugation(QQ, QQ.element(2), QQ.element(3)),
        m2_adjoint(GF(3)),
        m2_adjoint(QQ),
        pair_swap(GF(3)),
        pair_swap(QQ),
        standard_involution_exceptional(CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3)),
        standard_involution_exceptional(CubicCoefficients(ZZ, 1, 0, 0, 1, 0, 0)),
    ]


def test_axiom_failures_detected():
    alg = f4_algebra()
    # does not fix 1
    bad = Involution(alg, [alg.basis(1), alg.one()])
    ok, why = verify_involution(bad)
    assert not ok and "not fixed" in why
    # fixes 1 but is not self-inverse: x -> x + 1 + 1 is fine, so use a
    # genuinely non-invertible assignment x -> 1
    collapse = Involution(alg, [alg.one(), alg.one()])
    ok, why = verify_involution(collapse)
    assert not ok and "double application" in why
    # the identity map fails anti-multiplicativity on a noncommutative algebra
    m2 = matrix_algebra(GF(3), 2)
    ident = Involution(m2, [m2.basis(i) for i in range(4)])
    ok, why = verify_involution(ident)
    assert not ok and "product reversal" in why


def test_identity_is_involution_but_not_standard_on_f4():
    alg = f4_algebra()
    ident = Involution(alg, [alg.one(), alg.basis(1)])
    ok, why = verify_involution(ident)
    assert ok, why
    standard, witness = verify_standard(ident)
    assert not standard
    assert witness == alg.basis(1)  # x * x = x + 1 is not scalar
    # over F2 the trace x + x = 0 is scalar anyway, but the norm is not
    assert (alg.basis(1) + ident.apply(alg.basis(1))).is_zero()
    with pytest.raises(LowrankError):
        norm(ident, alg.basis(1))
    # in odd characteristic the identity map has non-scalar traces too
    comm = QuadraticAlgebra(GF(3), 1, 1).structure()
    ident3 = Involution(comm, [comm.one(), comm.basis(1)])
    assert verify_involution(ident3)[0]
    with pytest.raises(LowrankError):
        trace(ident3, comm.basis(1))


def test_constructed_involutions_verify():
    for inv in standard_examples():
        ok, why = verify_involution(inv)
        assert ok, why
        standard, witness = verify_standard(inv)
        assert standard, f"witness {witness!r}"


def test_trace_and_norm_scalar_on_random_elements():
    for inv in standard_examples():
        alg = inv.algebra
        rng = random.Random(alg.rank * 7 + 1)
        for _ in range(500):
            x = random_algebra_element(alg, rng)
            conj = inv.apply(x)
            assert (x + conj).is_scalar()
            assert (x * conj).is_scalar()
            # conj(x) commutes with x and multiplies to the norm both ways
            assert x * conj == conj * x


def test_quadratic_certificate():
    for inv in standard_examples():
        alg = inv.algebra
        rng = random.Random(alg.rank * 11 + 3)
        for _ in range(200):
            x = random_algebra_element(alg, rng)
            t, n = quadratic_certificate(inv, x)
            assert x * x - x * t + alg.scalar(n) == alg.zero()
    # frozen: 1 + i + j + k in the (-1, -1) quaternions
    inv = quaternion_conjugation(QQ, QQ.element(-1), QQ.element(-1))
    x = inv.algebra.element([1, 1, 1, 1])
    t, n = quadratic_certificate(inv, x)
    assert (str(t), str(n)) == ("2", "4")


def test_find_standard_involution_rank2_and_3():
    alg = f4_algebra()
    found = find_standard_involution(alg)
    assert found is not None
    assert found.images[1] == alg.one() + alg.basis(1)
    # commutative cubic tables generally have none
    comm = build_algebra(CubicCoefficients(GF(5), 1, 1, 0, 0, 1, 1))
    assert find_standard_involution(comm) is None
    # exceptional cubic tables always have one
    exc = build_algebra(CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3))
    found = find_standard_involution(exc)
    assert found is not None
    assert verify_standard(found)[0]


def rank4_algebras(spec):
    """Rank-4 algebras with and without a standard involution."""
    p = spec.p
    algs = [matrix_algebra(spec, 2)]
    if p != 2:
        algs += [quaternion_algebra(spec, a, b) for a in (1, p - 1) for b in (1, 2)]
    quads = [QuadraticAlgebra(spec, t, n).structure() for t, n in ((0, 1), (1, 1), (1, 0))]
    algs += [direct_product(a, b) for a, b in itertools.combinations_with_replacement(quads, 2)]
    cubics = [
        build_algebra(CubicCoefficients(spec, 1, 0, 1, 1, 0, 1)),
        build_algebra(CubicCoefficients(spec, 0, 0, 0, 0, 0, 0)),
        build_algebra(CubicCoefficients(spec, 1, 1, 0, 0, 1, 1)),
    ]
    algs += [direct_product(rank_one(spec), c) for c in cubics]
    return algs


def test_find_standard_involution_rank4():
    m2 = matrix_algebra(GF(2), 2)
    found = find_standard_involution(m2)
    assert found is not None
    assert found == m2_adjoint(GF(2))
    # the forced candidate needs no finite field and no scan over traces:
    # Z, Q and a prime whose p^3 trace tuples exceed the brute-force guard
    for spec in (ZZ, QQ, GF(9973)):
        assert find_standard_involution(matrix_algebra(spec, 2)) == m2_adjoint(spec)
    assert find_standard_involution(
        quaternion_algebra(QQ, -1, -1)
    ) == quaternion_conjugation(QQ, -1, -1)
    assert find_standard_involution(quaternion_algebra(ZZ, -1, -1)) == (
        quaternion_conjugation(ZZ, -1, -1)
    )
    quad = QuadraticAlgebra(ZZ, 1, -1).structure()
    assert find_standard_involution(direct_product(quad, quad)) is None
    with pytest.raises(GuardExceeded):
        all_standard_involutions(matrix_algebra(GF(29), 2))
    # the forced candidate agrees with the trace-tuple brute force, on
    # tables in their own basis and after a random change of basis
    rng = random.Random(137)
    seen = {True: 0, False: 0}
    for p in (2, 3, 5):
        spec = GF(p)
        for alg in rank4_algebras(spec):
            # triangular with unit diagonal, then permuted: invertible
            cols = [
                [rng.randrange(p) if j < i else int(j == i) * rng.randrange(1, p)
                 for j in range(4)]
                for i in range(1, 4)
            ]
            rng.shuffle(cols)
            cols = [[1, 0, 0, 0]] + cols
            for table in (alg, rebase(alg, cols)[0]):
                oracle = all_standard_involutions(table)
                assert len(oracle) <= 1
                found = find_standard_involution(table)
                assert found == (oracle[0] if oracle else None)
                seen[found is not None] += 1
    assert seen[True] and seen[False]
    # no rank cap: at rank 5 the answer matches the 81 trace tuples of
    # GF(3), on R x H (none) and on R + M with x y = phi(x) y (one)
    spec = GF(3)
    e = [tuple(int(l == a) for l in range(5)) for a in range(5)]
    phi = (1, 2, 0, 1)  # on e1..e4
    exceptional = StructureConstants(spec, [
        [e[a + b] if a * b == 0 else tuple(phi[a - 1] * v for v in e[b]) for b in range(5)]
        for a in range(5)
    ])
    five = direct_product(rank_one(spec), quaternion_algebra(spec, 1, 1))
    for table, count in ((five, 0), (exceptional, 1)):
        oracle = all_standard_involutions(table)
        assert len(oracle) == count
        assert find_standard_involution(table) == (oracle[0] if oracle else None)


def test_uniqueness_on_quadratics_small_fields():
    for p in (2, 3):
        spec = GF(p)
        for t, n in itertools.product(range(p), repeat=2):
            alg = QuadraticAlgebra(spec, t, n).structure()
            found = all_standard_involutions(alg)
            assert len(found) == 1, f"(t, n) = ({t}, {n}) over GF({p})"
            assert found[0] == standard_involution_quadratic(
                QuadraticAlgebra(spec, t, n)
            )


def test_adjoint_is_unique_on_m2_f2():
    m2 = matrix_algebra(GF(2), 2)
    found = all_standard_involutions(m2)
    assert len(found) == 1
    assert found[0] == m2_adjoint(GF(2))


def test_witness_involution_matches_direct_construction():
    for p in (2, 3):
        spec = GF(p)
        for m, n in itertools.product(range(p), repeat=2):
            coeffs = CubicCoefficients(spec, n, 0, m, n, 0, m)
            witness = exceptional_witness(coeffs)
            from_witness = _conjugation(witness.algebra, (witness.t_i, witness.t_j))
            assert from_witness == standard_involution_exceptional(coeffs)


def test_built_in_involutions_are_one_conjugation():
    """Every involution the package builds is an AlgebraMap of its
    algebra to itself and is the conjugation fixed by its traces."""
    for spec in (ZZ, QQ, GF(3), GF(7)):
        quad = QuadraticAlgebra(spec, 2, 5)
        exc = CubicCoefficients(spec, 2, 0, 3, 2, 0, 3)
        witness = exceptional_witness(exc)
        m2 = matrix_algebra(spec, 2)
        cases = [
            (m2_adjoint(spec), (1, 0, 0)),
            (pair_swap(spec), (1,)),
            (quaternion_conjugation(spec, -1, -1), (0, 0, 0)),
            (standard_involution_quadratic(quad), (quad.t,)),
            (standard_involution_exceptional(exc), (exc.n, exc.m)),
            (standard_involution_exceptional(exc), (witness.t_i, witness.t_j)),
            (find_standard_involution(exceptional_ring(spec, (2, 3, 5))), (2, 3, 5)),
            (find_standard_involution(m2), (1, 0, 0)),
        ]
        if spec.kind == "Fp":
            (found,) = all_standard_involutions(m2)
            cases.append((found, (1, 0, 0)))
        for inv, traces in cases:
            assert isinstance(inv, AlgebraMap)
            assert inv.source is inv.target is inv.algebra
            assert inv == _conjugation(inv.algebra, traces)
            assert verify_involution(inv)[0] and verify_standard(inv)[0]
    # the image checks are AlgebraMap's
    alg = m2_adjoint(GF(3)).algebra
    with pytest.raises(ValueError, match="one image per source basis element"):
        Involution(alg, [alg.one()])
    with pytest.raises(SpecMismatch, match="image outside the target algebra"):
        Involution(alg, [matrix_algebra(GF(5), 2).one()] * 4)


def test_quaternion_table():
    spec = QQ
    a, b = spec.element(2), spec.element(3)
    alg = quaternion_algebra(spec, a, b)
    ok, _ = alg.verify_associativity()
    assert ok
    one, i, j, k = (alg.basis(t) for t in range(4))
    assert i * i == alg.scalar(a)
    assert j * j == alg.scalar(b)
    assert i * j == k
    assert j * i == -k
    assert i * k == j * a
    assert k * i == -(j * a)
    assert j * k == -(i * b)
    assert k * j == i * b
    assert k * k == alg.scalar(-(a * b))
    with pytest.raises(UnsupportedRing):
        quaternion_algebra(QQ, QQ.element(0), QQ.element(1))
    with pytest.raises(UnsupportedRing):
        quaternion_algebra(ZZ, ZZ.element(2), ZZ.element(1))
    with pytest.raises(UnsupportedRing):
        quaternion_algebra(GF(2), GF(2).one, GF(2).one)


def test_quaternion_norm_form_and_multiplicativity():
    spec = QQ
    for a_val, b_val in ((-1, -1), (2, 3), (-1, 5)):
        a, b = spec.element(a_val), spec.element(b_val)
        inv = quaternion_conjugation(spec, a, b)
        alg = inv.algebra
        rng = random.Random(a_val * 13 + b_val)
        for _ in range(200):
            x = random_algebra_element(alg, rng, span=7)
            y = random_algebra_element(alg, rng, span=7)
            nx = norm(inv, x)
            assert nx == quaternion_norm_form(spec, a, b, x.coeffs)
            assert norm(inv, x * y) == nx * norm(inv, y)


def test_m2_adjoint_norm_is_determinant():
    spec = GF(5)
    inv = m2_adjoint(spec)
    alg = inv.algebra
    rng = random.Random(17)
    for _ in range(200):
        x = random_algebra_element(alg, rng)
        assert norm(inv, x) == element_to_matrix(alg, x, 2).det()
        assert trace(inv, x) == element_to_matrix(alg, x, 2).char_poly().coeffs[1] * -1


def test_pair_swap_exchanges_components():
    spec = GF(3)
    inv = pair_swap(spec)
    alg = inv.algebra
    line = rank_one(spec)
    for r in spec.elements():
        for s in spec.elements():
            x = product_element(alg, line, line, (r,), (s,))
            swapped = product_element(alg, line, line, (s,), (r,))
            assert inv.apply(x) == swapped
            assert norm(inv, x) == r * s


def test_involution_matrix_squares_to_identity():
    for inv in standard_examples():
        mat = inv.matrix()
        n = inv.algebra.rank
        assert mat * mat == SquareMatrix.identity(inv.algebra.spec, n)


def test_involution_json_round_trip():
    for inv in standard_examples():
        if inv.algebra.spec.kind == "Q":
            continue
        back = Involution.from_json(inv.to_json())
        assert back == inv
    # Q case too: json strings carry fractions exactly
    inv = quaternion_conjugation(QQ, QQ.element(-1), QQ.element(5))
    assert Involution.from_json(inv.to_json()) == inv


# -- raw-value checks against the RingElement versions ------------------------


def _oracle_apply(inv, x):
    out = inv.algebra.zero()
    for c, im in zip(x.coeffs, inv.images):
        if not c.is_zero():
            out = out + im * c
    return out


def _oracle_verify_involution(inv):
    alg = inv.algebra
    if inv.images[0] != alg.one():
        return False, "basis element 0 is not fixed"
    for i in range(alg.rank):
        if _oracle_apply(inv, inv.images[i]) != alg.basis(i):
            return False, f"double application moves basis element {i}"
    for i in range(alg.rank):
        ei = alg.basis(i)
        for j in range(alg.rank):
            ej = alg.basis(j)
            lhs = _oracle_apply(inv, ei * ej)
            rhs = inv.images[j] * inv.images[i]
            if lhs != rhs:
                return False, f"product reversal fails on pair ({i}, {j})"
    return True, None


def _oracle_verify_standard(inv):
    alg = inv.algebra
    for i in range(alg.rank):
        x = alg.basis(i)
        if not (x * _oracle_apply(inv, x)).is_scalar():
            return False, x
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            x = alg.basis(i) + alg.basis(j)
            if not (x * _oracle_apply(inv, x)).is_scalar():
                return False, x
    return True, None


def _random_value(spec, rng, span=4):
    if spec.kind == "Fp":
        return rng.randrange(spec.p)
    if spec.kind == "Q" and rng.random() < 0.3:
        return QQ.element(rng.randint(-span, span)) / QQ.element(rng.randint(1, span))
    return rng.randint(-span, span)


def _random_table(spec, k, rng):
    """A unital table with random products of non-identity basis elements."""
    unit = [[1 if l == j else 0 for l in range(k)] for j in range(k)]
    return StructureConstants(
        spec,
        [
            [
                unit[max(i, j)] if min(i, j) == 0
                else [_random_value(spec, rng) for _ in range(k)]
                for j in range(k)
            ]
            for i in range(k)
        ],
    )


def _oracle_algebras(spec, rng):
    """Rank 1 to 3: the line, quadratic, cubic and random tables."""
    algebras = [rank_one(spec)]
    for _ in range(3):
        t, n = (_random_value(spec, rng) for _ in range(2))
        algebras.append(QuadraticAlgebra(spec, t, n).structure())
    for _ in range(3):
        m, n = (_random_value(spec, rng) for _ in range(2))
        algebras.append(build_algebra(CubicCoefficients(spec, n, 0, m, n, 0, m)))
        b, c, y, z = (_random_value(spec, rng) for _ in range(4))
        algebras.append(build_algebra(CubicCoefficients(spec, b, c, 0, 0, y, z)))
    algebras += [_random_table(spec, k, rng) for k in (2, 3, 3)]
    return algebras


def _oracle_candidates(alg, found, rng):
    """Maps that fail each axiom in turn, pass them all, or are non-standard;
    `found` is a standard involution of alg, or None."""
    k = alg.rank
    ident = [alg.basis(i) for i in range(k)]
    out = [Involution(alg, ident)]
    if found is not None:
        out.append(found)
        images = list(found.images)
        images[-1] = images[-1] + alg.basis(k - 1)  # breaks self-inverse
        out.append(Involution(alg, images))
    for _ in range(4):
        # conjugation shape x -> t(x) - x with random traces: fixes 1 and
        # is self-inverse, so only product reversal and standardness can fail
        out.append(Involution(alg, [alg.one()] + [
            alg.scalar(_random_value(alg.spec, rng)) - alg.basis(i) for i in range(1, k)
        ]))
        rows = [[_random_value(alg.spec, rng) for _ in range(k)] for _ in range(k)]
        out.append(Involution(alg, rows))  # 1 is not fixed, as a rule
        out.append(Involution(alg, [alg.one()] + rows[1:]))
    return out


def _value_types(x):
    return [type(c.value) for c in x.coeffs]


def _assert_matches_oracle(inv, rng):
    """Compare apply, verify_involution and verify_standard with the oracle;
    returns (involution?, failure, standard?)."""
    alg = inv.algebra
    x = alg.element([_random_value(alg.spec, rng) for _ in range(alg.rank)])
    got_apply, want_apply = inv.apply(x), _oracle_apply(inv, x)
    assert got_apply == want_apply
    assert _value_types(got_apply) == _value_types(want_apply)
    ok, why = verify_involution(inv)
    assert (ok, why) == _oracle_verify_involution(inv), inv
    standard, witness = verify_standard(inv)
    want_standard, want_witness = _oracle_verify_standard(inv)
    assert (standard, witness) == (want_standard, want_witness), inv
    if witness is not None:
        assert _value_types(witness) == _value_types(want_witness)
    return ok, why, standard


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(5), GF(9973)], ids=repr)
def test_raw_involution_checks_match_ring_element_oracle(spec):
    rng = random.Random(f"oracle {spec!r}")
    seen = set()
    for alg in _oracle_algebras(spec, rng):
        for inv in _oracle_candidates(alg, find_standard_involution(alg), rng):
            seen.add((alg.rank, *_assert_matches_oracle(inv, rng)))
    assert {rank for rank, *_ in seen} == {1, 2, 3}
    verdicts = {(ok, standard) for _, ok, _, standard in seen}
    assert {(True, True), (True, False), (False, False)} <= verdicts
    failures = {why.split(" ")[0] for _, _, why, _ in seen if why}
    assert failures == {"basis", "double", "product"}


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(3), GF(5), GF(9973)], ids=repr)
def test_raw_involution_checks_on_built_in_examples(spec):
    rng = random.Random(f"examples {spec!r}")
    examples = [m2_adjoint(spec), pair_swap(spec)]
    if spec.characteristic() != 2:
        examples += [quaternion_conjugation(spec, -1, b) for b in (-1, 1)]
    for inv in examples:
        assert _assert_matches_oracle(inv, rng) == (True, None, True)
        alg = inv.algebra
        for candidate in _oracle_candidates(alg, inv, rng):
            _assert_matches_oracle(candidate, rng)
        for i in range(alg.rank):
            images = list(inv.images)
            images[i] = -images[i]
            _assert_matches_oracle(Involution(alg, images), rng)
