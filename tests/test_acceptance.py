"""End-to-end acceptance suite.

Each test is one numbered criterion, checked at full stated scale with
exact arithmetic, and prints a single PASS line (with the elapsed time
where the criterion bounds it).  Nothing here trusts a cached verdict:
identities are recomputed from first principles inside the test.
"""

import itertools
import random
import time
from fractions import Fraction

from lowrank import (
    GF,
    QQ,
    ZZ,
    BinaryCubicForm,
    CubicCase,
    CubicCoefficients,
    GeneralCubicTable,
    QuadraticAlgebra,
    RelationViolation,
    SquareMatrix,
    WrongCase,
    artin_schreier_class_count,
    build_algebra,
    char_poly_exceptional,
    classify_case,
    commutative_from_form,
    degree_product_check,
    direct_product,
    enumerate_cubic,
    exceptional_classes,
    exceptional_witness,
    find_standard_involution,
    form_from_commutative,
    gl2_act,
    is_isomorphic_bruteforce,
    is_isomorphic_over_z,
    left_regular_rep,
    m2_adjoint,
    matrix_algebra,
    matrix_rep,
    matrix_to_element,
    min_poly,
    pair_swap,
    quadratic_census,
    quaternion_algebra,
    quaternion_conjugation,
    quaternion_norm_form,
    rank_one,
    trace,
    norm,
    validate_relations,
    verify_involution,
    verify_standard,
)


def _raw_reduced_structure(spec, b, c, m, n, y, z):
    """The rank-3 table with the four pinned scalars filled in, built
    without any relation checking."""
    return GeneralCubicTable(
        spec,
        a=-(spec.element(c) * spec.element(z)),
        b=b,
        c=c,
        d=spec.element(c) * spec.element(y),
        l=spec.element(c) * spec.element(y) - spec.element(n) * spec.element(z),
        m=m,
        n=n,
        x=-(spec.element(b) * spec.element(y)),
        y=y,
        z=z,
    ).structure()


def _random_valid_z_tuple(rng, span):
    if rng.random() < 0.5:
        b, c, y, z = (rng.randint(-span, span) for _ in range(4))
        return (b, c, 0, 0, y, z)
    m, n = rng.randint(-span, span), rng.randint(-span, span)
    return (n, 0, m, n, 0, m)


def test_criterion_1_universal_table_soundness():
    started = time.perf_counter()
    checked = 0
    for p in (2, 3):
        spec = GF(p)
        for tup in itertools.product(range(p), repeat=6):
            ok, _ = validate_relations(spec, *tup)
            alg = _raw_reduced_structure(spec, *tup)
            assoc, _ = alg.verify_associativity()
            assert ok == assoc, (
                f"tuple {tup} over F_{p}: relations say {ok}, "
                f"associativity says {assoc}"
            )
            if ok:
                build_algebra(CubicCoefficients(spec, *tup))
            else:
                try:
                    CubicCoefficients(spec, *tup)
                except RelationViolation:
                    pass
                else:
                    raise AssertionError(f"invalid tuple {tup} accepted")
            checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 64 + 729
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.2f}s, over the 10s bound"
    print(f"criterion 1: PASS ({checked} tuples, {elapsed:.2f}s)")


def test_criterion_2_main_theorem_census():
    started = time.perf_counter()
    for p in (2, 3):
        spec = GF(p)
        tuples = enumerate_cubic(spec)
        both = []
        for coeffs in tuples:
            case = classify_case(coeffs)
            inv = find_standard_involution(build_algebra(coeffs))
            if inv is not None:
                ok, failure = verify_involution(inv)
                assert ok, f"{coeffs}: claimed involution fails: {failure}"
                ok, witness = verify_standard(inv)
                assert ok, f"{coeffs}: involution is not standard at {witness}"
            commutative = case is not CubicCase.EXCEPTIONAL
            assert commutative or inv is not None, (
                f"{coeffs} over F_{p} is neither commutative nor "
                "involution-bearing"
            )
            if commutative and inv is not None:
                both.append(coeffs)
        assert len(both) == 1, f"intersection over F_{p}: {both}"
        assert all(v.is_zero() for v in both[0].as_tuple())
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s, over the 30s bound"
    print(f"criterion 2: PASS (F2 and F3 censuses, {elapsed:.2f}s)")


def test_criterion_3_involution_iff_witness():
    for p in (2, 3):
        spec = GF(p)
        for coeffs in enumerate_cubic(spec):
            has_inv = find_standard_involution(build_algebra(coeffs)) is not None
            try:
                exceptional_witness(coeffs)
                has_witness = True
            except WrongCase:
                has_witness = False
            assert has_inv == has_witness, (
                f"{coeffs} over F_{p}: involution {has_inv}, "
                f"witness {has_witness}"
            )
    print("criterion 3: PASS (biconditional on all valid F2 and F3 tuples)")


def test_criterion_4_matrix_representation():
    rng = random.Random(20260819)
    for _ in range(1000):
        tup = _random_valid_z_tuple(rng, 10)
        coeffs = CubicCoefficients(ZZ, *tup)
        b, c, m, n, y, z = coeffs.as_tuple()
        mat_i, mat_j = matrix_rep(coeffs)
        ident = SquareMatrix.identity(ZZ, 3)
        assert mat_i * mat_i == ident * (-(c * z)) + mat_i * b + mat_j * c
        assert mat_i * mat_j == ident * (c * y)
        assert mat_j * mat_i == ident * (c * y - b * m) + mat_i * m + mat_j * n
        assert mat_j * mat_j == ident * (-(b * y)) + mat_i * y + mat_j * z
    print("criterion 4: PASS (1000 random integer tables, identities exact)")


def test_criterion_5_case_e_char_poly():
    rng = random.Random(5)
    count = 0
    while count < 500:
        m = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        n = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if m == 0 and n == 0:
            continue
        coeffs = CubicCoefficients(QQ, n, 0, m, n, 0, m)
        alg = build_algebra(coeffs)
        p, q, r = (
            QQ.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            for _ in range(3)
        )
        closed = char_poly_exceptional(coeffs, (p, q, r))
        x = alg.element([p + r * coeffs.n, -r, q])
        engine = left_regular_rep(x).char_poly()
        assert closed == engine, (
            f"closed form {closed} != engine {engine} "
            f"for m={m}, n={n}, element ({p}, {q}, {r})"
        )
        count += 1
    print("criterion 5: PASS (500 random rational case-E elements)")


def test_criterion_6_quadratic_classification():
    report = quadratic_census(GF(5))
    assert len(report.classes) == 3
    assert report.partitions_agree()
    assert sum(len(cls) for cls in report.classes) == 25
    rng = random.Random(6)
    for _ in range(200):
        t, n = rng.randint(-20, 20), rng.randint(-20, 20)
        k = rng.randint(-10, 10)
        a = QuadraticAlgebra(ZZ, t, n)
        b = QuadraticAlgebra(ZZ, t - 2 * k, n - k * t + k * k)
        disc_a = a.t * a.t - 4 * a.n
        disc_b = b.t * b.t - 4 * b.n
        assert disc_a == disc_b
        ok, phi = is_isomorphic_over_z(a, b)
        assert ok, f"disc-equal pair ({t},{n}) and shift k={k} not recognized"
        assert phi.verify_isomorphism()
    print("criterion 6: PASS (F5 partition = disc partition; 200 Z witnesses)")


def test_criterion_7_char_2():
    spec = GF(2)
    field = QuadraticAlgebra(spec, 1, 1).structure()
    split = QuadraticAlgebra(spec, 1, 0).structure()
    ok, _ = is_isomorphic_bruteforce(field, split)
    assert not ok

    # independent image enumeration over F2
    image_f2 = {(r + r * r) % 2 for r in range(2)}
    assert image_f2 == {0}
    cosets_f2 = {frozenset((x + i) % 2 for i in image_f2) for x in range(2)}
    assert len(cosets_f2) == 2
    assert artin_schreier_class_count(2) == len(cosets_f2)

    # independent image enumeration over F4 = F2(w), w^2 = w + 1,
    # elements encoded as pairs (a0, a1) = a0 + a1 w
    def mul4(a, b):
        a0, a1 = a
        b0, b1 = b
        return ((a0 * b0 + a1 * b1) % 2, (a0 * b1 + a1 * b0 + a1 * b1) % 2)

    def add4(a, b):
        return ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)

    elements = [(a0, a1) for a0 in range(2) for a1 in range(2)]
    image_f4 = {add4(r, mul4(r, r)) for r in elements}
    assert image_f4 == {(0, 0), (1, 0)}
    cosets_f4 = {
        frozenset(add4(x, i) for i in image_f4) for x in elements
    }
    assert len(cosets_f4) == 2
    assert artin_schreier_class_count(4) == len(cosets_f4)
    print("criterion 7: PASS (F2 non-isomorphism; class counts 2 and 2)")


def test_criterion_8_involution_suites():
    rng = random.Random(8)
    for a_val, b_val in ((-1, -1), (2, 3), (-1, 5)):
        alg = quaternion_algebra(QQ, a_val, b_val)
        conj = quaternion_conjugation(QQ, a_val, b_val)
        a, b = QQ.element(a_val), QQ.element(b_val)
        for _ in range(300):
            coeffs = [
                QQ.element(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for _ in range(4)
            ]
            x = alg.element(coeffs)
            p, q, r, s = coeffs
            want = p * p - a * q * q - b * r * r + a * b * s * s
            nr = norm(conj, x)
            assert nr == want, f"norm of {coeffs} in ({a_val},{b_val})"
            assert nr == quaternion_norm_form(QQ, a_val, b_val, coeffs)
            tr = trace(conj, x)
            zero = alg.zero()
            assert x * x - x * tr + alg.one() * nr == zero
    for spec in (GF(3), QQ):
        for inv in (m2_adjoint(spec), pair_swap(spec)):
            assert verify_involution(inv)[0]
            assert verify_standard(inv)[0]
    print("criterion 8: PASS (3 quaternion suites x 300; adjoint and swap)")


def test_criterion_9_binary_cubic_forms():
    rng = random.Random(9)

    def random_form():
        return BinaryCubicForm(
            QQ, *[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
        )

    def random_invertible():
        while True:
            g = SquareMatrix(
                QQ,
                [
                    [QQ.element(Fraction(rng.randint(-5, 5), rng.randint(1, 5))) for _ in range(2)]
                    for _ in range(2)
                ],
            )
            if g.det().is_unit():
                return g

    for _ in range(500):
        g, form = random_invertible(), random_form()
        d = g.det()
        assert gl2_act(g, form).discriminant() == d * d * form.discriminant()
    for _ in range(200):
        g, h, form = random_invertible(), random_invertible(), random_form()
        assert gl2_act(g * h, form) == gl2_act(g, gl2_act(h, form))
    spec = GF(3)
    count = 0
    for b, c, y, z in itertools.product(range(3), repeat=4):
        coeffs = CubicCoefficients(spec, b, c, 0, 0, y, z)
        assert commutative_from_form(form_from_commutative(coeffs)) == coeffs
        count += 1
    assert count == 81
    print("criterion 9: PASS (500 covariance, 200 action, 81 round trips)")


def test_criterion_10_field_classification():
    for p in (2, 3, 5):
        classes = exceptional_classes(GF(p))
        assert len(classes) == 2, f"F_{p}: {len(classes)} classes"
        singletons = [cls for cls in classes if len(cls) == 1]
        assert len(singletons) == 1
        assert all(v.is_zero() for v in singletons[0][0].as_tuple())
    print("criterion 10: PASS (2 classes over F2, F3, F5; nilproduct alone)")


def test_criterion_11_degree_probes():
    spec = GF(5)
    alg = matrix_algebra(spec, 3)
    diag = SquareMatrix(spec, [[0, 0, 0], [0, -1, 0], [0, 0, 1]])
    assert min_poly(matrix_to_element(alg, diag)).degree() == 3

    from lowrank import algebra_degree

    pair = direct_product(rank_one(GF(3)), rank_one(GF(3)))
    assert algebra_degree(pair) == 2

    boolean = direct_product(rank_one(GF(2)), rank_one(GF(2)))
    report = degree_product_check(boolean, boolean)
    assert (report.deg_a, report.deg_b) == (2, 2)
    assert report.deg_product == 2
    assert not report.additive
    assert report.exhausted
    print("criterion 11: PASS (diag degree 3; F x F degree 2; 2 != 4 certified)")
