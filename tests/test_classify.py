import itertools
import random

import pytest

from lowrank import classify
from lowrank import (
    GF,
    QQ,
    CubicCase,
    GuardExceeded,
    SpecMismatch,
    UnsupportedRing,
    algebra_degree,
    build_algebra,
    classify_case,
    degree_product_check,
    direct_product,
    enumerate_cubic,
    exceptional_classes,
    form_from_commutative,
    is_isomorphic_bruteforce,
    matrix_algebra,
    mn_degree_probes,
    quadratic_census,
    quadratic_from_tuple,
    rank_one,
    square_class_equal,
    validate_relations,
    verify_main_theorem,
)


def test_census_counts_match_closed_form():
    # number of valid tuples over F_p is p^4 + p^2 - 1
    for p in (2, 3, 5):
        tuples = enumerate_cubic(GF(p))
        assert len(tuples) == p**4 + p**2 - 1
        # lexicographic and duplicate-free
        raw = [tuple(v.value for v in c.as_tuple()) for c in tuples]
        assert raw == sorted(set(raw))
        # the oracle: every one of the p^6 tuples that passes the relations
        scanned = [
            tup
            for tup in itertools.product(range(p), repeat=6)
            if validate_relations(GF(p), *tup)[0]
        ]
        assert raw == scanned


def test_census_guard():
    with pytest.raises(GuardExceeded):
        enumerate_cubic(GF(17))
    with pytest.raises(UnsupportedRing):
        enumerate_cubic(QQ)


def test_guard_override(monkeypatch):
    monkeypatch.setenv("LOWRANK_GUARD", "3")
    with pytest.raises(GuardExceeded):
        enumerate_cubic(GF(2))
    monkeypatch.setenv("LOWRANK_GUARD", "not a number")
    from lowrank import InputError

    with pytest.raises(InputError):
        enumerate_cubic(GF(2))
    monkeypatch.setenv("LOWRANK_GUARD", "24137569")
    assert len(enumerate_cubic(GF(17))) == 17**4 + 17**2 - 1


def test_bruteforce_isomorphism_is_equivalence():
    spec = GF(2)
    algebras = [build_algebra(c) for c in enumerate_cubic(spec)]
    # reflexive, with identity-like witnesses that verify
    for alg in algebras:
        ok, phi = is_isomorphic_bruteforce(alg, alg)
        assert ok and phi.verify_isomorphism()
    rng = random.Random(103)
    pairs = [
        (rng.randrange(len(algebras)), rng.randrange(len(algebras)))
        for _ in range(60)
    ]
    for i, j in pairs:
        fwd, _ = is_isomorphic_bruteforce(algebras[i], algebras[j])
        back, _ = is_isomorphic_bruteforce(algebras[j], algebras[i])
        assert fwd == back, f"symmetry fails on pair ({i}, {j})"
    # transitivity on a random sample of triples
    verdict = {}

    def iso(i, j):
        if (i, j) not in verdict:
            verdict[(i, j)] = is_isomorphic_bruteforce(algebras[i], algebras[j])[0]
        return verdict[(i, j)]

    for _ in range(40):
        i, j, k = (rng.randrange(len(algebras)) for _ in range(3))
        if iso(i, j) and iso(j, k):
            assert iso(i, k), f"transitivity fails on ({i}, {j}, {k})"


def test_isomorphism_invariants():
    spec = GF(3)
    tuples = enumerate_cubic(spec)
    algebras = [build_algebra(c) for c in tuples]
    rng = random.Random(107)
    found = 0
    while found < 25:
        i, j = rng.randrange(len(tuples)), rng.randrange(len(tuples))
        ok, phi = is_isomorphic_bruteforce(algebras[i], algebras[j])
        if not ok:
            continue
        found += 1
        case_i, case_j = classify_case(tuples[i]), classify_case(tuples[j])
        # commutativity transfers; the nilproduct table sits in both cases
        assert (case_i is CubicCase.EXCEPTIONAL) == (
            case_j is CubicCase.EXCEPTIONAL
        )
        if case_i is not CubicCase.EXCEPTIONAL:
            disc_i = form_from_commutative(tuples[i]).discriminant()
            disc_j = form_from_commutative(tuples[j]).discriminant()
            assert square_class_equal(disc_i, disc_j)
        assert phi.verify_isomorphism()


def test_field_and_split_algebra_not_isomorphic():
    # x^2 = x + 1 has no root in F2, so one algebra is a field and the
    # other splits; the search must certify the non-isomorphism
    spec = GF(2)
    field = quadratic_from_tuple(spec, 1, 1).structure()
    split = quadratic_from_tuple(spec, 1, 0).structure()
    ok, phi = is_isomorphic_bruteforce(field, split)
    assert not ok and phi is None
    with pytest.raises(SpecMismatch):
        is_isomorphic_bruteforce(field, quadratic_from_tuple(GF(3), 1, 1).structure())


def test_main_theorem_f2():
    report = verify_main_theorem(GF(2))
    assert report.theorem_holds()
    assert report.total == 64
    assert report.valid == 19
    counts = report.case_counts()
    assert counts == {"commutative": 15, "exceptional": 3, "nilproduct": 1}
    assert len(report.intersection) == 1
    assert all(v.is_zero() for v in report.intersection[0].as_tuple())
    payload = report.to_json()
    assert payload["theorem_holds"] is True
    assert payload["valid"] == 19
    assert len(payload["rows"]) == 19
    assert payload["rows"][0]["tuple"] == ["0", "0", "0", "0", "0", "0"]
    table = report.to_table()
    assert "theorem=holds" in table
    assert len(table.splitlines()) == 21


def test_main_theorem_f3():
    report = verify_main_theorem(GF(3))
    assert report.theorem_holds()
    assert report.valid == 89
    counts = report.case_counts()
    assert counts == {"commutative": 80, "exceptional": 8, "nilproduct": 1}
    # every exceptional row claims an involution
    for coeffs, case, has_inv in report.rows:
        if case is CubicCase.EXCEPTIONAL:
            assert has_inv, f"no involution found for {coeffs}"


def test_isomorphism_guard_precedes_enumeration(monkeypatch):
    def refuse(spec):
        raise AssertionError("enumerated before the isomorphism guard")

    monkeypatch.setattr(classify, "enumerate_cubic", refuse)
    with pytest.raises(GuardExceeded) as info:
        exceptional_classes(GF(7))
    assert str(info.value) == (
        "isomorphism search needs 117649 steps, over the limit of 15625; "
        "set LOWRANK_GUARD to override (unsafe)"
    )


def test_main_theorem_scans_once(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return enumerate_cubic(spec)

    monkeypatch.setattr(classify, "enumerate_cubic", counted)
    report = verify_main_theorem(GF(3))
    assert calls == [GF(3)]
    reps = [cls[0] for cls in exceptional_classes(GF(3))]
    assert report.representatives == reps


def test_census_tables_build_no_ring_elements(monkeypatch):
    """build_algebra, and an involution search that answers no, work on
    raw values: neither constructs a RingElement, by either constructor."""
    import sys

    from lowrank import find_standard_involution, rings

    built = []
    init = rings.RingElement.__init__
    trusted = rings._trusted

    def counted_init(self, spec, value):
        built.append(value)
        init(self, spec, value)

    def counted_trusted(spec, value):
        built.append(value)
        return trusted(spec, value)

    monkeypatch.setattr(rings.RingElement, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("lowrank") and getattr(module, "_trusted", None) is trusted:
            monkeypatch.setattr(module, "_trusted", counted_trusted)
    answered_no = 0
    for coeffs in enumerate_cubic(GF(5)):
        built.clear()
        alg = build_algebra(coeffs)
        assert built == [], f"build_algebra built elements for {coeffs}"
        if find_standard_involution(alg) is None:
            answered_no += 1
            assert built == [], f"a 'no' search built elements for {coeffs}"
    assert answered_no == 5**4 - 1  # commutative, save the zero table


def test_exceptional_classes_small_fields():
    for p in (2, 3):
        classes = exceptional_classes(GF(p))
        assert len(classes) == 2
        sizes = sorted(len(cls) for cls in classes)
        # the nilproduct table is alone; the rest of the family is one class
        assert sizes == [1, p**2 - 1]
        singleton = next(cls for cls in classes if len(cls) == 1)
        assert all(v.is_zero() for v in singleton[0].as_tuple())


def test_quadratic_census_odd_fields():
    report = quadratic_census(GF(5))
    assert len(report.classes) == 3
    assert report.square_class_count == 3
    assert report.partitions_agree()
    assert sum(len(cls) for cls in report.classes) == 25
    payload = report.to_json()
    assert payload["class_count"] == 3
    assert payload["partitions_agree"] is True
    assert "classes=3" in report.to_table()

    assert len(quadratic_census(GF(3)).classes) == 3
    report7 = quadratic_census(GF(7))
    assert len(report7.classes) == 3
    assert report7.partitions_agree()

    with pytest.raises(UnsupportedRing):
        quadratic_census(GF(2))
    with pytest.raises(UnsupportedRing):
        quadratic_census(GF(17))


def test_degree_product_additive_case():
    spec = GF(3)
    a = matrix_algebra(spec, 2)
    b = rank_one(spec)
    report = degree_product_check(a, b)
    assert (report.deg_a, report.deg_b, report.deg_product) == (2, 1, 3)
    assert report.additive
    assert report.witness is not None
    assert not report.exhausted
    payload = report.to_json()
    assert payload["additive"] is True
    assert payload["witness"] is not None


def test_degree_product_defect_case():
    # two split quadratic algebras over F2: every element satisfies a
    # polynomial of degree 2 whose roots lie in {0, 1}, so no pair has
    # coprime minimal polynomials and the degree stays at 2
    spec = GF(2)
    a = direct_product(rank_one(spec), rank_one(spec))
    report = degree_product_check(a, a)
    assert (report.deg_a, report.deg_b) == (2, 2)
    assert report.deg_product == 2
    assert not report.additive
    assert report.witness is None
    assert report.exhausted
    assert report.to_json()["no_witness_certified"] is True


def test_degree_product_split_pair():
    spec = GF(3)
    a = rank_one(spec)
    report = degree_product_check(a, a)
    # distinct scalars in the two slots give a split quadratic element
    assert (report.deg_a, report.deg_b, report.deg_product) == (1, 1, 2)
    assert report.additive
    with pytest.raises(SpecMismatch):
        degree_product_check(rank_one(GF(2)), rank_one(GF(3)))


def test_probes():
    report = mn_degree_probes(GF(3), 2)
    assert report.all_passed()
    names = [name for name, _, _ in report.checks]
    assert names == [
        "adjugate_standard",
        "matrix_degree_2",
        "bruteforce_search_finds",
        "pair_swap_standard",
        "pair_degree_2",
    ]
    report = mn_degree_probes(GF(2), 3)
    assert report.all_passed()
    names = [name for name, _, _ in report.checks]
    # -1 = 1 over F2, so the degree-3 witness is a companion matrix and
    # the whole nine-element-squared algebra is scanned as well
    assert "companion_degree_3" in names
    assert "exhaustive_degree_3" in names
    payload = report.to_json()
    assert payload["all_passed"] is True
    assert all(row["passed"] for row in payload["checks"])
    # larger fields skip the exhaustive scans but keep the spot checks
    assert mn_degree_probes(GF(5), 2).all_passed()
    report5 = mn_degree_probes(GF(5), 3)
    assert report5.all_passed()
    assert "distinct_diagonal_degree_3" in [n for n, _, _ in report5.checks]
    with pytest.raises(UnsupportedRing):
        mn_degree_probes(QQ, 2)
    with pytest.raises(UnsupportedRing):
        mn_degree_probes(GF(3), 4)


def test_degree_of_census_representatives():
    # in each F2 exceptional class the degree is an invariant
    for cls in exceptional_classes(GF(2)):
        degs = {algebra_degree(build_algebra(c)) for c in cls}
        assert len(degs) == 1
