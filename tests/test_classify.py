import io
import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from lowrank import classify
from lowrank import (
    GF,
    CubicCoefficients,
    StructureConstants,
    QQ,
    ZZ,
    CubicCase,
    GuardExceeded,
    QuadraticAlgebra,
    RelationViolation,
    SpecMismatch,
    UnsupportedRing,
    algebra_degree,
    build_algebra,
    classify_case,
    degree_product_check,
    direct_product,
    enumerate_cubic,
    exceptional_classes,
    exceptional_normal_form,
    form_from_commutative,
    is_isomorphic_bruteforce,
    matrix_algebra,
    mn_degree_probes,
    quadratic_census,
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


def literal_violations(spec, b, c, m, n, y, z):
    """The eight coefficient relations written out in RingElement
    arithmetic, an oracle independent of the raw-value check: the names
    of those that fail, in the order of RELATION_NAMES."""
    b, c, m, n, y, z = (spec.element(v) for v in (b, c, m, n, y, z))
    zero = spec.element(0)
    holds = [
        ("cm = 0", c * m == zero),
        ("cn = 0", c * n == zero),
        ("ny = 0", n * y == zero),
        ("my = 0", m * y == zero),
        ("bm = mn", b * m == m * n),
        ("mn = nz", m * n == n * z),
        ("n^2 = bn", n * n == b * n),
        ("m^2 = mz", m * m == m * z),
    ]
    return [name for name, ok in holds if not ok]


def random_tuples(draw, count):
    """count random six-tuples from draw, half of them drawn from the two
    valid families (b, c, 0, 0, y, z) and (n, 0, m, n, 0, m)."""
    out = []
    for k in range(count):
        b, c, m, n, y, z = (draw() for _ in range(6))
        if k % 4 == 1:
            out.append((b, c, 0, 0, y, z))
        elif k % 4 == 3:
            out.append((n, 0, m, n, 0, m))
        else:
            out.append((b, c, m, n, y, z))
    return out


def test_relation_check_matches_literal_relations():
    """validate_relations, the constructor and the census constructor
    CubicCoefficients._canonical all agree with the relations written
    out literally, names and order, on every tuple of GF(3)^6 and on
    random tuples over ZZ, QQ and a large prime field."""
    rng = random.Random(18)
    big = GF(1000003)
    cases = [(GF(3), tup) for tup in itertools.product(range(3), repeat=6)]
    cases += [
        (ZZ, tup) for tup in random_tuples(lambda: rng.randint(-4, 4), 400)
    ]
    cases += [
        (QQ, tup)
        for tup in random_tuples(
            lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)), 400
        )
    ]
    cases += [
        (big, tup)
        for tup in random_tuples(
            lambda: rng.choice((0, 1, -1, rng.randrange(-big.p, 2 * big.p))), 400
        )
    ]
    seen_valid = seen_violated = 0
    for spec, tup in cases:
        expected = literal_violations(spec, *tup)
        assert validate_relations(spec, *tup) == (not expected, expected), (spec, tup)
        canonical = tuple(map(spec.value, tup))
        if expected:
            seen_violated += 1
            for build in (
                lambda: CubicCoefficients(spec, *tup),
                lambda: CubicCoefficients._canonical(spec, canonical),
            ):
                with pytest.raises(RelationViolation) as info:
                    build()
                assert info.value.violations == expected, (spec, tup)
        else:
            seen_valid += 1
            built = CubicCoefficients._canonical(spec, canonical)
            assert built == CubicCoefficients(spec, *tup)
    assert seen_valid > 300 and seen_violated > 900


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
    for _ in range(95):  # 25 of these draws are isomorphic pairs
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
    assert found >= 25


def test_field_and_split_algebra_not_isomorphic():
    # x^2 = x + 1 has no root in F2, so one algebra is a field and the
    # other splits; the search must certify the non-isomorphism
    spec = GF(2)
    field = QuadraticAlgebra(spec, 1, 1).structure()
    split = QuadraticAlgebra(spec, 1, 0).structure()
    ok, phi = is_isomorphic_bruteforce(field, split)
    assert not ok and phi is None
    with pytest.raises(SpecMismatch):
        is_isomorphic_bruteforce(field, QuadraticAlgebra(GF(3), 1, 1).structure())


# The scanning searches the solving ones replaced, kept as the oracle:
# they try every v (rank 3, gamma = 0) and every (u0, u1) (rank 2) in
# lexicographic order and return the first map that passes.


def _scan_phi(s, u, v, p):
    return (
        (s[0] + s[1] * u[0] + s[2] * v[0]) % p,
        (s[1] * u[1] + s[2] * v[1]) % p,
        (s[1] * u[2] + s[2] * v[2]) % p,
    )


def _scan_rank3(ta, mul, p):
    s11, s12 = ta[1][1], ta[1][2]
    s21, s22 = ta[2][1], ta[2][2]
    vecs = list(itertools.product(range(p), repeat=3))
    gamma = s11[2] % p
    for u in vecs:
        uu = mul(u, u)
        if gamma:
            inv = pow(gamma, -1, p)
            v = tuple(
                ((uu[idx] - (s11[0] if idx == 0 else 0) - s11[1] * u[idx]) * inv) % p
                for idx in range(3)
            )
            candidates = (v,)
        else:
            if uu != _scan_phi(s11, u, (0, 0, 0), p):
                continue
            candidates = vecs
        for v in candidates:
            if mul(u, v) != _scan_phi(s12, u, v, p):
                continue
            if mul(v, u) != _scan_phi(s21, u, v, p):
                continue
            if mul(v, v) != _scan_phi(s22, u, v, p):
                continue
            if (u[1] * v[2] - u[2] * v[1]) % p == 0:
                continue
            return u, v
    return None


def _scan_rank2(ta, mul, p):
    s11 = ta[1][1]
    for u in itertools.product(range(p), repeat=2):
        if u[1] % p == 0:
            continue
        uu = mul(u, u)
        want = ((s11[0] + s11[1] * u[0]) % p, (s11[1] * u[1]) % p)
        if uu == want:
            return (u,)
    return None


def _same_search(a, b):
    """The solving search and the scanning oracle return the same value."""
    p = a.spec.p
    solve, scan = {
        2: (classify._search_rank2, _scan_rank2),
        3: (classify._search_rank3, _scan_rank3),
    }[a.rank]
    got = solve(a._values, b._values, p)
    want = scan(a._values, b._mul_values, p)
    assert got == want, f"{a._values} -> {b._values}: {got} != {want}"
    return got


def _random_unital_table(rng, p, gamma_zero):
    """A rank-3 unital table over GF(p) with random products of e1 and
    e2: in general neither associative nor commutative."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    table = [
        [basis[i + j] if 0 in (i, j) else None for j in range(3)] for i in range(3)
    ]
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        table[i][j] = tuple(rng.choice((0, 0, rng.randrange(p))) for _ in range(3))
    if gamma_zero:
        table[1][1] = table[1][1][:2] + (0,)
    return StructureConstants(GF(p), table)


def _rebased(alg, u, v):
    """alg in the basis (1, u, v); e1 -> u, e2 -> v maps it onto alg."""
    p = alg.spec.p
    det = (u[1] * v[2] - u[2] * v[1]) % p
    inv = pow(det, -1, p)

    def coords(w):
        c1 = (v[2] * w[1] - v[1] * w[2]) * inv % p
        c2 = (u[1] * w[2] - u[2] * w[1]) * inv % p
        return ((w[0] - c1 * u[0] - c2 * v[0]) % p, c1, c2)

    new = ((1, 0, 0), u, v)
    table = [
        [coords(alg._mul_values(new[i], new[j])) for j in range(3)]
        for i in range(3)
    ]
    return StructureConstants(alg.spec, table)


def test_solved_search_matches_the_scan_on_census_pairs():
    # every ordered pair over GF(2) and GF(3), then random pairs over
    # GF(5) and GF(7) (the guard refuses rank 3 at p >= 7, so the private
    # searches are called directly).  The all-pairs part reaches the
    # "every u0 or none" cases of the u0 solve: gamma != 0 at p = 3, where
    # the linear condition's slope 3 d vanishes, and gamma = 0 at p = 2,
    # where the residue's slope 2 u_k does
    found = 0
    for p in (2, 3):
        algebras = [build_algebra(c) for c in enumerate_cubic(GF(p))]
        for a in algebras:
            for b in algebras:
                found += _same_search(a, b) is not None
    rng = random.Random(211)
    for p, count in ((5, 300), (7, 60)):
        algebras = [build_algebra(c) for c in enumerate_cubic(GF(p))]
        for _ in range(count):
            a, b = rng.choice(algebras), rng.choice(algebras)
            found += _same_search(a, b) is not None
    assert found > 0


def test_solved_search_matches_the_scan_on_random_unital_tables():
    # the solving uses only bilinearity and the unit, so tables outside
    # the census (non-associative, non-commutative) must agree too; each
    # table is paired with itself in a random basis, so most pairs have
    # many witnesses and the first one in order is what is compared
    rng = random.Random(223)
    for p, count in ((2, 60), (3, 120), (5, 120)):
        vecs = list(itertools.product(range(p), repeat=3))
        bases = [
            (u, v)
            for u in vecs
            for v in vecs
            if (u[1] * v[2] - u[2] * v[1]) % p
        ]
        for draw in range(count):
            a = _random_unital_table(rng, p, gamma_zero=draw % 2 == 0)
            b = _rebased(a, *rng.choice(bases))
            assert _same_search(a, b) is not None
            assert _same_search(b, a) is not None
            _same_search(a, _random_unital_table(rng, p, gamma_zero=draw % 3 == 0))
    # p = 7, gamma != 0: the det test drops some w = (0, u1, u2) and
    # keeps others, and each kept w gives its one solved u0
    p = 7
    vecs = list(itertools.product(range(p), repeat=3))
    for draw in range(40):
        a = _random_unital_table(rng, p, gamma_zero=False)
        while a._values[1][1][2] == 0:
            a = _random_unital_table(rng, p, gamma_zero=False)
        u, v = rng.choice(vecs), rng.choice(vecs)
        while (u[1] * v[2] - u[2] * v[1]) % p == 0:
            u, v = rng.choice(vecs), rng.choice(vecs)
        assert _same_search(a, _rebased(a, u, v)) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=False))
    # p = 7, gamma = 0: u0 is solved from the residue's coordinate k with
    # u_k != 0 rather than scanned
    for draw in range(20):
        a = _random_unital_table(rng, p, gamma_zero=True)
        u, v = rng.choice(vecs), rng.choice(vecs)
        while (u[1] * v[2] - u[2] * v[1]) % p == 0:
            u, v = rng.choice(vecs), rng.choice(vecs)
        assert _same_search(a, _rebased(a, u, v)) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=True))
    # p = 11, gamma != 0, every other table with e1 e2 != e2 e1: the
    # search reads u v, v u and v v off the target's e1 e2 and e2 e1
    # cells separately, so the two must not be confused
    p = 11
    vecs = list(itertools.product(range(p), repeat=3))
    noncommutative = 0
    for draw in range(20):
        a = _random_unital_table(rng, p, gamma_zero=False)
        while a._values[1][1][2] == 0 or (
            draw % 2 == 0 and a._values[1][2] == a._values[2][1]
        ):
            a = _random_unital_table(rng, p, gamma_zero=False)
        noncommutative += a._values[1][2] != a._values[2][1]
        u, v = rng.choice(vecs), rng.choice(vecs)
        while (u[1] * v[2] - u[2] * v[1]) % p == 0:
            u, v = rng.choice(vecs), rng.choice(vecs)
        assert _same_search(a, _rebased(a, u, v)) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=False))
    assert noncommutative >= 10


def test_solved_rank2_search_matches_the_scan():
    # every ordered pair of (t, n) tables over GF(2), GF(3), GF(5), and
    # random pairs for primes up to 113
    for p in (2, 3, 5):
        tables = [
            QuadraticAlgebra(GF(p), t, n).structure()
            for t in range(p)
            for n in range(p)
        ]
        for a in tables:
            for b in tables:
                _same_search(a, b)
    rng = random.Random(227)
    found = 0
    for p in (7, 11, 13, 29, 53, 97, 113):
        for _ in range(12):
            a, b = (
                QuadraticAlgebra(GF(p), rng.randrange(p), rng.randrange(p))
                for _ in range(2)
            )
            found += _same_search(a.structure(), b.structure()) is not None
    assert found > 0


def _count_kernel_calls(monkeypatch):
    """Count the calls into the table's product and linear-extension
    loops (_mul_values and _combine_values)."""
    calls = []
    for name in ("_mul_values", "_combine_values"):
        kernel = getattr(StructureConstants, name)

        def counted(self, u, v, kernel=kernel):
            calls.append(1)
            return kernel(self, u, v)

        monkeypatch.setattr(StructureConstants, name, counted)
    return calls


def test_search_work_counts(monkeypatch):
    calls = _count_kernel_calls(monkeypatch)
    # rank 2, not isomorphic (T^2 = 0 against T^2 = T) at p = 113: the
    # scan made p(p - 1) = 12656 kernel calls, the solve about 2p
    p = 113
    nil = QuadraticAlgebra(GF(p), 0, 0).structure()
    split = QuadraticAlgebra(GF(p), 1, 0).structure()
    assert is_isomorphic_bruteforce(nil, split) == (False, None)
    assert len(calls) <= 2 * p
    # e1 * e1 is read off the target's table and (0, u1)^2 = u1^2 e1^2,
    # so the search makes no kernel call
    assert len(calls) == 0
    # rank 3, gamma = 0: the zero table against the tuple
    # (0, 0, 0, 0, 0, 1) over GF(5), not isomorphic; the scan made 1200
    scan_calls = 1200
    zero, other = (
        build_algebra(CubicCoefficients(GF(5), *tup))
        for tup in ((0,) * 6, (0, 0, 0, 0, 0, 1))
    )
    assert zero._values[1][1][2] == 0
    calls.clear()
    assert is_isomorphic_bruteforce(zero, other) == (False, None)
    assert len(calls) < scan_calls
    # squaring each w = (0, u1, u2) once and reading L_u, R_u's unit
    # columns off u: 280 calls, where computing u * u for every u and
    # all six columns made 384
    assert len(calls) <= 280
    # u * v and v * u are combinations of the columns of L_u and R_u
    # rather than kernel calls: 120
    assert len(calls) <= 120
    # every product is read off the target's four products of e1 and e2
    assert len(calls) == 0
    # rank 3, gamma != 0: e1^2 = e2 in the source (0, 1, 0, 0, 0, 0).
    # Against the zero table every w * w is 0, so det(u, v) vanishes for
    # every w and the search ends after the p^2 - 1 squares (u * u for
    # every u made 120 kernel calls, the squares alone p^2 - 1); against
    # (0, 0, 0, 0, 0, 1) only the w with nonzero det are looped over (200
    # calls before, then 40 with u * v, v * u and v * v read off w * w
    # and its companions).  Every product is now read off the target's
    # four products of e1 and e2, so neither search makes a kernel call
    p = 5
    source = build_algebra(CubicCoefficients(GF(p), 0, 1, 0, 0, 0, 0))
    assert source._values[1][1][2] != 0
    calls.clear()
    assert is_isomorphic_bruteforce(source, zero) == (False, None)
    assert len(calls) == 0
    calls.clear()
    assert is_isomorphic_bruteforce(source, other) == (False, None)
    assert len(calls) <= 104
    assert len(calls) <= 40
    assert len(calls) == 0
    # the e1 * e2 condition is linear in u0 once w is fixed, so each kept
    # w gives one candidate: at most p^2 - 1 reach the e1 * e2 check
    # (here 16), where a scan over every u0 made 80
    checks = []
    is_image = classify._is_image

    def counted_check(s, u, v, y, p):
        checks.append(1)
        return is_image(s, u, v, y, p)

    monkeypatch.setattr(classify, "_is_image", counted_check)
    assert is_isomorphic_bruteforce(source, other) == (False, None)
    assert len(checks) <= p * p - 1


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
    """One census enumerates its tuples once and takes its class
    representatives from one exceptional_classes call, which refuses at
    p = 7, where the report's representatives are None."""
    calls = []
    class_calls = []

    def counted(spec):
        calls.append(spec)
        return enumerate_cubic(spec)

    def counted_classes(spec):
        class_calls.append(spec.p)
        return exceptional_classes(spec)

    monkeypatch.setattr(classify, "enumerate_cubic", counted)
    monkeypatch.setattr(classify, "exceptional_classes", counted_classes)
    report = verify_main_theorem(GF(3))
    assert calls == [GF(3)]
    assert class_calls == [3]
    reps = [cls[0] for cls in exceptional_classes(GF(3))]
    assert report.representatives == reps
    assert verify_main_theorem(GF(7)).representatives is None
    assert class_calls == [3, 7]


def test_census_tables_build_no_ring_elements(ring_elements_built):
    """enumerate_cubic, classify_case, build_algebra, and an involution
    search, whether it answers no or yes, work on raw values: none
    constructs a RingElement, by either constructor.  Nor does a whole
    census with both of its writers."""
    from lowrank import find_standard_involution

    built = ring_elements_built
    census = enumerate_cubic(GF(5))
    assert len(census) == 5**4 + 5**2 - 1
    assert built == [], "enumerate_cubic built elements"
    answered_no = answered_yes = 0
    for coeffs in census:
        built.clear()
        classify_case(coeffs)
        assert built == [], f"classify_case built elements for {coeffs}"
        alg = build_algebra(coeffs)
        assert built == [], f"build_algebra built elements for {coeffs}"
        if find_standard_involution(alg) is None:
            answered_no += 1
            assert built == [], f"a 'no' search built elements for {coeffs}"
        else:
            answered_yes += 1
            assert built == [], f"a 'yes' search built elements for {coeffs}"
    assert answered_no == 5**4 - 1  # commutative, save the zero table
    assert answered_yes == 5**2  # the p^2 - 1 exceptional tables and the zero table
    built.clear()
    report = verify_main_theorem(GF(7))
    report.write_json(io.StringIO())
    report.write_table(io.StringIO())
    assert report.valid == 7**4 + 7**2 - 1
    assert built == [], "the GF(7) census or its report built elements"


def test_exceptional_classes_small_fields():
    for p in (2, 3):
        classes = exceptional_classes(GF(p))
        assert len(classes) == 2
        sizes = sorted(len(cls) for cls in classes)
        # the nilproduct table is alone; the rest of the family is one class
        assert sizes == [1, p**2 - 1]
        singleton = next(cls for cls in classes if len(cls) == 1)
        assert all(v.is_zero() for v in singleton[0].as_tuple())


def _exceptional_partition(tuples):
    """The brute-force oracle for exceptional_classes: the greedy
    partition of the non-commutative census tuples and the zero tuple
    by is_isomorphic_bruteforce."""
    family = [
        (coeffs, build_algebra(coeffs))
        for coeffs in tuples
        if classify_case(coeffs) is not CubicCase.COMMUTATIVE
    ]
    return [
        [coeffs for coeffs, _ in cls]
        for cls in classify._partition(
            family, lambda x, y: classify.is_isomorphic_bruteforce(x[1], y[1])[0]
        )
    ]


def test_exceptional_classes_match_bruteforce_partition(monkeypatch):
    """The closed-form classes are the brute-force partition's, member
    for member and in order, at p = 2, 3 and 5, and at p = 7 and 11 with
    the isomorphism cap lifted; every member's normal-form map verifies."""
    for p in (2, 3, 5, 7, 11):
        if p >= 7:
            monkeypatch.setenv("LOWRANK_GUARD", str(p**6))
        classes = exceptional_classes(GF(p))
        assert classes == _exceptional_partition(enumerate_cubic(GF(p)))
        for cls in classes:
            for coeffs in cls:
                _, phi = exceptional_normal_form(coeffs)
                assert phi.verify_isomorphism(), coeffs


def test_exceptional_classes_run_no_search(monkeypatch):
    """exceptional_classes and the census's representatives come from
    normal-form maps: no is_isomorphic_bruteforce call, where the greedy
    partition made 15 at p = 3 and 47 at p = 5."""
    calls = []
    search = classify.is_isomorphic_bruteforce

    def counted(a, b):
        calls.append(1)
        return search(a, b)

    monkeypatch.setattr(classify, "is_isomorphic_bruteforce", counted)
    for p, before in ((3, 15), (5, 47)):
        calls.clear()
        _exceptional_partition(enumerate_cubic(GF(p)))
        assert len(calls) == before
        calls.clear()
        exceptional_classes(GF(p))
        assert verify_main_theorem(GF(p)).representatives is not None
        assert calls == []


def test_certificate_checks_survive_optimized_mode():
    """Under python -O, which strips assert statements, a witness that
    fails verify_isomorphism, or an involution that fails
    verify_involution, is still refused."""
    code = textwrap.dedent(
        """
        import lowrank.involutions
        from lowrank import GF, ZZ, CubicCoefficients, QuadraticAlgebra, build_algebra
        from lowrank import complete_square, exceptional_normal_form
        from lowrank import is_isomorphic_2unit, is_isomorphic_bruteforce
        from lowrank import is_isomorphic_over_z, standard_involution_exceptional
        from lowrank.algebra import AlgebraMap

        AlgebraMap.verify_isomorphism = lambda self: False
        lowrank.involutions.verify_involution = lambda inv: (False, "patched")
        coeffs = CubicCoefficients(GF(3), 1, 0, 0, 1, 0, 0)
        alg = build_algebra(coeffs)
        q = QuadraticAlgebra(GF(5), 1, 1)
        qz = QuadraticAlgebra(ZZ, 1, 1)
        for check in (
            lambda: is_isomorphic_bruteforce(alg, alg),
            lambda: exceptional_normal_form(coeffs),
            lambda: is_isomorphic_2unit(q, q),
            lambda: complete_square(q),
            lambda: is_isomorphic_over_z(qz, qz),
            lambda: standard_involution_exceptional(coeffs),
        ):
            try:
                check()
            except AssertionError as exc:
                print("refused:", exc)
            else:
                print("returned")
        """
    )
    src = os.path.dirname(os.path.dirname(classify.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "refused: search returned a bad witness\n"
        "refused: normal-form map failed verification\n"
        "refused: affine witness map failed verification\n"
        "refused: affine witness map failed verification\n"
        "refused: affine witness map failed verification\n"
        "refused: exceptional table has no verified standard involution\n"
    )


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
        "standard_involution_found",
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
    # larger fields skip the exhaustive scans but keep the spot checks;
    # the forced-candidate involution search runs at every p
    for p in (5, 7):
        report = mn_degree_probes(GF(p), 2)
        assert report.all_passed()
        assert "standard_involution_found" in [n for n, _, _ in report.checks]
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
