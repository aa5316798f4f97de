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
    is_isomorphic_2unit,
    is_isomorphic_bruteforce,
    matrix_algebra,
    mn_degree_probes,
    quadratic_census,
    rank_one,
    rebase,
    square_class_equal,
    validate_relations,
    verify_main_theorem,
)

from common import count_kernel_calls


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
    """validate_relations and the constructor agree with the relations
    written out literally, names and order, on every tuple of GF(3)^6
    and on random tuples over ZZ, QQ and a large prime field."""
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
        if expected:
            seen_violated += 1
            with pytest.raises(RelationViolation) as info:
                CubicCoefficients(spec, *tup)
            assert info.value.violations == expected, (spec, tup)
        else:
            seen_valid += 1
            built = CubicCoefficients(spec, *tup)
            assert built._values == tuple(map(spec.value, tup))
    assert seen_valid > 300 and seen_violated > 900


def test_census_guard():
    with pytest.raises(GuardExceeded):
        enumerate_cubic(GF(17))
    with pytest.raises(UnsupportedRing):
        enumerate_cubic(QQ)
    # the raw generator refuses when called, before any tuple is read
    with pytest.raises(GuardExceeded):
        classify._cubic_tuples(GF(17))
    with pytest.raises(UnsupportedRing):
        classify._cubic_tuples(QQ)


def test_guard_override(monkeypatch):
    monkeypatch.setenv("LOWRANK_GUARD", "3")
    with pytest.raises(GuardExceeded):
        enumerate_cubic(GF(2))
    monkeypatch.setenv("LOWRANK_GUARD", "not a number")
    from lowrank import InputError

    with pytest.raises(InputError):
        enumerate_cubic(GF(2))
    # README's integer grammar, as for --p: int() would read each of these
    for raw in ("1_0", "\u0663", " 7 "):
        monkeypatch.setenv("LOWRANK_GUARD", raw)
        with pytest.raises(InputError, match="LOWRANK_GUARD must be an integer"):
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
    got = solve(a._values, b._values, a.spec)
    want = scan(a._values, b._mul_values, p)
    assert got == want, f"{a._values} -> {b._values}: {got} != {want}"
    return got


def _random_unital_table(rng, p, gamma_zero, degenerate=False):
    """A rank-3 unital table over GF(p) with random products of e1 and
    e2: in general neither associative nor commutative.

    degenerate (p >= 5) sets c0 in e1^2 = c0 e0 + c1 e1 + gamma e2 so
    that the rank-3 search's square root has a zero numerator:
    D_a = c1^2 + 4 c0 = 0 when gamma = 0, and
    A = s2 c1 - c0 - gamma s1 - (s2 + c1)^2 / 3 = 0 with s = e1 e2
    otherwise."""
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    table = [
        [basis[i + j] if 0 in (i, j) else None for j in range(3)] for i in range(3)
    ]
    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        table[i][j] = tuple(rng.choice((0, 0, rng.randrange(p))) for _ in range(3))
    if gamma_zero:
        table[1][1] = table[1][1][:2] + (0,)
    if degenerate:
        _, c1, gamma = table[1][1]
        _, s1, s2 = table[1][2]
        if gamma_zero:
            c0 = -c1 * c1 * pow(4, -1, p)
        else:
            c0 = s2 * c1 - gamma * s1 - (s2 + c1) ** 2 * pow(3, -1, p)
        table[1][1] = (c0 % p, c1, gamma)
    return StructureConstants(GF(p), table)


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
            b = rebase(a, [(1, 0, 0), *rng.choice(bases)])[0]
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
        assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=False))
    # p = 7, gamma = 0: u0 is solved from the residue's coordinate k with
    # u_k != 0 rather than scanned
    for draw in range(20):
        a = _random_unital_table(rng, p, gamma_zero=True)
        u, v = rng.choice(vecs), rng.choice(vecs)
        while (u[1] * v[2] - u[2] * v[1]) % p == 0:
            u, v = rng.choice(vecs), rng.choice(vecs)
        assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=True))
    # p = 13, gamma != 0: each line through the origin gives p - 1
    # scaled w, and the E_k test drops the u0 whose e1 * e2 product
    # already misses in coordinate k
    p = 13
    vecs = list(itertools.product(range(p), repeat=3))
    for draw in range(10):
        a = _random_unital_table(rng, p, gamma_zero=False)
        while a._values[1][1][2] == 0:
            a = _random_unital_table(rng, p, gamma_zero=False)
        u, v = rng.choice(vecs), rng.choice(vecs)
        while (u[1] * v[2] - u[2] * v[1]) % p == 0:
            u, v = rng.choice(vecs), rng.choice(vecs)
        assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=False))
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
        assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
        _same_search(a, _random_unital_table(rng, p, gamma_zero=False))
    assert noncommutative >= 10


def test_closed_form_search_matches_the_scan_on_degenerate_lines(monkeypatch):
    # p >= 5: on each line through the origin lam^2 bottom = top.  With a
    # zero top (D_a = 0 when gamma = 0, A = 0 otherwise) a line whose
    # bottom (D' or C) is also 0 allows every lam != 0, and the others
    # none; a source paired with itself in a random basis has a witness
    # on such a line.  Nonzero tops and, on every other draw, random
    # targets are mixed in, and gamma = 0 also runs at p = 13
    tops = []
    square_roots = classify._square_roots

    def recorded(spec, top, bottom):
        tops.append((top, bottom))
        return square_roots(spec, top, bottom)

    monkeypatch.setattr(classify, "_square_roots", recorded)
    rng = random.Random(229)
    for p, gamma_zero, count in (
        (7, True, 8),
        (11, True, 4),
        (13, True, 2),
        (7, False, 8),
        (11, False, 6),
    ):
        vecs = list(itertools.product(range(p), repeat=3))
        for draw in range(count):
            degenerate = p < 13 and draw % 3 != 2
            a = _random_unital_table(rng, p, gamma_zero, degenerate)
            while not gamma_zero and a._values[1][1][2] == 0:
                a = _random_unital_table(rng, p, gamma_zero, degenerate)
            u, v = rng.choice(vecs), rng.choice(vecs)
            while (u[1] * v[2] - u[2] * v[1]) % p == 0:
                u, v = rng.choice(vecs), rng.choice(vecs)
            assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
            if draw % 2 == 0:
                _same_search(a, _random_unital_table(rng, p, gamma_zero))
    assert (0, 0) in tops
    assert any(top == 0 and bottom for top, bottom in tops)
    assert any(top and bottom for top, bottom in tops)


def _swapped_source(rng, p, degenerate=False):
    """A rank-3 unital table over GF(p) with gamma = 0 whose e2^2 has a
    nonzero e1 coordinate: a _random_unital_table with gamma != 0 and no
    e1 in its e2^2, with e1 and e2 swapped.  degenerate makes the
    swapped table's A zero, the top of its square root."""
    table = _random_unital_table(rng, p, False, degenerate)._values
    while table[1][1][2] == 0:
        table = _random_unital_table(rng, p, False, degenerate)._values
    table = [[list(cell) for cell in row] for row in table]
    table[2][2][1] = 0  # A reads only e1^2 and e1 e2
    swap = (0, 2, 1)
    return StructureConstants(
        GF(p), [[tuple(table[i][j][c] for c in swap) for j in swap] for i in swap]
    )


def test_swapped_search_matches_the_scan(monkeypatch):
    # gamma = 0 and e2^2 involves e1: the search proposes the image of
    # e2 and forces that of e1, so it orders its candidates by v and must
    # check them all.  Each source is paired with itself in a random
    # basis, so most pairs have several witnesses and the least one is
    # what is compared, and every other draw with a random table.  At
    # p = 7 and 11 the degenerate draws zero the top of the swapped
    # table's square root, so a line allows every lam or none.  No pair
    # makes a v solve
    def no_solve(rows, p):
        raise AssertionError("v solve on a swapped source")

    tops = []
    square_roots = classify._square_roots

    def recorded(spec, top, bottom):
        tops.append((top, bottom))
        return square_roots(spec, top, bottom)

    monkeypatch.setattr(classify, "_affine_solutions", no_solve)
    monkeypatch.setattr(classify, "_square_roots", recorded)
    rng = random.Random(239)
    for p, count in ((2, 40), (3, 60), (5, 60), (7, 16), (11, 8)):
        vecs = list(itertools.product(range(p), repeat=3))
        for draw in range(count):
            a = _swapped_source(rng, p, degenerate=p >= 7 and draw % 3 != 2)
            assert a._values[1][1][2] == 0 and a._values[2][2][1] != 0
            u, v = rng.choice(vecs), rng.choice(vecs)
            while (u[1] * v[2] - u[2] * v[1]) % p == 0:
                u, v = rng.choice(vecs), rng.choice(vecs)
            assert _same_search(a, rebase(a, [(1, 0, 0), u, v])[0]) is not None
            if draw % 2 == 0:
                _same_search(a, _random_unital_table(rng, p, draw % 4 == 0))
    assert (0, 0) in tops
    assert any(top == 0 and bottom for top, bottom in tops)
    # every GF(5) census source with c = 0 and y != 0 (j^2 = -b y + y i
    # + z j) against three random valid targets
    p = 5
    coeffs = enumerate_cubic(GF(p))
    algebras = [build_algebra(c) for c in coeffs]
    # _values is (b, c, m, n, y, z)
    sources = [build_algebra(c) for c in coeffs if c._values[1] == 0 and c._values[4]]
    assert len(sources) == 100
    for a in sources:
        assert a._values[1][1][2] == 0 and a._values[2][2][1] != 0
        for _ in range(3):
            _same_search(a, rng.choice(algebras))


def test_affine_solutions_match_the_filtered_product():
    # random systems of 1-6 rows in 1-4 unknowns, inconsistent ones and
    # all-zero ones (every x a solution) among them: the lazy solutions
    # are the lexicographically sorted solutions of a full scan
    rng = random.Random(233)
    seen = {"none": 0, "all": 0}
    for p, count in ((2, 100), (3, 100), (5, 50), (7, 30)):
        for draw in range(count):
            n, m = rng.randint(1, 4), rng.randint(1, 6)
            rows = [
                [rng.choice((0, rng.randrange(p))) for _ in range(n + 1)]
                for _ in range(m)
            ]
            if draw % 10 == 0:
                rows = [[0] * (n + 1) for _ in range(m)]
            want = [
                x
                for x in itertools.product(range(p), repeat=n)
                if all(
                    (sum(a * xi for a, xi in zip(row, x)) - row[n]) % p == 0
                    for row in rows
                )
            ]
            got = classify._affine_solutions(rows, p)
            assert next(got, None) == (want[0] if want else None)
            assert list(classify._affine_solutions(rows, p)) == want
            seen["none"] += not want
            seen["all"] += len(want) == p**n
    assert seen["none"] > 0 and seen["all"] > 0


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
    # u1 is a square root of Delta_a / Delta_b.  Every ordered pair of
    # discriminant-zero tables (t, t^2 / 4): every u1 != 0 works, and the
    # least (u0, u1) is taken with q1 = 0 (target t = 0), s1 = 0 (source
    # t = 0), both, or neither
    for p in (7, 11, 13):
        half = (p + 1) // 2
        tables = [
            QuadraticAlgebra(GF(p), t, t * t * half * half).structure()
            for t in range(p)
        ]
        for a in tables:
            for b in tables:
                assert _same_search(a, b) is not None
    # p = 113, Delta_a / Delta_b a non-square: no root, no map
    p = 113
    nonsquare = 0
    while nonsquare < 8:
        a, b = (
            QuadraticAlgebra(GF(p), rng.randrange(p), rng.randrange(p))
            for _ in range(2)
        )
        da, db = (alg.discriminant().representative.value for alg in (a, b))
        if da and db and pow(da * db, (p - 1) // 2, p) == p - 1:
            nonsquare += 1
            assert _same_search(a.structure(), b.structure()) is None


def test_search_work_counts(monkeypatch):
    calls = count_kernel_calls(monkeypatch)
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
    # the e1 * e2 product's coordinate E_k, tested on each solved u0
    # before the candidate is kept, drops all 16
    assert len(checks) == 0
    # p >= 5: each line's lam is a square root, so neither branch makes a
    # per-lam _linear_roots solve (16 calls for this pair and 24 for the
    # gamma = 0 pair when u0 was solved for each lam)
    solves = []
    linear_roots = classify._linear_roots

    def counted_roots(a, b, p):
        solves.append(1)
        return linear_roots(a, b, p)

    monkeypatch.setattr(classify, "_linear_roots", counted_roots)
    assert is_isomorphic_bruteforce(source, other) == (False, None)
    assert is_isomorphic_bruteforce(zero, other) == (False, None)
    assert solves == []
    # gamma = 0: the whole residue u * u - phi(e1^2) is solved on each
    # line, so no candidate is checked against e1^2 (a check with v = 0:
    # the v * v check comes after a nonzero det, so has v != 0), where 24
    # were, and each candidate gets one v solve.  That is at most two per
    # line, 2 (p + 1) in all, outside a line where every lam passes; here
    # the four are the line through (0, 1, 0), where D_a = D' = 0
    seen, solved = [], []
    affine_solutions = classify._affine_solutions

    def seen_check(s, u, v, y, p):
        seen.append(v)
        return is_image(s, u, v, y, p)

    def counted_solve(rows, p):
        solved.append(1)
        return affine_solutions(rows, p)

    monkeypatch.setattr(classify, "_is_image", seen_check)
    monkeypatch.setattr(classify, "_affine_solutions", counted_solve)
    assert is_isomorphic_bruteforce(zero, other) == (False, None)
    assert (0, 0, 0) not in seen
    assert len(solved) <= 2 * (p + 1)
    assert len(solved) == p - 1
    # gamma = 0 but e2^2 = e1 in the source (0, 0, 0, 0, 1, 0): e2
    # determines the map, so the search runs its gamma != 0 step with e1
    # and e2 swapped and makes no v solve (1 against itself and 24
    # against the zero table when it did)
    swapped = build_algebra(CubicCoefficients(GF(p), 0, 0, 0, 0, 1, 0))
    assert swapped._values[1][1][2] == 0 and swapped._values[2][2][1] != 0
    solved.clear()
    for target in (swapped, zero):
        got = classify._search_rank3(swapped._values, target._values, swapped.spec)
        assert got == _scan_rank3(swapped._values, target._mul_values, p)
        assert (got is not None) == (target is swapped)
    assert solved == []


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
    """One census reads the raw tuples of one _cubic_tuples call and
    takes its class representatives from one exceptional_classes call,
    which refuses at p = 7, where the report's representatives are None."""
    calls = []
    class_calls = []
    raw_tuples = classify._cubic_tuples

    def counted(spec):
        calls.append(spec)
        return raw_tuples(spec)

    def counted_classes(spec):
        class_calls.append(spec.p)
        return exceptional_classes(spec)

    monkeypatch.setattr(classify, "_cubic_tuples", counted)
    monkeypatch.setattr(classify, "exceptional_classes", counted_classes)
    report = verify_main_theorem(GF(3))
    assert calls == [GF(3)]
    assert class_calls == [3]
    reps = [cls[0] for cls in exceptional_classes(GF(3))]
    assert report.representatives == reps
    assert verify_main_theorem(GF(7)).representatives is None
    assert class_calls == [3, 7]


def test_census_rows_are_the_per_tuple_verdicts():
    """report.rows lists, in census order, each enumerate_cubic tuple
    with its case and whether find_standard_involution finds an
    involution on its algebra; case_counts and theorem_holds agree with
    counts taken from those rows."""
    from lowrank import find_standard_involution

    for p in (2, 3, 5):
        report = verify_main_theorem(GF(p))
        expected = [
            (c, classify_case(c), find_standard_involution(build_algebra(c)) is not None)
            for c in enumerate_cubic(GF(p))
        ]
        assert report.rows == expected
        counts = {case.value: 0 for case in CubicCase}
        meet = []
        holds = True
        for c, case, has_inv in expected:
            counts[case.value] += 1
            if case is CubicCase.EXCEPTIONAL:
                holds = holds and has_inv
            elif has_inv:
                meet.append(c)
        assert report.case_counts() == counts
        assert report.intersection == meet
        assert [c._values for c in meet] == [(0,) * 6]
        assert report.theorem_holds() == holds


def test_census_builds_no_tuple_that_fails_the_forced_test(monkeypatch):
    """At GF(5) the census calls the CubicCoefficients constructor only
    for the p^2 tuples that pass the forced-candidate test, plus the p^2
    tables of exceptional_classes: at most 2 p^2, where one per tuple
    made 674.  The calls are counted under classify's name for the
    class; the normal tables that cubic.exceptional_normal_form builds
    for exceptional_classes are its own."""
    from lowrank.cubic import _table_values
    from lowrank.involutions import _forced_traces

    built = []
    constructor = classify.CubicCoefficients

    def counted(spec, *values):
        built.append(values)
        return constructor(spec, *values)

    monkeypatch.setattr(classify, "CubicCoefficients", counted)
    p = 5
    report = verify_main_theorem(GF(p))
    assert report.valid == p**4 + p**2 - 1
    assert len(built) <= 2 * p * p
    for values in built:
        assert _forced_traces(_table_values(GF(p), values), p) is not None, values


def test_census_verdicts_match_the_trace_brute_force():
    """Each row's involution flag agrees with all_standard_involutions,
    which tries every tuple of traces and shares nothing with the forced
    test but the conjugation and its verification."""
    from lowrank import all_standard_involutions

    for p in (2, 3):
        report = verify_main_theorem(GF(p))
        assert report.valid == p**4 + p**2 - 1
        for coeffs, _, has_inv in report.rows:
            oracle = bool(all_standard_involutions(build_algebra(coeffs)))
            assert has_inv == oracle, f"verdict differs for {coeffs}"


def test_census_builds_only_the_tables_that_pass_the_forced_test(monkeypatch):
    """At GF(5) the census builds an algebra for the p^2 tuples that pass
    the raw forced-candidate test (the p^2 - 1 exceptional tables and the
    zero table), and takes each verdict from find_standard_involution."""
    calls = {"build_algebra": 0, "find_standard_involution": 0}

    def counted(name):
        original = getattr(classify, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(classify, name, counted(name))
    report = verify_main_theorem(GF(5))
    assert report.valid == 5**4 + 5**2 - 1
    assert calls == {"build_algebra": 25, "find_standard_involution": 25}
    assert sum(has_inv for _, _, has_inv in report.rows) == 25


def test_census_rechecks_every_tuple_and_reads_tables_only_of_what_it_builds(monkeypatch):
    """At GF(5) the census calls _violated_relations, counted under
    classify's name, once for each of the 649 valid tuples, in census
    order, and reaches cubic._table_values only through build_algebra,
    for the 25 tuples it builds: the forced test reads no table.
    exceptional_classes is answered before the count, so the tables of
    its normal forms are not counted."""
    from lowrank import cubic

    spec = GF(5)
    classes = exceptional_classes(spec)
    checked, tables, built = [], [], []
    relations = classify._violated_relations
    table_values = cubic._table_values
    build = classify.build_algebra

    def counted_relations(spec, *values):
        checked.append(values)
        return relations(spec, *values)

    def counted_tables(spec, values):
        tables.append(tuple(values))
        return table_values(spec, values)

    def counted_build(coeffs):
        built.append(coeffs._values)
        return build(coeffs)

    monkeypatch.setattr(classify, "exceptional_classes", lambda spec: classes)
    monkeypatch.setattr(classify, "_violated_relations", counted_relations)
    monkeypatch.setattr(cubic, "_table_values", counted_tables)
    monkeypatch.setattr(classify, "build_algebra", counted_build)
    report = verify_main_theorem(spec)
    assert len(checked) == 5**4 + 5**2 - 1 == 649
    assert checked == report.tuples
    assert len(built) == 25
    assert tables == built


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


def test_exceptional_classes_build_the_normal_table_once(monkeypatch):
    """exceptional_classes(GF(5)) builds each of its 25 six-tuples and
    their tables once, and the normal table (1, 0, 0, 1, 0, 0) of the 24
    nonzero ones once: 26 six-tuples and 26 tables, where one normal
    table per member made 49 of each.  Each member still gets one
    verified map."""
    from lowrank.algebra import AlgebraMap

    counts = {"six-tuples": 0, "tables": 0, "verified maps": 0}

    def counting(cls, name, key):
        method = getattr(cls, name)

        def counted(*args):
            counts[key] += 1
            return method(*args)

        monkeypatch.setattr(cls, name, counted)

    counting(CubicCoefficients, "__init__", "six-tuples")
    counting(StructureConstants, "_canonical", "tables")
    counting(AlgebraMap, "verify_isomorphism", "verified maps")
    classes = exceptional_classes(GF(5))
    assert [len(cls) for cls in classes] == [1, 24]
    assert counts == {"six-tuples": 26, "tables": 26, "verified maps": 25}


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
        from lowrank import exceptional_witness, split_idempotent
        from lowrank import quadratic_census
        from lowrank.algebra import AlgebraMap

        coeffs = CubicCoefficients(GF(3), 1, 0, 0, 1, 0, 0)
        AlgebraMap.verify_isomorphism = lambda self: False
        lowrank.involutions.verify_involution = lambda inv: (False, "patched")
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
            lambda: exceptional_witness(coeffs),
            lambda: split_idempotent(QuadraticAlgebra(GF(5), 1, 0)),
            lambda: quadratic_census(GF(5)),
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
        "refused: basis-change map failed verification\n"
        "refused: affine witness map failed verification\n"
        "refused: exceptional table has no verified standard involution\n"
        "refused: ideal witness map failed verification\n"
        "refused: basis-change map failed verification\n"
        "refused: affine witness map failed verification\n"
    )


def test_quadratic_census_odd_fields(monkeypatch):
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
    # the guard counts the p^2 algebras: 16129 > 15625 at p = 127
    monkeypatch.delenv("LOWRANK_GUARD", raising=False)
    assert len(quadratic_census(GF(17)).classes) == 3
    with pytest.raises(GuardExceeded, match="quadratic census needs 16129 steps"):
        quadratic_census(GF(127))


def test_quadratic_census_matches_the_bruteforce_oracle(monkeypatch):
    """The census's classes are the greedy partition by the brute-force
    search, which it does not call, and each member maps to its class's
    first member by the verified map of is_isomorphic_2unit."""
    for p in (3, 5, 7, 11, 13):
        spec = GF(p)
        oracle = []
        for t, n in itertools.product(range(p), repeat=2):
            a = QuadraticAlgebra(spec, t, n).structure()
            for cls in oracle:
                b = QuadraticAlgebra(spec, *cls[0]).structure()
                if is_isomorphic_bruteforce(a, b)[0]:
                    cls.append((t, n))
                    break
            else:
                oracle.append([(t, n)])

        with monkeypatch.context() as m:
            for name in ("is_isomorphic_bruteforce", "_search_rank2"):
                m.setattr(classify, name, lambda *args, name=name: pytest.fail(name))
            report = quadratic_census(spec)
        assert [[q._values for q in cls] for cls in report.classes] == oracle, p
        for cls in report.classes:
            for q in cls:
                ok, phi = is_isomorphic_2unit(q, cls[0])
                assert ok and phi.verify_isomorphism()
                assert (phi.source, phi.target) == (q.structure(), cls[0].structure())


def test_quadratic_census_partitions_agree_can_read_false(monkeypatch):
    """partitions_agree compares the class count with the square-class
    count, so a map that is wrongly refused shows: with
    is_isomorphic_2unit refusing one member that heads no class, that
    member opens a fourth class and the report says the partitions
    disagree, in the JSON and the table."""
    spec = GF(5)
    member = quadratic_census(spec).classes[1][1]
    real = classify.is_isomorphic_2unit

    def refuse_member(a, b):
        return (False, None) if member in (a, b) else real(a, b)

    monkeypatch.setattr(classify, "is_isomorphic_2unit", refuse_member)
    report = quadratic_census(spec)
    assert len(report.classes) == 4 and [member] in report.classes
    assert report.square_class_count == 3
    assert report.partitions_agree() is False
    assert report.to_json()["partitions_agree"] is False
    assert report.to_table().endswith("classes=4 square_classes=3 agree=False")


def test_quadratic_census_class_sizes_in_closed_form():
    """Over F_p, p odd, in order: the class of (0, 0), discriminant zero,
    with its p members, then the two nonzero square classes of the
    discriminant with p(p - 1)/2 members each."""
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        report = quadratic_census(GF(p))
        half = p * (p - 1) // 2
        assert [len(cls) for cls in report.classes] == [p, half, half], p
        assert report.square_class_count == 3
        assert report.partitions_agree()


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
