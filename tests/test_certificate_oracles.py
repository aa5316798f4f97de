"""The certificate verifiers and the element-level kernels against their
full loops.

Every table keeps e_0 = 1 as a two-sided identity, so the verifiers
skip the identities that involve e_0: verify_associativity compares the
(k-1)^3 triples off the unit, verify_involution and a unital map's
is_multiplicative the (k-1)^2 pairs off it, verify_standard multiplies
only the elements off it and matrix_rep checks its identities through
verify_associativity, since they are associativity off the unit.  The
full loops they replaced are kept here as oracles, and each verifier
must return exactly what its oracle returns: the verdict and the first
failing triple, pair, description or witness.  The verifiers run on
the integral model (algebra._integral_model, the table itself over Z
and F_p), while over Q the full loops run on the Fractions; the
QQ-perfbench draws give them the benchmark's fractions.  Over Q the element-level kernels (characteristic
polynomials and determinants, SquareMatrix.inverse, left_regular_rep,
rebase and gl2_act) clear denominators and compute on ints; the Fraction
loops they replaced are kept here as oracles too.  A table over Z and
the same table over Q must give the same answers, and the answers over
Z must reduce to those over F_p (base change).
"""

import itertools
import random
from fractions import Fraction
from math import lcm

import pytest

from lowrank import (
    GF,
    QQ,
    ZZ,
    AlgebraMap,
    BinaryCubicForm,
    CubicCoefficients,
    Involution,
    NotAUnit,
    Polynomial,
    QuadraticAlgebra,
    RelationViolation,
    SquareMatrix,
    StructureConstants,
    build_algebra,
    direct_product,
    exceptional_ring,
    exceptional_witness,
    find_standard_involution,
    gl2_act,
    is_isomorphic_bruteforce,
    left_char_poly,
    left_regular_rep,
    matrix_algebra,
    matrix_rep,
    min_poly,
    product_element,
    quaternion_algebra,
    rank_one,
    rebase,
    split_idempotent,
    verify_involution,
    verify_standard,
)
from lowrank import algebra, cubic
from lowrank.algebra import (
    _divided,
    _integral_model,
    _integral_models,
    _on_ints,
    _on_model,
)
from lowrank.involutions import _conjugation, check_involution

from common import count_kernel_calls


class PerfbenchSized(random.Random):
    """A random source that draws each rational the size the benchmark
    sends: a/b with |a| <= 10^12 and 1 <= b <= 10^4 (_value).  Over Q
    the verifiers run on the integral model, and the full loops below
    run on the Fractions themselves."""


# (ring, random source); the ids of the small draws are the rings' reprs
SPECS = [
    pytest.param(spec, random.Random, id=repr(spec))
    for spec in (ZZ, QQ, GF(2), GF(5), GF(9973))
] + [pytest.param(QQ, PerfbenchSized, id="QQ-perfbench")]


# -- the full loops -----------------------------------------------------------


def full_verify_associativity(alg):
    """(e_a e_b) e_c = e_a (e_b e_c) on all k^3 basis triples."""
    k = alg.rank
    t = alg._values
    mul = alg._mul_values
    e = t[0]
    for a in range(k):
        for b in range(k):
            for c in range(k):
                if mul(t[a][b], e[c]) != mul(e[a], t[b][c]):
                    return False, (a, b, c)
    return True, None


def full_is_multiplicative(phi):
    """phi(e_a e_b) = phi(e_a) phi(e_b) on all k^2 basis pairs."""
    t = phi.source._values
    combine, mul = phi.target._combine_values, phi.target._mul_values
    images = [im._values for im in phi.images]
    k = phi.source.rank
    for a in range(k):
        for b in range(k):
            if combine(t[a][b], images) != mul(images[a], images[b]):
                return False, (a, b)
    return True, None


def full_verify_involution(inv):
    """The three axioms, on every basis element and all k^2 pairs."""
    alg = inv.algebra
    k = alg.rank
    t = alg._values
    e = t[0]
    combine, mul = alg._combine_values, alg._mul_values
    images = [im._values for im in inv.images]
    if images[0] != e[0]:
        return False, "basis element 0 is not fixed"
    for i in range(k):
        if combine(images[i], images) != e[i]:
            return False, f"double application moves basis element {i}"
    for i in range(k):
        for j in range(k):
            if combine(t[i][j], images) != mul(images[j], images[i]):
                return False, f"product reversal fails on pair ({i}, {j})"
    return True, None


def full_verify_standard(inv):
    """x conj(x) scalar for every basis element and every sum of two,
    each a product."""
    alg = inv.algebra
    k = alg.rank
    combine, mul = alg._combine_values, alg._mul_values
    images = [im._values for im in inv.images]
    for support in itertools.chain(
        itertools.combinations(range(k), 1), itertools.combinations(range(k), 2)
    ):
        x = tuple(1 if l in support else 0 for l in range(k))
        if any(mul(x, combine(x, images))[1:]):
            return False, alg.element(x)
    return True, None


def full_matrix_rep(coeffs):
    """L_i and L_j as left regular representations, with the identities
    L_a L_b = sum_c t[a][b][c] L_c checked in SquareMatrix arithmetic."""
    spec = coeffs.spec
    alg = build_algebra(coeffs)
    mats = [SquareMatrix.identity(spec, 3)]
    mats += [left_regular_rep(alg.basis(a)) for a in (1, 2)]
    for a in (1, 2):
        for b in (1, 2):
            cell = zip(mats, alg._values[a][b])
            want = sum((m * v for m, v in cell if v), start=SquareMatrix.zero(spec, 3))
            if mats[a] * mats[b] != want:
                raise RelationViolation(["matrix identities fail for this table"])
    return mats[1], mats[2]


def _fraction_matmul(rows, other):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*other)] for row in rows]


def fraction_char_poly(rows):
    """det(T*I - M), constant term first, by the Faddeev-LeVerrier
    recurrence on Fractions: with M_1 = I, c_{n-k} = -tr(M M_k) / k and
    M_{k+1} = M M_k + c_{n-k} I."""
    n = len(rows)
    chi = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = _fraction_matmul(rows, mk)
        chi[n - k] = c = -sum(am[i][i] for i in range(n)) / k
        mk = [[a + c if i == j else a for j, a in enumerate(row)] for i, row in enumerate(am)]
    return chi


def fraction_inverse(rows):
    """M^-1 = q(M) / -chi(0) with q = (chi - chi(0)) / T by Horner's rule
    on the Fractions, or None for a singular M: the Q path of
    SquareMatrix.inverse before it cleared denominators."""
    n = len(rows)
    chi = fraction_char_poly(rows)
    if not chi[0]:
        return None
    acc = [[chi[n] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for c in reversed(chi[1:n]):
        acc = _fraction_matmul(acc, rows)
        for i in range(n):
            acc[i][i] += c
    return [[a / -chi[0] for a in row] for row in acc]


def fraction_left_regular_rep(x):
    """The rows of the matrix of left multiplication by x, its columns
    the products x e_j taken by the kernel on the Fractions."""
    alg = x.algebra
    return tuple(zip(*[alg._mul_values(x._values, ej) for ej in alg._values[0]]))


def fraction_rebase_cells(alg, images):
    """rebase's cells on the Fractions: each product of new basis
    vectors read back through the columns of the inverse."""
    new = [tuple(map(alg.spec.value, im)) for im in images]
    cols = fraction_inverse(new)
    combine, mul = alg._combine_values, alg._mul_values
    return tuple(tuple(combine(mul(u, v), cols) for v in new) for u in new)


def fraction_gl2_act(rows, values):
    """The substitution of gl2_act on the Fractions, each coefficient
    divided by det(g), or None for a singular g."""
    (alpha, beta), (gamma, delta) = rows
    det = alpha * delta - beta * gamma
    if not det:
        return None
    u, v = Polynomial(QQ, (alpha, gamma)), Polynomial(QQ, (beta, delta))
    cubes = [
        w._values + (Fraction(0),) * (3 - w.degree())
        for w in (u * u * u, u * u * v, u * v * v, v * v * v)
    ]
    return tuple(sum(f * w[k] for f, w in zip(values, cubes)) / det for k in range(4))


# -- inputs -------------------------------------------------------------------


def _value(spec, rng, zeros=0.0):
    if rng.random() < zeros:
        return 0
    if spec.kind == "Fp":
        return rng.randrange(spec.p)
    if spec.kind == "Q" and isinstance(rng, PerfbenchSized):
        return Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**4))
    if spec.kind == "Q" and rng.random() < 0.3:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 4))
    return rng.randint(-4, 4)


def _unit_rows(k):
    return [[1 if l == j else 0 for l in range(k)] for j in range(k)]


def random_unital_table(spec, k, rng, zeros=0.5):
    """A unital rank-k table with random products off the unit: as a
    rule neither associative nor commutative."""
    unit = _unit_rows(k)
    return StructureConstants(spec, [
        [
            unit[max(i, j)] if min(i, j) == 0
            else [_value(spec, rng, zeros) for _ in range(k)]
            for j in range(k)
        ]
        for i in range(k)
    ])


def _unital_unimodular(k, rng):
    """Rows of a change of basis that keeps e_0 first and has
    determinant 1: elementary row operations on the identity."""
    rows = _unit_rows(k)
    for _ in range(2 * k):
        i, j = rng.randrange(1, k), rng.randrange(k)
        if i != j:
            f = rng.randint(-2, 2)
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
    return rows


def associative_tables(spec, rng):
    """Associative tables of ranks 1 to 5, each also in a random unital
    basis of determinant 1."""
    draw = lambda: _value(spec, rng)
    quad = lambda: QuadraticAlgebra(spec, draw(), draw()).structure()
    m, n = draw(), draw()
    tables = [
        rank_one(spec),
        quad(),
        build_algebra(CubicCoefficients(spec, n, 0, m, n, 0, m)),
        build_algebra(CubicCoefficients(spec, draw(), draw(), 0, 0, draw(), draw())),
        build_algebra(CubicCoefficients(spec, draw(), 0, 0, 0, 0, draw())),
        direct_product(rank_one(spec), quad()),
        matrix_algebra(spec, 2),
        direct_product(quad(), quad()),
        direct_product(quad(), build_algebra(CubicCoefficients(spec, n, 0, m, n, 0, m))),
    ]
    if spec.characteristic() != 2:
        tables.append(quaternion_algebra(spec, -1, rng.choice((-1, 1))))
    for alg in list(tables):
        if alg.rank > 1:
            tables.append(rebase(alg, _unital_unimodular(alg.rank, rng))[0])
    return tables


def perturbed(alg, rng, at=None):
    """alg with coordinate l of the product e_a e_b off the unit changed,
    at = (a, b, l) or random."""
    k = alg.rank
    rows = [[list(cell) for cell in row] for row in alg._values]
    a, b, l = at or (rng.randrange(1, k), rng.randrange(1, k), rng.randrange(k))
    bump = _value(alg.spec, rng) or 1
    rows[a][b][l] = alg.spec.value(rows[a][b][l] + bump)
    return StructureConstants(alg.spec, rows)


def sample_tables(spec, rng):
    """Random unital tables of ranks 1 to 5, dense and sparse, and the
    associative tables with and without one product changed."""
    tables = [
        random_unital_table(spec, k, rng, zeros)
        for k in (1, 2, 3, 4, 5)
        for zeros in (0.0, 0.6, 0.9)
    ]
    for alg in associative_tables(spec, rng):
        tables.append(alg)
        if alg.rank > 1:
            # the last coordinate of the last product too: in a direct
            # product of two factors of rank 2 or more, the first triple
            # that then fails has no index 1
            last = (alg.rank - 1,) * 3
            tables += [perturbed(alg, rng) for _ in range(3)] + [perturbed(alg, rng, last)]
    return tables


# -- verifiers against the full loops ------------------------------------------


@pytest.mark.parametrize("spec,source", SPECS)
def test_associativity_matches_the_full_loop(spec, source):
    rng = source(f"assoc {spec!r}")
    seen = set()
    for alg in sample_tables(spec, rng):
        got = alg.verify_associativity()
        assert got == full_verify_associativity(alg), alg._values
        seen.add((alg.rank, got[1]))
    assert {rank for rank, _ in seen} == {1, 2, 3, 4, 5}
    triples = {triple for _, triple in seen}
    assert None in triples and (1, 1, 1) in triples
    # first failures away from (1, 1, 1), with and without an index 1
    assert any(t and 1 in t and t != (1, 1, 1) for t in triples)
    assert any(t and 1 not in t for t in triples)


def _involution_candidates(alg, rng):
    """Maps that fix 1 or not, with images[0] scalar or not, around the
    table's standard involution when it has one."""
    k = alg.rank
    spec = alg.spec
    found = find_standard_involution(alg)
    traces = (
        [im._values[0] for im in found.images[1:]] if found is not None
        else [_value(spec, rng) for _ in range(k - 1)]
    )
    conj = _conjugation(alg, traces)
    out = [conj, _conjugation(alg, [_value(spec, rng) for _ in range(k - 1)])]
    # traces read off the squares' own coordinates: every e_j conj(e_j)
    # is scalar when each e_j^2 lies in the span of 1 and e_j
    out.append(_conjugation(alg, [alg._values[j][j][j] for j in range(1, k)]))
    base = [im._values for im in conj.images]
    for _ in range(3):
        # images[0] a scalar other than 1, as a rule: 1 is not fixed, and
        # 1 + e_j times its conjugate is not scalar unless s = 1
        out.append(Involution(alg, [alg.scalar(_value(spec, rng))] + base[1:]))
        # images[0] not scalar
        first = [_value(spec, rng) for _ in range(k)]
        out.append(Involution(alg, [first] + base[1:]))
        # 1 fixed, the other images random or one of them moved
        rows = [[_value(spec, rng, 0.5) for _ in range(k)] for _ in range(k)]
        out.append(Involution(alg, [base[0]] + rows[1:]))
        if k > 1:
            moved = list(base)
            j, l = rng.randrange(1, k), rng.randrange(k)
            moved[j] = tuple(
                spec.value(c + (1 if i == l else 0)) for i, c in enumerate(moved[j])
            )
            out.append(Involution(alg, moved))
        out.append(Involution(alg, rows))
    return out


def _witness_kind(witness):
    """The witness's support with the unit and the indices off it told
    apart: '1', 'e', '1+e', 'e+e', or None."""
    if witness is None:
        return None
    support = [l for l, c in enumerate(witness._values) if c]
    return "+".join("1" if l == 0 else "e" for l in support)


@pytest.mark.parametrize("spec,source", SPECS)
def test_involution_checks_match_the_full_loops(spec, source):
    rng = source(f"involution {spec!r}")
    reasons, witnesses, checked_on = set(), set(), set()
    for alg in sample_tables(spec, rng):
        for inv in _involution_candidates(alg, rng):
            if spec.kind == "Q":
                checked_on.add(_on_model(alg, [im._values for im in inv.images])[0].spec)
            got = verify_involution(inv)
            assert got == full_verify_involution(inv), inv
            reasons.add(got[1] and " ".join(got[1].split()[:3]))
            standard, witness = verify_standard(inv)
            want_standard, want_witness = full_verify_standard(inv)
            assert (standard, witness) == (want_standard, want_witness), inv
            if witness is not None:
                assert list(map(type, witness._values)) == list(map(type, want_witness._values))
            witnesses.add(_witness_kind(witness))
            # both on one model, with the witness in inv's algebra
            both = check_involution(inv)
            assert both == ((*got, standard, witness) if got[0] else (*got, False, None)), inv
            if both[3] is not None:
                assert list(map(type, both[3]._values)) == list(map(type, want_witness._values))
    assert reasons == {
        None,
        "basis element 0",
        "double application moves",
        "product reversal fails",
    }
    assert witnesses == {None, "1", "e", "1+e", "e+e"}
    # over Q both the integral model and, for images that are not
    # integral there, the Fractions themselves were checked
    assert checked_on == ({ZZ, QQ} if spec.kind == "Q" else set())


def _map_candidates(source, target, rng):
    """Maps source -> target, unital or not: random images, the unit
    first or a scalar or random vector in its place, the zero map and
    one image of a given map moved."""
    spec, k, kt = source.spec, source.rank, target.rank
    one = target._values[0][0]
    out = [AlgebraMap(source, target, [[0] * kt] * k)]  # multiplicative, not unital
    for _ in range(3):
        rows = [[_value(spec, rng, 0.5) for _ in range(kt)] for _ in range(k)]
        out.append(AlgebraMap(source, target, rows))
        out.append(AlgebraMap(source, target, [one] + rows[1:]))
        out.append(AlgebraMap(source, target, [target.scalar(_value(spec, rng))] + rows[1:]))
    return out


def _moved(phi, rng):
    images = [list(im._values) for im in phi.images]
    j, l = rng.randrange(len(images)), rng.randrange(phi.target.rank)
    images[j][l] = phi.target.spec.value(images[j][l] + 1)
    return AlgebraMap(phi.source, phi.target, images)


@pytest.mark.parametrize("spec,source", SPECS)
def test_map_checks_match_the_full_loop(spec, source):
    rng = source(f"map {spec!r}")
    maps = []
    tables = sample_tables(spec, rng)
    for alg in tables:
        if alg.rank > 1:
            # an isomorphism onto the table in a new basis, and moved
            _, phi = rebase(alg, _unital_unimodular(alg.rank, rng))
            maps += [phi] + [_moved(phi, rng) for _ in range(3)]
        maps += _map_candidates(alg, rng.choice(tables), rng)
        # x -> (x, 0) into a direct product: multiplicative, not unital
        other = rank_one(spec)
        prod = direct_product(alg, other)
        zero = [0]
        embed = [product_element(prod, alg, other, e, zero) for e in alg._values[0]]
        maps += [AlgebraMap(alg, prod, embed), _moved(AlgebraMap(alg, prod, embed), rng)]
    if spec.kind == "Fp" and spec.p < 10:
        census = [build_algebra(c) for c in itertools.islice(
            (CubicCoefficients(spec, n, 0, m, n, 0, m) for n in range(spec.p) for m in range(spec.p)), 6
        )]
        for a, b in itertools.product(census, repeat=2):
            found, phi = is_isomorphic_bruteforce(a, b)
            if found:
                maps += [phi, _moved(phi, rng)]
    seen, on_models = set(), set()
    for phi in maps:
        if spec.kind == "Q" and phi.is_unital():
            images = _integral_models(phi.source, phi.target, [im._values for im in phi.images])[2]
            on_models.add(all(type(c) is int for im in images for c in im))
        got = phi.is_multiplicative()
        assert got == full_is_multiplicative(phi), phi
        ok = phi.source.rank == phi.target.rank and phi.is_invertible()
        assert phi.verify_isomorphism() == (phi.is_unital() and got[0] and ok)
        seen.add((phi.is_unital(), got[1]))
    pairs = {pair for _, pair in seen}
    assert {(True, None), (False, None)} <= seen
    assert (1, 1) in pairs and (0, 0) in pairs
    assert any(unital and pair and pair != (1, 1) for unital, pair in seen)
    assert any(not unital and pair and 0 in pair and pair != (0, 0) for unital, pair in seen)
    # over Q every unital map was checked between integral models, on ints
    assert on_models == ({True} if spec.kind == "Q" else set())


def _unvalidated(spec, values):
    """A six-tuple stored without the relation check, as the table of a
    non-associative algebra for matrix_rep to refuse."""
    out = object.__new__(CubicCoefficients)
    out.spec = spec
    out._values = tuple(map(spec.value, values))
    return out


@pytest.mark.parametrize("spec,source", SPECS)
def test_matrix_rep_matches_the_square_matrix_form(spec, source):
    rng = source(f"matrix rep {spec!r}")
    outcomes = set()
    for draw in range(300):
        values = [_value(spec, rng, 0.3 + 0.1 * (draw % 6)) for _ in range(6)]
        if draw % 3 == 0:  # commutative: m = n = 0
            values[2] = values[3] = 0
        elif draw % 3 == 1:  # exceptional shape (n, 0, m, n, 0, m), one slot moved
            n, m = values[:2]
            values = [n, 0, m, n, 0, m]
            values[rng.randrange(6)] = _value(spec, rng, 0.5)
        coeffs = _unvalidated(spec, values)
        try:
            want = full_matrix_rep(coeffs)
        except RelationViolation:
            with pytest.raises(RelationViolation):
                matrix_rep(coeffs)
            outcome = "refused"
        else:
            assert matrix_rep(coeffs) == want, values
            outcome = "matrices"
        # the identities matrix_rep checks are associativity off the unit
        assert (outcome == "matrices") == build_algebra(coeffs).verify_associativity()[0], values
        outcomes.add(outcome)
    assert outcomes == {"refused", "matrices"}


# -- element-level answers over Q against the Fraction loops -----------------


Q_SPECS = [param for param in SPECS if param.values[0] == QQ]


def _square_rows(spec, rng, n, draw):
    """A random n x n matrix, singular for draws 3 mod 4: a row repeated,
    or the zero matrix at n = 1."""
    rows = [[_value(spec, rng, 0.15 * (draw % 4)) for _ in range(n)] for _ in range(n)]
    if draw % 4 == 3:
        rows[-1] = list(rows[0]) if n > 1 else [0]
    return rows


def _fractions(rows):
    """Every value of rows (a vector or rows of vectors) is a Fraction."""
    return all(type(leaf) is Fraction for leaf in _leaves(rows))


@pytest.mark.parametrize("spec,source", Q_SPECS)
def test_char_poly_and_inverse_match_the_fraction_loops(spec, source):
    """chi, det, is_invertible and inverse of random matrices of sizes 1
    to 5, about a quarter of them singular, against the Fraction loops;
    a singular matrix is refused with the message that names its
    determinant."""
    rng = source(f"char poly {spec!r}")
    refused = 0
    for draw in range(120):
        rows = _square_rows(spec, rng, 1 + draw % 5, draw)
        m = SquareMatrix(spec, rows)
        chi = fraction_char_poly(m._values)
        got = m.char_poly()._values
        assert got == tuple(chi) and _fractions(got)
        assert algebra._char_poly_values(spec, m._values) == chi
        assert m.det().value == (-chi[0] if m.n % 2 else chi[0])
        assert m.is_invertible() == bool(chi[0])
        want = fraction_inverse(m._values)
        if want is None:
            with pytest.raises(NotAUnit, match=r"^determinant 0 is not a unit$"):
                m.inverse()
            refused += 1
            continue
        inv = m.inverse()
        assert inv._values == tuple(map(tuple, want)) and _fractions(inv._values)
    assert 20 < refused < 60


@pytest.mark.parametrize("spec,source", Q_SPECS)
def test_left_regular_rep_matches_the_fraction_loop(spec, source):
    rng = source(f"left regular rep {spec!r}")
    for alg in sample_tables(spec, rng):
        for zeros in (0.0, 0.6):
            x = alg.element([_value(spec, rng, zeros) for _ in range(alg.rank)])
            got = left_regular_rep(x)
            assert got._values == fraction_left_regular_rep(x) and _fractions(got._values)
            chi = tuple(fraction_char_poly(got._values))
            assert got.char_poly()._values == chi
            assert left_char_poly(x)._values == chi


def _unital_rows(spec, rng, k, draw):
    """The rows of a change of basis that keeps e_0 first, singular for
    draws 3 mod 4."""
    rows = [[1] + [0] * (k - 1)]
    rows += [[_value(spec, rng, 0.3) for _ in range(k)] for _ in range(k - 1)]
    if draw % 4 == 3:
        rows[-1] = [0] * k
    return rows


@pytest.mark.parametrize("spec,source", Q_SPECS)
def test_rebase_matches_the_fraction_loops(spec, source):
    """rebase's table and map on random unital tables of ranks 2 to 5
    in random unital bases; a singular change of basis is refused with
    the message that names its determinant."""
    rng = source(f"rebase {spec!r}")
    outcomes = set()
    for draw, alg in enumerate(t for t in sample_tables(spec, rng) if t.rank > 1):
        images = _unital_rows(spec, rng, alg.rank, draw)
        cols = fraction_inverse([list(map(spec.value, im)) for im in images])
        if cols is None:
            with pytest.raises(NotAUnit, match=r"^determinant 0 is not a unit$"):
                rebase(alg, images)
            outcomes.add("refused")
            continue
        table, phi = rebase(alg, images)
        assert table._values == fraction_rebase_cells(alg, images) and _fractions(table._values)
        assert [im._values for im in phi.images] == [tuple(col) for col in cols]
        outcomes.add("rebased")
    assert outcomes == {"refused", "rebased"}


@pytest.mark.parametrize("spec,source", Q_SPECS)
def test_gl2_act_matches_the_fraction_loop(spec, source):
    rng = source(f"gl2 act {spec!r}")
    refused = 0
    for draw in range(200):
        rows = _square_rows(spec, rng, 2, draw)
        form = BinaryCubicForm(spec, *[_value(spec, rng, 0.2) for _ in range(4)])
        g = SquareMatrix(spec, rows)
        want = fraction_gl2_act(g._values, form._values)
        if want is None:
            with pytest.raises(NotAUnit, match=r"^matrix determinant 0 is not a unit$"):
                gl2_act(g, form)
            refused += 1
            continue
        got = gl2_act(g, form)._values
        assert got == want and _fractions(got)
    assert 30 < refused < 120


# -- degree, minimal polynomial and split against their element loops --------


def incremental_min_poly(x):
    """min_poly as it was before it reduced the Krylov columns once:
    the columns x^0..x^m row-reduced again for m = 0, 1, ... until the
    last one is not a pivot."""
    alg = x.algebra
    spec = alg.spec
    powers = [alg._values[0][0]]
    while True:
        m = len(powers) - 1
        rows, pivots = algebra._row_reduce(spec.p, zip(*powers))
        if m not in pivots:
            return Polynomial(spec, [-rows[j][m] for j in range(m)] + [1])
        powers.append(alg._mul_values(powers[-1], x._values))


def rebase_split(alg):
    """split_idempotent as it was before it checked x -> 1 - x on alg's
    own table: rebase of direct_product(rank_one, rank_one) onto the
    basis (1, 0), (1, -1), which must give alg's table."""
    line = rank_one(alg.spec)
    prod = direct_product(line, line)
    images = [(1, 0), (1, -1)]
    table, back = rebase(prod, images)
    assert table == alg.structure()
    return AlgebraMap(alg.structure(), prod, images), back


def local_rank_four(spec):
    """F[x, y]/(x^3, xy, y^2), basis 1, x, x^2, y: commutative, of rank 4
    and degree 3 (bx + cx^2 + dy cubes to 0, and squares to b^2 x^2)."""
    zero, unit = [0] * 4, _unit_rows(4)
    return StructureConstants(spec, [
        unit,
        [unit[1], unit[2], zero, zero],
        [unit[2], zero, zero, zero],
        [unit[3], zero, zero, zero],
    ])


def degree_tables(spec, rng):
    """Tables of ranks 1 to 4 over a prime field: random unital ones,
    dense and sparse, the associative ones (matrix_algebra(spec, 2)
    among them) with and without one product changed, and a local
    table of rank 4 and degree 3."""
    tables = [
        random_unital_table(spec, k, rng, zeros)
        for k in (1, 2, 3, 4)
        for zeros in (0.0, 0.6, 0.9)
    ]
    for alg in associative_tables(spec, rng):
        if alg.rank <= 4:
            tables.append(alg)
            if alg.rank > 1:
                tables.append(perturbed(alg, rng))
    return tables + [local_rank_four(spec)]


@pytest.mark.parametrize("spec", [GF(2), GF(3), GF(5)], ids=repr)
def test_degree_and_min_poly_match_the_element_loop(spec):
    """algebra_degree against the element loop it replaced: the largest
    degree of incremental_min_poly over all p^k elements; and min_poly
    against the incremental elimination on every element."""
    rng = random.Random(f"degree {spec!r}")
    degrees = set()
    for alg in degree_tables(spec, rng):
        polys = {x: incremental_min_poly(x) for x in alg.elements()}
        for x, want in polys.items():
            assert min_poly(x) == want, x
        want = max(f.degree() for f in polys.values())
        assert algebra.algebra_degree(alg) == want, alg
        degrees.add((alg.rank, want))
    # every degree a rank allows, the rank itself and below it
    assert degrees >= {(1, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (4, 4)}


@pytest.mark.parametrize("spec,source", SPECS)
def test_min_poly_and_left_char_poly_on_random_elements(spec, source):
    """Over every ring, left_char_poly is the characteristic polynomial
    of left_regular_rep; over the fields, min_poly is the incremental
    elimination's answer."""
    rng = source(f"min poly {spec!r}")
    for alg in sample_tables(spec, rng):
        for zeros in (0.0, 0.6):
            x = alg.element([_value(spec, rng, zeros) for _ in range(alg.rank)])
            assert left_char_poly(x) == left_regular_rep(x).char_poly(), x
            if spec.is_field():
                assert min_poly(x) == incremental_min_poly(x), x


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(3), GF(7)], ids=repr)
def test_split_matches_the_rebased_product(spec):
    """direct_product(rank_one, rank_one) is the table of (t, n) =
    (1, 0), and the one map x -> 1 - x is the rebased pair, forward and
    inverse, in values and in JSON."""
    alg = QuadraticAlgebra(spec, 1, 0)
    assert direct_product(rank_one(spec), rank_one(spec)) == alg.structure()
    got, want = split_idempotent(alg), rebase_split(alg)
    assert got == want
    assert [phi.to_json() for phi in got] == [phi.to_json() for phi in want]
    assert got[0].target.to_json() == want[0].target.to_json()


def mul_loop_direct_product(a, b):
    """direct_product as it was before it read its cells off the
    factors' tables: every product of two basis elements taken
    componentwise by _mul_values."""
    k = a.rank + b.rank
    pairs = [
        algebra._product_split([1 if l == g else 0 for l in range(k)], a.rank)
        for g in range(k)
    ]
    return StructureConstants(a.spec, [
        [
            algebra._product_coords(a._mul_values(ua, ub), b._mul_values(va, vb))
            for ub, vb in pairs
        ]
        for ua, va in pairs
    ])


@pytest.mark.parametrize("spec,source", SPECS)
def test_direct_product_matches_the_product_loop(spec, source):
    """direct_product against its product loop on factors of ranks 1 to
    4, random unital and associative ones, over every ring: the same
    table, of canonical values (Fractions over Q)."""
    rng = source(f"direct product {spec!r}")
    factors = [
        random_unital_table(spec, k, rng, zeros) for k in (1, 2, 3, 4) for zeros in (0.0, 0.6)
    ] + [alg for alg in associative_tables(spec, rng) if alg.rank <= 4]
    ranks = set()
    for a in factors:
        for b in rng.sample(factors, 3):
            got = direct_product(a, b)
            assert got == mul_loop_direct_product(a, b)
            assert StructureConstants(spec, got._values)._values == got._values
            ranks.add((a.rank, b.rank))
    assert {r for pair in ranks for r in pair} == {1, 2, 3, 4}


# -- the integral model over Q ------------------------------------------------


def test_integral_model_is_the_table_in_the_scaled_basis(monkeypatch):
    """_integral_model's closed form is rebase(alg, [1, D e_1, ...]),
    whose cells the Q kernel computes, on random unital tables over Q of
    ranks 2 to 5 with the benchmark's fractions; its cells are ints and
    D clears every denominator off the unit.  The table keeps its
    model: a second call returns the same model and reads no Fraction
    (no as_integer_ratio call), and so does the model at d = jD for j
    in 2, 3 and 6, which is rebase(alg, [1, d e_1, ...]) too.  A table
    that keeps a model equals, hashes and writes JSON like a fresh
    copy.  Over Z and F_p the model is the table itself, at D = 1."""
    rng = PerfbenchSized("integral model")
    ratio = Fraction.as_integer_ratio
    read = []
    for draw in range(100):
        k = 2 + draw % 4
        alg = random_unital_table(QQ, k, rng, zeros=0.25 * (draw % 4))
        fresh = StructureConstants.from_json(alg.to_json())
        model, D = _integral_model(alg)
        table, _ = rebase(alg, _scaled_basis(k, D))
        assert model.spec == ZZ and model._values == table._values
        cells = [cell for row in alg._values[1:] for cell in row[1:]]
        assert all(D % c.denominator == 0 for cell in cells for c in cell)
        assert {type(c) for row in model._values for cell in row for c in cell} == {int}
        monkeypatch.setattr(Fraction, "as_integer_ratio", lambda x: read.append(x) or ratio(x))
        again = _integral_model(alg)
        scaled = {j: _integral_model(alg, j * D) for j in (2, 3, 6)}
        monkeypatch.undo()
        assert read == [] and again[0] is model and again[1] == D
        for j, (other, d) in scaled.items():
            assert d == j * D and other.spec == ZZ
            assert other._values == rebase(alg, _scaled_basis(k, d))[0]._values
        assert _integral_model(alg)[0] is model
        assert alg == fresh and hash(alg) == hash(fresh) and alg.to_json() == fresh.to_json()
    for spec in (ZZ, GF(7)):
        alg = random_unital_table(spec, 3, rng)
        model, D = _integral_model(alg)
        assert model is alg and D == 1


def test_integral_models_read_a_map_in_the_scaled_bases():
    """_integral_models gives the images of the source model's basis
    (1, ds e_1, ...) in the target model's basis (1, dt e_1, ...): a
    unital phi applied to each and read back through rebase's map onto
    the target model, with Fractions.  They are ints, with the
    benchmark's fractions in the images too.  Over Z and F_p the tables
    and images come back as they are."""
    rng = PerfbenchSized("integral models")
    for draw in range(60):
        k = 2 + draw % 3
        source, target = (random_unital_table(QQ, k, rng, 0.5) for _ in range(2))
        images = [[1] + [0] * (k - 1)] + [
            [rng.randint(-3, 3) if draw % 2 else _value(QQ, rng, 0.5) for _ in range(k)]
            for _ in range(k - 1)
        ]
        phi = AlgebraMap(source, target, images)
        raw = [im._values for im in phi.images]
        got = _integral_models(source, target, raw)
        dt = _integral_model(target)[1]
        ds = lcm(_integral_model(source)[1], *(im[0].denominator for im in raw[1:]),
                 *(dt * c.denominator for im in raw[1:] for c in im[1:]))
        _, onto_model = rebase(target, _scaled_basis(k, dt))
        want = [onto_model.apply(phi.apply(source.element(row)))._values
                for row in _scaled_basis(k, ds)]
        assert got == (_integral_model(source, ds)[0], _integral_model(target, dt)[0], want)
        assert all(type(c) is int for im in got[2] for c in im)
    for spec in (ZZ, GF(7)):
        source, target = (random_unital_table(spec, 3, rng) for _ in range(2))
        raw = [im._values for im in AlgebraMap(source, target, _scaled_basis(3, 2)).images]
        got = _integral_models(source, target, raw)
        assert got[0] is source and got[1] is target and got[2] is raw


def test_on_model_reads_a_map_to_itself_at_one_scale():
    """_on_model reads the images of a map of a table to itself, the
    image of 1 included, in the integral model at one D, the least
    common multiple of the table's D (_integral_model) and of the images' unit
    coordinates: phi applied to (1, D e_1, ...) and read back through
    rebase's map onto the model, with Fractions.  When those are not
    all integers it hands back the table and images unchanged.  Images
    with small integer coordinates, and images of 1 whose coordinates
    off the unit are multiples of D, are integral there; those with the
    benchmark's fractions, as a rule, are not.  Over Z and F_p the table
    and images come back as they are."""
    rng = PerfbenchSized("one-scale model")
    outcomes = set()
    for draw in range(80):
        k = 2 + draw % 3
        source = random_unital_table(QQ, k, rng, 0.5)
        draw_value = lambda: rng.randint(-3, 3) if draw % 2 else _value(QQ, rng, 0.5)
        rest = [[QQ.value(draw_value()) for _ in range(k)] for _ in range(k - 1)]
        D = lcm(_integral_model(source)[1], *(im[0].denominator for im in rest))
        if draw % 4 == 1:
            one = [draw_value()] + [D * rng.randint(-3, 3) for _ in range(k - 1)]
        else:
            one = [draw_value() for _ in range(k)]
        phi = AlgebraMap(source, source, [one] + rest)
        raw = [im._values for im in phi.images]
        _, onto_model = rebase(source, _scaled_basis(k, D))
        want = [onto_model.apply(phi.apply(source.element(row)))._values
                for row in _scaled_basis(k, D)]
        got = _on_model(source, raw)
        if got[0] is source:
            assert got[1] is raw
            assert any(c.denominator != 1 for im in want for c in im)
        else:
            assert got == (_integral_model(source, D)[0], want)
            assert all(type(c) is int for im in got[1] for c in im)
        outcomes.add((got[0] is source, any(raw[0][1:])))
    assert outcomes == {(True, True), (False, True), (True, False), (False, False)}
    for spec in (ZZ, GF(7)):
        source = random_unital_table(spec, 3, rng)
        raw = [im._values for im in _conjugation(source, (1, 2)).images]
        got = _on_model(source, raw)
        assert got[0] is source and got[1] is raw


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(7)], ids=repr)
def test_on_ints_and_divided_write_rows_over_one_denominator(spec):
    """_on_ints writes raw rows as ints over one denominator d, and
    _divided(spec, ints, 1, d) gives the canonical rows back.  Over Z
    and F_p both hand back the rows they are given, at d = 1; a den
    that is not a unit gives None."""
    rng = PerfbenchSized(f"on ints {spec!r}")
    for draw in range(40):
        rows = tuple(
            tuple(spec.value(_value(spec, rng, 0.3)) for _ in range(3)) for _ in range(1 + draw % 3)
        )
        ring, ints, d = _on_ints(spec, rows)
        assert all(type(a) is int for row in ints for a in row)
        back = _divided(spec, ints, 1, d)
        assert tuple(map(tuple, back)) == rows
        assert [type(a) for row in back for a in row] == [type(a) for row in rows for a in row]
        if spec.kind == "Q":
            assert ring == ZZ
        else:
            assert ring is spec and ints is rows and d == 1 and back is rows
        assert _divided(spec, ints, 1, 0) is None
        assert (_divided(spec, ints, 1, 7) is None) == (spec.kind != "Q")


def _scaled_basis(k, d):
    """Rows of the basis (1, d e_1, ..., d e_{k-1}) of rank k."""
    return [[d if l == i > 0 else int(l == i) for l in range(k)] for i in range(k)]


# -- the identity the skipped checks rest on -----------------------------------


@pytest.mark.parametrize("spec", [ZZ, QQ, GF(2), GF(7)], ids=repr)
def test_unchecked_tables_pass_the_checking_constructor(spec, monkeypatch):
    """StructureConstants._canonical stores rows unchecked, and the
    verifiers rely on e_0 being a two-sided identity there.  Every table
    it stores for build_algebra, QuadraticAlgebra.structure, the
    exceptional_witness model, exceptional_ring at ranks 2 to 6,
    StructureConstants.from_json at ranks 1 to 5 and, over Q,
    _integral_model at ranks 2 to 6 is equal to the table the checking
    constructor builds from the same rows."""
    stored = []
    canonical = StructureConstants._canonical.__func__

    def recorded(cls, spec, rows):
        out = canonical(cls, spec, rows)
        stored.append(out)
        return out

    monkeypatch.setattr(StructureConstants, "_canonical", classmethod(recorded))
    rng = random.Random(f"canonical {spec!r}")
    draw = lambda: _value(spec, rng)
    counts = []
    for _ in range(20):
        before = len(stored)
        QuadraticAlgebra(spec, draw(), draw()).structure()
        build_algebra(CubicCoefficients(spec, draw(), draw(), 0, 0, draw(), draw()))
        m, n = draw(), draw()
        if spec.value(m) or spec.value(n):
            exceptional_witness(CubicCoefficients(spec, n, 0, m, n, 0, m))
        exceptional_ring(spec, [draw() for _ in range(1 + len(counts) % 5)])
        StructureConstants.from_json(random_unital_table(spec, 1 + len(counts) % 5, rng).to_json())
        if spec.kind == "Q":
            _integral_model(random_unital_table(spec, 2 + len(counts) % 5, rng))
        counts.append(len(stored) - before)
    # one table each for the first two, exceptional_ring and from_json,
    # and the table and model of the witness; over Q also the integral
    # model of the random table and the two that the witness's map is
    # checked between
    assert set(counts) <= ({5, 9} if spec.kind == "Q" else {4, 6})
    assert max(counts) == (9 if spec.kind == "Q" else 6)
    assert {table.rank for table in stored} == {1, 2, 3, 4, 5, 6}
    for table in stored:
        assert table.spec in (spec, ZZ)
        assert StructureConstants(table.spec, table._values) == table
        assert table.rank == len(table._values)


# -- base change: Z -> Q and Z -> F_p ------------------------------------------


def _rationals(x):
    """The coordinates of an element, or None, as a tuple of Fractions."""
    return None if x is None else tuple(map(Fraction, x._values))


def test_base_change_from_z_to_q_keeps_every_answer():
    """A table over Z and the same table read over Q give the same
    verdict, the same first failing index and the same certificate, read
    as rationals, from verify_associativity, find_standard_involution,
    verify_involution, verify_standard and matrix_rep.  The tables are
    census six-tuples, the quaternion orders (+-1, +-1) and random
    non-associative unital tables, each also in a random unimodular
    unital basis."""
    rng = random.Random("base change")
    draw = lambda: rng.randint(-4, 4)
    tuples = [(0,) * 6]
    for _ in range(12):
        n, m = draw(), draw()
        tuples += [(n, 0, m, n, 0, m), (draw(), draw(), 0, 0, draw(), draw())]
    tables = [build_algebra(CubicCoefficients(ZZ, *values)) for values in tuples]
    tables += [quaternion_algebra(ZZ, a, b) for a in (-1, 1) for b in (-1, 1)]
    tables += [random_unital_table(ZZ, k, rng, 0.6) for k in (2, 3, 4) for _ in range(4)]
    tables += [rebase(alg, _unital_unimodular(alg.rank, rng))[0] for alg in tables]
    triples, found = set(), set()
    for alg in tables:
        alg_q = StructureConstants(QQ, alg._values)
        triple = alg.verify_associativity()
        assert alg_q.verify_associativity() == triple
        triples.add(triple[1])
        inv, inv_q = find_standard_involution(alg), find_standard_involution(alg_q)
        assert (inv is None) == (inv_q is None)
        found.add(inv is not None)
        for cand in _involution_candidates(alg, rng) + ([inv] if inv else []):
            cand_q = Involution(alg_q, [im._values for im in cand.images])
            assert verify_involution(cand_q) == verify_involution(cand)
            (standard, witness), (standard_q, witness_q) = verify_standard(cand), verify_standard(cand_q)
            assert standard_q == standard and _rationals(witness_q) == _rationals(witness)
        if inv is not None:
            assert [_rationals(im) for im in inv_q.images] == [_rationals(im) for im in inv.images]
    assert found == {True, False} and None in triples and len(triples) > 2
    outcomes = set()
    for values in tuples + [tuple(draw() for _ in range(6)) for _ in range(12)]:
        try:
            want = matrix_rep(_unvalidated(ZZ, values))
        except RelationViolation:
            with pytest.raises(RelationViolation):
                matrix_rep(_unvalidated(QQ, values))
            outcomes.add("refused")
            continue
        got = matrix_rep(_unvalidated(QQ, values))
        assert [m.spec for m in got] == [QQ, QQ]
        assert [m._values for m in got] == [m._values for m in want]
        outcomes.add("matrices")
    assert outcomes == {"refused", "matrices"}


def _gl2_z(rng):
    """The rows of a random matrix in GL2(Z): elementary row operations
    on the identity, and a sign change for determinant -1."""
    rows = [[1, 0], [0, 1]]
    for _ in range(4):
        i = rng.randrange(2)
        f = rng.randint(-3, 3)
        rows[i] = [a + f * b for a, b in zip(rows[i], rows[1 - i])]
    if rng.random() < 0.5:
        rows[0] = [-a for a in rows[0]]
    return rows


def test_base_change_from_z_to_f_p_reduces_every_answer():
    """Census six-tuples and the quaternion orders (+-1, +-1), each also
    in a random unimodular unital basis, over Z, Q and GF(p) for p in
    2, 3, 5 and 7: the characteristic polynomial of left_regular_rep
    agrees over Z and Q and reduces mod p to the one over F_p, and so
    does gl2_act with g in GL2(Z); every table is associative over Z
    and stays so over F_p; a standard involution found over Z reduces
    to the one found over F_p, and so do the matrices of matrix_rep.
    Nothing is asserted the other way: F_p can have a standard
    involution that Z lacks."""
    rng = random.Random("base change mod p")
    draw = lambda: rng.randint(-4, 4)
    primes = [GF(p) for p in (2, 3, 5, 7)]
    tuples = [(0,) * 6]
    for _ in range(30):
        n, m = draw(), draw()
        tuples += [(n, 0, m, n, 0, m), (draw(), draw(), 0, 0, draw(), draw())]
    tables = [build_algebra(CubicCoefficients(ZZ, *values)) for values in tuples]
    tables += [quaternion_algebra(ZZ, a, b) for a in (-1, 1) for b in (-1, 1)]
    tables += [rebase(alg, _unital_unimodular(alg.rank, rng))[0] for alg in tables]
    found = set()
    for alg in tables:
        alg_q = StructureConstants(QQ, alg._values)
        inv = find_standard_involution(alg)
        found.add(inv is not None)
        assert alg.verify_associativity() == (True, None)
        for spec in primes:
            alg_p = StructureConstants(spec, alg._values)
            assert alg_p.verify_associativity() == (True, None)
            for x in [[draw() for _ in range(alg.rank)] for _ in range(2)]:
                chi = left_regular_rep(alg.element(x)).char_poly()._values
                chi_q = left_regular_rep(alg_q.element(x)).char_poly()._values
                assert chi_q == tuple(map(Fraction, chi))
                chi_p = left_regular_rep(alg_p.element(x)).char_poly()._values
                assert chi_p == tuple(map(spec.value, chi))
            if inv is not None:
                inv_p = find_standard_involution(alg_p)
                assert [im._values for im in inv_p.images] == [
                    tuple(map(spec.value, im._values)) for im in inv.images
                ]
    assert found == {True, False}
    for values in tuples:
        want = matrix_rep(CubicCoefficients(ZZ, *values))
        for spec in primes:
            got = matrix_rep(CubicCoefficients(spec, *values))
            assert [m._values for m in got] == [
                tuple(tuple(map(spec.value, row)) for row in m._values) for m in want
            ]
    for _ in range(40):
        g, f = _gl2_z(rng), [draw() for _ in range(4)]
        got = gl2_act(SquareMatrix(ZZ, g), BinaryCubicForm(ZZ, *f))._values
        got_q = gl2_act(SquareMatrix(QQ, g), BinaryCubicForm(QQ, *f))._values
        assert got_q == tuple(map(Fraction, got))
        for spec in primes:
            acted = gl2_act(SquareMatrix(spec, g), BinaryCubicForm(spec, *f))
            assert acted._values == tuple(map(spec.value, got))


# -- base change: Q -> Z through the integral model ----------------------------


def assert_q_to_z_through_the_model(alg, xs):
    """The relations of Q -> Z through the integral model (model, D) of
    a table over Q, each against an oracle on the Fractions: the model
    over ZZ has the associativity verdict and failing triple of the
    full loop over Q; it has a standard involution exactly when Q has
    one, with traces D t_i, where Q's is decided by the full loops on
    the only candidate, the conjugation with t_i the e_i-coordinate of
    e_i^2; and each integer vector X of model coordinates has the
    characteristic polynomial of left multiplication over ZZ that the
    element (X_0, D X_1, ..., D X_{k-1}) of the table has over Q, read
    off the Fraction matrix.  Returns (failing triple, has involution)."""
    model, D = _integral_model(alg)
    assert model.spec == ZZ and _leaf_types(model._values) <= {int}
    verdict = full_verify_associativity(alg)
    assert model.verify_associativity() == verdict == alg.verify_associativity()
    k = alg.rank
    cand = _conjugation(alg, [alg._values[i][i][i] for i in range(1, k)])
    has = full_verify_involution(cand) == (True, None) and full_verify_standard(cand)[0]
    inv_z, inv_q = find_standard_involution(model), find_standard_involution(alg)
    assert (inv_z is not None) == has == (inv_q is not None)
    if has:
        traces = [im._values[0] for im in cand.images[1:]]
        assert [im._values[0] for im in inv_z.images[1:]] == [D * t for t in traces]
        assert inv_q == cand
    for X in xs:
        x = alg.element((X[0], *[D * c for c in X[1:]]))
        chi_z = left_char_poly(model.element(X))._values
        want = tuple(fraction_char_poly(fraction_left_regular_rep(x)))
        assert tuple(map(Fraction, chi_z)) == want == left_char_poly(x)._values
    return verdict[1], has


def _leaf_types(values):
    return set(map(type, _leaves(values)))


def test_base_change_from_q_to_z_through_the_integral_model():
    """Random tables over Q of perfbench size, half of them associative
    six-tuples (exceptional and commutative) and half random unital
    tables of ranks 2 to 5, dense and sparse: the model over ZZ keeps
    every answer (assert_q_to_z_through_the_model)."""
    rng = PerfbenchSized("base change Q to Z")
    draw = lambda: _value(QQ, rng)
    tables = []
    for i in range(24):
        n, m = draw(), draw()
        tables.append(build_algebra(CubicCoefficients(QQ, n, 0, m, n, 0, m)))
        tables.append(build_algebra(CubicCoefficients(QQ, draw(), draw(), 0, 0, draw(), draw())))
        tables += [random_unital_table(QQ, 2 + i % 4, rng, zeros) for zeros in (0.3, 0.8)]
    triples, found = set(), set()
    for alg in tables:
        xs = [[rng.randint(-10**6, 10**6) for _ in range(alg.rank)] for _ in range(2)]
        triple, has = assert_q_to_z_through_the_model(alg, xs + [[1] + [0] * (alg.rank - 1)])
        triples.add(triple)
        found.add(has)
    assert found == {True, False} and None in triples and len(triples) > 2


# -- work counts -------------------------------------------------------------


def test_certificate_work_counts(monkeypatch):
    alg = build_algebra(CubicCoefficients(GF(5), 2, 0, 3, 2, 0, 3))
    calls = count_kernel_calls(monkeypatch)
    # rank 3: the 27 triples made 54 products; the 8 triples off the
    # unit are two linear combinations each and no product
    assert alg.verify_associativity() == (True, None)
    assert calls == ["_combine_values"] * 16
    # the forced conjugation on an exceptional table: product reversal
    # on 4 pairs (9 before) and x conj(x) for e_1, e_2 and e_1 + e_2
    # (6 products before, with 1, 1 + e_1 and 1 + e_2)
    calls.clear()
    assert find_standard_involution(alg) is not None
    assert calls.count("_mul_values") == 4 + 3
    # a unital map checks the 4 pairs off the unit (9 before)
    calls.clear()
    assert AlgebraMap(alg, alg, alg._values[0]).is_multiplicative() == (True, None)
    assert calls.count("_mul_values") == 4
    # one elimination per min_poly (one per power before), of the
    # columns 1, x, ..., x^k: k products
    reductions = []
    row_reduce = algebra._row_reduce

    def counted(p, rows):
        reductions.append(p)
        return row_reduce(p, rows)

    monkeypatch.setattr(algebra, "_row_reduce", counted)
    calls.clear()
    assert min_poly(alg.element([1, 2, 3])).degree() == 2
    assert reductions == [5] and calls == ["_mul_values"] * 3
    # degree 2 < rank 3, so the scan visits all (5^2 - 1)/(5 - 1) = 6
    # representatives, one elimination of 3 products each (125
    # elements and 3 products each, up to 4 eliminations, before)
    reductions.clear()
    calls.clear()
    assert algebra.algebra_degree(alg) == 2
    assert reductions == [5] * 6 and calls == ["_mul_values"] * 18


def test_check_involution_builds_one_model(monkeypatch):
    """check_involution over Q builds the table's integral model once
    for both verifiers, one StructureConstants._canonical call over ZZ
    on a table that keeps none yet (algebra._integral_model): when the
    images are integral there, and when they are not and the Fractions
    are checked."""
    built = []
    canonical = StructureConstants._canonical.__func__

    def recorded(cls, spec, rows):
        built.append(spec)
        return canonical(cls, spec, rows)

    n, m = Fraction(1, 2), Fraction(2, 3)
    alg = build_algebra(CubicCoefficients(QQ, n, 0, m, n, 0, m))
    found = find_standard_involution(alg)
    half = [0, Fraction(1, 2), 0]  # not integral in the model
    monkeypatch.setattr(StructureConstants, "_canonical", classmethod(recorded))
    for images, want in (
        (found.images, (True, None, True, None)),
        ([alg.one(), half, alg.basis(2)],
         (False, "double application moves basis element 1", False, None)),
    ):
        fresh = StructureConstants(QQ, alg._values)  # no model kept yet
        built.clear()
        assert check_involution(Involution(fresh, images)) == want and built == [ZZ]


def _leaves(values):
    """The scalars of a raw vector, or of a list of raw vectors."""
    return [
        leaf for item in values
        for leaf in (_leaves(item) if isinstance(item, (tuple, list)) else (item,))
    ]


def test_checks_over_q_hand_the_kernel_ints(monkeypatch):
    """Over Q the checks run on the integral model: the same work as
    test_certificate_work_counts, every value the kernel gets an int.
    The element-level answers (characteristic polynomial, determinant,
    inverse, left_regular_rep, rebase and gl2_act) hand the product
    kernel, the determinant and adjugate loops and the substitution
    loop ints too, and run no loop over Q.  The unit-determinant test
    behind verify_isomorphism and is_invertible calls the determinant
    loop on ints directly, not through its Q entry, and the cells of a
    cubic table (cubic._table_values) take no Fraction arithmetic: they
    are ints divided once.  A fast path that fell back to Fractions
    would show here."""
    big = Fraction(713732015429, 4081), Fraction(-106415615197, 800)
    alg = build_algebra(CubicCoefficients(QQ, big[0], 0, big[1], big[0], 0, big[1]))
    calls, types = [], set()
    for name in ("_mul_values", "_combine_values"):
        kernel = getattr(StructureConstants, name)

        def recorded(self, u, v, kernel=kernel, name=name):
            calls.append(name)
            types.update(map(type, _leaves(u) + _leaves(v)))
            return kernel(self, u, v)

        monkeypatch.setattr(StructureConstants, name, recorded)
    loops = []  # (loop, ring kind) of each call into a loop
    entries = []  # the callers' calls into the Q entry of the determinant loop
    char_poly, adjugate, substitute = (
        algebra._char_poly_values, algebra._adjugate_values, cubic._substitute
    )

    def recorded_char_poly(spec, rows, d=1):
        if spec.kind != "Q":  # the Q entry clears denominators and calls back
            loops.append(("char poly", spec.kind))
            types.update(map(type, _leaves(rows)))
        else:
            entries.append(len(rows))
        return char_poly(spec, rows, d)

    def recorded_adjugate(p, rows, chi):
        loops.append(("adjugate", p))
        types.update(map(type, _leaves(rows) + list(chi)))
        return adjugate(p, rows, chi)

    def recorded_substitute(spec, rows, values):
        loops.append(("substitute", spec.kind))
        types.update(map(type, _leaves(rows) + list(values)))
        return substitute(spec, rows, values)

    monkeypatch.setattr(algebra, "_char_poly_values", recorded_char_poly)
    monkeypatch.setattr(algebra, "_adjugate_values", recorded_adjugate)
    monkeypatch.setattr(cubic, "_substitute", recorded_substitute)
    assert alg.verify_associativity() == (True, None)
    assert calls == ["_combine_values"] * 16
    calls.clear()
    inv = find_standard_involution(alg)
    assert inv is not None and calls.count("_mul_values") == 4 + 3
    assert verify_involution(inv) == (True, None) and verify_standard(inv) == (True, None)
    calls.clear()
    assert AlgebraMap(alg, alg, alg._values[0]).is_multiplicative() == (True, None)
    assert calls.count("_mul_values") == 4
    exceptional_witness(CubicCoefficients(QQ, big[0], 0, big[1], big[0], 0, big[1]))
    assert loops == [("char poly", "Z")]  # the witness map's determinant
    loops.clear()
    phi = AlgebraMap(alg, alg, [(1, 0, 0), (big[0], -1, 0), (Fraction(1, 3), big[1], 1)])
    assert phi.is_invertible() and not phi.verify_isomorphism()
    assert AlgebraMap(alg, alg, alg._values[0]).verify_isomorphism()
    assert loops == [("char poly", "Z")] * 2 and entries == []
    loops.clear()
    # a cubic table: the four computed cells are ints divided once
    arithmetic, divided = [], []
    with monkeypatch.context() as patch:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__pow__"):
            op = getattr(Fraction, name)
            patch.setattr(Fraction, name, lambda *args, op=op, name=name: arithmetic.append(name) or op(*args))
        patch.setattr(cubic, "_divided", lambda spec, rows, d, den: divided.append(
            _leaves(rows) + [d, den]) or _divided(spec, rows, d, den))
        for values in ((big[0], Fraction(-2, 7), 0, 0, big[1], Fraction(5, 3)),
                       (big[0], 0, big[1], big[0], 0, big[1])):
            cells = cubic._table_values(QQ, tuple(map(QQ.value, values)))
            assert StructureConstants(QQ, cells)._values == cells
    assert arithmetic == [] and len(divided) == 2
    types.update(map(type, sum(divided, [])))
    calls.clear()
    x = alg.element([big[1], Fraction(1, 3), big[0]])
    rep = left_regular_rep(x)
    assert calls == ["_mul_values"] * 3
    chi = rep.char_poly()
    rep.det(), rep.is_invertible(), rep.inverse()
    assert loops == [("char poly", "Z")] * 4 + [("adjugate", None)]
    assert entries == [3, 3]  # char_poly and det read chi over Q
    entries.clear()
    loops.clear()
    calls.clear()
    assert left_char_poly(x) == chi
    assert calls == ["_mul_values"] * 3 and loops == [("char poly", "Z")]
    loops.clear()
    calls.clear()
    rebase(alg, [(1, 0, 0), (big[1], 1, 0), (Fraction(2, 7), big[0], 1)])
    # products and read-back of the 9 cells, then the map check
    assert calls[:18] == ["_mul_values", "_combine_values"] * 9
    assert loops == [("char poly", "Z"), ("adjugate", None), ("char poly", "Z")]
    loops.clear()
    g = SquareMatrix(QQ, [[big[0], 3], [big[1], Fraction(1, 7)]])
    gl2_act(g, BinaryCubicForm(QQ, *big, 1, Fraction(-2, 9)))
    assert loops == [("substitute", "Z")]
    assert types == {int}
