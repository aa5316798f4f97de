"""Exhaustive small-field censuses and brute-force isomorphism testing.

The classes of the exceptional tables come from exceptional_classes
alone, which groups them by verified normal-form maps
(cubic.exceptional_normal_form), with no search; the census takes its
class representatives from it.  The isomorphism cap still refuses
that function at p >= 7, where the census reports null
representatives, though no search runs there: the benchmark reference
pins those outputs.  The quadratic census groups its p^2 algebras the
same way, by the verified maps of quadratic.is_isomorphic_2unit, with
no search.

Everything else here is an oracle-grade computation: isomorphism is
decided by an exhaustive search over the unital linear maps between two
algebras over a prime field (_search_rank3 says how it solves for what
it does not scan), which no census calls; the tests keep it as their
oracle.  Censuses list every valid coefficient tuple in lexicographic
order (built from the two families the relations leave over a field),
and the reports record per-tuple verdicts so they can be reproduced
byte for byte.  The rank-3 search proposes the image of
a generator whose square involves the other one and forces the other
image: e1 when e1^2 involves e2, else e2 when e2^2 involves e1, where
it keeps the least passing map, so the first witness is the same.
Only when neither square does (the census's c = y = 0 tuples) does it
solve a linear system for e2's image.  The cubic
census is one pass over raw values: _cubic_tuples makes the valid
six-tuples as tuples of ints in range(p), in lexicographic order, with
no sort, and each is re-checked against the eight relations
(cubic._violated_relations), given its case (cubic._case_index) and
answered "no" by the forced-candidate test in closed form on the
six-tuple (cubic._forced_traces_of; the generic
involutions._forced_traces is its oracle in the tests), without
building a table or an object.  Only the p^2 tuples the test passes
are built, by the CubicCoefficients constructor, the one way a
six-tuple enters, and their "yes" comes from find_standard_involution
on their algebra (build_algebra), the one producer of a verified
standard involution.  The report keeps each raw tuple and a one-byte
code for its case and verdict, and writes its rows from a fixed
template, cut once per code around its value fields, with the values
filled in as three value pairs, in the same bytes as the package's one
JSON writer, rings._canonical_json (the bytes of json.dumps with
indent=2 and sorted keys), gives for its to_json (see CensusReport);
enumerate_cubic builds the same raw tuples with the constructor for
callers that want them, and elements are built only where a caller
reads a tuple's attributes.
"""

from __future__ import annotations

import io
import itertools

from .algebra import (
    AlgebraMap,
    SquareMatrix,
    StructureConstants,
    _row_reduce,
    algebra_degree,
    direct_product,
    matrix_algebra,
    matrix_to_element,
    min_poly,
    product_element,
    rank_one,
)
from .cubic import (
    _CASES,
    CubicCase,
    CubicCoefficients,
    _case_index,
    _forced_traces_of,
    _normal_form,
    _normal_table,
    _violated_relations,
    build_algebra,
)
from .errors import (
    GuardExceeded,
    RelationViolation,
    SpecMismatch,
    UnsupportedRing,
    check_guard,
)
from .involutions import (
    _verifies,
    find_standard_involution,
    m2_adjoint,
    pair_swap,
)
from .poly import poly_gcd
from .quadratic import QuadraticAlgebra, is_isomorphic_2unit
from .rings import RingSpec, _canonical_json, _square_class_root


# -- brute-force isomorphism --------------------------------------------------


# Candidate maps a brute-force isomorphism search may visit.
_ISO_SEARCH_LIMIT = 15625


def _check_iso_guard(p, k):
    """Refuse a rank-k search over F_p before any of its work starts."""
    check_guard(p ** (k * (k - 1)), _ISO_SEARCH_LIMIT, "isomorphism search")


def _affine_solutions(rows, p):
    """Yield every x in F_p^n with sum(a[i] * x[i]) = c for each row
    (a..., c), in lexicographic order; rows are raw ints.

    Row reduction mod p (algebra._row_reduce) runs on the coefficient
    columns right to left (x reversed, the constant column kept last),
    so it fixes each pivot coordinate in terms of the free coordinates to
    its left; a pivot in the constant column means no solution.  Taking
    the free coordinates in itertools.product order then gives the
    solutions already in lexicographic order, one at a time, with no sort.
    """
    n = len(rows[0]) - 1
    rows, pivots = _row_reduce(p, [[*row[n - 1 :: -1], row[n]] for row in rows])
    if n in pivots:
        return
    # column j of the reduced rows is coordinate n - 1 - j of x
    free = [j for j in range(n - 1, -1, -1) if j not in pivots]
    for vals in itertools.product(range(p), repeat=len(free)):
        y = [0] * n
        for j, val in zip(free, vals):
            y[j] = val
        for row, j in zip(rows, pivots):
            y[j] = (row[n] - sum(row[f] * y[f] for f in free)) % p
        yield tuple(y[::-1])


def _linear_roots(a, b, p):
    """The x in range(p) with a x + b = 0 mod p: one when a is a unit,
    every x when a = b = 0, none when only a = 0."""
    a, b = a % p, b % p
    if a:
        return (-b * pow(a, -1, p) % p,)
    return range(p) if b == 0 else ()


def _square_roots(spec, top, bottom):
    """The x in 1..p - 1 with x^2 bottom = top over spec = F_p, p odd,
    for canonical raw top and bottom: none, the pair {a, p - a}
    (rings._square_class_root), or every x when top = bottom = 0."""
    p = spec.p
    if top or bottom:
        a = _square_class_root(spec, top, bottom)
        return () if a is None else (a, p - a)
    return range(1, p)


def _search_rank3(ta, tb, spec):
    """Find images (u, v) for the generators, or None.

    ta and tb are the raw tables of the source and the target over
    spec = F_p.  The answer is the first (u, v) in lexicographic order,
    u before v, that is multiplicative on basis pairs and invertible.

    Every product is read off the target's four products of e1 and e2:
    the unit is a two-sided identity, so by bilinearity
    (x0 + x)(y0 + y) = x0 y0 + x0 y + y0 x + sum x_a y_b tb[a][b] over
    a, b in {1, 2}, reduced mod p (mul below).

    A candidate must send e1^2 = c0 e0 + c1 e1 + gamma e2 to
    c0 e0 + c1 u + gamma v.  Write u = u0 e0 + w with w = (0, u1, u2)
    and q = w * w.  Then u * u = u0^2 e0 + 2 u0 w + q, so coordinate
    k = 1, 2 of the residue u * u - c0 e0 - c1 u is t u_k + q_k with
    t = 2 u0 - c1, and its e0 coordinate is u0^2 - c1 u0 - c0 + q0.

    The search runs over the p + 1 lines through the origin,
    w' = (0, 1, t) and (0, 0, 1), with k the coordinate where w' has its
    leading 1 and k' the other.  For w = lam w' with lam != 0,
    q = lam^2 q' and w qbar = lam^3 (w' qbar'), with qbar = (0, q1, q2),
    so w' * w' and w' * qbar' are computed once per line.  For p >= 5,
    u0 is affine in lam on each line and lam is a square root, as in
    _search_rank2: lam^2 D = N has no root, the pair {a, p - a}, or
    every lam when N = D = 0 (_square_roots).

    When gamma = 0, u must have a zero residue.  Coordinate k gives
    u0 = (c1 - lam q'_k) / 2.  Coordinate k' is then
    lam^2 (q'_k' - w'_k' q'_k), so a line where that is nonzero is
    dropped whole, and the e0 coordinate is (lam^2 D' - D_a) / 4 with
    D' = q'_k^2 + 4 q'_0 and D_a = c1^2 + 4 c0.  So every candidate has
    u * u = phi(e1^2) exactly.  v is solved for: the product is
    bilinear, so the e1*e2 and e2*e1 conditions read
    (L_u - s12[2] I) v = s12[0] e0 + s12[1] u and
    (R_u - s21[2] I) v = s21[0] e0 + s21[1] u, with the columns of L_u
    and R_u the products of u with the basis.  _affine_solutions yields
    the solutions in lexicographic order, so the solve is the e1*e2 and
    e2*e1 check; each is tested for invertibility and v * v only.

    When gamma != 0, v is the residue divided by gamma, and
    det(u, v) = u1 v2 - u2 v1 = (u1 q2 - u2 q1) / gamma does not depend
    on u0: a line with d' = u2' q1' - u1' q2' = 0 is dropped whole, since
    every u on it fails the invertibility test.  The e1*e2 check fixes
    u0: with s = s12 and S = s2 + c1, gamma times coordinate k = 1, 2 of
    u * v - s0 e0 - s1 u - s2 v is
    E_k = 3 u_k u0^2 + (3 q_k - 2 S u_k) u0 + C_k, where
    C_k = (s2 c1 + q0 - c0 - gamma s1) u_k - S q_k + (w qbar)_k.  So
    u2 E1 - u1 E2 = 3 d u0 - S d + u2 (w qbar)_1 - u1 (w qbar)_2 with
    d = lam^3 d' != 0, which vanishes for u0 = S / 3 - lam b with
    b = n' / (3 d'), n' = u2' (w' qbar')_1 - u1' (w' qbar')_2.  Then
    E_k = 0 for the k with u_k != 0 gives both coordinates, and putting
    that u0 in cancels the lam^1 term: E_k / lam = A + lam^2 C with
    A = s2 c1 - c0 - gamma s1 - S^2 / 3 (once per search) and
    C = q'_0 + (w' qbar')_k - 3 b (q'_k - b) (once per line).  Each
    candidate is checked for u * v, v * u and v * v.

    At p = 2 and 3, 2 (gamma = 0) or 3 (gamma != 0) need not be a unit,
    and lam takes at most two values, so each lam is tried: u0 comes from
    coordinate k (gamma = 0) or from u2 E1 - u1 E2 (gamma != 0) by
    _linear_roots, which allows every u0 or none when the slope
    vanishes.  A gamma = 0 candidate is checked against e1^2 in full; a
    gamma != 0 one goes to the u * v check with no E_k test first.

    So there are O(p) candidates, at most two per line, except on a line
    where every lam passes (N = D = 0).  Every skipped map fails a
    necessary condition (u with u1 = u2 = 0 is never invertible), so
    the candidates, checked in lexicographic order, yield every map that
    passes in lexicographic order of (u, v) (_rank3_maps), and the first
    is what a scan over every u would find.

    When gamma = 0 but gamma', the e1 coordinate of e2^2, is not 0, the
    source's other generator determines the map and no v is solved for:
    the gamma != 0 step runs on the source table with e1 and e2 swapped
    (indices 1 and 2 in the cells and in the coordinates).  There it
    proposes the image v of e2, and u is forced as the residue of v * v
    divided by gamma'.  Those candidates come in the order of v, not u,
    so every one is checked (still O(p): at most two per line, or every
    lam on a line where N = D = 0) and the least passing (u, v) is
    returned.  The swapped step skips only maps that fail, so its maps
    are all the maps that pass, and their least is the first witness of
    the direct search.  In the census gamma = 0 means c = 0, and y != 0
    then makes gamma' nonzero; only the c = y = 0 sources keep the v
    solve: the tables with a standard involution (exceptional and zero),
    where every element has degree <= 2, so neither generator determines
    the map, and the commutative ones with i^2 = b i, j^2 = z j and
    ij = ji = 0.
    """
    p = spec.p
    if ta[1][1][2] % p == 0 and ta[2][2][1] % p:
        swap = (0, 2, 1)
        swapped = [[tuple(ta[i][j][c] for c in swap) for j in swap] for i in swap]
        return min(((u, v) for v, u in _rank3_maps(swapped, tb, spec)), default=None)
    return next(_rank3_maps(ta, tb, spec), None)


def _rank3_maps(ta, tb, spec):
    """Yield every (u, v) that passes _search_rank3's checks, in
    lexicographic order: its candidate step and its checks."""
    p = spec.p
    t11, t12, t21, t22 = tb[1][1], tb[1][2], tb[2][1], tb[2][2]

    def mul(x, y):
        x0, x1, x2 = x
        y0, y1, y2 = y
        a, b, c, d = x1 * y1, x1 * y2, x2 * y1, x2 * y2
        return (
            (x0 * y0 + a * t11[0] + b * t12[0] + c * t21[0] + d * t22[0]) % p,
            (x0 * y1 + y0 * x1 + a * t11[1] + b * t12[1] + c * t21[1] + d * t22[1]) % p,
            (x0 * y2 + y0 * x2 + a * t11[2] + b * t12[2] + c * t21[2] + d * t22[2]) % p,
        )

    s11, s12, s21, s22 = ta[1][1], ta[1][2], ta[2][1], ta[2][2]
    c0, c1, gamma = (c % p for c in s11)
    shift = s12[2] + c1
    if p > 3:  # on each line u0 = base - lam slope, with lam^2 bottom = top
        half = (p + 1) // 2
        if gamma:  # top = -A
            base = shift * pow(3, -1, p)
            top = (shift * base - s12[2] * c1 + c0 + gamma * s12[1]) % p
        else:  # top = D_a
            base, top = c1 * half, (c1 * c1 + 4 * c0) % p
    candidates = []
    for w in [(0, 1, t) for t in range(p)] + [(0, 0, 1)]:
        _, w1, w2 = w
        k = 1 if w1 else 2  # w[k] = 1
        q = mul(w, w)
        if gamma:
            d = w2 * q[1] - w1 * q[2]
            if d % p == 0:
                continue
            wq = mul(w, (0, q[1], q[2]))
            n = w2 * wq[1] - w1 * wq[2]
        elif (q[3 - k] - w[3 - k] * q[k]) % p:  # coordinate k' of the residue
            continue
        if p <= 3:
            for lam in range(1, p):
                u1, u2 = lam * w1 % p, lam * w2 % p
                a, b = (3 * d, lam * n - shift * d) if gamma else (2, lam * q[k] - c1)
                for u0 in _linear_roots(a, b, p):
                    u = (u0, u1, u2)
                    if gamma or _is_image(s11, u, (0, 0, 0), mul(u, u), p):
                        candidates.append(u)
            continue
        if gamma:
            slope = n * pow(3 * d, -1, p) % p
            bottom = q[0] + wq[k] - 3 * slope * (q[k] - slope)
        else:
            slope, bottom = q[k] * half, q[k] * q[k] + 4 * q[0]
        candidates.extend(
            ((base - lam * slope) % p, lam * w1 % p, lam * w2 % p)
            for lam in _square_roots(spec, top, bottom % p)
        )
    candidates.sort()  # lexicographic order on u
    inv = pow(gamma, -1, p) if gamma else 0
    e1, e2 = (0, 1, 0), (0, 0, 1)
    for u in candidates:
        u0, u1, u2 = u
        if gamma:
            uu = mul(u, u)
            v = (
                (uu[0] - c0 - c1 * u0) * inv % p,
                (uu[1] - c1 * u1) * inv % p,
                (uu[2] - c1 * u2) * inv % p,
            )
            if (
                _is_image(s12, u, v, mul(u, v), p)
                and _is_image(s21, u, v, mul(v, u), p)
                and _is_image(s22, u, v, mul(v, v), p)
            ):
                yield u, v
            continue
        left = (u, mul(u, e1), mul(u, e2))
        right = (u, mul(e1, u), mul(e2, u))
        rows = [
            [left[j][i] - (s12[2] if i == j else 0) for j in range(3)]
            + [(s12[0] if i == 0 else 0) + s12[1] * u[i]]
            for i in range(3)
        ] + [
            [right[j][i] - (s21[2] if i == j else 0) for j in range(3)]
            + [(s21[0] if i == 0 else 0) + s21[1] * u[i]]
            for i in range(3)
        ]
        for v in _affine_solutions(rows, p):
            if (u1 * v[2] - u2 * v[1]) % p and _is_image(s22, u, v, mul(v, v), p):
                yield u, v


def _is_image(s, u, v, y, p):
    """Whether y = s0 e0 + s1 u + s2 v mod p: a product of the rank-3
    search checked against the image of the basis product s."""
    s0, s1, s2 = s
    return not (
        (y[0] - s0 - s1 * u[0] - s2 * v[0]) % p
        or (y[1] - s1 * u[1] - s2 * v[1]) % p
        or (y[2] - s1 * u[2] - s2 * v[2]) % p
    )


def _search_rank2(ta, tb, spec):
    """Find the image u of the generator, or None: the lexicographically
    first (u0, u1) with u1 != 0 and u * u = phi(e1^2), where ta and tb
    are the raw tables of the source and the target over spec = F_p.

    The target is unital, so with q = e1 * e1 read off tb,
    u * u = (u0^2 + u1^2 q0, 2 u0 u1 + u1^2 q1) by bilinearity, and
    phi(e1^2) = (s0 + s1 u0, s1 u1).  For odd p the e1-coefficient gives
    u0 = (s1 - u1 q1) / 2, and the e0-coefficient then reads
    u1^2 Delta_b = Delta_a with Delta = s1^2 + 4 s0 (q1^2 + 4 q0 for the
    target).  So u1 is a square root: none, the pair {a, p - a}
    (rings._square_class_root), or every u1 != 0 when
    Delta_a = Delta_b = 0; the least (u0, u1) among them is returned.
    At p = 2 the map must send e1 to u with u1 = 1, and both u0 are
    checked directly.  Every skipped map fails one of the two
    conditions, so the search is exhaustive.
    """
    p = spec.p
    s0, s1 = (s % p for s in ta[1][1])
    q0, q1 = (q % p for q in tb[1][1])
    if p == 2:
        for u0 in range(2):
            if not ((u0 * u0 + q0 - s0 - s1 * u0) % 2 or (q1 - s1) % 2):
                return ((u0, 1),)
        return None
    roots = _square_roots(spec, (s1 * s1 + 4 * s0) % p, (q1 * q1 + 4 * q0) % p)
    if not roots:
        return None
    half = (p + 1) // 2  # the inverse of 2
    return (min(((s1 - u1 * q1) * half % p, u1) for u1 in roots),)


def is_isomorphic_bruteforce(a: StructureConstants, b: StructureConstants):
    """Decide isomorphism over a prime field by exhaustive search.

    Searches the unital linear maps (first basis element fixed) for one
    that is multiplicative on basis pairs and invertible, and returns
    the first in lexicographic order of the generator images as
    (True, map), or (False, None).  Rank at most 3.  The search solves
    for the coordinates a product condition fixes (_search_rank2,
    _search_rank3).  At rank 3 a generator whose square involves the
    other one determines the map; when only e2^2 does, the search
    proposes e2's image, checks every candidate and keeps the least
    passing pair, which is the same first witness.  Only sources where
    neither square involves the other generator solve a linear system
    for e2's image.  The guard counts the p^(k(k-1)) maps of the whole
    space, far more than the search visits.
    """
    if a.spec != b.spec:
        raise SpecMismatch("algebras over different rings")
    if a.spec.kind != "Fp":
        raise UnsupportedRing("brute-force search needs a prime field")
    if a.rank != b.rank:
        return False, None
    k = a.rank
    if k > 3:
        raise UnsupportedRing("brute-force search implemented for rank <= 3")
    p = a.spec.p
    _check_iso_guard(p, k)
    if k == 1:
        return True, AlgebraMap(a, b, [b.one()])
    search = _search_rank3 if k == 3 else _search_rank2
    found = search(a._values, b._values, a.spec)
    if found is None:
        return False, None
    images = [b.one()] + [b.element(list(col)) for col in found]
    phi = AlgebraMap(a, b, images)
    if not phi.verify_isomorphism():
        raise AssertionError("search returned a bad witness")
    return True, phi


def _partition(items, same):
    """Greedy partition: each item joins the first class whose first
    member m has same(item, m).  Returns the classes as lists."""
    classes = []
    for item in items:
        for cls in classes:
            if same(item, cls[0]):
                cls.append(item)
                break
        else:
            classes.append([item])
    return classes


# -- cubic census -------------------------------------------------------------


def _cubic_tuples(spec: RingSpec):
    """The census's valid six-tuples over a prime field, as raw tuples
    in lexicographic order.

    Over a field the eight relations leave exactly two families: the
    commutative tuples (b, c, 0, 0, y, z) and the exceptional tuples
    (n, 0, m, n, 0, m), which share only the zero tuple.  The census is
    these p^4 + p^2 - 1 tuples, listed in lexicographic order as they
    are made: for each b, the block (b, 0, 0, 0, y, z), then
    (b, 0, m, b, 0, m), then the blocks with c >= 1.  Their values are
    ints in range(p), canonical already.  The ring and the guard, which
    keeps its bound of 10^7 on the p^6 candidate tuples, are checked
    when this is called; the tuples are made one b block at a time as
    the returned iterator is read.
    """
    if spec.kind != "Fp":
        raise UnsupportedRing("the census runs over prime fields")
    p = spec.p
    check_guard(p**6, 10**7, "cubic census")
    pairs = list(itertools.product(range(p), repeat=2))
    return itertools.chain.from_iterable(
        itertools.chain(
            [(b, 0, 0, 0, y, z) for y, z in pairs],
            # the zero tuple (b = m = 0) is in the block above
            [(b, 0, m, b, 0, m) for m in range(p) if b or m],
            [(b, c, 0, 0, y, z) for c in range(1, p) for y, z in pairs],
        )
        for b in range(p)
    )


def enumerate_cubic(spec: RingSpec):
    """All valid six-tuples over a prime field, lexicographically: the
    raw tuples of _cubic_tuples, each built by the CubicCoefficients
    constructor, which re-validates the eight relations.  The census
    reads the raw tuples directly.
    """
    return [CubicCoefficients(spec, *values) for values in _cubic_tuples(spec)]


# One census row as _canonical_json(report.to_json()) renders it inside
# "rows", and as a line of the plain-text table.  Field 0 is the case, 1
# the involution flag, 2-7 the raw values b, c, m, n, y, z; the str() of
# a canonical raw value never needs JSON escaping.
_JSON_ROW = (
    '    {{\n'
    '      "case": "{0}",\n'
    '      "standard_involution": {1},\n'
    '      "tuple": [\n'
    '        "{2}",\n'
    '        "{3}",\n'
    '        "{4}",\n'
    '        "{5}",\n'
    '        "{6}",\n'
    '        "{7}"\n'
    '      ]\n'
    '    }}'
)
_TABLE_ROW = "({2},{3},{4},{5},{6},{7})  {0:<12} {1}\n"

# Rows joined into one write.
_CHUNK_ROWS = 1024


def _write_joined(out, pieces, sep):
    """out.write(sep.join(pieces)), _CHUNK_ROWS pieces at a time."""
    pieces = iter(pieces)
    lead = ""
    while True:
        chunk = list(itertools.islice(pieces, _CHUNK_ROWS))
        if not chunk:
            return
        out.write(lead + sep.join(chunk))
        lead = sep


def _row_pieces(template, case, flag):
    """template with its case and flag filled in, cut around its six
    value fields into (pre, sep, post): a row is
    pre + sep.join(values) + post, as the five pieces between the
    fields are equal in both templates.  The fields are filled with a
    NUL marker, which no template holds, and cut there."""
    pieces = template.format(case, flag, *["\0"] * 6).split("\0")
    return pieces[0], pieces[1], pieces[-1]


def _json_members(obj):
    """The canonical JSON (rings._canonical_json) of a non-empty dict,
    without its opening and closing brace lines."""
    return _canonical_json(obj)[2:-2]


class CensusReport:
    """Per-tuple verdicts for the structure theorem over one field.

    The census is held raw: `tuples`, the valid six-tuples as tuples of
    ints in range(p) in census order, and `codes`, one byte per tuple,
    2 * case index (cubic._CASES) + involution flag.  rows builds the
    (CubicCoefficients, CubicCase, has_involution) triples, each tuple
    by the CubicCoefficients constructor, when it is read; case_counts
    and theorem_holds count the codes.

    to_json builds the report as a dict.  write_json writes the same
    bytes as _canonical_json(to_json()) plus a newline without building
    either: the summary keys go through _canonical_json, the rows
    through a fixed template, cut once per code, on the raw values as
    three precomputed value pairs, a chunk at a time.
    write_table does the same for the plain-text table.
    """

    def __init__(self, spec, total, tuples, codes, intersection, representatives):
        self.spec = spec
        self.total = total
        self.tuples = tuples
        self.codes = bytes(codes)
        self.intersection = intersection
        self.representatives = representatives

    @property
    def valid(self):
        return len(self.tuples)

    @property
    def rows(self):
        spec = self.spec
        return [
            (CubicCoefficients(spec, *values), _CASES[code >> 1], bool(code & 1))
            for values, code in zip(self.tuples, self.codes)
        ]

    def case_counts(self):
        count = self.codes.count
        return {
            case.value: count(2 * k) + count(2 * k + 1)
            for k, case in enumerate(_CASES)
        }

    def theorem_holds(self):
        # no exceptional tuple without an involution
        every = 2 * _CASES.index(CubicCase.EXCEPTIONAL) not in self.codes
        meet_ok = len(self.intersection) == 1 and not any(
            self.intersection[0]._values
        )
        return every and meet_ok

    def _summary(self):
        """Every key of to_json but "rows"."""
        return {
            "ring": self.spec.to_json(),
            "total": self.total,
            "valid": self.valid,
            "cases": self.case_counts(),
            "theorem_holds": self.theorem_holds(),
            "intersection": [
                [str(v) for v in c._values] for c in self.intersection
            ],
            "class_representatives": (
                None
                if self.representatives is None
                else [
                    [str(v) for v in rep._values]
                    for rep in self.representatives
                ]
            ),
        }

    def to_json(self):
        out = self._summary()
        out["rows"] = [
            {
                "tuple": [str(v) for v in values],
                "case": _CASES[code >> 1].value,
                "standard_involution": bool(code & 1),
            }
            for values, code in zip(self.tuples, self.codes)
        ]
        return out

    def _render_rows(self, template, flags):
        """Each row through template, the flag read as flags[code & 1].
        The template is cut once per code by _row_pieces; its separator
        is the same for every code, so the p^2 strings u + sep + v for
        u, v in range(p) are built once, and a row is pre, the pairs of
        (b, c), (m, n) and (y, z) joined by sep, and post."""
        cuts = [
            _row_pieces(template, _CASES[code >> 1].value, flags[code & 1])
            for code in range(2 * len(_CASES))
        ]
        sep = cuts[0][1]
        p = self.spec.p
        digits = [str(v) for v in range(p)]
        pairs = [u + sep + v for u in digits for v in digits]
        for (b, c, m, n, y, z), code in zip(self.tuples, self.codes):
            pre, _, post = cuts[code]
            yield (
                pre + pairs[b * p + c] + sep + pairs[m * p + n] + sep
                + pairs[y * p + z] + post
            )

    def write_json(self, out):
        """Write the JSON report and a newline to out (see the class)."""
        summary = self._summary()
        head = {k: v for k, v in summary.items() if k < "rows"}
        tail = {k: v for k, v in summary.items() if k > "rows"}
        out.write("{\n" + _json_members(head) + ",\n")
        if self.tuples:
            out.write('  "rows": [\n')
            _write_joined(out, self._render_rows(_JSON_ROW, ("false", "true")), ",\n")
            out.write("\n  ],\n")
        else:
            out.write('  "rows": [],\n')
        out.write(_json_members(tail) + "\n}\n")

    def write_table(self, out):
        """Write the plain-text table and a newline to out."""
        out.write("tuple (b,c,m,n,y,z)  case         involution\n")
        _write_joined(out, self._render_rows(_TABLE_ROW, ("no", "yes")), "")
        counts = self.case_counts()
        out.write(
            f"total={self.total} valid={self.valid} "
            + " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            + f" theorem={'holds' if self.theorem_holds() else 'FAILS'}\n"
        )

    def to_table(self):
        buf = io.StringIO()
        self.write_table(buf)
        return buf.getvalue()[:-1]


def verify_main_theorem(spec: RingSpec) -> CensusReport:
    """Exhaustively confirm the structure split over one prime field.

    Every valid tuple is either commutative or carries a standard
    involution, and exactly the all-zero tuple is both commutative and
    involution-bearing.  One pass reads the raw tuples of _cubic_tuples:
    each has its eight relations re-checked (cubic._violated_relations),
    its case taken from cubic._case_index, and a "no" from the
    forced-candidate test in closed form on the six-tuple
    (cubic._forced_traces_of), with no table built.  Only a tuple that
    passes it is built, by the CubicCoefficients constructor and
    build_algebra, and takes its verdict from find_standard_involution,
    which verifies the involution it returns in full.  The report keeps
    each raw tuple and its code, and as its class representatives the
    first member of each class that exceptional_classes returns, or
    None where that refuses (p >= 7).
    """
    p = spec.p
    tuples = list(_cubic_tuples(spec))
    codes = bytearray(len(tuples))
    meet = []
    exceptional = _CASES.index(CubicCase.EXCEPTIONAL)
    for k, values in enumerate(tuples):
        violated = _violated_relations(spec, *values)
        if violated:
            raise RelationViolation(violated)
        case = _case_index(values)
        has_inv = False
        if _forced_traces_of(values) is not None:
            coeffs = CubicCoefficients(spec, *values)
            has_inv = find_standard_involution(build_algebra(coeffs)) is not None
            if has_inv and case != exceptional:
                meet.append(coeffs)
        codes[k] = 2 * case + has_inv
    try:
        reps = [cls[0] for cls in exceptional_classes(spec)]
    except GuardExceeded:
        reps = None
    return CensusReport(spec, p**6, tuples, codes, meet, reps)


def exceptional_classes(spec: RingSpec):
    """The isomorphism classes of the non-commutative tables
    (n, 0, m, n, 0, m) over a prime field, plus the zero table, grouped
    by exceptional_normal_form, whose map to the normal table is
    verified for every member; over a field every nonzero member has
    the normal table (1, 0, 0, 1, 0, 0), built once here.  Returns a
    list of classes, each a list of CubicCoefficients with the
    representative first: the zero table alone, then every other
    member, in lexicographic order, which is the census's order of
    these tuples.  No search runs, but the isomorphism cap still
    refuses p >= 7.

    The normal form is a complete invariant: tables with the same one
    are isomorphic through the composed maps, and distinct normal forms
    (d, 0, 0, d, 0, 0) differ in d, the content of the non-scalar part
    of ij - ji, which a unital isomorphism preserves.  Classes are
    listed in order of their first member and keep the family's order,
    as the greedy brute-force partition lists them.
    """
    if spec.kind != "Fp":
        raise UnsupportedRing("the census runs over prime fields")
    # no search runs; kept because perfbench pins this refusal at p >= 7
    _check_iso_guard(spec.p, 3)
    built = _normal_table(spec, 1)
    classes = {}
    for n, m in itertools.product(range(spec.p), repeat=2):
        coeffs = CubicCoefficients(spec, n, 0, m, n, 0, m)
        classes.setdefault(_normal_form(coeffs, built)[0], []).append(coeffs)
    return list(classes.values())


# -- quadratic census ---------------------------------------------------------


class QuadraticCensusReport:
    """The classes of the p^2 quadratic algebras (t, n) over an odd
    prime field, from quadratic_census, with the number of square
    classes of the discriminant to compare them with."""

    def __init__(self, spec, classes, square_class_count):
        self.spec = spec
        self.classes = classes  # lists of (t, n) QuadraticAlgebra
        self.square_class_count = square_class_count

    def partitions_agree(self):
        """Whether the classes are exactly the square classes of the
        discriminant.  A verified map preserves that square class, so the
        classes refine the square-class partition, and the two partitions
        are equal exactly when the counts are (every square class occurs
        among the p^2 discriminants)."""
        return len(self.classes) == self.square_class_count

    def to_json(self):
        return {
            "ring": self.spec.to_json(),
            "class_count": len(self.classes),
            "square_class_count": self.square_class_count,
            "partitions_agree": self.partitions_agree(),
            "classes": [
                [list(map(str, q._values)) for q in cls] for cls in self.classes
            ],
        }

    def to_table(self):
        lines = ["class  representatives (t,n)"]
        for k, cls in enumerate(self.classes):
            members = " ".join("({},{})".format(*q._values) for q in cls)
            lines.append(f"{k}      {members}")
        lines.append(
            f"classes={len(self.classes)} "
            f"square_classes={self.square_class_count} "
            f"agree={self.partitions_agree()}"
        )
        return "\n".join(lines)


def quadratic_census(spec: RingSpec) -> QuadraticCensusReport:
    """Classify all p^2 quadratic algebras over an odd prime field.

    Each algebra joins the first class whose first member it maps to by
    is_isomorphic_2unit, whose map is verified; a new class opens only
    where the discriminant's square class differs.  The greedy order is
    the brute-force partition's, which the tests keep as the oracle.
    This is the one partition: partitions_agree compares its class count
    with the number of square classes, counted independently from the
    residues, which says that the classes are the square classes.  The
    guard counts the p^2 algebras, each mapped at most once, before any
    is built.
    """
    if spec.kind != "Fp" or spec.p == 2:
        raise UnsupportedRing("the quadratic census runs over odd prime fields")
    p = spec.p
    check_guard(p * p, _ISO_SEARCH_LIMIT, "quadratic census")
    algebras = [QuadraticAlgebra(spec, t, n) for t in range(p) for n in range(p)]
    classes = _partition(algebras, lambda a, b: is_isomorphic_2unit(a, b)[0])
    square_classes = {
        frozenset(d * u * u % p for u in range(1, p)) for d in range(p)
    }
    return QuadraticCensusReport(spec, classes, len(square_classes))


# -- degree probes ------------------------------------------------------------


class DegreeProductReport:
    """The degrees of A, B and A x B over a prime field, from
    degree_product_check, with a pair of maximal-degree elements whose
    minimal polynomials are coprime, or None when the search exhausted
    every pair without one."""

    def __init__(self, spec, deg_a, deg_b, deg_product, witness, exhausted):
        self.spec = spec
        self.deg_a = deg_a
        self.deg_b = deg_b
        self.deg_product = deg_product
        self.witness = witness  # (x coeffs, y coeffs) or None
        self.exhausted = exhausted

    @property
    def additive(self):
        return self.deg_product == self.deg_a + self.deg_b

    def to_json(self):
        return {
            "ring": self.spec.to_json(),
            "degree_left": self.deg_a,
            "degree_right": self.deg_b,
            "degree_product": self.deg_product,
            "additive": self.additive,
            "witness": (
                None
                if self.witness is None
                else [
                    [str(c) for c in self.witness[0]._values],
                    [str(c) for c in self.witness[1]._values],
                ]
            ),
            "no_witness_certified": self.exhausted,
        }


def degree_product_check(a: StructureConstants, b: StructureConstants) -> DegreeProductReport:
    """Compare deg(A x B) with deg(A) + deg(B) over a prime field.

    Additivity holds exactly when some pair of maximal-degree elements
    has coprime minimal polynomials; the check finds such a pair or
    certifies by exhaustion that none exists.  Guarded: the exhaustion
    may compare all p^(rank a + rank b) pairs, a count checked before
    the scan starts, with a default ceiling of 10^6.
    """
    if a.spec != b.spec:
        raise SpecMismatch("factors over different rings")
    deg_a = algebra_degree(a)
    deg_b = algebra_degree(b)
    check_guard(a.spec.p ** (a.rank + b.rank), 10**6, "degree product scan")
    prod = direct_product(a, b)
    deg_prod = algebra_degree(prod)
    witness = None
    tops_b = []  # (y, min_poly(y)) for b's maximal-degree y, in order
    for y in b.elements():
        py = min_poly(y)
        if py.degree() == deg_b:
            tops_b.append((y, py))
    for x in a.elements():
        px = min_poly(x)
        if px.degree() != deg_a:
            continue
        for y, py in tops_b:
            if poly_gcd(px, py).degree() == 0:
                pair = product_element(prod, a, b, x, y)
                if min_poly(pair).degree() != deg_a + deg_b:
                    raise AssertionError(
                        "coprime witness does not reach the degree sum"
                    )
                witness = (x, y)
                break
        if witness:
            break
    if deg_prod == deg_a + deg_b:
        if witness is None:
            raise AssertionError("additive degree without a coprime pair")
    elif witness is not None:
        raise AssertionError("coprime pair despite non-additive degree")
    return DegreeProductReport(
        a.spec, deg_a, deg_b, deg_prod, witness, witness is None
    )


class ProbeReport:
    """The named instance checks of mn_degree_probes for M_n over a
    prime field, each as (name, passed, detail)."""

    def __init__(self, spec, n, checks):
        self.spec = spec
        self.n = n
        self.checks = checks  # (name, passed, detail)

    def all_passed(self):
        return all(ok for _, ok, _ in self.checks)

    def to_json(self):
        return {
            "ring": self.spec.to_json(),
            "n": self.n,
            "all_passed": self.all_passed(),
            "checks": [
                {"name": name, "passed": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


def mn_degree_probes(spec: RingSpec, n: int) -> ProbeReport:
    """Instance checks tying matrix algebras to the degree bound.

    For n = 2 the adjugate involution is standard and the forced-candidate
    search finds one; for n = 3 a diagonal element with
    three distinct eigenvalues has minimal degree 3, which rules out a
    standard involution.  Over F_2, where -1 = 1 starves the diagonal
    of distinct entries, a companion matrix with irreducible cubic
    minimal polynomial serves as the witness instead.  The split
    algebra F x F is probed alongside.
    """
    if spec.kind != "Fp":
        raise UnsupportedRing("probes run over prime fields")
    if n not in (2, 3):
        raise UnsupportedRing("probes implemented for n = 2 and n = 3")
    checks = []
    if n == 2:
        adj = m2_adjoint(spec)
        checks.append(("adjugate_standard", _verifies(adj), "x * adj(x) = det(x)"))
        deg = algebra_degree(adj.algebra)
        checks.append(("matrix_degree_2", deg == 2, f"degree {deg}"))
        found = find_standard_involution(adj.algebra)
        checks.append(
            (
                "standard_involution_found",
                found is not None,
                "forced-candidate search over the rank-4 matrix algebra",
            )
        )
    else:
        alg = matrix_algebra(spec, 3)
        if spec.p == 2:
            # -1 = 1, so diag(0,-1,1) has only two distinct eigenvalues;
            # the companion matrix of the irreducible T^3 + T + 1 keeps
            # the degree-3 witness available
            mat = SquareMatrix(spec, [[0, 0, 1], [1, 0, 1], [0, 1, 0]])
            name = "companion_degree_3"
            source = "the companion matrix of T^3 + T + 1"
        else:
            mat = SquareMatrix(spec, [[0, 0, 0], [0, -1, 0], [0, 0, 1]])
            name = "distinct_diagonal_degree_3"
            source = "diag(0,-1,1)"
        x = matrix_to_element(alg, mat)
        deg = min_poly(x).degree()
        checks.append(
            (
                name,
                deg == 3,
                f"min poly degree {deg} for {source}; degree > 2 "
                "is incompatible with a standard involution",
            )
        )
        if spec.p == 2:
            deg_all = algebra_degree(alg)
            checks.append(
                ("exhaustive_degree_3", deg_all == 3, f"degree {deg_all}")
            )
    swap = pair_swap(spec)
    checks.append(("pair_swap_standard", _verifies(swap), "coordinate swap on F x F"))
    pair_alg = direct_product(rank_one(spec), rank_one(spec))
    deg = algebra_degree(pair_alg)
    checks.append(("pair_degree_2", deg == 2, f"degree {deg}"))
    return ProbeReport(spec, n, checks)
