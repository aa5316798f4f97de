"""Exhaustive small-field censuses and brute-force isomorphism testing.

The classes of the exceptional tables come from exceptional_classes
alone, which groups them by verified normal-form maps
(cubic.exceptional_normal_form), with no search; the census takes its
class representatives from it.  The isomorphism cap still refuses
that function at p >= 7, where the census reports null
representatives, though no search runs there: the benchmark reference
pins those outputs.

Everything else here is an oracle-grade computation: isomorphism is
decided by an exhaustive search over the unital linear maps between two
algebras over a prime field (image coordinates that a linear condition
forces are solved for, by one division or by algebra._row_reduce, the
rest scanned; every product a candidate map needs is read off the
target's raw products of its nonscalar basis elements, since the unit
is two-sided, and checked with modular arithmetic), censuses list every
valid coefficient tuple in lexicographic order (built from the two
families the relations leave over a field), and the reports record
per-tuple verdicts so they can be reproduced byte for byte.  The cubic
census runs on raw values: each tuple is a CubicCoefficients holding its
six canonical raw values, built by CubicCoefficients._canonical, which
skips the conversion of values that come from range(p) but keeps the
relation check; classify_case and build_algebra read them without
building a RingElement, and the involution search runs on the table's
raw values.  The report is written row by row from a fixed template on
the tuples' raw values, in the same bytes as json.dumps of its to_json
(see CensusReport); elements are built only where a caller reads a
tuple's attributes.
"""

from __future__ import annotations

import io
import itertools
import json

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
    CubicCase,
    CubicCoefficients,
    build_algebra,
    classify_case,
    exceptional_normal_form,
)
from .errors import GuardExceeded, SpecMismatch, UnsupportedRing, check_guard
from .involutions import (
    find_standard_involution,
    m2_adjoint,
    pair_swap,
    verify_involution,
    verify_standard,
)
from .poly import poly_gcd
from .quadratic import QuadraticAlgebra
from .rings import RingSpec


# -- brute-force isomorphism --------------------------------------------------


# Candidate maps a brute-force isomorphism search may visit.
_ISO_SEARCH_LIMIT = 15625


def _check_iso_guard(p, k):
    """Refuse a rank-k search over F_p before any of its work starts."""
    check_guard(p ** (k * (k - 1)), _ISO_SEARCH_LIMIT, "isomorphism search")


def _affine_solutions(rows, p):
    """Every x in F_p^n with sum(a[i] * x[i]) = c for each row (a..., c),
    in lexicographic order; rows are raw ints.

    Row reduction mod p (algebra._row_reduce) fixes the pivot coordinates
    in terms of the free ones; a pivot in the augmented column means no
    solution.  Each choice of the free coordinates gives one solution,
    and the p^(free) solutions are sorted.
    """
    n = len(rows[0]) - 1
    rows, pivots = _row_reduce(p, rows)
    if n in pivots:
        return []
    free = [col for col in range(n) if col not in pivots]
    out = []
    for vals in itertools.product(range(p), repeat=len(free)):
        x = [0] * n
        for col, val in zip(free, vals):
            x[col] = val
        for row, col in zip(rows, pivots):
            x[col] = (row[n] - sum(row[f] * x[f] for f in free)) % p
        out.append(tuple(x))
    out.sort()
    return out


def _linear_roots(a, b, p):
    """The x in range(p) with a x + b = 0 mod p: one when a is a unit,
    every x when a = b = 0, none when only a = 0."""
    a, b = a % p, b % p
    if a:
        return (-b * pow(a, -1, p) % p,)
    return range(p) if b == 0 else ()


def _search_rank3(ta, tb, p):
    """Find images (u, v) for the generators, or None.

    ta and tb are the raw tables of the source and the target.  The
    answer is the first (u, v) in lexicographic order, u before v, that
    is multiplicative on basis pairs and invertible.

    Every product is read off the target's four products of e1 and e2:
    the unit is a two-sided identity, so by bilinearity
    (x0 + x)(y0 + y) = x0 y0 + x0 y + y0 x + sum x_a y_b tb[a][b] over
    a, b in {1, 2}, reduced mod p (mul below).

    A candidate must send e1^2 = c0 e0 + c1 e1 + gamma e2 to
    c0 e0 + c1 u + gamma v.  Write u = u0 e0 + w with w = (0, u1, u2)
    and q = w * w.  Then u * u = u0^2 e0 + 2 u0 w + q, so coordinate
    k = 1, 2 of the residue u * u - c0 e0 - c1 u is t u_k + q_k with
    t = 2 u0 - c1.

    When gamma != 0, v is the residue divided by gamma, and
    det(u, v) = u1 v2 - u2 v1 = (u1 q2 - u2 q1) / gamma does not depend
    on u0: a w with zero det is dropped, since every u it gives fails
    the invertibility test.  The e1*e2 check fixes u0: with s = s12,
    gamma times coordinate k = 1, 2 of u * v - s0 e0 - s1 u - s2 v is
    E_k = 3 u_k u0^2 + (3 q_k - 2 (c1 + s2) u_k) u0 + C_k, where
    C_k = (s2 c1 + q0 - c0 - gamma s1) u_k - (s2 + c1) q_k + (w qbar)_k
    and qbar = (0, q1, q2).  So u2 E1 - u1 E2 = 3 d u0 - (s2 + c1) d
    + u2 (w qbar)_1 - u1 (w qbar)_2 with d = u2 q1 - u1 q2: linear in
    u0 with slope 3 d, and d != 0 for a kept w, so one u0 unless p = 3,
    where every u0 or none.  Each candidate is checked for u * v, v * u
    and v * v.

    When gamma = 0, u must have a zero residue, so for a k with u_k != 0
    the coordinate (2 u0 - c1) u_k + q_k fixes u0 unless p = 2, where it
    allows every u0 or none.  v is solved for: the product is bilinear,
    so the e1*e2 and e2*e1 conditions read
    (L_u - s12[2] I) v = s12[0] e0 + s12[1] u and
    (R_u - s21[2] I) v = s21[0] e0 + s21[1] u, with the columns of L_u
    and R_u the products of u with the basis.  Only the v solving that
    system are tried, in lexicographic order, so the solve is the e1*e2
    and e2*e1 check; each solution is tested for invertibility and for
    v * v only.

    So each nonzero w gives its candidates u = (u0, u1, u2) with the u0
    its linear condition allows, at most p^2 - 1 of them outside
    p = 2, 3.  They are checked in lexicographic order, so the first
    witness is the same as a scan over every u would find.  Every
    skipped map fails a necessary condition (u with u1 = u2 = 0 is never
    invertible), so the search is exhaustive.
    """
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
    candidates = []
    for u1, u2 in itertools.product(range(p), repeat=2):
        if not (u1 or u2):
            continue
        w = (0, u1, u2)
        q = mul(w, w)
        if gamma:
            d = u2 * q[1] - u1 * q[2]
            if d % p == 0:
                continue
            wq = mul(w, (0, q[1], q[2]))
            roots = _linear_roots(
                3 * d, u2 * wq[1] - u1 * wq[2] - (s12[2] + c1) * d, p
            )
        else:
            k = 1 if u1 else 2
            roots = _linear_roots(2 * w[k], q[k] - c1 * w[k], p)
        candidates.extend((u0, u1, u2) for u0 in roots)
    candidates.sort()  # lexicographic order on u
    inv = pow(gamma, -1, p) if gamma else 0
    e1, e2 = (0, 1, 0), (0, 0, 1)
    for u in candidates:
        u0, u1, u2 = u
        uu = mul(u, u)
        if gamma:
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
                return u, v
            continue
        if not _is_image(s11, u, (0, 0, 0), uu, p):  # gamma = 0: no v term
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
                return u, v
    return None


def _is_image(s, u, v, y, p):
    """Whether y = s0 e0 + s1 u + s2 v mod p: a product of the rank-3
    search checked against the image of the basis product s."""
    s0, s1, s2 = s
    return not (
        (y[0] - s0 - s1 * u[0] - s2 * v[0]) % p
        or (y[1] - s1 * u[1] - s2 * v[1]) % p
        or (y[2] - s1 * u[2] - s2 * v[2]) % p
    )


def _search_rank2(ta, tb, p):
    """Find the image u of the generator, or None: the lexicographically
    first (u0, u1) with u1 != 0 and u * u = phi(e1^2), where ta and tb
    are the raw tables of the source and the target.

    The target is unital, so with q = e1 * e1 read off tb,
    u * u = (u0^2 + u1^2 q0, 2 u0 u1 + u1^2 q1) by bilinearity.
    Matching the e1-coefficient with s11[1] u1 is a linear condition on
    u0.  For each u1 the u0 solving it are tried: one when 2 u1 != 0,
    every u0 or none when p = 2.  Every skipped map fails that
    condition, so the search is exhaustive.
    """
    s0, s1 = ta[1][1]
    q0, q1 = tb[1][1]
    found = []
    for u1 in range(1, p):  # the map must be invertible: det = u1
        w0, w1 = u1 * u1 * q0, u1 * u1 * q1
        for u0 in _linear_roots(2 * u1, w1 - s1 * u1, p):
            # u * u against phi(e1^2) = s0 e0 + s1 u
            if not (
                (u0 * u0 + w0 - s0 - s1 * u0) % p
                or (2 * u0 * u1 + w1 - s1 * u1) % p
            ):
                found.append((u0, u1))
                break
    return (min(found),) if found else None


def is_isomorphic_bruteforce(a: StructureConstants, b: StructureConstants):
    """Decide isomorphism over a prime field by exhaustive search.

    Searches the unital linear maps (first basis element fixed) for one
    that is multiplicative on basis pairs and invertible, and returns
    the first in lexicographic order of the generator images as
    (True, map), or (False, None).  Rank at most 3.  Image coordinates
    that a product condition fixes linearly are solved for rather than
    scanned (u0 at both ranks; v when e1^2 does not involve e2 at
    rank 3, see _search_rank3).  Every product the search needs is read
    off the target's raw products of its nonscalar basis elements by
    bilinearity and the two-sided unit (e1 * e1 at rank 2, the four
    products of e1 and e2 at rank 3), so it makes no call into the
    target's _mul_values.  At rank 3, u0 is solved for each nonzero
    w = (0, u1, u2): from the e1*e2 condition when e1^2 involves e2,
    from e1^2 otherwise, so outside p = 2, 3 at most p^2 - 1 candidates
    u are checked, and when e1^2 involves e2 a w whose det(u, v)
    vanishes is dropped.  A map is skipped only when it fails a
    necessary condition, so the search stays exhaustive.  The guard
    counts the p^(k(k-1)) maps of the whole space, far more than the
    search visits.
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
    found = search(a._values, b._values, p)
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


def enumerate_cubic(spec: RingSpec):
    """All valid six-tuples over a prime field, lexicographically.

    Over a field the eight relations leave exactly two families: the
    commutative tuples (b, c, 0, 0, y, z) and the exceptional tuples
    (n, 0, m, n, 0, m), which share only the zero tuple.  The census is
    built from these p^4 + p^2 - 1 tuples, sorted once.  Their values
    are ints in range(p), canonical already, so each tuple is built by
    CubicCoefficients._canonical, which re-validates the eight relations
    as the constructor does.  The guard keeps its bound of 10^7 on the
    p^6 candidate tuples, so the same fields are refused as before.
    """
    if spec.kind != "Fp":
        raise UnsupportedRing("the census runs over prime fields")
    p = spec.p
    check_guard(p**6, 10**7, "cubic census")
    commutative = [
        (b, c, 0, 0, y, z)
        for b, c, y, z in itertools.product(range(p), repeat=4)
    ]
    exceptional = [  # less the zero tuple, which is commutative
        (n, 0, m, n, 0, m)
        for n, m in itertools.product(range(p), repeat=2)
        if n or m
    ]
    canonical = CubicCoefficients._canonical
    return [canonical(spec, tup) for tup in sorted(commutative + exceptional)]


# One census row as json.dumps(report.to_json(), indent=2, sort_keys=True)
# renders it inside "rows", and as a line of the plain-text table.  Field 0
# is the case, 1 the involution flag, 2-7 the raw values b, c, m, n, y, z;
# the str() of a canonical raw value never needs JSON escaping.
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


def _json_members(obj):
    """json.dumps(obj, indent=2, sort_keys=True) of a non-empty dict,
    without its opening and closing brace lines."""
    return json.dumps(obj, indent=2, sort_keys=True)[2:-2]


class CensusReport:
    """Per-tuple verdicts for the structure theorem over one field.

    to_json builds the report as a dict.  write_json writes the same
    bytes as json.dumps(to_json(), indent=2, sort_keys=True) plus a
    newline without building either: the summary keys go through
    json.dumps, the rows through a fixed template on raw values, a chunk
    at a time.  write_table does the same for the plain-text table.
    """

    def __init__(self, spec, total, rows, intersection, representatives):
        self.spec = spec
        self.total = total
        # (CubicCoefficients, CubicCase, has_involution); the writers
        # render a row from the coefficients' raw values (_values)
        self.rows = rows
        self.intersection = intersection
        self.representatives = representatives

    @property
    def valid(self):
        return len(self.rows)

    def case_counts(self):
        counts = {case.value: 0 for case in CubicCase}
        for _, case, _ in self.rows:
            counts[case._value_] += 1  # the value, not through the property
        return counts

    def theorem_holds(self):
        every = all(
            case is not CubicCase.EXCEPTIONAL or has_inv
            for _, case, has_inv in self.rows
        )
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
                "tuple": [str(v) for v in coeffs._values],
                "case": case.value,
                "standard_involution": has_inv,
            }
            for coeffs, case, has_inv in self.rows
        ]
        return out

    def _render_rows(self, template, flags):
        """Each row through template, the flag read as flags[has_inv]."""
        fmt = template.format
        for t, case, has_inv in self.rows:
            yield fmt(case._value_, flags[has_inv], *t._values)

    def write_json(self, out):
        """Write the JSON report and a newline to out (see the class)."""
        summary = self._summary()
        head = {k: v for k, v in summary.items() if k < "rows"}
        tail = {k: v for k, v in summary.items() if k > "rows"}
        out.write("{\n" + _json_members(head) + ",\n")
        if self.rows:
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
    involution-bearing.  The report records each tuple's verdict, and
    as its class representatives the first member of each class that
    exceptional_classes returns, or None where that refuses (p >= 7).
    """
    tuples = enumerate_cubic(spec)
    rows = []
    meet = []
    exceptional = CubicCase.EXCEPTIONAL
    for coeffs in tuples:
        case = classify_case(coeffs)
        has_inv = find_standard_involution(build_algebra(coeffs)) is not None
        rows.append((coeffs, case, has_inv))
        if case is not exceptional and has_inv:
            meet.append(coeffs)
    try:
        reps = [cls[0] for cls in exceptional_classes(spec)]
    except GuardExceeded:
        reps = None
    return CensusReport(spec, spec.p**6, rows, meet, reps)


def exceptional_classes(spec: RingSpec):
    """The isomorphism classes of the non-commutative tables
    (n, 0, m, n, 0, m) over a prime field, plus the zero table, grouped
    by exceptional_normal_form, whose map to the normal table is
    verified for every member.  Returns a list of classes, each a list
    of CubicCoefficients with the representative first: the zero table
    alone, then every other member, in lexicographic order, which is
    the census's order of these tuples.  No search runs, but the
    isomorphism cap still refuses p >= 7.

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
    canonical = CubicCoefficients._canonical
    classes = {}
    for n, m in itertools.product(range(spec.p), repeat=2):
        coeffs = canonical(spec, (n, 0, m, n, 0, m))
        classes.setdefault(exceptional_normal_form(coeffs)[0], []).append(coeffs)
    return list(classes.values())


# -- quadratic census ---------------------------------------------------------


class QuadraticCensusReport:
    def __init__(self, spec, classes, disc_classes, square_class_count):
        self.spec = spec
        self.classes = classes  # lists of (t, n) QuadraticAlgebra
        self.disc_classes = disc_classes
        self.square_class_count = square_class_count

    def partitions_agree(self):
        as_sets = lambda part: set(map(frozenset, part))
        return as_sets(self.classes) == as_sets(self.disc_classes)

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

    The brute-force partition is compared against the discriminant
    partition, and the class count against the number of square
    classes, each computed independently.
    """
    if spec.kind != "Fp" or spec.p == 2:
        raise UnsupportedRing("the quadratic census runs over odd prime fields")
    if spec.p > 13:
        raise UnsupportedRing("the quadratic census is desk-scale: p <= 13")
    p = spec.p
    algebras = [QuadraticAlgebra(spec, t, n) for t in range(p) for n in range(p)]
    classes = _partition(
        algebras, lambda a, b: is_isomorphic_bruteforce(a.structure(), b.structure())[0]
    )
    disc_classes = _partition(algebras, lambda a, b: a.discriminant() == b.discriminant())
    square_classes = {
        frozenset(d * u * u % p for u in range(1, p)) for d in range(p)
    }
    return QuadraticCensusReport(
        spec, classes, disc_classes, len(square_classes)
    )


# -- degree probes ------------------------------------------------------------


class DegreeProductReport:
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
    certifies by exhaustion that none exists.
    """
    if a.spec != b.spec:
        raise SpecMismatch("factors over different rings")
    deg_a = algebra_degree(a)
    deg_b = algebra_degree(b)
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
        ok = verify_involution(adj)[0] and verify_standard(adj)[0]
        checks.append(("adjugate_standard", ok, "x * adj(x) = det(x)"))
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
    ok = verify_involution(swap)[0] and verify_standard(swap)[0]
    checks.append(("pair_swap_standard", ok, "coordinate swap on F x F"))
    pair_alg = direct_product(rank_one(spec), rank_one(spec))
    deg = algebra_degree(pair_alg)
    checks.append(("pair_degree_2", deg == 2, f"degree {deg}"))
    return ProbeReport(spec, n, checks)
