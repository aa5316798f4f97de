"""Rank-3 free algebras: the universal table, its reduction, and forms.

A rank-3 algebra with basis 1, i, j has twelve multiplication
coefficients.  A basis shift i -> i - f, j -> j - e clears the linear
terms of the mixed product ij, after which associativity forces the
four scalar coefficients and leaves six free ones (b, c, m, n, y, z)
subject to eight quadratic relations.  Valid six-tuples fall into two
overlapping families: commutative tables (m = n = 0) and exceptional
tables (c = y = 0 with (m, n) != (0, 0)), which meet exactly in the
table where every product of generators is zero.

Commutative tables correspond to binary cubic forms, and the
exceptional tables carry a conjugation involution with an explicit
norm; both directions are implemented here with verified witnesses.
An exceptional table is the rank-3 view of B(phi) = R + M with
x y = phi(x) y on M (exceptional_ring, at any rank), through the
verified map of exceptional_witness.

A GeneralCubicTable, a CubicCoefficients and a BinaryCubicForm each
store their coefficients once, as the ring's canonical raw values in
`_values` (rings._RawValues), as StructureConstants stores its table.
Every computation here, and equality, hashing and the JSON and census
renderings, reads those values; RingElements are built only where a
caller reads a coefficient attribute, as_tuple() or a RingElement result.
"""

from __future__ import annotations

import enum

from .algebra import (
    AlgebraMap,
    SquareMatrix,
    StructureConstants,
    _basis_values,
    _divided,
    _on_ints,
    rebase,
)
from .errors import (
    InputError,
    NotAUnit,
    RelationViolation,
    SpecMismatch,
    WrongCase,
)
from .involutions import Involution, find_standard_involution
from .poly import Polynomial
from .rings import RingElement, RingSpec, _RawValues, _unit_inverse, _xgcd


class GeneralCubicTable(_RawValues):
    """All twelve coefficients of a rank-3 table:

        i*i = a + b i + c j      i*j = d + e i + f j
        j*i = l + m i + n j      j*j = x + y i + z j
    """

    FIELDS = ("a", "b", "c", "d", "e", "f", "l", "m", "n", "x", "y", "z")
    __slots__ = ()

    def __init__(self, spec: RingSpec, **coeffs):
        unknown = set(coeffs) - set(self.FIELDS)
        if unknown:
            raise InputError(f"unknown coefficients {sorted(unknown)}")
        self.spec = spec
        self._values = tuple(spec.value(coeffs.get(k, 0)) for k in self.FIELDS)

    def structure(self) -> StructureConstants:
        a, b, c, d, e, f, l, m, n, x, y, z = self._values
        return StructureConstants(
            self.spec,
            [
                [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                [[0, 1, 0], [a, b, c], [d, e, f]],
                [[0, 0, 1], [l, m, n], [x, y, z]],
            ],
        )

    @classmethod
    def _of_structure(cls, alg: StructureConstants) -> GeneralCubicTable:
        """The twelve coefficients of a rank-3 table whose basis starts
        with 1, read off its cells i*i, i*j, j*i and j*j; the inverse of
        structure()."""
        t = alg._values
        cells = t[1][1] + t[1][2] + t[2][1] + t[2][2]
        return cls(alg.spec, **dict(zip(cls.FIELDS, cells)))

    def good_basis(self) -> GeneralCubicTable:
        """The table in the good basis (1, i - f, j - e), where the mixed
        product i*j is scalar; one algebra.rebase call, whose map is
        verified before the coefficients are read off."""
        _, _, _, _, e, f, *_ = self._values
        table, _ = rebase(self.structure(), [(1, 0, 0), (-f, 1, 0), (-e, 0, 1)])
        return GeneralCubicTable._of_structure(table)

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in zip(self.FIELDS, self._values))
        return f"GeneralCubicTable({inner})"


RELATION_NAMES = (
    "cm = 0",
    "cn = 0",
    "ny = 0",
    "my = 0",
    "bm = mn",
    "mn = nz",
    "n^2 = bn",
    "m^2 = mz",
)


def validate_relations(spec: RingSpec, b, c, m, n, y, z):
    """Evaluate the eight coefficient relations exactly.

    Returns (True, []) or (False, [names of violated identities]).
    """
    values = tuple(map(spec.value, (b, c, m, n, y, z)))
    _, (ints,), _ = _on_ints(spec, (values,))
    violated = _violated_relations(spec, *ints)
    return not violated, violated


def _violated_relations(spec, b, c, m, n, y, z):
    """Names of the relations that canonical raw values violate; each
    relation is checked as lhs - rhs = 0.  When every residue is 0 as a
    number, which is 0 in every ring, nothing is violated; otherwise
    each residue is reduced mod p over F_p.  Over Q the callers pass
    the six values over one denominator (algebra._on_ints), as ints:
    every relation is a homogeneous quadratic, so each residue scales
    by the square of that denominator and the violated names stay the
    same."""
    residues = (
        c * m,
        c * n,
        n * y,
        m * y,
        b * m - m * n,
        m * n - n * z,
        n * n - b * n,
        m * m - m * z,
    )
    if not any(residues):
        return []
    p = spec.p
    return [
        name
        for name, r in zip(RELATION_NAMES, residues)
        if (r % p if p else r)
    ]


class CubicCase(enum.Enum):
    """The case of a valid six-tuple (classify_case)."""

    COMMUTATIVE = "commutative"
    EXCEPTIONAL = "exceptional"
    NILPRODUCT = "nilproduct"


class CubicCoefficients(_RawValues):
    """A valid six-tuple (b, c, m, n, y, z); construction checks the
    eight relations and raises RelationViolation otherwise.

    The constructor is the one way a six-tuple is built, the census's
    included: each value is converted by RingSpec.value, and the tuple
    is stored once, as the six canonical raw values in `_values`.  The
    attributes b, c, m, n, y, z and as_tuple() build RingElements of
    the spec when they are read; equality, hashing, repr, to_json,
    build_algebra, classify_case and the census report rows read
    `_values` directly.
    """

    FIELDS = ("b", "c", "m", "n", "y", "z")
    __slots__ = ()

    def __init__(self, spec: RingSpec, b, c, m, n, y, z):
        values = tuple(map(spec.value, (b, c, m, n, y, z)))
        _, (ints,), _ = _on_ints(spec, (values,))
        violated = _violated_relations(spec, *ints)
        if violated:
            raise RelationViolation(violated)
        self.spec = spec
        self._values = values

    to_json = _RawValues._fields_json

    @staticmethod
    def from_json(spec: RingSpec, obj) -> CubicCoefficients:
        return CubicCoefficients._from_fields(
            spec, obj, "cubic coefficients need keys 'b', 'c', 'm', 'n', 'y', 'z'"
        )


def normalize(table: GeneralCubicTable) -> CubicCoefficients:
    """Reduce a twelve-coefficient table to its six free coefficients.

    After the basis shift, associativity pins the four scalar
    coefficients (a = -cz, d = cy, x = -by, l = cy - nz) and the
    remaining six must satisfy the coefficient relations.  Violations
    are reported by name.
    """
    spec = table.spec
    a, b, c, d, _, _, l, m, n, x, y, z = table.good_basis()._values
    p = spec.p
    # each pinned coefficient as lhs - rhs, zero when it holds
    pinned = (
        ("a = -cz", a + c * z),
        ("d = cy", d - c * y),
        ("x = -by", x + b * y),
        ("l = cy - nz", l - c * y + n * z),
    )
    violated = [name for name, r in pinned if (r % p if p else r)]
    if violated:
        raise RelationViolation(violated)
    return CubicCoefficients(spec, b, c, m, n, y, z)


def _table_values(spec: RingSpec, values):
    """The canonical raw rows of the table of the canonical raw
    six-tuple values (b, c, m, n, y, z), as build_algebra stores them:
    the four computed cells reduced mod p, the constants the ring's own
    0 and 1 (algebra._basis_values)."""
    b, c, m, n, y, z = values
    a, d, l, x = -(c * z), c * y, c * y - b * m, -(b * y)
    p = spec.p
    if p:
        a, d, l, x = a % p, d % p, l % p, x % p
    zero, basis = _basis_values(spec, 3)
    return (
        basis,
        (basis[1], (a, b, c), (d, zero, zero)),
        (basis[2], (l, m, n), (x, y, z)),
    )


def build_algebra(coeffs: CubicCoefficients) -> StructureConstants:
    """The rank-3 algebra of a valid six-tuple:

        i*i = -cz + b i + c j    i*j = cy
        j*i = (cy - bm) + m i + n j
        j*j = -by + y i + z j

    The six-tuple was validated when it was built, so the rows of
    _table_values are canonical and are stored without re-checking.
    """
    return StructureConstants._canonical(
        coeffs.spec, _table_values(coeffs.spec, coeffs._values)
    )


# The cases in the order of their indices (_case_index).
_CASES = tuple(CubicCase)


def _case_index(values):
    """The index in _CASES of the case of the canonical raw six-tuple
    values (b, c, m, n, y, z): 0 commutative, 1 exceptional, 2
    nilproduct (the zero tuple)."""
    if not any(values):
        return 2
    if not (values[2] or values[3]):  # m = n = 0
        return 0
    return 1


def _forced_traces_of(values):
    """involutions._forced_traces of the table of the canonical raw
    six-tuple values (b, c, m, n, y, z), in closed form: the traces
    (b, z), or None.

    The table (_table_values) has i^2 = (-cz, b, c), j^2 = (-by, y, z),
    ij = (cy, 0, 0) and ji = (cy - bm, m, n).  The span check of
    _forced_traces reads i^2 and j^2: c = y = 0, with traces (b, z).
    Its check of ij + ji reads the i and j coordinates: m - z = 0 and
    n - b = 0.  The scalar cells are never read, and canonical values
    are equal exactly when they are congruent, so no mod is taken and
    no table is built.  The relations are not used."""
    b, c, m, n, y, z = values
    if c or y or m != z or n != b:
        return None
    return b, z


def classify_case(coeffs: CubicCoefficients) -> CubicCase:
    """The case of a valid six-tuple: COMMUTATIVE when m = n = 0 and the
    tuple is nonzero, NILPRODUCT for the zero tuple, and EXCEPTIONAL
    otherwise."""
    return _CASES[_case_index(coeffs._values)]


def exceptional_ring(spec: RingSpec, phi) -> StructureConstants:
    """The table of B(phi) = R + M, of rank k = 1 + len(phi).

    M is free on e_1, ..., e_{k-1}, phi is the linear functional on M
    with phi(e_a) = phi[a - 1], and x y = phi(x) y on M, so that
    e_a e_b = phi_a e_b (Voight, "Rings of low rank with a standard
    involution", Illinois J. Math. 55, 2011).  Its standard involution
    is the conjugation x -> phi(x) - x on M,
    involutions._conjugation(B, phi), which find_standard_involution
    returns.  At rank 3 this is the model of the non-commutative case:
    exceptional_witness maps the table of (n, 0, m, n, 0, m) onto
    B((n, m)).  Each phi_a is checked by RingSpec.value, and the rows,
    built of those canonical values and the constants of
    algebra._basis_values, are stored through
    StructureConstants._canonical without re-checking.
    """
    phi = tuple(map(spec.value, phi))
    _, basis = _basis_values(spec, 1 + len(phi))
    rows = [basis]
    for e, f in zip(basis[1:], phi):
        # row a: e_a e_0 = e_a, then e_a e_b = phi_a e_b
        rows.append((e, *[tuple([f if x else x for x in v]) for v in basis[1:]]))
    return StructureConstants._canonical(spec, tuple(rows))


def _exceptional_phi(coeffs: CubicCoefficients, message: str):
    """The functional phi = (n, m) of the B(phi) that exceptional_witness
    maps the table of a non-commutative or zero six-tuple
    (n, 0, m, n, 0, m) onto, as canonical raw values.  A commutative
    nonzero tuple raises WrongCase(message): the one case check of the
    rank-3 exceptional functions, each with its own message."""
    if classify_case(coeffs) is CubicCase.COMMUTATIVE:
        raise WrongCase(message)
    _, _, m, n, _, _ = coeffs._values
    return n, m


def standard_involution_exceptional(coeffs: CubicCoefficients) -> Involution:
    """Conjugation 1 -> 1, i -> n - i, j -> m - j on an exceptional or
    nilproduct table, as find_standard_involution builds and verifies
    it: the traces it reads off i^2 = n i and j^2 = m j are (n, m), the
    phi of B(phi) in exceptional_ring."""
    _exceptional_phi(coeffs, "conjugation is defined on exceptional tables only")
    inv = find_standard_involution(build_algebra(coeffs))
    if inv is None:
        raise AssertionError("exceptional table has no verified standard involution")
    return inv


def exceptional_norm(coeffs: CubicCoefficients, element_coeffs) -> RingElement:
    """Closed-form norm of p + q i + r j on an exceptional or nilproduct
    table: p (p + q n + r m) + q r m n.  A commutative table has no
    conjugation to take the norm for, and raises WrongCase.

    (p, q, r) are coordinates in the table basis 1, i, j, unlike those
    of char_poly_exceptional.  The element s + y_1 e_1 + y_2 e_2 of
    B((n, m)) (exceptional_ring) is (s + n y_1) - y_1 i + y_2 j here,
    through exceptional_witness's map, and its norm is
    s (s + phi(y)) with phi(y) = n y_1 + m y_2.
    """
    n, m = _exceptional_phi(coeffs, "the closed-form norm holds for exceptional tables only")
    spec = coeffs.spec
    p, q, r = map(spec.value, element_coeffs)
    return spec.element(p * (p + q * n + r * m) + q * r * m * n)


class ExceptionalWitness:
    """Generators of the two-sided ideal spanned by n - i and j, with
    the functional values that multiplication projects onto."""

    __slots__ = ("algebra", "gen_i", "gen_j", "t_i", "t_j")

    def __init__(self, algebra, gen_i, gen_j, t_i, t_j):
        self.algebra = algebra
        self.gen_i = gen_i
        self.gen_j = gen_j
        self.t_i = t_i
        self.t_j = t_j

    def to_json(self) -> dict:
        return {
            "ideal_generators": [
                [str(c) for c in self.gen_i._values],
                [str(c) for c in self.gen_j._values],
            ],
            "functional": [str(self.t_i), str(self.t_j)],
        }


def exceptional_witness(coeffs: CubicCoefficients) -> ExceptionalWitness:
    """Exhibit the ideal structure of an exceptional table.

    With I = n - i the span of I and j is a two-sided ideal on which
    multiplication acts through the functional t(I) = n, t(j) = m:
    x y = t(x) y, so I^2 = n I, I j = n j, j I = m I, j^2 = m j.  The
    certificate is the map 1 -> 1, i -> n - e1, j -> e2 onto
    exceptional_ring(spec, (n, m)), the table B(t) with basis 1, e1, e2
    and e_a e_b = t(e_a) e_b: verify_isomorphism checks the four
    identities and the independence of 1, I, j at once, and
    AssertionError is raised if it fails.  A commutative table raises
    WrongCase.
    """
    n, m = phi = _exceptional_phi(coeffs, "the ideal witness exists for exceptional tables only")
    alg = build_algebra(coeffs)
    model = exceptional_ring(coeffs.spec, phi)
    if not AlgebraMap(alg, model, [(1, 0, 0), (n, -1, 0), (0, 0, 1)]).verify_isomorphism():
        raise AssertionError("ideal witness map failed verification")
    return ExceptionalWitness(
        alg, alg.element([n, -1, 0]), alg.basis(2), coeffs.n, coeffs.m
    )


def exceptional_normal_form(coeffs: CubicCoefficients):
    """The normal form of an exceptional or zero table, with a verified
    map onto it: (normal CubicCoefficients, AlgebraMap).

    On (n, 0, m, n, 0, m) the span J of I = n - i and j is an ideal
    with x y = t(x) y, t(I) = n, t(j) = m (see exceptional_witness), so
    a linear bijection psi from J onto the J' of another such table
    with t' psi = t, extended by 1 -> 1, is an algebra isomorphism.
    From u n + v m = d, with d = gcd(m, n) over Z (rings._xgcd) and
    d = 1 over a field (one inverse), the normal table is
    (d, 0, 0, d, 0, 0), where t'(I') = d and t'(j') = 0, and

        psi(I) = (n/d) I' - v j'      psi(j) = (m/d) I' + u j'

    has determinant (u n + v m) / d = 1 on J.  In the target basis the
    map sends i = n - I to n - psi(I) = (0, n/d, v) and j to
    psi(j) = (m, -m/d, u).  The zero table is its own normal form, by
    the identity.  The map is re-checked by verify_isomorphism before
    it is returned; a commutative nonzero tuple raises WrongCase.
    """
    return _normal_form(coeffs, None)


def _normal_table(spec: RingSpec, d):
    """The normal six-tuple (d, 0, 0, d, 0, 0) and its table."""
    normal = CubicCoefficients(spec, d, 0, 0, d, 0, 0)
    return normal, build_algebra(normal)


def _normal_form(coeffs: CubicCoefficients, built):
    """exceptional_normal_form(coeffs), whose nonzero tables map onto
    `built`, the _normal_table of their d, when it is not None: over a
    field d = 1 for them all, so exceptional_classes builds that table
    once for its whole family."""
    n, m = _exceptional_phi(coeffs, "the normal form is defined on exceptional tables only")
    spec = coeffs.spec
    source = build_algebra(coeffs)
    if not (n or m):
        normal, target, images = coeffs, source, source._values[0]
    else:
        if spec.kind == "Z":
            d, u, v = _xgcd(n, m)
            n_d, m_d = n // d, m // d
        else:
            d, n_d, m_d = 1, n, m
            u, v = (_unit_inverse(spec, n), 0) if n else (0, _unit_inverse(spec, m))
        normal, target = built or _normal_table(spec, d)
        images = [(1, 0, 0), (0, n_d, v), (m, -m_d, u)]
    phi = AlgebraMap(source, target, images)
    if not phi.verify_isomorphism():
        raise AssertionError("normal-form map failed verification")
    return normal, phi


def matrix_rep(coeffs: CubicCoefficients):
    """Matrices for the two generators of any valid table.

    Returns (I, J) acting on column vectors: the left regular
    representations L_1 = I and L_2 = J of i and j in the table of
    build_algebra, read off its cells (column c of L_a is e_a e_c),

        I = [[0, -cz, cy], [1, b, 0], [0, c, 0]]
        J = [[0, cy - bm, -by], [0, m, y], [1, n, z]]

    once the table is checked to satisfy the defining identities

        I^2 = -cz + b I + c J        I J = cy
        J I = (cy - bm) + m I + n J  J^2 = -by + y I + z J

    These are L_a L_b = sum_l t_ab^l L_l for a, b in {1, 2}.  Applied to
    e_c, the left side is e_a (e_b e_c) and the right side (e_a e_b) e_c,
    and both sides send e_0 = 1 to e_a e_b, so the identities hold
    exactly when the table is associative on the triples off the unit:
    the check is verify_associativity (on the integral model over Q),
    and a table that fails it raises RelationViolation.  The identity,
    I and J have the three coordinate vectors as first columns, so they
    are linearly independent for every table.
    """
    alg = build_algebra(coeffs)
    if not alg.verify_associativity()[0]:
        raise RelationViolation(["matrix identities fail for this table"])
    t = alg._values
    # the first column of L_a is the cell e_a e_0, and row 0 holds e_a
    if [t[a][0] for a in range(3)] != list(t[0]):
        raise AssertionError("representation lost independence")
    return SquareMatrix(alg.spec, zip(*t[1])), SquareMatrix(alg.spec, zip(*t[2]))


def char_poly_exceptional(coeffs: CubicCoefficients, element_coeffs) -> Polynomial:
    """Closed-form characteristic polynomial on an exceptional table.

    The coordinates (p, q, r) describe p + q u + r v in the ideal basis
    (1, u, v) with u = j and v = n - i. Left multiplication by u scales
    the ideal u R + v R by m and left multiplication by v scales it by
    n, so the matrix of the element in this basis is lower triangular
    with diagonal (p, p + mq + rn, p + mq + rn); the characteristic
    polynomial is (T - p)(T - p - mq - rn)^2. In the table basis the
    same element reads (p + rn) - r i + q j, and the characteristic
    polynomial does not depend on the choice of basis.

    These are not the coordinates of exceptional_norm, which reads
    (p, q, r) in the table basis.  exceptional_witness sends v to e_1
    and u to e_2 in B((n, m)) (exceptional_ring), so the element is
    p + r e_1 + q e_2 there, and the polynomial is
    (T - p)(T - p - phi(y))^2 with y = r e_1 + q e_2.
    """
    n, m = _exceptional_phi(coeffs, "closed form holds for exceptional tables only")
    spec = coeffs.spec
    p, q, r = map(spec.value, element_coeffs)
    double = Polynomial(spec, (-(p + m * q + r * n), 1))
    return Polynomial(spec, (-p, 1)) * double * double


# -- binary cubic forms ------------------------------------------------------


class BinaryCubicForm(_RawValues):
    """a X^3 + b X^2 Y + c X Y^2 + d Y^3 with exact coefficients."""

    FIELDS = ("a", "b", "c", "d")
    __slots__ = ()

    def __init__(self, spec: RingSpec, a, b, c, d):
        self.spec = spec
        self._values = tuple(map(spec.value, (a, b, c, d)))

    def discriminant(self) -> RingElement:
        a, b, c, d = self._values
        return self.spec.element(
            b * b * c * c
            + 18 * a * b * c * d
            - 4 * a * c**3
            - 4 * d * b**3
            - 27 * a * a * d * d
        )

    to_json = _RawValues._fields_json

    @staticmethod
    def from_json(spec: RingSpec, obj) -> BinaryCubicForm:
        return BinaryCubicForm._from_fields(spec, obj, "form needs keys 'a', 'b', 'c', 'd'")


def gl2_act(g: SquareMatrix, form: BinaryCubicForm) -> BinaryCubicForm:
    """Twisted substitution action of an invertible 2x2 matrix.

    The two variables are replaced by the columns of g and the result
    is divided by det(g); the discriminant then scales by det(g)^2.
    It runs on ints: with g = G / d_g and f = F / d_f for the integers
    of algebra._on_ints (d_g = d_f = 1 outside Q), the substitution is
    homogeneous of degree 3 in g and of degree 1 in f, and
    det(g) = det(G) / d_g^2, so the result is the substitution of G
    into F divided by d_f d_g det(G), one division per coefficient
    (algebra._divided).
    """
    spec = form.spec
    if g.n != 2 or g.spec != spec:
        raise SpecMismatch("the action needs a 2x2 matrix over the form's ring")
    ring, rows, d_g = _on_ints(spec, g._values)
    _, (f,), d_f = _on_ints(spec, (form._values,))
    (alpha, beta), (gamma, delta) = rows
    det = alpha * delta - beta * gamma
    out = _divided(spec, [_substitute(ring, rows, f)], 1, d_f * d_g * det)
    if out is None:
        raise NotAUnit(f"matrix determinant {spec.value(det)} is not a unit")
    return BinaryCubicForm(spec, *out[0])


def _substitute(spec: RingSpec, rows, values):
    """The four raw coefficients of the form with raw coefficients
    `values` after its two variables are replaced by the columns of the
    2x2 matrix with raw rows `rows`, before the division by the
    determinant: the one substitution loop of gl2_act."""
    (alpha, beta), (gamma, delta) = rows
    u = Polynomial(spec, (alpha, gamma))
    v = Polynomial(spec, (beta, delta))
    u2, v2 = u * u, v * v
    # Polynomial strips trailing zeros; pad each cube back to four terms
    cubes = [
        w._values + (0,) * (3 - w.degree()) for w in (u2 * u, u2 * v, u * v2, v2 * v)
    ]
    return [sum(f * w[k] for f, w in zip(values, cubes)) for k in range(4)]


def form_from_commutative(coeffs: CubicCoefficients) -> BinaryCubicForm:
    """The binary cubic form attached to a commutative table.

    The translation (a, b, c, d) = (-c, b, -z, y) is fixed by matching
    multiplication tables; rebuilding the algebra from the form returns
    the original table entry for entry.
    """
    if classify_case(coeffs) is CubicCase.EXCEPTIONAL:
        raise WrongCase("forms correspond to commutative tables only")
    b, c, _, _, y, z = coeffs._values
    return BinaryCubicForm(coeffs.spec, -c, b, -z, y)


def commutative_from_form(form: BinaryCubicForm) -> CubicCoefficients:
    """Inverse translation: (b, c, m, n, y, z) = (b, -a, 0, 0, d, -c)."""
    a, b, c, d = form._values
    return CubicCoefficients(form.spec, b, -a, 0, 0, d, -c)


def algebra_from_form(form: BinaryCubicForm) -> StructureConstants:
    """The table of the commutative six-tuple of the form,
    build_algebra(commutative_from_form(form)), which reads off the
    form directly as

        i*i = -ac + b i - a j    i*j = j*i = -ad
        j*j = -bd + d i - c j
    """
    return build_algebra(commutative_from_form(form))
