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

A GeneralCubicTable, a CubicCoefficients and a BinaryCubicForm each
store their coefficients once, as the ring's canonical raw values in
`_values` (rings._RawValues), as StructureConstants stores its table.
Every computation here, and equality, hashing and the JSON and census
renderings, reads those values; RingElements are built only where a
caller reads a coefficient attribute, as_tuple() or a RingElement result.
"""

from __future__ import annotations

import enum

from .algebra import AlgebraMap, SquareMatrix, StructureConstants, left_regular_rep
from .errors import (
    InputError,
    NotAUnit,
    RelationViolation,
    SpecMismatch,
    WrongCase,
)
from .involutions import Involution, _conjugation, find_standard_involution
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

    def good_basis(self) -> GeneralCubicTable:
        """Shift the generators to clear the linear terms of i*j.

        Substituting i - f and j - e for the generators leaves the
        mixed product i*j scalar; every other coefficient is recomputed
        exactly.
        """
        a, b, c, d, e, f, l, m, n, x, y, z = self._values
        return GeneralCubicTable(
            self.spec,
            a=a + b * f - f * f + c * e,
            b=b - 2 * f,
            c=c,
            d=d + e * f,
            e=0,
            f=0,
            l=l + m * f + n * e - e * f,
            m=m - e,
            n=n - f,
            x=x + y * f + z * e - e * e,
            y=y,
            z=z - 2 * e,
        )

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
    violated = _violated_relations(spec, *map(spec.value, (b, c, m, n, y, z)))
    return not violated, violated


def _violated_relations(spec, b, c, m, n, y, z):
    """Names of the relations that canonical raw values violate; each
    relation is checked as lhs - rhs = 0.  When every residue is 0 as a
    number, which is 0 in every ring, nothing is violated; otherwise
    each residue is reduced mod p over F_p."""
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
    COMMUTATIVE = "commutative"
    EXCEPTIONAL = "exceptional"
    NILPRODUCT = "nilproduct"


class CubicCoefficients(_RawValues):
    """A valid six-tuple (b, c, m, n, y, z); construction checks the
    eight relations and raises RelationViolation otherwise.

    The tuple is stored once, as the six canonical raw values in
    `_values` (RingSpec.value).  The attributes b, c, m, n, y, z and
    as_tuple() build RingElements of the spec when they are read;
    equality, hashing, repr, to_json, build_algebra, classify_case and
    the census report rows read `_values` directly.  The census builds
    its tuples with _canonical, which takes values that are canonical
    already and skips their conversion, but checks the relations as the
    constructor does.
    """

    FIELDS = ("b", "c", "m", "n", "y", "z")
    __slots__ = ()

    def __init__(self, spec: RingSpec, b, c, m, n, y, z):
        self._store(spec, tuple(map(spec.value, (b, c, m, n, y, z))))

    @classmethod
    def _canonical(cls, spec: RingSpec, values) -> CubicCoefficients:
        """The tuple of six canonical raw values (RingSpec.value), such
        as ints in range(p) over F_p, stored unconverted; the relations
        are checked as by the constructor."""
        out = object.__new__(cls)
        out._store(spec, values)
        return out

    def _store(self, spec, values):
        """Keep the canonical raw values, or raise RelationViolation."""
        violated = _violated_relations(spec, *values)
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


def build_algebra(coeffs: CubicCoefficients) -> StructureConstants:
    """The rank-3 algebra of a valid six-tuple:

        i*i = -cz + b i + c j    i*j = cy
        j*i = (cy - bm) + m i + n j
        j*j = -by + y i + z j

    The six-tuple was validated when it was built, so the table is made
    canonical here (the four computed cells reduced mod p, the constants
    the ring's own 0 and 1, which over F_p are the ints 0 and 1) and
    stored without re-checking.
    """
    spec = coeffs.spec
    b, c, m, n, y, z = coeffs._values
    a, d, l, x = -(c * z), c * y, c * y - b * m, -(b * y)
    p = spec.p
    if p:
        a, d, l, x = a % p, d % p, l % p, x % p
        zero, one = 0, 1
    else:
        zero, one = spec.value(0), spec.value(1)
    basis = ((one, zero, zero), (zero, one, zero), (zero, zero, one))
    return StructureConstants._canonical(
        spec,
        (
            basis,
            (basis[1], (a, b, c), (d, zero, zero)),
            (basis[2], (l, m, n), (x, y, z)),
        ),
    )


def classify_case(coeffs: CubicCoefficients) -> CubicCase:
    vals = coeffs._values
    if not any(vals):
        return CubicCase.NILPRODUCT
    if not (vals[2] or vals[3]):  # m = n = 0
        return CubicCase.COMMUTATIVE
    return CubicCase.EXCEPTIONAL


def standard_involution_exceptional(coeffs: CubicCoefficients) -> Involution:
    """Conjugation 1 -> 1, i -> n - i, j -> m - j on an exceptional or
    nilproduct table, as find_standard_involution builds and verifies
    it: the traces it reads off i^2 = n i and j^2 = m j are (n, m)."""
    if classify_case(coeffs) is CubicCase.COMMUTATIVE:
        raise WrongCase("conjugation is defined on exceptional tables only")
    inv = find_standard_involution(build_algebra(coeffs))
    if inv is None:
        raise AssertionError("exceptional table has no verified standard involution")
    return inv


def exceptional_norm(coeffs: CubicCoefficients, element_coeffs) -> RingElement:
    """Closed-form norm of p + q i + r j on an exceptional or nilproduct
    table: p (p + q n + r m) + q r m n.  A commutative table has no
    conjugation to take the norm for, and raises WrongCase."""
    if classify_case(coeffs) is CubicCase.COMMUTATIVE:
        raise WrongCase("the closed-form norm holds for exceptional tables only")
    spec = coeffs.spec
    p, q, r = map(spec.value, element_coeffs)
    _, _, m, n, _, _ = coeffs._values
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

    With I = n - i the products collapse to I^2 = n I, I j = n j,
    j I = m I, j^2 = m j: multiplication by any element of the span of
    {I, j} acts through the functional t(I) = n, t(j) = m.  All four
    identities are checked exactly, as is the independence of 1, I, j.
    """
    case = classify_case(coeffs)
    if case is CubicCase.COMMUTATIVE:
        raise WrongCase("the ideal witness exists for exceptional tables only")
    alg = build_algebra(coeffs)
    spec = coeffs.spec
    gen_i = alg.element([coeffs._values[3], -1, 0])
    gen_j = alg.basis(2)
    t_i, t_j = coeffs.n, coeffs.m
    pairs = (
        (gen_i, gen_i, t_i),
        (gen_i, gen_j, t_i),
        (gen_j, gen_i, t_j),
        (gen_j, gen_j, t_j),
    )
    for left, right, t in pairs:
        if left * right != right * t:
            raise WrongCase(f"ideal identity fails on {left!r} * {right!r}")
    # the rows are the coordinates of 1, I and j; transposing keeps the det
    basis_matrix = SquareMatrix(spec, [alg.one()._values, gen_i._values, gen_j._values])
    if not basis_matrix.det().is_unit():
        raise WrongCase("witness generators do not complete a basis")
    return ExceptionalWitness(alg, gen_i, gen_j, t_i, t_j)


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
    case = classify_case(coeffs)
    if case is CubicCase.COMMUTATIVE:
        raise WrongCase("the normal form is defined on exceptional tables only")
    spec = coeffs.spec
    source = build_algebra(coeffs)
    if case is CubicCase.NILPRODUCT:
        phi = AlgebraMap(source, source, [source.basis(k) for k in range(3)])
        normal = coeffs
    else:
        _, _, m, n, _, _ = coeffs._values
        if spec.kind == "Z":
            d, u, v = _xgcd(n, m)
            n_d, m_d = n // d, m // d
        else:
            d, n_d, m_d = 1, n, m
            u, v = (_unit_inverse(spec, n), 0) if n else (0, _unit_inverse(spec, m))
        normal = CubicCoefficients(spec, d, 0, 0, d, 0, 0)
        phi = AlgebraMap(
            source, build_algebra(normal), [(1, 0, 0), (0, n_d, v), (m, -m_d, u)]
        )
    if not phi.verify_isomorphism():
        raise AssertionError("normal-form map failed verification")
    return normal, phi


def involution_from_witness(witness: ExceptionalWitness) -> Involution:
    """The conjugation x -> scalar part + t(ideal part) - ideal part,
    reconstructed from the witness functional."""
    # i = t_i - I and j sit over the ideal; conjugation fixes scalars
    return _conjugation(witness.algebra, (witness.t_i, witness.t_j))


def matrix_rep(coeffs: CubicCoefficients):
    """Matrices for the two generators of any valid table.

    Returns (I, J) acting on column vectors: the left regular
    representations of i and j in the table of build_algebra,

        I = [[0, -cz, cy], [1, b, 0], [0, c, 0]]
        J = [[0, cy - bm, -by], [0, m, y], [1, n, z]]

    with the defining identities re-checked in matrix arithmetic:

        I^2 = -cz + b I + c J        I J = cy
        J I = (cy - bm) + m I + n J  J^2 = -by + y I + z J

    The identity, I, and J have the three coordinate vectors as first
    columns, so they are linearly independent for every table.
    """
    spec = coeffs.spec
    alg = build_algebra(coeffs)
    mats = [SquareMatrix.identity(spec, 3)]
    mats += [left_regular_rep(alg.basis(a)) for a in (1, 2)]
    # L_a L_b = sum_c t[a][b][c] L_c for the generators a, b in {1, 2}
    for a in (1, 2):
        for b in (1, 2):
            cell = zip(mats, alg._values[a][b])
            want = sum((m * v for m, v in cell if v), start=SquareMatrix.zero(spec, 3))
            if mats[a] * mats[b] != want:
                raise RelationViolation(["matrix identities fail for this table"])
    for k, mat in enumerate(mats):
        # the first column is the k-th coordinate vector, a row of the identity
        col = tuple(row[0] for row in mat._values)
        if col != mats[0]._values[k]:
            raise AssertionError("representation lost independence")
    return mats[1], mats[2]


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
    """
    case = classify_case(coeffs)
    if case is CubicCase.COMMUTATIVE:
        raise WrongCase("closed form holds for exceptional tables only")
    spec = coeffs.spec
    p, q, r = map(spec.value, element_coeffs)
    _, _, m, n, _, _ = coeffs._values
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
    """
    spec = form.spec
    if g.n != 2 or g.spec != spec:
        raise SpecMismatch("the action needs a 2x2 matrix over the form's ring")
    (alpha, beta), (gamma, delta) = g._values
    det = spec.value(alpha * delta - beta * gamma)
    inv = _unit_inverse(spec, det)
    if inv is None:
        raise NotAUnit(f"matrix determinant {det} is not a unit")
    u = Polynomial(spec, (alpha, gamma))
    v = Polynomial(spec, (beta, delta))
    u2, v2 = u * u, v * v
    # Polynomial strips trailing zeros; pad each cube back to four terms
    cubes = [
        w._values + (0,) * (3 - w.degree()) for w in (u2 * u, u2 * v, u * v2, v2 * v)
    ]
    coeffs = [
        sum(f * w[k] for f, w in zip(form._values, cubes)) * inv for k in range(4)
    ]
    return BinaryCubicForm(spec, *coeffs)


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
