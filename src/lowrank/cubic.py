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
"""

from __future__ import annotations

import enum

from .algebra import SquareMatrix, StructureConstants
from .errors import (
    InputError,
    NotAUnit,
    RelationViolation,
    SpecMismatch,
    WrongCase,
)
from .involutions import Involution
from .poly import Polynomial
from .rings import RingElement, RingSpec, _trusted


class GeneralCubicTable:
    """All twelve coefficients of a rank-3 table:

        i*i = a + b i + c j      i*j = d + e i + f j
        j*i = l + m i + n j      j*j = x + y i + z j
    """

    FIELDS = ("a", "b", "c", "d", "e", "f", "l", "m", "n", "x", "y", "z")
    __slots__ = ("spec",) + FIELDS

    def __init__(self, spec: RingSpec, **coeffs):
        unknown = set(coeffs) - set(self.FIELDS)
        if unknown:
            raise InputError(f"unknown coefficients {sorted(unknown)}")
        self.spec = spec
        for name in self.FIELDS:
            setattr(self, name, spec.element(coeffs.get(name, 0)))

    def structure(self) -> StructureConstants:
        z0, o = self.spec.zero, self.spec.one
        return StructureConstants(
            self.spec,
            [
                [[o, z0, z0], [z0, o, z0], [z0, z0, o]],
                [[z0, o, z0], [self.a, self.b, self.c], [self.d, self.e, self.f]],
                [[z0, z0, o], [self.l, self.m, self.n], [self.x, self.y, self.z]],
            ],
        )

    def good_basis(self) -> GeneralCubicTable:
        """Shift the generators to clear the linear terms of i*j.

        Substituting i - f and j - e for the generators leaves the
        mixed product i*j scalar; every other coefficient is recomputed
        exactly.
        """
        a, b, c, d, e, f = self.a, self.b, self.c, self.d, self.e, self.f
        l, m, n, x, y, z = self.l, self.m, self.n, self.x, self.y, self.z
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

    def __eq__(self, other):
        return (
            isinstance(other, GeneralCubicTable)
            and self.spec == other.spec
            and all(
                getattr(self, k) == getattr(other, k) for k in self.FIELDS
            )
        )

    def __repr__(self):
        inner = ", ".join(f"{k}={getattr(self, k)}" for k in self.FIELDS)
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
    relation is checked as lhs - rhs = 0, reduced mod p over F_p."""
    p = spec.p
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
    return [
        name
        for name, r in zip(RELATION_NAMES, residues)
        if (r % p if p else r)
    ]


class CubicCase(enum.Enum):
    COMMUTATIVE = "commutative"
    EXCEPTIONAL = "exceptional"
    NILPRODUCT = "nilproduct"


class CubicCoefficients:
    """A valid six-tuple (b, c, m, n, y, z); construction checks the
    eight relations and raises RelationViolation otherwise."""

    FIELDS = ("b", "c", "m", "n", "y", "z")
    __slots__ = ("spec",) + FIELDS

    def __init__(self, spec: RingSpec, b, c, m, n, y, z):
        vals = tuple(map(spec.value, (b, c, m, n, y, z)))
        violated = _violated_relations(spec, *vals)
        if violated:
            raise RelationViolation(violated)
        self.spec = spec
        self.b, self.c, self.m, self.n, self.y, self.z = (
            _trusted(spec, v) for v in vals
        )

    def as_tuple(self):
        return (self.b, self.c, self.m, self.n, self.y, self.z)

    def __eq__(self, other):
        return (
            isinstance(other, CubicCoefficients)
            and self.spec == other.spec
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash((self.spec,) + self.as_tuple())

    def __repr__(self):
        return "CubicCoefficients" + str(tuple(str(v) for v in self.as_tuple()))

    def to_json(self) -> dict:
        return {k: str(getattr(self, k)) for k in self.FIELDS}

    @staticmethod
    def from_json(spec: RingSpec, obj) -> CubicCoefficients:
        if not isinstance(obj, dict) or set(CubicCoefficients.FIELDS) - set(obj):
            raise InputError(
                "cubic coefficients need keys 'b', 'c', 'm', 'n', 'y', 'z'"
            )
        return CubicCoefficients(
            spec, *(spec.parse(obj[k]) for k in CubicCoefficients.FIELDS)
        )


def normalize(table: GeneralCubicTable) -> CubicCoefficients:
    """Reduce a twelve-coefficient table to its six free coefficients.

    After the basis shift, associativity pins the four scalar
    coefficients (a = -cz, d = cy, x = -by, l = cy - nz) and the
    remaining six must satisfy the coefficient relations.  Violations
    are reported by name.
    """
    g = table.good_basis()
    pinned = (
        ("a = -cz", g.a == -(g.c * g.z)),
        ("d = cy", g.d == g.c * g.y),
        ("x = -by", g.x == -(g.b * g.y)),
        ("l = cy - nz", g.l == g.c * g.y - g.n * g.z),
    )
    violated = [name for name, ok in pinned if not ok]
    if violated:
        raise RelationViolation(violated)
    return CubicCoefficients(g.spec, g.b, g.c, g.m, g.n, g.y, g.z)


def build_algebra(coeffs: CubicCoefficients) -> StructureConstants:
    """The rank-3 algebra of a valid six-tuple:

        i*i = -cz + b i + c j    i*j = cy
        j*i = (cy - bm) + m i + n j
        j*j = -by + y i + z j
    """
    b, c, m, n, y, z = (v.value for v in coeffs.as_tuple())
    return StructureConstants(
        coeffs.spec,
        [
            [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[0, 1, 0], [-(c * z), b, c], [c * y, 0, 0]],
            [[0, 0, 1], [c * y - b * m, m, n], [-(b * y), y, z]],
        ],
    )


def classify_case(coeffs: CubicCoefficients) -> CubicCase:
    vals = coeffs.as_tuple()
    if all(v.is_zero() for v in vals):
        return CubicCase.NILPRODUCT
    if coeffs.m.is_zero() and coeffs.n.is_zero():
        return CubicCase.COMMUTATIVE
    return CubicCase.EXCEPTIONAL


def standard_involution_exceptional(coeffs: CubicCoefficients) -> Involution:
    """Conjugation 1 -> 1, i -> n - i, j -> m - j on an exceptional or
    nilproduct table."""
    case = classify_case(coeffs)
    if case is CubicCase.COMMUTATIVE:
        raise WrongCase("conjugation is defined on exceptional tables only")
    alg = build_algebra(coeffs)
    spec = coeffs.spec
    return Involution(
        alg,
        [
            alg.one(),
            alg.element([coeffs.n, -spec.one, spec.zero]),
            alg.element([coeffs.m, spec.zero, -spec.one]),
        ],
    )


def exceptional_norm(coeffs: CubicCoefficients, element_coeffs) -> RingElement:
    """Closed-form norm of p + q i + r j on an exceptional table:
    p (p + q n + r m) + q r m n."""
    spec = coeffs.spec
    p, q, r = map(spec.element, element_coeffs)
    return p * (p + q * coeffs.n + r * coeffs.m) + q * r * coeffs.m * coeffs.n


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
                [str(c) for c in self.gen_i.coeffs],
                [str(c) for c in self.gen_j.coeffs],
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
    gen_i = alg.element([coeffs.n, -spec.one, spec.zero])
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
    basis_matrix = SquareMatrix(
        spec,
        [
            [spec.one, gen_i.coeffs[0], gen_j.coeffs[0]],
            [spec.zero, gen_i.coeffs[1], gen_j.coeffs[1]],
            [spec.zero, gen_i.coeffs[2], gen_j.coeffs[2]],
        ],
    )
    if not basis_matrix.det().is_unit():
        raise WrongCase("witness generators do not complete a basis")
    return ExceptionalWitness(alg, gen_i, gen_j, t_i, t_j)


def involution_from_witness(witness: ExceptionalWitness) -> Involution:
    """The conjugation x -> scalar part + t(ideal part) - ideal part,
    reconstructed from the witness functional."""
    alg = witness.algebra
    spec = alg.spec
    # i = t_i - I and j sit over the ideal; conjugation fixes scalars
    return Involution(
        alg,
        [
            alg.one(),
            alg.scalar(witness.t_i) - alg.basis(1),
            alg.scalar(witness.t_j) - alg.basis(2),
        ],
    )


def matrix_rep(coeffs: CubicCoefficients):
    """Matrices for the two generators of any valid table.

    Returns (I, J) acting on column vectors, with the defining
    identities re-checked in matrix arithmetic:

        I^2 = -cz + b I + c J        I J = cy
        J I = (cy - bm) + m I + n J  J^2 = -by + y I + z J

    The identity, I, and J have the three coordinate vectors as first
    columns, so they are linearly independent for every table.
    """
    b, c, m, n, y, z = coeffs.as_tuple()
    spec = coeffs.spec
    z0, o = spec.zero, spec.one
    mat_i = SquareMatrix(spec, [[z0, -(c * z), c * y], [o, b, z0], [z0, c, z0]])
    mat_j = SquareMatrix(
        spec, [[z0, c * y - b * m, -(b * y)], [z0, m, y], [o, n, z]]
    )
    ident = SquareMatrix.identity(spec, 3)
    checks = (
        (mat_i * mat_i, ident * (-(c * z)) + mat_i * b + mat_j * c),
        (mat_i * mat_j, ident * (c * y)),
        (mat_j * mat_i, ident * (c * y - b * m) + mat_i * m + mat_j * n),
        (mat_j * mat_j, ident * (-(b * y)) + mat_i * y + mat_j * z),
    )
    for got, want in checks:
        if got != want:
            raise RelationViolation(["matrix identities fail for this table"])
    for k, mat in enumerate((ident, mat_i, mat_j)):
        col = tuple(mat.entries[r][0] for r in range(3))
        want = tuple(o if r == k else z0 for r in range(3))
        assert col == want, "representation lost independence"
    return mat_i, mat_j


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
    p, q, r = map(spec.element, element_coeffs)
    beta = p + coeffs.m * q + r * coeffs.n
    t = Polynomial.variable(spec)
    return (t - p) * (t - beta) * (t - beta)


# -- binary cubic forms ------------------------------------------------------


class BinaryCubicForm:
    """a X^3 + b X^2 Y + c X Y^2 + d Y^3 with exact coefficients."""

    FIELDS = ("a", "b", "c", "d")
    __slots__ = ("spec",) + FIELDS

    def __init__(self, spec: RingSpec, a, b, c, d):
        self.spec = spec
        self.a, self.b, self.c, self.d = map(spec.element, (a, b, c, d))

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        return (
            isinstance(other, BinaryCubicForm)
            and self.spec == other.spec
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash((self.spec,) + self.as_tuple())

    def __repr__(self):
        return "BinaryCubicForm" + str(tuple(str(v) for v in self.as_tuple()))

    def discriminant(self) -> RingElement:
        a, b, c, d = self.as_tuple()
        return (
            b * b * c * c
            + 18 * a * b * c * d
            - 4 * a * c**3
            - 4 * d * b**3
            - 27 * a * a * d * d
        )

    def to_json(self) -> dict:
        return {k: str(getattr(self, k)) for k in self.FIELDS}

    @staticmethod
    def from_json(spec: RingSpec, obj) -> BinaryCubicForm:
        if not isinstance(obj, dict) or set(BinaryCubicForm.FIELDS) - set(obj):
            raise InputError("form needs keys 'a', 'b', 'c', 'd'")
        return BinaryCubicForm(
            spec, *(spec.parse(obj[k]) for k in BinaryCubicForm.FIELDS)
        )


def _convolve(u, v):
    out = [u[0].spec.zero] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] = out[i + j] + a * b
    return out


def gl2_act(g: SquareMatrix, form: BinaryCubicForm) -> BinaryCubicForm:
    """Twisted substitution action of an invertible 2x2 matrix.

    The two variables are replaced by the columns of g and the result
    is divided by det(g); the discriminant then scales by det(g)^2.
    """
    if g.n != 2 or g.spec != form.spec:
        raise SpecMismatch("the action needs a 2x2 matrix over the form's ring")
    det = g.det()
    if not det.is_unit():
        raise NotAUnit(f"matrix determinant {det} is not a unit")
    alpha, beta = g.entries[0]
    gamma, delta = g.entries[1]
    u = [alpha, gamma]
    v = [beta, delta]
    u2 = _convolve(u, u)
    u3 = _convolve(u2, u)
    u2v = _convolve(u2, v)
    v2 = _convolve(v, v)
    uv2 = _convolve(u, v2)
    v3 = _convolve(v2, v)
    inv = det.inverse()
    coeffs = [
        (form.a * u3[k] + form.b * u2v[k] + form.c * uv2[k] + form.d * v3[k]) * inv
        for k in range(4)
    ]
    return BinaryCubicForm(form.spec, *coeffs)


def form_from_commutative(coeffs: CubicCoefficients) -> BinaryCubicForm:
    """The binary cubic form attached to a commutative table.

    The translation (a, b, c, d) = (-c, b, -z, y) is fixed by matching
    multiplication tables; rebuilding the algebra from the form returns
    the original table entry for entry.
    """
    if classify_case(coeffs) is CubicCase.EXCEPTIONAL:
        raise WrongCase("forms correspond to commutative tables only")
    return BinaryCubicForm(
        coeffs.spec, -coeffs.c, coeffs.b, -coeffs.z, coeffs.y
    )


def commutative_from_form(form: BinaryCubicForm) -> CubicCoefficients:
    """Inverse translation: (b, c, m, n, y, z) = (b, -a, 0, 0, d, -c)."""
    return CubicCoefficients(
        form.spec, form.b, -form.a, 0, 0, form.d, -form.c
    )


def algebra_from_form(form: BinaryCubicForm) -> StructureConstants:
    """Multiplication table read off the form directly:

        i*i = -ac + b i - a j    i*j = j*i = -ad
        j*j = -bd + d i - c j
    """
    a, b, c, d = form.as_tuple()
    spec = form.spec
    z0, o = spec.zero, spec.one
    return StructureConstants(
        spec,
        [
            [[o, z0, z0], [z0, o, z0], [z0, z0, o]],
            [[z0, o, z0], [-(a * c), b, -a], [-(a * d), z0, z0]],
            [[z0, z0, o], [-(a * d), z0, z0], [-(b * d), d, -c]],
        ],
    )
