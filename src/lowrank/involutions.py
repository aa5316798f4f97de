"""Involutions on structure-constant algebras and standardness checks.

An involution is stored by the images of the basis elements and applied
by linear extension.  It is standard when every x times its conjugate
lands in the base ring; by bilinearity it is enough to check the basis
elements together with all two-element basis sums, which is what
verify_standard does.  Elements fixed under a standard involution's
trace and norm satisfy an explicit monic quadratic, and that quadratic
certificate is the engine behind both the search for standard
involutions in low rank and the degree bounds used elsewhere.
"""

from __future__ import annotations

import itertools

from .algebra import AlgebraElement, AlgebraMap, StructureConstants, direct_product, extend_linearly, json_list, matrix_algebra, rank_one
from .errors import InputError, LowrankError, SpecMismatch, UnsupportedRing, check_guard
from .rings import RingElement, RingSpec


class Involution:
    """A linear self-map of an algebra given on the basis."""

    __slots__ = ("algebra", "images")

    def __init__(self, algebra: StructureConstants, images):
        images = tuple(
            im if isinstance(im, AlgebraElement) else algebra.element(im)
            for im in images
        )
        if len(images) != algebra.rank:
            raise ValueError("one image per basis element")
        for im in images:
            if im.algebra != algebra:
                raise SpecMismatch("image outside the algebra")
        self.algebra = algebra
        self.images = images

    def apply(self, x: AlgebraElement) -> AlgebraElement:
        if x.algebra != self.algebra:
            raise SpecMismatch("element outside the algebra")
        return extend_linearly(self.algebra, self.images, x)

    def __eq__(self, other):
        return (
            isinstance(other, Involution)
            and self.algebra == other.algebra
            and self.images == other.images
        )

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Involution({list(self.images)!r})"

    def to_json(self) -> dict:
        out = self.algebra.to_json()
        out["images"] = [[str(c) for c in im.coeffs] for im in self.images]
        return out

    @staticmethod
    def from_json(obj) -> Involution:
        alg = StructureConstants.from_json(obj)
        if "images" not in obj:
            raise InputError("involution object lacks an 'images' key")
        images = [
            [alg.spec.parse(s) for s in json_list(row, alg.rank, "image")]
            for row in json_list(obj["images"], alg.rank, "images")
        ]
        return Involution(alg, images)


def verify_involution(inv: Involution):
    """Check the three involution axioms on the basis.

    Returns (True, None) or (False, description) where the description
    names the first axiom that fails: fixing 1, being self-inverse, or
    reversing products.
    """
    alg = inv.algebra
    if inv.images[0] != alg.one():
        return False, "basis element 0 is not fixed"
    for i in range(alg.rank):
        if inv.apply(inv.images[i]) != alg.basis(i):
            return False, f"double application moves basis element {i}"
    for i in range(alg.rank):
        ei = alg.basis(i)
        for j in range(alg.rank):
            ej = alg.basis(j)
            lhs = inv.apply(ei * ej)
            rhs = inv.images[j] * inv.images[i]
            if lhs != rhs:
                return False, f"product reversal fails on pair ({i}, {j})"
    return True, None


def verify_standard(inv: Involution):
    """Check x * conj(x) lands in the base ring for all x.

    The product is a quadratic expression in the coefficients of x, so
    scalarity on the basis elements and on all sums of two basis
    elements decides it for every element at once, over any base ring.
    Returns (True, None) or (False, witness element).
    """
    alg = inv.algebra
    for i in range(alg.rank):
        x = alg.basis(i)
        if not (x * inv.apply(x)).is_scalar():
            return False, x
    for i in range(alg.rank):
        for j in range(i + 1, alg.rank):
            x = alg.basis(i) + alg.basis(j)
            if not (x * inv.apply(x)).is_scalar():
                return False, x
    return True, None


def trace(inv: Involution, x: AlgebraElement) -> RingElement:
    """x + conj(x), which must be scalar; signals a non-standard map."""
    s = x + inv.apply(x)
    if not s.is_scalar():
        raise LowrankError(f"trace of {x!r} is not scalar; involution not standard")
    return s.scalar_part()


def norm(inv: Involution, x: AlgebraElement) -> RingElement:
    """x * conj(x), which must be scalar; signals a non-standard map."""
    s = x * inv.apply(x)
    if not s.is_scalar():
        raise LowrankError(f"norm of {x!r} is not scalar; involution not standard")
    return s.scalar_part()


def quadratic_certificate(inv: Involution, x: AlgebraElement):
    """Return (t, n) with x^2 - t*x + n = 0 verified exactly."""
    t = trace(inv, x)
    n = norm(inv, x)
    residue = x * x - x * t + x.algebra.scalar(n)
    if not residue.is_zero():
        raise LowrankError(f"certificate fails for {x!r}")
    return t, n


def _candidate_from_tvalues(alg: StructureConstants, tvals) -> Involution:
    """The conjugation x -> t(x) - x determined by t on basis elements 1.."""
    images = [alg.one()]
    for i, t in enumerate(tvals, start=1):
        images.append(alg.scalar(t) - alg.basis(i))
    return Involution(alg, images)


def find_standard_involution(alg: StructureConstants):
    """Search for a standard involution, or return None.

    For rank at most 3 the candidate is forced: any standard involution
    conjugates e_i to t_i - e_i where t_i is read off from e_i^2, which
    must lie in the span of 1 and e_i.  These conditions, and the
    scalarity of x conj(x) on sums of two generators, are read from the
    raw table; a candidate that passes them is built and verified in
    full.  Rank 4 over a prime field falls back to a brute
    force over all trace tuples.
    """
    if alg.rank <= 3:
        k = alg.rank
        p = alg.spec.p
        t = alg._values
        tvals = [0] * k
        for i in range(1, k):
            sq = t[i][i]  # e_i^2
            if any(sq[l] for l in range(1, k) if l != i):
                return None  # e_i^2 leaves the span of {1, e_i}
            tvals[i] = sq[i]
        for i in range(1, k):
            for j in range(i + 1, k):
                # (e_i + e_j) conj(e_i + e_j) is scalar only if
                # e_i e_j + e_j e_i - t_j e_i - t_i e_j is
                for l in range(1, k):
                    r = t[i][j][l] + t[j][i][l]
                    if l == i:
                        r -= tvals[j]
                    elif l == j:
                        r -= tvals[i]
                    if r % p if p else r:
                        return None
        cand = _candidate_from_tvalues(alg, tvals[1:])
        if verify_involution(cand)[0] and verify_standard(cand)[0]:
            return cand
        return None
    if alg.rank == 4 and alg.spec.kind == "Fp":
        found = _bruteforce_tvalues(alg, stop_after_first=True)
        return found[0] if found else None
    raise UnsupportedRing(
        "search implemented for rank <= 3, or rank 4 over a prime field"
    )


def all_standard_involutions(alg: StructureConstants):
    """Every standard involution of conjugation shape, by brute force.

    Enumerates all tuples of trace values over a prime field and keeps
    the candidates that verify.  Small ranks only.
    """
    if alg.spec.kind != "Fp":
        raise UnsupportedRing("exhaustive search needs a prime field")
    return _bruteforce_tvalues(alg, stop_after_first=False)


def _bruteforce_tvalues(alg: StructureConstants, stop_after_first: bool):
    p = alg.spec.p
    count = p ** (alg.rank - 1)
    check_guard(count, 15625, "involution brute force")
    out = []
    for tvals in itertools.product(range(p), repeat=alg.rank - 1):
        cand = _candidate_from_tvalues(
            alg, [alg.spec.element(t) for t in tvals]
        )
        if verify_involution(cand)[0] and verify_standard(cand)[0]:
            out.append(cand)
            if stop_after_first:
                return out
    return out


# -- built-in examples -------------------------------------------------------


def quaternion_algebra(spec: RingSpec, a, b) -> StructureConstants:
    """Rank-4 algebra with i^2 = a, j^2 = b, ji = -ij, basis 1, i, j, ij."""
    a, b = spec.element(a), spec.element(b)
    if not (a.is_unit() and b.is_unit()):
        raise UnsupportedRing("quaternion parameters must be units")
    if spec.characteristic() == 2:
        raise UnsupportedRing("quaternion conjugation needs 2 invertible")
    z, o = spec.zero, spec.one
    ab = a * b
    table = [
        # 1 row / column handled by identity pattern
        [[o, z, z, z], [z, o, z, z], [z, z, o, z], [z, z, z, o]],
        [[z, o, z, z], [a, z, z, z], [z, z, z, o], [z, z, a, z]],
        [[z, z, o, z], [z, z, z, -o], [b, z, z, z], [z, -b, z, z]],
        [[z, z, z, o], [z, z, -a, z], [z, b, z, z], [-ab, z, z, z]],
    ]
    return StructureConstants(spec, table)


def quaternion_conjugation(spec: RingSpec, a, b) -> Involution:
    """Negate the three non-identity basis elements of a quaternion algebra."""
    alg = quaternion_algebra(spec, a, b)
    return Involution(
        alg, [alg.one(), -alg.basis(1), -alg.basis(2), -alg.basis(3)]
    )


def quaternion_norm_form(spec: RingSpec, a, b, coeffs) -> RingElement:
    """The closed-form norm p^2 - a q^2 - b r^2 + a b s^2."""
    a, b = spec.element(a), spec.element(b)
    p, q, r, s = map(spec.element, coeffs)
    return p * p - a * q * q - b * r * r + a * b * s * s


def m2_adjoint(spec: RingSpec) -> Involution:
    """The adjugate map on 2x2 matrices: (a b; c d) -> (d -b; -c a).

    x times its adjugate is det(x) times the identity, so this is a
    standard involution on the rank-4 matrix algebra.
    """
    alg = matrix_algebra(spec, 2)
    # basis: Id, E00, E01, E10 (E11 = Id - E00)
    one = alg.one()
    e00, e01, e10 = alg.basis(1), alg.basis(2), alg.basis(3)
    return Involution(alg, [one, one - e00, -e01, -e10])


def pair_swap(spec: RingSpec) -> Involution:
    """Coordinate swap on R x R, a standard involution with norm xy."""
    alg = direct_product(rank_one(spec), rank_one(spec))
    # basis: (1,1) and (0,1); the swap fixes (1,1) and sends (0,1) to (1,0)
    return Involution(alg, [alg.one(), alg.one() - alg.basis(1)])


def involution_matrix(inv: Involution) -> AlgebraMap:
    """The involution as a linear map, for matrix-level inspection."""
    return AlgebraMap(inv.algebra, inv.algebra, inv.images)
