"""Involutions on structure-constant algebras and standardness checks.

An involution is an AlgebraMap of an algebra to itself, given by the
images of the basis elements and applied by linear extension.  Every
involution the package builds is the conjugation x -> t(x) - x, fixed
by its traces on the basis, and _conjugation is its one constructor;
a standard involution always has this shape.  An involution is
standard when every x times its conjugate lands in the base ring; by
bilinearity it is enough to check the basis elements together with
all two-element basis sums, which is what verify_standard does.  Since
e_0 = 1, the checks that involve the unit need no product: 1 times its
conjugate is the image of 1, and 1 + e_j times its conjugate is, up to
a scalar, a linear combination of e_j and its image, so only the
elements off the unit are multiplied.  verify_involution likewise
checks product reversal only on pairs off the unit, once 1 is fixed.
Both run on the canonical raw values of the table that
algebra._on_model gives: the table itself over Z and F_p, and over Q
its integral model, whose cells are ints and whose failing indices are
the table's (or the table itself when an image is not integral
there).  The table keeps that model (algebra._integral_model), so the
two verifiers share it.  They build an element only for a witness they
return.  Elements fixed under a standard involution's trace and norm
satisfy an explicit monic quadratic, and that quadratic certificate is
the engine behind both the search for standard involutions in low rank
and the degree bounds used elsewhere.
"""

from __future__ import annotations

import itertools

from .algebra import (
    AlgebraElement,
    AlgebraMap,
    StructureConstants,
    _divided,
    _integral_model,
    _on_model,
    direct_product,
    matrix_algebra,
    rank_one,
    read_elements,
)
from .errors import InputError, LowrankError, UnsupportedRing, check_guard
from .rings import RingElement, RingSpec, _unit_inverse


class Involution(AlgebraMap):
    """A linear self-map of an algebra given on the basis: an
    AlgebraMap whose source and target are the same algebra."""

    __slots__ = ()

    def __init__(self, algebra: StructureConstants, images):
        super().__init__(algebra, algebra, images)

    @property
    def algebra(self) -> StructureConstants:
        return self.source

    def __repr__(self):
        return f"Involution({list(self.images)!r})"

    def to_json(self) -> dict:
        out = self.algebra.to_json()
        out.update(super().to_json())
        return out

    @staticmethod
    def from_json(obj) -> Involution:
        alg = StructureConstants.from_json(obj)
        if "images" not in obj:
            raise InputError("involution object lacks an 'images' key")
        images = read_elements(alg.spec, obj["images"], (alg.rank, "images"), (alg.rank, "image"))
        return Involution(alg, images)


def verify_involution(inv: Involution):
    """Check the three involution axioms on the basis.

    Once 1 is fixed, 1 is mapped back to itself and every product with
    the factor e_0 = 1 is reversed, so the self-inverse check runs on
    e_1, ..., e_{k-1} and product reversal on the (k-1)^2 pairs off the
    unit.  Returns (True, None) or (False, description) where the
    description names the first axiom that fails: fixing 1, being
    self-inverse, or reversing products.  The axioms are checked in the
    integral model (algebra._on_model).
    """
    alg, images = _on_model(inv.algebra, [im._values for im in inv.images])
    k = alg.rank
    t = alg._values
    e = t[0]  # the basis vectors, since e_0 = 1
    combine, mul = alg._combine_values, alg._mul_values
    if images[0] != e[0]:
        return False, "basis element 0 is not fixed"
    for i in range(1, k):
        if combine(images[i], images) != e[i]:
            return False, f"double application moves basis element {i}"
    for i in range(1, k):
        for j in range(1, k):
            if combine(t[i][j], images) != mul(images[j], images[i]):
                return False, f"product reversal fails on pair ({i}, {j})"
    return True, None


def verify_standard(inv: Involution):
    """Check x * conj(x) lands in the base ring for all x.

    The product is a quadratic expression in the coefficients of x, so
    scalarity on the basis elements and on all sums of two basis
    elements decides it for every element at once, over any base ring.
    Those that involve the unit take no product: 1 * conj(1) is
    conj(1) = images[0], and once that is a scalar s and e_j conj(e_j)
    is scalar, (1 + e_j) conj(1 + e_j) differs by a scalar from
    conj(e_j) + s e_j.  Only e_j and e_i + e_j with i, j >= 1 are
    multiplied.  Returns (True, None) or (False, witness element), the
    first witness in the order 1, e_1, ..., e_{k-1}, 1 + e_1, ...,
    1 + e_{k-1}, then the e_i + e_j lexicographically.  The checks
    run in the integral model (algebra._on_model); a witness has
    coordinates 0 and 1 in either basis and is returned in inv's.
    """
    witness = inv.algebra.element
    alg, images = _on_model(inv.algebra, [im._values for im in inv.images])
    k = alg.rank
    e = alg._values[0]  # the basis vectors, since e_0 = 1
    combine, mul = alg._combine_values, alg._mul_values
    s = images[0]  # 1 * conj(1)
    if any(s[1:]):
        return False, witness(e[0])
    for j in range(1, k):
        if any(mul(e[j], images[j])[1:]):
            return False, witness(e[j])
    for j in range(1, k):
        # (1 + e_j) conj(1 + e_j) = s + conj(e_j) + s e_j + e_j conj(e_j)
        if any(combine((1, s[0]), (images[j], e[j]))[1:]):
            return False, witness(combine((1, 1), (e[0], e[j])))
    for i, j in itertools.combinations(range(1, k), 2):
        x = combine((1, 1), (e[i], e[j]))
        if any(mul(x, combine(x, images))[1:]):
            return False, witness(x)
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


def _conjugation(alg: StructureConstants, traces) -> Involution:
    """The conjugation x -> t(x) - x with t(e_i) = traces[i - 1]:
    1 -> 1 and e_i -> t_i - e_i.  The traces may be ints, raw values
    or elements of the algebra's base ring."""
    k = alg.rank
    return Involution(alg, [alg.one()] + [
        [t] + [-1 if l == i else 0 for l in range(1, k)]
        for i, t in enumerate(traces, start=1)
    ])


def check_involution(inv: Involution):
    """verify_involution and verify_standard on inv, looked up in this
    module, as (involution, failure, standard, witness); verify_standard
    runs only once the axioms hold, and (standard, witness) is
    (False, None) otherwise.  Both check the table and images of
    algebra._on_model, on the model the table keeps; a witness is
    returned in inv's algebra."""
    ok, failure = verify_involution(inv)
    if not ok:
        return False, failure, False, None
    standard, witness = verify_standard(inv)
    return True, None, standard, witness


def _verifies(inv: Involution) -> bool:
    """Whether inv passes verify_involution and verify_standard
    (check_involution): the check behind every involution the searches
    and the probes accept."""
    ok, _, standard, _ = check_involution(inv)
    return ok and standard


def _forced_traces(table, p):
    """The traces (t_1, ..., t_{k-1}) of the forced candidate, read off
    a raw table (canonical raw values, basis element 0 the unit), or
    None when no standard involution can exist.

    Any standard involution conjugates e_i to t_i - e_i where t_i is
    read off from e_i^2 = t_i e_i - n_i, which must lie in the span of
    1 and e_i; and x conj(x) must be scalar on every sum of two
    generators, which reads off e_i e_j + e_j e_i.  p is the modulus
    over F_p and None otherwise (RingSpec.p).
    """
    k = len(table)
    tvals = [0] * k
    for i in range(1, k):
        sq = table[i][i]  # e_i^2
        if any(sq[1:i] + sq[i + 1:]):
            return None  # e_i^2 leaves the span of {1, e_i}
        tvals[i] = sq[i]
    for i in range(1, k):
        for j in range(i + 1, k):
            # (e_i + e_j) conj(e_i + e_j) is scalar only if
            # e_i e_j + e_j e_i - t_j e_i - t_i e_j is
            for l in range(1, k):
                r = table[i][j][l] + table[j][i][l]
                if l == i:
                    r -= tvals[j]
                elif l == j:
                    r -= tvals[i]
                if r % p if p else r:
                    return None
    return tvals[1:]


def find_standard_involution(alg: StructureConstants):
    """Search for a standard involution, or return None.

    The candidate is forced: _forced_traces reads its traces off the
    raw table, or refuses the table, and a candidate it passes is built
    as the conjugation x -> t(x) - x and verified in full.  Any rank,
    over any base ring: there is no search, so on a table of k^3 values
    the forced test reads O(k^3) of them and the two verifiers make
    O(k^4) raw operations.  All of this runs on the integral model
    (algebra._integral_model, the table itself outside Q), whose traces
    are D t_i, and only a candidate that verifies there is built on the
    table, with traces t_i.
    """
    model, D = _integral_model(alg)
    traces = _forced_traces(model._values, alg.spec.p)
    if traces is None:
        return None
    cand = _conjugation(model, traces)
    if not _verifies(cand):
        return None
    return cand if model is alg else _conjugation(alg, _divided(alg.spec, [traces], 1, D)[0])


def all_standard_involutions(alg: StructureConstants):
    """Every standard involution of conjugation shape, by brute force.

    Enumerates all tuples of trace values over a prime field and keeps
    the candidates that verify.  Small ranks only.
    """
    if alg.spec.kind != "Fp":
        raise UnsupportedRing("exhaustive search needs a prime field")
    p = alg.spec.p
    count = p ** (alg.rank - 1)
    check_guard(count, 15625, "involution brute force")
    out = []
    for tvals in itertools.product(range(p), repeat=alg.rank - 1):
        cand = _conjugation(alg, tvals)
        if _verifies(cand):
            out.append(cand)
    return out


# -- built-in examples -------------------------------------------------------


def quaternion_algebra(spec: RingSpec, a, b) -> StructureConstants:
    """Rank-4 algebra with i^2 = a, j^2 = b, ji = -ij, basis 1, i, j, ij."""
    a, b = spec.value(a), spec.value(b)
    if _unit_inverse(spec, a) is None or _unit_inverse(spec, b) is None:
        raise UnsupportedRing("quaternion parameters must be units")
    if spec.characteristic() == 2:
        raise UnsupportedRing("quaternion conjugation needs 2 invertible")
    table = [
        # 1 row / column handled by identity pattern
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [a, 0, 0, 0], [0, 0, 0, 1], [0, 0, a, 0]],
        [[0, 0, 1, 0], [0, 0, 0, -1], [b, 0, 0, 0], [0, -b, 0, 0]],
        [[0, 0, 0, 1], [0, 0, -a, 0], [0, b, 0, 0], [-a * b, 0, 0, 0]],
    ]
    return StructureConstants(spec, table)


def quaternion_conjugation(spec: RingSpec, a, b) -> Involution:
    """Negate the three non-identity basis elements of a quaternion algebra."""
    return _conjugation(quaternion_algebra(spec, a, b), (0, 0, 0))


def quaternion_norm_form(spec: RingSpec, a, b, coeffs) -> RingElement:
    """The closed-form norm p^2 - a q^2 - b r^2 + a b s^2."""
    a, b = spec.value(a), spec.value(b)
    p, q, r, s = map(spec.value, coeffs)
    return spec.element(p * p - a * q * q - b * r * r + a * b * s * s)


def m2_adjoint(spec: RingSpec) -> Involution:
    """The adjugate map on 2x2 matrices: (a b; c d) -> (d -b; -c a).

    x times its adjugate is det(x) times the identity, so this is a
    standard involution on the rank-4 matrix algebra.
    """
    # basis: Id, E00, E01, E10 (E11 = Id - E00), with traces 1, 0, 0
    return _conjugation(matrix_algebra(spec, 2), (1, 0, 0))


def pair_swap(spec: RingSpec) -> Involution:
    """Coordinate swap on R x R, a standard involution with norm xy."""
    # basis: (1,1) and (0,1); the swap fixes (1,1) and sends (0,1) to (1,0)
    return _conjugation(direct_product(rank_one(spec), rank_one(spec)), (1,))
