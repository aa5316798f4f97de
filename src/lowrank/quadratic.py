"""Rank-2 algebras R[x]/(x^2 - t x + n) and their classification data.

Over a ring where 2 is a unit everything reduces to the discriminant
t^2 - 4n up to unit squares; over the integers the discriminant alone
decides; over a field of characteristic 2 the separable algebras are
classified by an additive class of n/t^2 instead.  Each
decision procedure returns an explicit verified map when it answers
yes, never just a boolean.

A QuadraticAlgebra stores (t, n), and a DiscriminantClass or an
ArtinSchreierClass its representative, as canonical raw values in
`_values` (rings._RawValues); every computation here reads those, and
RingElements are built only where a caller reads t, n or representative.
"""

from __future__ import annotations

from .algebra import (
    AlgebraMap,
    SquareMatrix,
    StructureConstants,
    _basis_values,
    rebase,
)
from .errors import NotAUnit, SpecMismatch, UnsupportedRing, WrongCase
from .involutions import Involution, _conjugation
from .rings import RingSpec, _RawValues, _square_class_root, _unit_inverse, bezout


class QuadraticAlgebra(_RawValues):
    """The free rank-2 algebra with one generator x, x^2 = t x - n."""

    FIELDS = ("t", "n")
    __slots__ = ("_structure",)

    def __init__(self, spec: RingSpec, t, n):
        self.spec = spec
        self._values = (spec.value(t), spec.value(n))
        self._structure = None

    def structure(self) -> StructureConstants:
        """The table in the basis (1, x), with x^2 = -n + t x, built once.
        Its rows come from the canonical (t, n), the ring's own 0 and 1
        (algebra._basis_values) and -n reduced by RingSpec.value, so they
        are stored through StructureConstants._canonical unchecked."""
        if self._structure is None:
            spec = self.spec
            t, n = self._values
            _, (e0, e1) = _basis_values(spec, 2)
            self._structure = StructureConstants._canonical(
                spec, ((e0, e1), (e1, (spec.value(-n), t)))
            )
        return self._structure

    def __repr__(self):
        t, n = self._values
        return f"QuadraticAlgebra(t={t}, n={n} over {self.spec!r})"

    def discriminant(self) -> DiscriminantClass:
        t, n = self._values
        return DiscriminantClass(self.spec, t * t - 4 * n)

    def to_json(self) -> dict:
        return {"ring": self.spec.to_json(), **self._fields_json()}

    @staticmethod
    def from_json(obj) -> QuadraticAlgebra:
        return QuadraticAlgebra._from_fields(
            None, obj, "quadratic algebra needs keys 'ring', 't', 'n'"
        )


class DiscriminantClass(_RawValues):
    """A ring element compared up to multiplication by unit squares."""

    FIELDS = ("representative",)
    __slots__ = ()

    def __init__(self, spec: RingSpec, representative):
        self.spec = spec
        self._values = (spec.value(representative),)

    def __eq__(self, other):
        if not isinstance(other, DiscriminantClass):
            return NotImplemented
        if other.spec != self.spec:
            raise SpecMismatch("classes over different rings")
        return _square_class_root(self.spec, self._values[0], other._values[0]) is not None

    def __repr__(self):
        return f"DiscriminantClass({self._values[0]} over {self.spec!r})"


def complete_square(alg: QuadraticAlgebra):
    """Write alg in the basis (1, y) with y = 2x - t, where
    y^2 = t^2 - 4n; needs 2 invertible, and refuses first otherwise.

    Returns (d, map) where d = t^2 - 4n and the map, from algebra.rebase,
    is a verified isomorphism onto R[y]/(y^2 - d) sending x to y/2 + t/2.
    """
    spec = alg.spec
    if _unit_inverse(spec, spec.value(2)) is None:
        raise NotAUnit("completing the square needs 2 to be a unit")
    t = alg._values[0]
    _, phi = rebase(alg.structure(), [(1, 0), (-t, 2)])
    return alg.discriminant().representative, phi


def _affine_map(a: QuadraticAlgebra, b: QuadraticAlgebra, scale, shift) -> AlgebraMap:
    """The map x -> scale*y + shift as an AlgebraMap between structures;
    scale and shift may be raw values or elements of the base ring.
    The witness maps of both isomorphism tests are built here, and
    re-checked by verify_isomorphism before they are returned."""
    target = b.structure()
    m = AlgebraMap(a.structure(), target, [target.one(), target.element([shift, scale])])
    if not m.verify_isomorphism():
        raise AssertionError("affine witness map failed verification")
    return m


def is_isomorphic_2unit(a: QuadraticAlgebra, b: QuadraticAlgebra):
    """Isomorphism test over a field in which 2 is a unit.

    The discriminants decide: the algebras are isomorphic exactly when
    the discriminants differ by a unit square, and a witness square
    root scales the completed-square generator.  Returns (bool, map).
    """
    if a.spec != b.spec:
        raise SpecMismatch("algebras over different rings")
    spec = a.spec
    half = _unit_inverse(spec, spec.value(2))
    if half is None:
        raise NotAUnit("this test needs 2 to be a unit")
    if not spec.is_field():
        raise UnsupportedRing("this test runs over fields")
    da, db = a.discriminant()._values[0], b.discriminant()._values[0]
    u = _square_class_root(spec, da, db)
    if u is None:
        return False, None
    shift = (a._values[0] - u * b._values[0]) * half
    return True, _affine_map(a, b, u, shift)


def is_isomorphic_over_z(a: QuadraticAlgebra, b: QuadraticAlgebra):
    """Isomorphism test over the integers.

    Equal discriminants are necessary and sufficient: t^2 - 4n is
    t^2 mod 4, so they force t_a = t_b mod 2, and the witness shifts
    the generator by half the trace difference, an exact integer.
    Returns (bool, map).
    """
    if a.spec != b.spec:
        raise SpecMismatch("algebras over different rings")
    if a.spec.kind != "Z":
        raise UnsupportedRing("this test runs over the integers")
    if a.discriminant()._values != b.discriminant()._values:
        return False, None
    return True, _affine_map(a, b, 1, (a._values[0] - b._values[0]) // 2)


def is_separable(alg: QuadraticAlgebra) -> bool:
    """Over a field of characteristic 2: separable means t is nonzero."""
    if alg.spec.characteristic() != 2:
        raise UnsupportedRing("separability test is for characteristic 2")
    return bool(alg._values[0])


class ArtinSchreierClass(_RawValues):
    """n/t^2 compared modulo the additive image {r + r^2 : r in F}."""

    FIELDS = ("representative",)
    __slots__ = ()

    def __init__(self, spec: RingSpec, representative):
        if spec.characteristic() != 2:
            raise UnsupportedRing("these classes live in characteristic 2")
        self.spec = spec
        self._values = (spec.value(representative),)

    def __eq__(self, other):
        if not isinstance(other, ArtinSchreierClass):
            return NotImplemented
        if other.spec != self.spec:
            raise SpecMismatch("classes over different rings")
        p = self.spec.p
        image = {(r + r * r) % p for r in range(p)}
        return (self._values[0] - other._values[0]) % p in image

    def __repr__(self):
        return f"ArtinSchreierClass({self._values[0]} over {self.spec!r})"


def artin_schreier_class(alg: QuadraticAlgebra) -> ArtinSchreierClass:
    """The invariant n/t^2 of a separable algebra in characteristic 2."""
    if not is_separable(alg):
        raise WrongCase("inseparable algebra has no such invariant")
    t, n = alg._values
    inv = _unit_inverse(alg.spec, t)
    return ArtinSchreierClass(alg.spec, n * inv * inv)


def _gf4_mul(a: int, b: int) -> int:
    """Multiplication in the four-element field, bits = (1, w), w^2 = w + 1."""
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = (a0 * b0 + a1 * b1) & 1
    c1 = (a0 * b1 + a1 * b0 + a1 * b1) & 1
    return c0 | (c1 << 1)


def artin_schreier_class_count(q: int) -> int:
    """Number of additive classes modulo {r + r^2} in the field with q
    elements, for q in {2, 4}, by direct coset enumeration."""
    if q == 2:
        elements = [0, 1]
        mul = lambda a, b: a & b
    elif q == 4:
        elements = [0, 1, 2, 3]
        mul = _gf4_mul
    else:
        raise UnsupportedRing("counts implemented for the fields of size 2 and 4")
    image = {r ^ mul(r, r) for r in elements}
    cosets = {frozenset(v ^ w for w in image) for v in elements}
    return len(cosets)


def standard_involution_quadratic(alg: QuadraticAlgebra) -> Involution:
    """Conjugation x -> t - x, the unique standard involution in rank 2."""
    return _conjugation(alg.structure(), (alg._values[0],))


def split_idempotent(alg: QuadraticAlgebra):
    """Identify R[x]/(x^2 - x) with R x R via a*x + b -> (a + b, b).

    Only defined for (t, n) = (1, 0), where x is idempotent.
    direct_product(rank_one, rank_one) has the basis (1, 1), (0, 1),
    and (0, 1)^2 = (0, 1): its table is that of (t, n) = (1, 0), which
    is alg's own.  In that basis 1 and x = (1, 0) have the coordinates
    (1, 0) and (1, -1), so both the forward and the inverse map are
    x -> 1 - x on alg's table, its own inverse.  That one map is
    checked by verify_isomorphism and returned as both.
    """
    if alg._values != (1, 0):
        raise WrongCase("the idempotent identification needs (t, n) = (1, 0)")
    table = alg.structure()
    swap = AlgebraMap(table, table, [(1, 0), (1, -1)])
    if not swap.verify_isomorphism():
        raise AssertionError("basis-change map failed verification")
    return swap, swap


def complete_basis_to_unity(spec: RingSpec, a, b):
    """Extend the row (a, b) to a 2x2 matrix of determinant 1.

    The second row (s, t) comes from a*t - s*b = 1; raises NotAUnit when
    the gcd obstruction is nontrivial.
    """
    a, b = spec.element(a), spec.element(b)
    s, t = bezout(a, b)
    m = SquareMatrix(spec, [[a, b], [s, t]])
    if m.det().value != 1:
        raise AssertionError("the completed matrix does not have determinant 1")
    return m

