"""Dense univariate polynomials over a RingSpec.

Coefficients are stored in ascending order with no trailing zeros, so
the zero polynomial is the empty tuple and degree() reports -1 for it.
Division is supported when the leading coefficient divides exactly at
every step; over a field that is always the case.
"""

from __future__ import annotations

from .errors import NotAUnit, SpecMismatch, UnsupportedRing
from .rings import RingElement, RingSpec, exact_div


class Polynomial:
    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: RingSpec, coeffs=()):
        cs = list(map(spec.element, coeffs))
        while cs and cs[-1].is_zero():
            cs.pop()
        self.spec = spec
        self.coeffs = tuple(cs)

    @staticmethod
    def variable(spec: RingSpec) -> Polynomial:
        return Polynomial(spec, (0, 1))

    @staticmethod
    def constant(spec: RingSpec, c) -> Polynomial:
        return Polynomial(spec, (c,))

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> RingElement:
        if not self.coeffs:
            raise ValueError("the zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.spec.one

    def coefficient(self, k: int) -> RingElement:
        return self.coeffs[k] if k < len(self.coeffs) else self.spec.zero

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, self.coeffs))

    def _wrap(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            if other.spec != self.spec:
                raise SpecMismatch("mismatched polynomial rings")
            return other
        if isinstance(other, (int, RingElement)):
            return Polynomial(self.spec, (other,))
        return NotImplemented

    def __add__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            self.spec,
            [self.coefficient(k) + other.coefficient(k) for k in range(n)],
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.spec, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial(self.spec)
        out = [self.spec.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(self.spec, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return Polynomial(self.spec, (self.spec.zero,) * k + self.coeffs)

    def __divmod__(self, other):
        """Long division; each quotient step must divide exactly over Z."""
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise NotAUnit("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [self.spec.zero] * max(len(rem) - len(other.coeffs) + 1, 0)
        lead = other.leading()
        d = other.degree()
        while len(rem) - 1 >= d and rem:
            q = exact_div(rem[-1], lead)
            pos = len(rem) - 1 - d
            quo[pos] = q
            for k, c in enumerate(other.coeffs):
                rem[pos + k] = rem[pos + k] - q * c
            while rem and rem[-1].is_zero():
                rem.pop()
        return Polynomial(self.spec, quo), Polynomial(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: Polynomial) -> bool:
        """True when self divides other with zero remainder."""
        if self.is_zero():
            return other.is_zero()
        try:
            _, r = divmod(other, self)
        except NotAUnit:
            return False
        return r.is_zero()

    def monic(self) -> Polynomial:
        if self.is_zero():
            return self
        lead = self.leading()
        if not lead.is_unit():
            raise NotAUnit(f"leading coefficient {lead} is not a unit")
        inv = lead.inverse()
        return Polynomial(self.spec, [c * inv for c in self.coeffs])

    def evaluate(self, x, one=None):
        """Horner evaluation.  For matrix or algebra arguments pass the
        target's multiplicative identity as `one` so scalars embed."""
        if one is None:
            acc = self.spec.zero
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return acc
        acc = one * self.spec.zero
        for c in reversed(self.coeffs):
            acc = acc * x + one * c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*T" if c != self.spec.one else "T")
            else:
                parts.append(f"{c}*T^{k}" if c != self.spec.one else f"T^{k}")
        return " + ".join(parts)

    def to_strings(self) -> list[str]:
        """Canonical JSON form: coefficient strings, constant term first."""
        return [str(c) for c in self.coeffs]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over a field by the Euclidean algorithm."""
    if f.spec != g.spec:
        raise SpecMismatch("mismatched polynomial rings")
    if not f.spec.is_field():
        raise UnsupportedRing("polynomial gcd needs a field")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f
