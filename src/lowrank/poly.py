"""Dense univariate polynomials over a RingSpec.

Coefficients are stored once, as the ring's canonical raw values in
`_values` (rings._RawValues), in ascending order with no trailing zeros,
so the zero polynomial is the empty tuple and degree() reports -1 for it.
Over F_p each value is reduced into [0, p); over Q each, zero included,
is a Fraction.  Every operation loops on those values; RingElements are built only where
a caller reads `coeffs` or coefficient().
Division is supported when the leading coefficient divides exactly at
every step; over a field that is always the case.
"""

from __future__ import annotations

from .errors import NotAUnit, SpecMismatch, UnsupportedRing
from .rings import RingElement, RingSpec, _exact_quotient, _RawValues, _trusted, _unit_inverse


class Polynomial(_RawValues):
    __slots__ = ()

    def __init__(self, spec: RingSpec, coeffs=()):
        vs = list(map(spec.value, coeffs))
        while vs and not vs[-1]:
            vs.pop()
        self.spec = spec
        self._values = tuple(vs)

    @staticmethod
    def variable(spec: RingSpec) -> Polynomial:
        return Polynomial(spec, (0, 1))

    @staticmethod
    def constant(spec: RingSpec, c) -> Polynomial:
        return Polynomial(spec, (c,))

    coeffs = property(_RawValues.as_tuple)

    def degree(self) -> int:
        return len(self._values) - 1

    def is_zero(self) -> bool:
        return not self._values

    def coefficient(self, k: int) -> RingElement:
        if k < len(self._values):
            return _trusted(self.spec, self._values[k])
        return self.spec.zero

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
        a, b = sorted((self._values, other._values), key=len)
        out = list(b)
        for k, v in enumerate(a):
            out[k] += v
        return Polynomial(self.spec, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.spec, [-v for v in self._values])

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
        a, b = self._values, other._values
        if not (a and b):
            return Polynomial(self.spec)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return Polynomial(self.spec, out)

    __rmul__ = __mul__

    def shift(self, k: int) -> Polynomial:
        """Multiply by T^k."""
        if self.is_zero():
            return self
        return Polynomial(self.spec, (0,) * k + self._values)

    def __divmod__(self, other):
        """Long division; each quotient step must divide exactly over Z."""
        other = self._wrap(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise NotAUnit("polynomial division by zero")
        spec = self.spec
        p = spec.p
        div = other._values
        d = len(div) - 1
        rem = list(self._values)
        quo = [0] * max(len(rem) - d, 0)
        while len(rem) > d:
            q = _exact_quotient(spec, rem[-1], div[-1])
            pos = len(rem) - 1 - d
            quo[pos] = q
            for k, c in enumerate(div):
                s = rem[pos + k] - q * c
                rem[pos + k] = s % p if p else s
            while rem and not rem[-1]:
                rem.pop()
        return Polynomial(spec, quo), Polynomial(spec, rem)

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
        lead = self._values[-1]
        inv = _unit_inverse(self.spec, lead)
        if inv is None:
            raise NotAUnit(f"leading coefficient {lead} is not a unit")
        return Polynomial(self.spec, [v * inv for v in self._values])

    def evaluate(self, x, one=None):
        """Horner evaluation.  For matrix or algebra arguments pass the
        target's multiplicative identity as `one` so scalars embed."""
        spec = self.spec
        if one is None:
            if isinstance(x, RingElement) and x.spec != spec:
                raise SpecMismatch(f"{spec!r} does not match {x.spec!r}")
            xv, p = spec.value(x), spec.p
            acc = spec.value(0)
            for c in reversed(self._values):
                acc = acc * xv + c
                acc = acc % p if p else acc
            return _trusted(spec, acc)
        acc = one * spec.zero
        for c in reversed(self.coeffs):
            acc = acc * x + one * c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self._values):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*T" if c != 1 else "T")
            else:
                parts.append(f"{c}*T^{k}" if c != 1 else f"T^{k}")
        return " + ".join(parts)

    def to_strings(self) -> list[str]:
        """Canonical JSON form: coefficient strings, constant term first."""
        return [str(c) for c in self._values]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over a field by the Euclidean algorithm."""
    if f.spec != g.spec:
        raise SpecMismatch("mismatched polynomial rings")
    if not f.spec.is_field():
        raise UnsupportedRing("polynomial gcd needs a field")
    while not g.is_zero():
        f, g = g, f % g
    return f.monic() if not f.is_zero() else f
