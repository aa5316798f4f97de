"""Exact base rings: the integers, the rationals, and prime fields.

A RingSpec names one of the three supported base rings.  Its canonical
values are plain Python numbers: an int over Z, a reduced Fraction over
Q, a residue int in [0, p) over F_p.  RingSpec.value checks a value and
returns its canonical form; the table layer stores and computes on these
raw values.  A RingElement pairs a spec with a canonical value and is
what the public API hands out; its arithmetic builds results through a
trusted constructor that only reduces mod p.  All arithmetic is exact;
there is no floating point anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt

from .errors import InputError, NotAUnit, SpecMismatch, UnsupportedRing


# The element grammar RingSpec.parse accepts; [0-9] matches ASCII digits only.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:[/.][0-9]+)?")


# Miller-Rabin with the first twelve primes as bases is exact below this
# bound, the least strong pseudoprime to all of them (Sorenson and
# Webster, Math. Comp. 2017); RingSpec refuses moduli at or above it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < _PRIME_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int):
    """A square root of the unit a modulo the prime p, or None: Euler's
    criterion, then Tonelli-Shanks (Cohen, Algorithm 1.5.1)."""
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with a*u + b*v = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


class RingSpec:
    """One of Z, Q, or F_p for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Z", "Q", "Fp"):
            raise InputError(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if isinstance(p, int) and p >= _PRIME_BOUND:
                raise InputError(
                    f"Fp modulus {p} is too large: primality is decided "
                    f"only below {_PRIME_BOUND}"
                )
            if not isinstance(p, int) or not _is_prime(p):
                raise InputError(f"Fp needs a prime modulus, got {p!r}")
        elif p is not None:
            raise InputError(f"ring kind {kind!r} takes no modulus")
        self.kind = kind
        self.p = p

    def __eq__(self, other):
        return self is other or (
            isinstance(other, RingSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"GF({self.p})" if self.kind == "Fp" else self.kind * 2

    def is_field(self) -> bool:
        return self.kind != "Z"

    def characteristic(self) -> int:
        return self.p if self.kind == "Fp" else 0

    def value(self, x):
        """The canonical raw value of x in this ring: an int over Z, a
        Fraction over Q, a residue in [0, p) over F_p.  x may be an int,
        a Fraction or an element of this spec.  An element of another ring
        raises SpecMismatch, a Fraction with no image here InputError or
        NotAUnit, and any other value InputError."""
        if type(x) is int:
            if self.p:
                return x % self.p
            return x if self.kind == "Z" else Fraction(x)
        if isinstance(x, RingElement):
            if x.spec != self:
                raise SpecMismatch(f"cannot move {x!r} into {self!r}")
            return x.value
        if self.kind == "Z":
            if isinstance(x, Fraction):
                if x.denominator != 1:
                    raise InputError(f"{x} is not an integer")
                x = x.numerator
            if not isinstance(x, int):
                raise InputError(f"bad integer value {x!r}")
            return x
        if self.kind == "Q":
            if type(x) is Fraction:
                return x
            if not isinstance(x, (int, Fraction)):
                raise InputError(f"bad rational value {x!r}")
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise NotAUnit(f"{x} has no image modulo {self.p}")
            x = x.numerator * pow(x.denominator, -1, self.p)
        if not isinstance(x, int):
            raise InputError(f"bad residue value {x!r}")
        return x % self.p

    def element(self, value) -> RingElement:
        """The only gate into this ring: an element of this spec comes back
        as it is (elements are immutable), any other value is converted,
        and an element of another ring raises SpecMismatch."""
        if isinstance(value, RingElement) and value.spec == self:
            return value
        return RingElement(self, value)

    @property
    def zero(self) -> RingElement:
        return RingElement(self, 0)

    @property
    def one(self) -> RingElement:
        return RingElement(self, 1)

    def parse(self, text: str) -> RingElement:
        """Decode the canonical string form: "-3", "4", or "2/7" over Q.

        Surrounding whitespace aside, the string must be ASCII
        [+-]?[0-9]+, which over Q may end in /[0-9]+ or .[0-9]+.
        """
        if not isinstance(text, str):
            raise InputError(f"element must be a string, got {type(text).__name__}")
        digits = text.strip()
        rational = self.kind == "Q"
        if (_RATIONAL if rational else _INTEGER).fullmatch(digits):
            try:
                return RingElement(self, Fraction(digits) if rational else int(digits))
            except (ValueError, ZeroDivisionError):
                pass  # a zero denominator, or more digits than int() converts
        raise InputError(f"cannot parse {text!r} as an element of {self!r}")

    def elements(self):
        """Iterate every element, smallest residue first.  Finite rings only."""
        if self.kind != "Fp":
            raise UnsupportedRing(f"{self!r} is not finite")
        for r in range(self.p):
            yield RingElement(self, r)

    def units(self):
        if self.kind == "Z":
            yield RingElement(self, 1)
            yield RingElement(self, -1)
        elif self.kind == "Fp":
            for r in range(1, self.p):
                yield RingElement(self, r)
        else:
            raise UnsupportedRing("QQ has infinitely many units")

    def to_json(self) -> dict:
        if self.kind == "Fp":
            return {"kind": "Fp", "p": self.p}
        return {"kind": self.kind}

    @staticmethod
    def from_json(obj) -> RingSpec:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InputError("ring spec must be an object with a 'kind' key")
        kind = obj["kind"]
        if kind == "Fp":
            if set(obj) != {"kind", "p"}:
                raise InputError("Fp spec takes exactly the keys 'kind' and 'p'")
            return RingSpec("Fp", obj["p"])
        if set(obj) != {"kind"}:
            raise InputError(f"ring spec for {kind!r} takes only the 'kind' key")
        return RingSpec(kind)


ZZ = RingSpec("Z")
QQ = RingSpec("Q")


def GF(p: int) -> RingSpec:
    return RingSpec("Fp", p)


class RingElement:
    """A canonical element of a RingSpec, with exact ring arithmetic."""

    __slots__ = ("spec", "value")

    def __init__(self, spec: RingSpec, value):
        self.value = spec.value(value)
        self.spec = spec

    def _coerce(self, other) -> RingElement:
        if isinstance(other, RingElement):
            if other.spec != self.spec:
                raise SpecMismatch(f"{self.spec!r} does not match {other.spec!r}")
            return other
        if isinstance(other, int):
            return RingElement(self.spec, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(self.spec, self.value + other.value)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(self.spec, self.value - other.value)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(self.spec, other.value - self.value)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _trusted(self.spec, self.value * other.value)

    __rmul__ = __mul__

    def __neg__(self):
        return _trusted(self.spec, -self.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("exponent must be a non-negative integer")
        out = self.spec.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, RingElement):
            return self.spec == other.spec and self.value == other.value
        if isinstance(other, int):
            return self.value == self.spec.value(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.spec, self.value))

    def __repr__(self):
        return str(self)

    def __str__(self):
        return str(self.value)

    def __bool__(self):
        return self.value != 0

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        if self.spec.kind == "Z":
            return self.value in (1, -1)
        return self.value != 0

    def inverse(self) -> RingElement:
        if not self.is_unit():
            raise NotAUnit(f"{self} is not a unit in {self.spec!r}")
        if self.spec.kind == "Fp":
            g, u, _ = _xgcd(self.value, self.spec.p)
            assert g == 1
            return RingElement(self.spec, u)
        if self.spec.kind == "Q":
            return RingElement(self.spec, 1 / self.value)
        return self  # over Z the units are their own inverses


def _trusted(spec: RingSpec, value) -> RingElement:
    """An element from a value already of the ring's type (an int, or a
    Fraction over Q): reduced mod p over F_p, not re-validated."""
    out = object.__new__(RingElement)
    out.spec = spec
    out.value = value % spec.p if spec.p else value
    return out


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """Exact quotient a/b; over Z the division must leave no remainder.

    Internal helper for fraction-free elimination, where quotients are
    exact by construction.  Not part of the unit-division contract.
    """
    if b.spec != a.spec:
        raise SpecMismatch("mismatched operands")
    if a.spec.kind == "Z":
        if b.value == 0:
            raise NotAUnit("division by zero")
        q, r = divmod(a.value, b.value)
        if r != 0:
            raise NotAUnit(f"{a} is not divisible by {b}")
        return RingElement(a.spec, q)
    return a / b


def bezout(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement]:
    """Return (s, t) with a*t - s*b = 1, or raise NotAUnit.

    Over Z this is the extended Euclidean algorithm; over a field one of
    the two coefficients is simply an inverse.  Used to complete a row
    (a, b) to a determinant-one matrix.
    """
    spec = a.spec
    if b.spec != spec:
        raise SpecMismatch("mismatched operands")
    if spec.kind == "Z":
        g, u, v = _xgcd(a.value, b.value)
        if g != 1:
            raise NotAUnit(f"gcd({a}, {b}) = {g} is not a unit")
        return RingElement(spec, -v), RingElement(spec, u)
    if not a.is_zero():
        return spec.zero, a.inverse()
    if not b.is_zero():
        return -b.inverse(), spec.zero
    raise NotAUnit("gcd(0, 0) is not a unit")


def square_class_witness(d: RingElement, big_d: RingElement):
    """A unit a with d = a^2 * D, or None if the square classes differ."""
    spec = d.spec
    if big_d.spec != spec:
        raise SpecMismatch("mismatched operands")
    if d.is_zero() and big_d.is_zero():
        return spec.one
    if d.is_zero() or big_d.is_zero():
        return None
    if spec.kind == "Z":
        # units are {1, -1}, both with square 1
        return spec.one if d == big_d else None
    if spec.kind == "Fp":
        # the roots of a^2 = d/D are r and p - r; the smaller is the first
        # unit a scan from 1 upwards would meet
        p = spec.p
        r = _sqrt_mod(d.value * pow(big_d.value, -1, p) % p, p)
        return None if r is None else RingElement(spec, min(r, p - r))
    ratio = d.value / big_d.value
    if ratio < 0:
        return None
    num, den = ratio.numerator, ratio.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return RingElement(spec, Fraction(rn, rd))
    return None


def square_class_equal(d: RingElement, big_d: RingElement) -> bool:
    """True when d and D differ by the square of a unit."""
    return square_class_witness(d, big_d) is not None
