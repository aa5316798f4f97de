"""Exact base rings: the integers, the rationals, and prime fields.

A RingSpec names one of the three supported base rings.  Its canonical
values are plain Python numbers: an int over Z, a reduced Fraction over
Q, a residue int in [0, p) over F_p; over Q the -1, 0 and 1 that
RingSpec.value makes of ints, and the reader of the strings "-1", "0"
and "1", are the shared Fractions of _Q_CONSTANTS.  RingSpec.value
checks a value and returns its canonical form; every stored table,
element, matrix, polynomial and form holds and computes on these raw
values, and all but the algebra elements are _RawValues records.  A
RingElement pairs a spec with a canonical value and is what the public
API hands out; its arithmetic builds results through a trusted
constructor that only reduces mod p.  Readers decode decimal strings
straight to canonical raw values (RingSpec._parse_value, which parse
wraps in an element, and which reads "-1", "0" and "1" by one lookup on
every ring) and hand them to a constructor, which checks them
through RingSpec.value; StructureConstants.from_json stores them as
read, once the table's shape and identity are checked.  The raw unit
inverse, the unit test and the exact quotient are written once here,
for elements and the raw loops alike, and so is _canonical_json, the
package's one JSON writer.  All arithmetic is exact; there is no
floating point anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import isqrt

from .errors import _INTEGER, InputError, NotAUnit, SpecMismatch, UnsupportedRing


# The element grammar RingSpec.parse accepts: errors._INTEGER, and over Q
# this; [0-9] matches ASCII digits only.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:[/.][0-9]+)?")

# The canonical -1, 0 and 1 over Q, shared by every value that RingSpec.value
# makes of those ints and RingSpec._parse_value of the strings "-1", "0" and
# "1".  Fractions are immutable, so sharing is safe, and tuples of shared
# constants (a table's unit rows) compare by identity first.
_Q_CONSTANTS = {v: Fraction(v) for v in (-1, 0, 1)}


# Miller-Rabin with the first twelve primes as bases is exact below
# _PRIME_BOUND, the least strong pseudoprime to all of them; RingSpec
# refuses moduli at or above it.  _PRIME_PSI[r - 1] is psi_r, the least
# strong pseudoprime to the first r bases, so an n below it that passes
# those r rounds is prime.  The table for r <= 8 is Jaeschke's (Math.
# Comp. 61, 1993), for r = 9 to 12 Sorenson and Webster's (Math. Comp.
# 2017); a value repeats where one more base does not raise it.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_BOUND = 318665857834031151167461
_PRIME_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
) + (341550071728321,) * 2 + (3825123056546413051,) * 3 + (_PRIME_BOUND,)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < _PRIME_BOUND: trial
    division by the bases, under which every n < 41^2 left is prime,
    then the rounds in base order until n is below the round's psi."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a, psi in zip(_PRIME_BASES, _PRIME_PSI):
        x = pow(a, d, n)
        if x != 1 and x != n - 1:
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        if n < psi:
            return True
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
    """One of Z, Q, or F_p for a prime p.  `_constants` maps the strings
    "-1", "0" and "1" to their canonical raw values, which over Q are the
    shared _Q_CONSTANTS."""

    __slots__ = ("kind", "p", "_constants")

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
        self._constants = {
            str(v): _Q_CONSTANTS[v] if kind == "Q" else v % p if p else v
            for v in (-1, 0, 1)
        }

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
            if self.kind == "Z":
                return x
            return _Q_CONSTANTS[x] if -1 <= x <= 1 else Fraction(x)
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
        return _trusted(self, self._parse_value(text))

    def _parse_value(self, text):
        """The canonical raw value of the string text, read as parse
        reads it, with no element built.  On every ring the strings
        "-1", "0" and "1" are looked up in _constants, over Q the shared
        constants of _Q_CONSTANTS.  Over Q any other integer gives the
        one-argument Fraction of its int(), a/b one Fraction of the int()
        of each part, and a.b the Fraction of the stripped string, whose
        int() of each part sets the same digit limit."""
        if not isinstance(text, str):
            raise InputError(f"element must be a string, got {type(text).__name__}")
        digits = text.strip()
        if digits in self._constants:
            return self._constants[digits]
        try:
            if self.kind != "Q":
                if _INTEGER.fullmatch(digits):
                    return int(digits) % self.p if self.p else int(digits)
            elif _RATIONAL.fullmatch(digits):
                if "." in digits:
                    return Fraction(digits)
                num, slash, den = digits.partition("/")
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
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
    """The prime field F_p as a RingSpec, which raises InputError unless
    p is a prime below _PRIME_BOUND."""
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
        p = self.spec.p
        return _trusted(self.spec, pow(self.value, n, p) if p else self.value**n)

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
        return _unit_inverse(self.spec, self.value) is not None

    def inverse(self) -> RingElement:
        inv = _unit_inverse(self.spec, self.value)
        if inv is None:
            raise NotAUnit(f"{self} is not a unit in {self.spec!r}")
        return _trusted(self.spec, inv)


def _trusted(spec: RingSpec, value) -> RingElement:
    """An element from a value already of the ring's type (an int, or a
    Fraction over Q): reduced mod p over F_p, not re-validated."""
    out = object.__new__(RingElement)
    out.spec = spec
    out.value = value % spec.p if spec.p else value
    return out


def _as_elements(spec: RingSpec, values):
    """The canonical raw values as RingElements of spec, with each nested
    tuple of values (a table row or cell, a matrix row) a tuple of them."""
    return tuple(
        _as_elements(spec, v) if type(v) is tuple else _trusted(spec, v)
        for v in values
    )


def _check_keys(obj, keys, message) -> None:
    """Raise InputError with message unless obj is a JSON object whose
    keys are exactly keys; when every key is present but obj has others
    too, the message goes on to name them."""
    if not isinstance(obj, dict) or set(keys) - set(obj):
        raise InputError(message)
    unknown = set(obj) - set(keys)
    if unknown:
        raise InputError(f"{message}; unknown keys {sorted(unknown)}")


def _canonical_json(obj, indent="\n") -> str:
    """The bytes of json.dumps(obj, indent=2, sort_keys=True), the one
    way the package writes JSON, for the values it emits: dicts with
    str keys, lists, tuples, str, int, bool and None.  Any other type,
    subclasses included, raises TypeError (a key that is not a str
    raises it in sorted or encode_basestring_ascii); an int past str()'s
    digit limit raises ValueError, as json.dumps does.  indent is the
    newline and indent of the level obj is written at."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return str(obj)
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    inner = indent + "  "
    if kind is dict:
        ends = "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _canonical_json(value, inner)
            for key, value in sorted(obj.items())
        ]
    elif kind is list or kind is tuple:
        ends = "[]"
        items = [_canonical_json(value, inner) for value in obj]
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1]


class _RawValues:
    """A record over a RingSpec `spec` whose entries are stored once, as
    canonical raw values (RingSpec.value) in the tuple `_values`, which
    may nest: a multiplication table stores rows of cells, a matrix rows.
    Each name in a subclass's FIELDS becomes a read-only attribute that
    builds the matching entry as a RingElement when it is read, and
    as_tuple() builds them all.  Records of one class are equal when
    their specs and raw values are.  The JSON of a record's FIELDS, an
    object of decimal strings, is written (_fields_json) and read
    (_from_fields) here for every class."""

    __slots__ = ("spec", "_values")
    FIELDS = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for k, name in enumerate(cls.FIELDS):
            entry = lambda self, k=k: _trusted(self.spec, self._values[k])
            setattr(cls, name, property(entry))

    def as_tuple(self):
        return _as_elements(self.spec, self._values)

    def _fields_json(self) -> dict:
        """The FIELDS as a dict of decimal strings."""
        return dict(zip(self.FIELDS, map(str, self._values)))

    @classmethod
    def _from_fields(cls, spec, obj, message):
        """The record whose FIELDS obj, a JSON object, gives as decimal
        strings of spec, built by the class constructor; raises InputError
        with message when obj is not an object or lacks a field, and with
        message and the names of the extra keys when it has keys beyond
        these.  With spec None the ring is obj's "ring" key, which must be
        present too and is read only after the keys are checked."""
        _check_keys(obj, cls.FIELDS if spec is not None else ("ring",) + cls.FIELDS, message)
        if spec is None:
            spec = RingSpec.from_json(obj["ring"])
        return cls(spec, *(spec._parse_value(obj[k]) for k in cls.FIELDS))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.spec == other.spec
            and self._values == other._values
        )

    def __hash__(self):
        return hash((self.spec, self._values))

    def __repr__(self):
        return type(self).__name__ + str(tuple(map(str, self._values)))


def _unit_inverse(spec: RingSpec, v):
    """The inverse of the canonical raw value v of spec, or None when v
    is not a unit: over Z the units 1 and -1 are their own inverses."""
    if spec.kind == "Z":
        return v if v in (1, -1) else None
    if not v:
        return None
    return pow(v, -1, spec.p) if spec.p else 1 / v


def _exact_quotient(spec: RingSpec, a, b):
    """The raw quotient a/b of canonical raw values: over Z the division
    must leave no remainder, over a field b must be nonzero."""
    if spec.kind == "Z":
        if b == 0:
            raise NotAUnit("division by zero")
        q, r = divmod(a, b)
        if r:
            raise NotAUnit(f"{a} is not divisible by {b}")
        return q
    inv = _unit_inverse(spec, b)
    if inv is None:
        raise NotAUnit(f"{b} is not a unit in {spec!r}")
    return a * inv % spec.p if spec.p else a * inv


def exact_div(a: RingElement, b: RingElement) -> RingElement:
    """Exact quotient a/b; over Z the division must leave no remainder.

    Polynomial long division takes each quotient step by the same rule
    on raw values.  Not part of the unit-division contract.
    """
    if b.spec != a.spec:
        raise SpecMismatch("mismatched operands")
    return _trusted(a.spec, _exact_quotient(a.spec, a.value, b.value))


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
    a = _square_class_root(spec, d.value, big_d.value)
    return None if a is None else _trusted(spec, a)


def _square_class_root(spec: RingSpec, d, big_d):
    """square_class_witness on canonical raw values: a raw unit a with
    d = a^2 * D, or None."""
    if not d and not big_d:
        return spec.value(1)
    if not d or not big_d:
        return None
    if spec.kind == "Z":
        # units are {1, -1}, both with square 1
        return 1 if d == big_d else None
    if spec.kind == "Fp":
        # the roots of a^2 = d/D are r and p - r; the smaller is the first
        # unit a scan from 1 upwards would meet
        p = spec.p
        r = _sqrt_mod(d * pow(big_d, -1, p) % p, p)
        return None if r is None else min(r, p - r)
    ratio = d / big_d
    if ratio < 0:
        return None
    num, den = ratio.numerator, ratio.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def square_class_equal(d: RingElement, big_d: RingElement) -> bool:
    """True when d and D differ by the square of a unit."""
    return square_class_witness(d, big_d) is not None
