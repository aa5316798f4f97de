"""Exception hierarchy shared across the package.

Everything raised deliberately derives from LowrankError so callers (the
command line driver in particular) can tell domain failures apart from
malformed input, which surfaces as InputError.
"""

import os
import re


# README's integer grammar: ASCII digits ([0-9] matches no other digit)
# with an optional sign.  Ring elements (rings.RingSpec.parse), --p and
# --n (cli._integer) and LOWRANK_GUARD are read through it.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class LowrankError(Exception):
    """Base class for domain errors: bad relations, non-units, guards."""


class SpecMismatch(LowrankError):
    """Two operands live over different base rings."""


class NotAUnit(LowrankError):
    """Division or inversion was requested for a non-unit."""


class UnsupportedRing(LowrankError):
    """The operation is not defined over the given base ring."""


class TableError(LowrankError):
    """A structure-constant table is malformed or not unital."""


class RelationViolation(LowrankError):
    """Coefficients fail the identities forced by associativity."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("violated: " + ", ".join(self.violations))


class WrongCase(LowrankError):
    """The operation needs a different multiplication-table case."""


class GuardExceeded(LowrankError):
    """An enumeration would exceed the configured size guard."""


class InputError(Exception):
    """Malformed external input (bad JSON shape, unknown keys, bad strings)."""


def enumeration_limit(default):
    """Size ceiling for exhaustive enumerations.

    The LOWRANK_GUARD environment variable, when set to an integer in
    README's grammar (_INTEGER, so no '_', no space and no non-ASCII
    digit), replaces the built-in ceiling.  That escape hatch is unsafe:
    large values can make census commands run for a very long time.
    """
    raw = os.environ.get("LOWRANK_GUARD")
    if raw is None:
        return default
    if _INTEGER.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:
            pass  # more digits than int() converts
    raise InputError(f"LOWRANK_GUARD must be an integer, got {raw!r}")


def check_guard(count, default_limit, what):
    limit = enumeration_limit(default_limit)
    if count > limit:
        raise GuardExceeded(
            f"{what} needs {count} steps, over the limit of {limit}; "
            "set LOWRANK_GUARD to override (unsafe)"
        )
