"""Exception hierarchy.

Three coarse families map onto CLI exit codes: bad input (2), blown
resource budgets (3), and internal invariant violations (4).
"""

from __future__ import annotations


class FullgroupLabError(Exception):
    """Base class for all library errors."""


class ValidationError(FullgroupLabError):
    """Caller-supplied data violates a documented precondition."""


class EmptyAlphabet(ValidationError):
    pass


class ConditionViolated(ValidationError):
    """A spec fails one of its family's standing conditions; the message
    names the family, and the letter where the condition is about one."""

    def __init__(self, family: str, condition: int, detail: str, letter: str | None = None):
        self.condition = condition
        self.letter = letter
        where = "" if letter is None else f" at letter {letter!r}"
        super().__init__(f"{family} condition {condition} fails{where}: {detail}")


class IncompleteTable(ValidationError):
    """A cocycle table does not cover exactly the admissible words."""


class NotInvertible(ValidationError):
    """A cocycle table does not define a bijection of the subshift."""


class SpecMismatch(ValidationError):
    """An operation was applied to a subshift it is not defined for."""


class DomainError(ValidationError):
    """A numeric parameter is outside the formula's domain."""


class InsufficientData(ValidationError):
    """Too few tail exceedances to fit or certify anything."""


class PeriodicCollision(ValidationError):
    """Distinct orbit offsets are indistinguishable on a periodic point."""


class UnresolvableHole(ValidationError):
    """The two-sided hole filling leaves a hole filled by itself."""


class ResourceLimit(FullgroupLabError):
    """An enumeration exceeded its configured cap."""


# The one byte budget: every allocation that grows with user input is
# afforded against it, in traced bytes, before it is made (512 MiB)
MAX_BYTES = 1 << 29


def afford(nbytes: int, what: str) -> None:
    """Refuse with ResourceLimit, before they are allocated, the `nbytes`
    bytes that `what` needs when they pass MAX_BYTES."""
    if nbytes > MAX_BYTES:
        raise ResourceLimit(f"{what} needs {nbytes} bytes, past the byte budget of "
                            f"{MAX_BYTES} bytes")


class InternalInvariantError(FullgroupLabError):
    """A should-never-happen consistency check failed (bug guard)."""


def unique_dict(pairs, error: type[ValidationError], what: str) -> dict:
    """The (key, value) pairs as a dict, raising `error` on a key given
    twice, where `dict` would keep the last value without a word."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise error(f"{what} {key!r} is given twice")
        out[key] = value
    return out
