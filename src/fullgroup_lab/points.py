"""Bi-infinite points of a subshift, exposed through finite centered windows.

A `Point` is a position rule: `letters(lo, hi)` spells exactly the window
asked for, and a read changes nothing, so a point is shared across threads
with no lock.  Toeplitz points fill their holes from the anchor
(`toeplitz_word`); periodic and explicit points repeat their words.
Substitution fixed points and Sturmian points read the level words that
`subshifts.level_words` builds at construction (Dumont & Thomas, TCS 65,
1989; Ostrowski numeration for standard words): a read keeps, level by
level, only the copies that meet it, so it spells about as many letters as
it returns.  A point is not checked against a subshift: a window outside
the language is refused where it meets a table over the admissible words.
"""

from __future__ import annotations

import itertools

from .errors import ResourceLimit, SpecMismatch, ValidationError
from .subshifts import (
    REACH,
    ExplicitSpec,
    FullShiftSpec,
    LevelWords,
    SturmianSpec,
    SubshiftSpec,
    SubstitutionSpec,
    ToeplitzSpec,
    level_words,
    toeplitz_word,
)

MAX_CYLINDER_RADIUS = 1 << 16  # widest window `find_cylinder_position` scans


class Point:
    """Base class: windows over a position rule, `letters`."""

    def letters(self, lo: int, hi: int) -> str:
        """Letters at coordinates lo .. hi-1."""
        raise NotImplementedError

    def window(self, center: int, radius: int) -> str:
        """The word at coordinates center-radius .. center+radius."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return self.letters(center - radius, center + radius + 1)

    def __repr__(self):
        return f"<{type(self).__name__}>"


class _LevelPoint(Point):
    """A point whose sides are limits of the level words of one
    `LevelWords` table, moved by `shift`.  For an end (c, t), the right
    side is the limit of W_0(c), W_t(c), W_2t(c), ..., each a prefix of the
    next, and the left side the limit of such words that are each a suffix
    of the next; `near` holds, for each end, the longest of them that the
    table keeps spelled."""

    def __init__(self, levels: LevelWords, left: tuple[str, int], right: tuple[str, int],
                 shift: int = 0):
        self.levels, self.ends, self.shift = levels, (left, right), shift
        words = levels.words
        self.near = tuple(next(words[j][c] for j in reversed(range(0, len(words), t))
                               if c in words[j]) for c, t in self.ends)

    def letters(self, lo: int, hi: int) -> str:
        """Letters at coordinates lo .. hi-1: one slice of the spelled words
        around 0, or else a descent on each side that the read passes."""
        lo, hi = lo + self.shift, hi + self.shift
        left, right = self.near
        if -len(left) <= lo and hi <= len(right):
            return left[len(left) + lo : len(left) + min(hi, 0)] + right[max(lo, 0) : max(hi, 0)]
        if hi <= lo:
            return ""
        return self._side(*self.ends[0], lo, min(hi, 0)) + self._side(*self.ends[1], max(lo, 0), hi)

    def _side(self, c: str, t: int, s: int, e: int) -> str:
        """Letters s .. e-1, none if e <= s, of the side that the end (c, t)
        spans (0 <= s or e <= 0), from the first of W_0(c), W_t(c), ... long enough."""
        lengths = self.levels.lengths
        j = next((j for j in range(0, len(lengths), t) if lengths[j][c] >= max(e, -s)), None)
        if j is None:
            raise ResourceLimit(f"a read at {s} passes the {REACH} letters the level words reach")
        n = lengths[j][c] if s < 0 else 0
        return self.levels.spell(j, c, s + n, e + n)


def _cycles(step: dict[str, str]) -> dict[str, int]:
    """The length of the cycle of `step` through each letter on one."""
    orbits = {c: list(itertools.accumulate(step, lambda d, _: step[d], initial=step[c]))
              for c in step}  # step(c), step^2(c), ..., as many as there are letters
    return {c: orbit.index(c) + 1 for c, orbit in orbits.items() if c in orbit}


class SubstitutionFixedPoint(_LevelPoint):
    """Two-sided fixed point of a power psi^p of the substitution.

    psi^p(right) starts with `right` exactly when right[0] lies on a cycle
    of c -> psi(c)[0] whose length q divides p and `right` is a prefix of
    the limit of psi^{qk}(right[0]), the right side; the left side is the
    same with last letters and suffixes, so no iterate of psi^p is built.
    The seed pair must be admissible, which puts the point inside the
    subshift.  With no seeds, the point takes the first admissible pair of
    one-letter seeds at the first even power up to 8 that has one."""

    def __init__(self, spec: SubstitutionSpec, left: str | None = None,
                 right: str | None = None, power: int | None = None):
        rules = spec.rules_dict
        first, last = (_cycles({c: image[i] for c, image in rules.items()}) for i in (0, -1))
        seeds = {"left": left, "right": right, "power": power}
        missing = [repr(name) for name in seeds if seeds[name] is None]
        if len(missing) == 3:
            power, left, right = next(((p, y, z) for p in (2, 4, 6, 8) for y in sorted(last)
                                       for z in sorted(first) if p % last[y] == p % first[z] == 0
                                       and spec.language.is_admissible(y + z)), (None,) * 3)
            if power is None:
                raise SpecMismatch("no admissible two-sided fixed-point seed pair found")
        elif missing:
            raise ValidationError(f"a fixed point's seeds also need {' and '.join(missing)}")
        elif power < 1:  # power 0 fixes every word, and the sides would never grow
            raise ValidationError(f"fixed-point power must be >= 1, got {power}")
        elif not left or not right:  # an empty seed stays empty, and its side never grows
            raise ValidationError("fixed-point seeds must be nonempty")
        q, r = last.get(left[-1], 0), first.get(right[0], 0)
        super().__init__(level_words(spec), (left[-1], q or 1), (right[0], r or 1))
        if not q or power % q or self.letters(-len(left), 0) != left:
            raise SpecMismatch(f"psi^{power}({left!r}) does not end with {left!r}")
        if not r or power % r or self.letters(0, len(right)) != right:
            raise SpecMismatch(f"psi^{power}({right!r}) does not start with {right!r}")
        if not spec.language.is_admissible(left + right):
            raise SpecMismatch(f"seed pair {left + right!r} is not admissible")


class MechanicalPoint(_LevelPoint):
    """Two-sided Sturmian point read off the standard words s_k and shifted
    by an intercept index: right of 0 the limit of s_0, s_1, ..., each a
    prefix of the next, and left of 0 the limit of s_0, s_2, s_4, ..., each
    a suffix of the next.  Level k of the spec's `level_words` holds
    a = s_k."""

    def __init__(self, spec: SturmianSpec, intercept: int = 0):
        super().__init__(level_words(spec), ("a", 2), ("a", 1), intercept)


class ToeplitzPoint(Point):
    """Two-sided hole filling of a Toeplitz pattern, anchored at an offset:
    coordinate j carries the letter of the two-sided Toeplitz word at
    j+anchor.  A pattern that ends with a hole leaves a permanent hole at
    -1, and is refused at construction."""

    def __init__(self, spec: ToeplitzSpec, anchor: int = 0):
        self.anchor, self.pattern, self.hole = anchor, spec.pattern, spec.hole
        toeplitz_word(self.pattern, 1, self.hole, -1)  # every anchor's point holds x_-1

    def letters(self, lo: int, hi: int) -> str:
        return toeplitz_word(self.pattern, hi - lo, self.hole, lo + self.anchor) if lo < hi else ""


def _repeat(word: str, start: int, length: int) -> str:
    """word[start mod len], word[start+1 mod len], ...: `length` letters,
    none if `length` is not positive."""
    start %= len(word)
    return (word * ((start + length) // len(word) + 1))[start : start + length]


class ExplicitPoint(Point):
    """Finite center word at 0 .. len(center)-1 with declared periodic tails:
    x_j = left_period[j mod len] left of it, right_period[j - len(center) mod len] right."""

    def __init__(self, left_period: str, center: str, right_period: str):
        if not left_period or not right_period:
            raise ValidationError("tail periods must be nonempty")
        self.left_period, self.center, self.right_period = left_period, center, right_period

    def letters(self, lo: int, hi: int) -> str:
        n = len(self.center)
        return (_repeat(self.left_period, lo, min(hi, 0) - lo)
                + self.center[max(lo, 0) : max(hi, 0)]
                + _repeat(self.right_period, max(lo, n) - n, hi - max(lo, n)))


class PeriodicPoint(ExplicitPoint):
    """Periodic repetition of a finite word: x_j = word[(j+phase) mod len]."""

    def __init__(self, word: str, phase: int = 0):
        if not word:
            raise ValidationError("periodic word must be nonempty")
        super().__init__(rotated := _repeat(word, phase, len(word)), "", rotated)


def is_periodic_window(point: Point, radius: int) -> int | None:
    """Smallest period of the centered window, or None.

    A period is only reported when it fits at least four times in the
    window; shorter evidence is routinely produced by aperiodic points
    (Sturmian windows, for instance, can contain cubes but no fourth
    powers), so it would not indicate global periodicity.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    w = point.window(0, radius)
    return next((q for q in range(1, len(w) // 4 + 1) if w[q:] == w[:-q]), None)


def canonical_point(spec: SubshiftSpec) -> Point:
    """A default admissible point for the families that have one built in."""
    if isinstance(spec, SubstitutionSpec):
        return SubstitutionFixedPoint(spec)
    if isinstance(spec, SturmianSpec):
        return MechanicalPoint(spec, 0)
    if isinstance(spec, ToeplitzSpec):
        return ToeplitzPoint(spec, 0)
    if isinstance(spec, FullShiftSpec):
        return PeriodicPoint("".join(spec.letters))
    if isinstance(spec, ExplicitSpec):
        raise SpecMismatch("explicit subshifts have no built-in point; supply a point descriptor")
    raise SpecMismatch(f"no canonical point for {spec!r}")


def find_cylinder_position(point: Point, word: str) -> int:
    """A center position c with window(c, depth) == word, by scanning
    growing centered windows of the point up to MAX_CYLINDER_RADIUS."""
    if len(word) % 2 != 1:
        raise ValueError("cylinder words have odd length")
    depth = (len(word) - 1) // 2
    radius = max(4 * len(word), 16)
    while radius <= MAX_CYLINDER_RADIUS:
        text = point.window(0, radius)
        at = text.find(word)
        if at >= 0:
            return at - radius + depth
        radius *= 2
    raise ValidationError(f"word {word!r} not found within radius {MAX_CYLINDER_RADIUS}")
