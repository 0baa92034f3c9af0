"""Bi-infinite points of a subshift, exposed through finite centered windows.

A `Point` is two one-sided words around 0, x_0 x_1 ... on the right and
... x_-2 x_-1 on the left, each grown by doubling with its family's own
word builder.  A read grows only the sides it passes and slices them, so
all windows are slices of one fixed assignment.  A point is not checked
against a subshift: a window outside the language is refused where it
meets a table over the admissible words.  Substitution iterates and
standard words are refused past the text budget before they are built, and
a fixed point's default seeds are found without any iterate.
"""

from __future__ import annotations

import threading

from .errors import SpecMismatch, ValidationError
from .subshifts import (
    ExplicitSpec,
    FullShiftSpec,
    SturmianSpec,
    SubshiftSpec,
    SubstitutionSpec,
    StandardWords,
    ToeplitzSpec,
    substitution_iterate,
    toeplitz_word,
)

MAX_CYLINDER_RADIUS = 1 << 16  # widest window `find_cylinder_position` scans


def _slice(left: str, right: str, lo: int, hi: int) -> str:
    """Letters lo .. hi-1 of `left` then `right`, 0 the first of `right`;
    `left` holds -lo letters or more."""
    return left[len(left) + lo : len(left) + min(hi, 0)] + right[max(lo, 0) : max(hi, 0)]


class Point:
    """Base class: window access over two cached one-sided words."""

    def __init__(self):
        self._lock = threading.RLock()
        self._right = ""  # x_0 x_1 ...
        self._left = ""  # ... x_-2 x_-1

    def _grow(self, side: str, length: int) -> str:
        """At least `length` letters of the "right" or "left" side."""
        raise NotImplementedError

    def letters(self, lo: int, hi: int) -> str:
        """Letters at coordinates lo .. hi-1, from the sides that the read
        passes, each grown to at least twice its length when it is short."""
        if hi <= lo:
            return ""
        with self._lock:
            if hi > len(self._right):
                self._right = self._grow("right", max(hi, 2 * len(self._right)))
            if -lo > len(self._left):
                self._left = self._grow("left", max(-lo, 2 * len(self._left)))
            return _slice(self._left, self._right, lo, hi)

    def window(self, center: int, radius: int) -> str:
        """The word at coordinates center-radius .. center+radius."""
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        return self.letters(center - radius, center + radius + 1)

    def __repr__(self):
        return f"<{type(self).__name__}>"


def _fixed_point_seeds(rules: dict[str, str], spec: SubstitutionSpec) -> tuple[int, str, str]:
    """Find (power, left, right) with psi^power(left) ending in left,
    psi^power(right) starting with right, and the pair admissible.  Images
    are nonempty (growth condition), so the last and first letters of the
    iterates are followed letter by letter, and no iterate is built."""
    table = spec.language
    letters = sorted(rules)
    last = first = {c: c for c in letters}  # of psi^power(c)
    for power in (2, 4, 6, 8):
        last = {c: rules[rules[d][-1]][-1] for c, d in last.items()}
        first = {c: rules[rules[d][0]][0] for c, d in first.items()}
        for y in [y for y in letters if last[y] == y]:
            for z in [z for z in letters if first[z] == z]:
                if table.is_admissible(y + z):
                    return power, y, z
    raise SpecMismatch("no admissible two-sided fixed-point seed pair found")


class SubstitutionFixedPoint(Point):
    """Two-sided fixed point of an even power of the substitution.

    The left tail is the limit of psi^{pk}(left) extended leftward (the
    image of `left` ends with `left`), the right side the limit of
    psi^{pk}(right) extended rightward; the seed pair must be admissible,
    which puts the point inside the subshift.
    """

    def __init__(self, spec: SubstitutionSpec, left: str | None = None,
                 right: str | None = None, power: int | None = None):
        super().__init__()
        self.rules = spec.rules_dict
        self.power = power
        if left is None or right is None or power is None:
            self.power, left, right = _fixed_point_seeds(self.rules, spec)
        else:
            if power < 1:  # power 0 fixes every word, and the tails would never grow
                raise ValidationError(f"fixed-point power must be >= 1, got {power}")
            if not left or not right:  # an empty seed stays empty, and its tail never grows
                raise ValidationError("fixed-point seeds must be nonempty")
            if not self._step(left).endswith(left):
                raise SpecMismatch(f"psi^{power}({left!r}) does not end with {left!r}")
            if not self._step(right).startswith(right):
                raise SpecMismatch(f"psi^{power}({right!r}) does not start with {right!r}")
            if not spec.language.is_admissible(left + right):
                raise SpecMismatch(f"seed pair {left + right!r} is not admissible")
        self.left_seed = self._left = left
        self.right_seed = self._right = right

    def _step(self, word: str) -> str:
        """psi^power(word), refused past `subshifts.MAX_TEXT` letters."""
        return substitution_iterate(self.rules, word, self.power)

    def _grow(self, side: str, length: int) -> str:
        word = self._right if side == "right" else self._left
        while len(word) < length:
            word = self._step(word)
        return word


class MechanicalPoint(Point):
    """Two-sided Sturmian point read off the standard words s_k and shifted
    by an intercept index: right of 0 the limit of s_0, s_1, ..., each a
    prefix of the next, and left of 0 the limit of s_0, s_2, s_4, ..., each
    a suffix of the next.  It is the fixed point of the square of the
    standard-word substitutions composed over one period of the continued
    fraction, whose iterates of a are the s_k at every period's end."""

    def __init__(self, spec: SturmianSpec, intercept: int = 0):
        super().__init__()
        self.intercept = intercept
        self._words = StandardWords(spec)

    def _word(self, length: int, step: int) -> str:
        """The first of s_0, s_step, s_2step, ... with `length` letters or more."""
        k = 0
        while len(self._words[k]) < length:
            k += step
        return self._words[k]

    def _grow(self, side: str, length: int) -> str:
        lo = self.intercept if side == "right" else self.intercept - length
        left = self._word(-lo, 2) if lo < 0 else ""
        right = self._word(lo + length, 1) if lo + length > 0 else ""
        return _slice(left, right, lo, lo + length)


class ToeplitzPoint(Point):
    """Two-sided hole filling of a Toeplitz pattern, anchored at an offset:
    coordinate j carries the letter of the two-sided Toeplitz word at
    j+anchor.  A pattern that ends with a hole leaves a permanent hole at
    -1, and is refused at construction."""

    def __init__(self, spec: ToeplitzSpec, anchor: int = 0):
        super().__init__()
        self.anchor = anchor
        self.pattern = spec.pattern
        self.hole = spec.hole
        toeplitz_word(self.pattern, 1, self.hole, -1)  # every anchor's point holds x_-1

    def _grow(self, side: str, length: int) -> str:
        start = self.anchor if side == "right" else self.anchor - length
        return toeplitz_word(self.pattern, length, self.hole, start)


def _repeat(word: str, start: int, length: int) -> str:
    """word[start mod len], word[start+1 mod len], ...: `length` letters."""
    start %= len(word)
    return (word * ((start + length) // len(word) + 1))[start : start + length]


class PeriodicPoint(Point):
    """Periodic repetition of a finite word: x_j = word[(j+phase) mod len]."""

    def __init__(self, word: str, phase: int = 0):
        if not word:
            raise ValidationError("periodic word must be nonempty")
        super().__init__()
        self.word = word
        self.phase = phase

    def _grow(self, side: str, length: int) -> str:
        start = self.phase if side == "right" else self.phase - length
        return _repeat(self.word, start, length)


class ExplicitPoint(Point):
    """Finite center word with declared periodic tails on both sides."""

    def __init__(self, left_period: str, center: str, right_period: str):
        if not left_period or not right_period:
            raise ValidationError("tail periods must be nonempty")
        super().__init__()
        self.left_period = left_period
        self.center = center
        self.right_period = right_period

    def _grow(self, side: str, length: int) -> str:
        if side == "left":
            return _repeat(self.left_period, -length, length)
        return self.center + _repeat(self.right_period, 0, max(length - len(self.center), 0))


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
    n = len(w)
    for q in range(1, n // 4 + 1):
        if all(w[i] == w[i + q] for i in range(n - q)):
            return q
    return None


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
        raise SpecMismatch(
            "explicit subshifts have no built-in point; supply a point descriptor"
        )
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
