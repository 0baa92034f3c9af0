"""Bi-infinite points of a subshift, exposed through finite centered windows.

A `Point` never materializes an infinite sequence: `window(center, radius)`
returns the letters at coordinates center-radius .. center+radius, computed
from a cached segment that grows by doubling.  All windows of a point are
slices of one fixed assignment, so nesting and shift-compatibility hold by
construction.  A point is not checked against a subshift: a window outside
the language is refused where it meets a table over the admissible words.

A substitution fixed point's iterates are refused past the text budget
before they are built, and its default seeds are found without any iterate.
"""

from __future__ import annotations

import threading

from .errors import SpecMismatch, UnresolvableHole, ValidationError
from .subshifts import (
    ExplicitSpec,
    FullShiftSpec,
    SturmianSpec,
    SubshiftSpec,
    SubstitutionSpec,
    ToeplitzSpec,
    sturmian_rules,
    substitution_iterate,
)

_SWAP_AB = str.maketrans("ab", "ba")
MAX_CYLINDER_RADIUS = 1 << 16  # widest window `find_cylinder_position` scans


class Point:
    """Base class: cached window access over a fixed letter assignment."""

    def __init__(self):
        self._lock = threading.RLock()
        self._lo = 0
        self._hi = 0
        self._seg = ""

    def _materialize(self, lo: int, hi: int) -> str:
        """Letters at coordinates lo .. hi-1 (to be provided by subclasses)."""
        raise NotImplementedError

    def letters(self, lo: int, hi: int) -> str:
        """Letters at coordinates lo .. hi-1, from the doubling cache."""
        if hi <= lo:
            return ""
        with self._lock:
            if lo < self._lo or hi > self._hi:
                span = max(hi - lo, 2 * (self._hi - self._lo), 16)
                new_lo = min(lo, self._lo, -(span // 2))
                new_hi = max(hi, self._hi, span // 2)
                self._seg = self._materialize(new_lo, new_hi)
                self._lo, self._hi = new_lo, new_hi
            return self._seg[lo - self._lo : hi - self._lo]

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
        self.left_seed = left
        self.right_seed = right
        self._left_word = left
        self._right_word = right

    def _step(self, word: str) -> str:
        """psi^power(word), refused past DEFAULT_MAX_TEXT letters."""
        return substitution_iterate(self.rules, word, self.power)

    def _materialize(self, lo: int, hi: int) -> str:
        while len(self._left_word) < -lo:
            self._left_word = self._step(self._left_word)
        while len(self._right_word) < hi:
            self._right_word = self._step(self._right_word)
        left = self._left_word[len(self._left_word) + lo :] if lo < 0 else ""
        return left + self._right_word[max(lo, 0) : hi]


class MechanicalPoint(Point):
    """Two-sided Sturmian point, built from the one-period composition of
    the standard-word substitutions and shifted by an intercept index."""

    def __init__(self, spec: SturmianSpec, intercept: int = 0):
        super().__init__()
        self.intercept = intercept
        inner_spec = SubstitutionSpec.from_rules(sturmian_rules(spec.cf), "a")
        self._inner = SubstitutionFixedPoint(inner_spec)
        self._swap = spec.swap_letters

    def _materialize(self, lo: int, hi: int) -> str:
        raw = self._inner.letters(lo + self.intercept, hi + self.intercept)
        return raw.translate(_SWAP_AB) if self._swap else raw


class ToeplitzPoint(Point):
    """Two-sided hole filling of a Toeplitz pattern, anchored at an offset.

    Coordinate j carries the letter of the bi-infinite filling at j+anchor.
    Patterns whose signed filling leaves a permanently drifting hole are
    rejected at construction (the recursion would cycle).
    """

    def __init__(self, spec: ToeplitzSpec, anchor: int = 0):
        super().__init__()
        self.anchor = anchor
        self.pattern = spec.pattern
        self.hole = spec.hole
        self._holes = [i for i, c in enumerate(self.pattern) if c == self.hole]
        self._hole_index = {h: s for s, h in enumerate(self._holes)}
        self._memo: dict[int, str] = {}
        p = len(self.pattern)
        # cycles live in a bounded negative region; from -1 downward, each
        # hole chain stops at an offset resolved before it
        for i in range(-1, -p * p - p - 1, -1):
            self._resolve(i)

    def _resolve(self, i: int) -> str:
        seen: list[int] = []
        j = i
        while True:
            got = self._memo.get(j)
            if got is not None:
                break
            r = j % len(self.pattern)
            c = self.pattern[r]
            if c != self.hole:
                got = c
                break
            if j in seen:
                raise UnresolvableHole(
                    f"pattern {self.pattern!r} leaves a permanent hole at offset {j}"
                )
            seen.append(j)
            q = len(self._holes)
            j = ((j - r) // len(self.pattern)) * q + self._hole_index[r]
        for visited in seen:
            self._memo[visited] = got
        self._memo[i] = got
        return got

    def _materialize(self, lo: int, hi: int) -> str:
        return "".join(self._resolve(j + self.anchor) for j in range(lo, hi))


class PeriodicPoint(Point):
    """Periodic repetition of a finite word: x_j = word[(j+phase) mod len]."""

    def __init__(self, word: str, phase: int = 0):
        if not word:
            raise ValidationError("periodic word must be nonempty")
        super().__init__()
        self.word = word
        self.phase = phase

    def _materialize(self, lo: int, hi: int) -> str:
        m = len(self.word)
        return "".join(self.word[(j + self.phase) % m] for j in range(lo, hi))


class ExplicitPoint(Point):
    """Finite center word with declared periodic tails on both sides."""

    def __init__(self, left_period: str, center: str, right_period: str):
        if not left_period or not right_period:
            raise ValidationError("tail periods must be nonempty")
        super().__init__()
        self.left_period = left_period
        self.center = center
        self.right_period = right_period

    def _materialize(self, lo: int, hi: int) -> str:
        out = []
        nc = len(self.center)
        ll, lr = len(self.left_period), len(self.right_period)
        for j in range(lo, hi):
            if j < 0:
                out.append(self.left_period[j % ll])
            elif j < nc:
                out.append(self.center[j])
            else:
                out.append(self.right_period[(j - nc) % lr])
        return "".join(out)


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
