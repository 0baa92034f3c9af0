"""Subshift construction and word-complexity computation.

Five families are supported: Sturmian subshifts given by the continued
fraction of their slope, substitution subshifts, Toeplitz subshifts built
by hole filling, full shifts, and explicit shifts of finite type given by
forbidden words.  Words are plain Python strings over single-character
letters.

Factor sets are enumerated by scanning an expanding generated word and are
declared complete only once the set survives two consecutive doublings of
the generated length (plus family-specific early exits where the exact
complexity is known).  The complexity of a scan-based family is the size of
that exact factor set; full shifts use the closed form and shifts of finite
type count paths.  Results are memoized per spec in a `LanguageTable` that
is safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import (
    ConditionViolated,
    EmptyAlphabet,
    InternalInvariantError,
    ResourceLimit,
    SaturationFailure,
)

# Generated-text budget for factor enumeration (letters).
DEFAULT_MAX_TEXT = 1 << 23
# Element budget for explicit factor-set enumeration.
DEFAULT_MAX_FACTORS = 2_000_000

_SWAP_AB = str.maketrans("ab", "ba")


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise EmptyAlphabet("alphabet must contain at least one letter")
        if len(set(self.letters)) != len(self.letters):
            raise EmptyAlphabet(f"duplicate letters in alphabet {self.letters}")
        for c in self.letters:
            if len(c) != 1:
                raise EmptyAlphabet(f"letters must be single characters, got {c!r}")

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __contains__(self, c):
        return c in self.letters


# ---------------------------------------------------------------------------
# Spec variants


@dataclass(frozen=True)
class SturmianSpec:
    """Sturmian subshift with slope given by a continued fraction.

    `cf` holds one period of the (eventually periodic) continued fraction
    of the slope; the list is cycled when longer standard words are needed,
    so the slope is a quadratic irrational and the language is aperiodic.
    The golden slope is ``cf=(1,)``.  `swap_letters` flips the two letter
    roles, covering both coding conventions.
    """

    cf: tuple[int, ...]
    swap_letters: bool = False

    variant = "sturmian"

    def __post_init__(self):
        object.__setattr__(self, "cf", tuple(int(a) for a in self.cf))
        if not self.cf:
            raise ConditionViolated(1, "?", "continued fraction list is empty")
        if any(a < 1 for a in self.cf):
            raise ConditionViolated(1, "?", "continued fraction coefficients must be >= 1")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(("a", "b"))


@dataclass(frozen=True)
class SubstitutionSpec:
    """Subshift of a substitution satisfying the two growth conditions.

    Condition 1: the image of `seed` starts with `seed`, so iterates
    converge to a one-sided fixed word.  Condition 2: every letter's
    iterated image length tends to infinity; this is decided exactly on
    the incidence digraph (see `growing_letters`).
    """

    rules: tuple[tuple[str, str], ...]
    seed: str

    variant = "substitution"

    def __post_init__(self):
        rules = tuple(sorted((str(k), str(v)) for k, v in self.rules))
        object.__setattr__(self, "rules", rules)
        d = self.rules_dict
        if not d:
            raise EmptyAlphabet("substitution has no rules")
        for a, image in d.items():
            if len(a) != 1:
                raise EmptyAlphabet(f"letters must be single characters, got {a!r}")
            for c in image:
                if c not in d:
                    raise EmptyAlphabet(f"image of {a!r} uses unknown letter {c!r}")
        if self.seed not in d:
            raise EmptyAlphabet(f"seed {self.seed!r} is not a letter")
        if not d[self.seed].startswith(self.seed):
            raise ConditionViolated(1, self.seed, "image does not start with the seed letter")
        growing = growing_letters(d)
        for a in sorted(d):
            if a not in growing:
                raise ConditionViolated(2, a, "iterated image length stays bounded")

    @classmethod
    def from_rules(cls, rules: Mapping[str, str], seed: str) -> "SubstitutionSpec":
        return cls(tuple(sorted(rules.items())), seed)

    @property
    def rules_dict(self) -> dict[str, str]:
        return dict(self.rules)

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted(self.rules_dict)))


@dataclass(frozen=True)
class ToeplitzSpec:
    """Toeplitz subshift of the word obtained by filling pattern holes."""

    pattern: str
    hole: str = "*"

    variant = "toeplitz"

    def __post_init__(self):
        if not self.pattern:
            raise EmptyAlphabet("empty Toeplitz pattern")
        if self.pattern[0] == self.hole:
            raise ConditionViolated(1, self.hole, "pattern must start with a letter, not a hole")
        if self.hole not in self.pattern:
            raise ConditionViolated(2, self.hole, "pattern contains no hole to fill")
        if not tuple(sorted(set(self.pattern) - {self.hole})):
            raise EmptyAlphabet("pattern has no letters")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(sorted(set(self.pattern) - {self.hole})))

    @property
    def period(self) -> int:
        return len(self.pattern)

    @property
    def hole_count(self) -> int:
        return self.pattern.count(self.hole)


@dataclass(frozen=True)
class FullShiftSpec:
    """The full shift over a finite alphabet; every word is admissible."""

    letters: tuple[str, ...]

    variant = "full_shift"

    def __post_init__(self):
        Alphabet(tuple(self.letters))

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(self.letters))


@dataclass(frozen=True)
class ExplicitSpec:
    """Shift of finite type given by a finite set of forbidden words."""

    letters: tuple[str, ...]
    forbidden: tuple[str, ...]

    variant = "explicit"

    def __post_init__(self):
        alpha = Alphabet(tuple(self.letters))
        object.__setattr__(self, "forbidden", tuple(sorted(set(self.forbidden))))
        for w in self.forbidden:
            if not w:
                raise EmptyAlphabet("the empty word cannot be forbidden")
            for c in w:
                if c not in alpha:
                    raise EmptyAlphabet(f"forbidden word {w!r} uses unknown letter {c!r}")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(tuple(self.letters))


SubshiftSpec = SturmianSpec | SubstitutionSpec | ToeplitzSpec | FullShiftSpec | ExplicitSpec


def build_spec(description: Mapping) -> SubshiftSpec:
    """Construct and validate a spec from a plain dict description."""
    try:
        variant = description["variant"]
    except KeyError:
        raise EmptyAlphabet("spec description lacks a 'variant' field") from None
    if variant == "sturmian":
        return SturmianSpec(tuple(description["cf"]), bool(description.get("swap_letters", False)))
    if variant == "substitution":
        return SubstitutionSpec.from_rules(description["rules"], description["seed"])
    if variant == "toeplitz":
        return ToeplitzSpec(description["pattern"], description.get("hole", "*"))
    if variant == "full_shift":
        return FullShiftSpec(tuple(description["alphabet"]))
    if variant == "explicit":
        return ExplicitSpec(tuple(description["alphabet"]), tuple(description["forbidden"]))
    raise EmptyAlphabet(f"unknown subshift variant {variant!r}")


def spec_to_dict(spec: SubshiftSpec) -> dict:
    """Inverse of `build_spec`, suitable for JSON."""
    if isinstance(spec, SturmianSpec):
        return {"variant": "sturmian", "cf": list(spec.cf), "swap_letters": spec.swap_letters}
    if isinstance(spec, SubstitutionSpec):
        return {"variant": "substitution", "rules": dict(spec.rules), "seed": spec.seed}
    if isinstance(spec, ToeplitzSpec):
        return {"variant": "toeplitz", "pattern": spec.pattern, "hole": spec.hole}
    if isinstance(spec, FullShiftSpec):
        return {"variant": "full_shift", "alphabet": list(spec.letters)}
    if isinstance(spec, ExplicitSpec):
        return {
            "variant": "explicit",
            "alphabet": list(spec.letters),
            "forbidden": list(spec.forbidden),
        }
    raise TypeError(f"not a subshift spec: {spec!r}")


# ---------------------------------------------------------------------------
# Substitution machinery


def substitution_iterate(rules: Mapping[str, str], seed: str, k: int) -> str:
    """Apply the substitution k times to `seed` by concatenation."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    word = seed
    for _ in range(k):
        word = "".join(rules[c] for c in word)
    return word


def _mortal_letters(rules: Mapping[str, str]) -> set[str]:
    # A letter is mortal when some iterate of its image is empty.
    mortal: set[str] = set()
    changed = True
    while changed:
        changed = False
        for a, image in rules.items():
            if a not in mortal and all(c in mortal for c in image):
                mortal.add(a)
                changed = True
    return mortal


def growing_letters(rules: Mapping[str, str]) -> set[str]:
    """Letters whose iterated image length tends to infinity.

    Decided exactly on the incidence digraph of surviving letters: a letter
    grows iff it reaches a strongly connected component that branches (some
    vertex feeds >= 2 surviving letters back into its own component) or a
    walk through two distinct cycles.
    """
    mortal = _mortal_letters(rules)
    live = set(rules) - mortal
    adj = {a: Counter(c for c in rules[a] if c in live) for a in live}

    reach: dict[str, set[str]] = {}
    for a in live:
        seen: set[str] = set()
        frontier = set(adj[a])
        while frontier:
            seen |= frontier
            frontier = {c for b in frontier for c in adj[b]} - seen
        reach[a] = seen  # reachable in >= 1 steps

    cyclic = {a for a in live if a in reach[a]}

    def same_scc(u: str, v: str) -> bool:
        return u == v or (v in reach[u] and u in reach[v])

    expanding_roots: set[str] = set()
    for u in cyclic:
        scc = {v for v in cyclic if same_scc(u, v)}
        if any(sum(m for w, m in adj[v].items() if w in scc) >= 2 for v in scc):
            expanding_roots.add(u)

    growing: set[str] = set()
    for b in live:
        targets = reach[b] | {b}
        hit = {u for u in targets if u in cyclic}
        if any(u in expanding_roots for u in hit):
            growing.add(b)
            continue
        # two distinct simple cycles along one walk
        if any(
            v in reach[u] and not same_scc(u, v)
            for u in hit
            for v in hit
        ):
            growing.add(b)
    return growing


def is_primitive(rules: Mapping[str, str]) -> bool:
    """True iff some power of the substitution maps every letter onto a
    word containing every letter (boolean incidence-matrix powering)."""
    letters = sorted(rules)
    step = {a: set(rules[a]) for a in letters}
    power = {a: set(rules[a]) for a in letters}
    full = set(letters)
    for _ in range(len(letters) ** 2):
        if all(power[a] == full for a in letters):
            return True
        power = {a: {c for b in power[a] for c in step[b]} for a in letters}
    return all(power[a] == full for a in letters)


# ---------------------------------------------------------------------------
# Toeplitz hole filling


def toeplitz_word(pattern: str, length: int, hole: str = "*") -> str:
    """First `length` letters of the one-sided Toeplitz word of `pattern`.

    Each round rewrites the periodic pattern word and fills its holes, in
    order, with the letters of the previous round.  A pattern without holes
    is simply repeated.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not pattern:
        raise EmptyAlphabet("empty Toeplitz pattern")
    if pattern[0] == hole:
        raise ConditionViolated(1, hole, "pattern must start with a letter, not a hole")
    reps = -(-length // len(pattern))
    base = (pattern * reps)[:length]
    cur = base
    for _ in range(length + 1):
        if hole not in cur:
            return cur
        filler = iter(cur)
        cur = "".join(next(filler) if c == hole else c for c in base)
    raise InternalInvariantError("hole filling failed to stabilize")


# ---------------------------------------------------------------------------
# Expanding-word snapshots per family


def _sturmian_standard_words(cf: tuple[int, ...], swap: bool) -> Iterator[str]:
    """Standard words s_k = s_{k-1}^{a_k} s_{k-2}, coefficients cycled."""
    prev, cur = "b", "a"
    k = 0
    while True:
        a_k = cf[k % len(cf)]
        k += 1
        prev, cur = cur, cur * a_k + prev
        yield cur.translate(_SWAP_AB) if swap else cur


def _substitution_snapshots(spec: SubstitutionSpec) -> Iterator[str]:
    rules = spec.rules_dict
    word = spec.seed
    while True:
        word = "".join(rules[c] for c in word)
        yield word


def _toeplitz_snapshots(spec: ToeplitzSpec) -> Iterator[str]:
    length = 4 * len(spec.pattern)
    while True:
        yield toeplitz_word(spec.pattern, length, spec.hole)
        length *= 2


def _snapshots(spec: SubshiftSpec) -> Iterator[str]:
    if isinstance(spec, SturmianSpec):
        return _sturmian_standard_words(spec.cf, spec.swap_letters)
    if isinstance(spec, SubstitutionSpec):
        return _substitution_snapshots(spec)
    if isinstance(spec, ToeplitzSpec):
        return _toeplitz_snapshots(spec)
    raise TypeError(f"spec family {spec.variant!r} is not scan-based")


class _SnapshotCache:
    """Replayable view of a spec's expanding-word stream.

    Factor queries at different lengths share the generated text instead of
    regenerating it; the underlying stream is only advanced on demand.
    """

    def __init__(self, spec: SubshiftSpec):
        self._gen = _snapshots(spec)
        self._cache: list[str] = []

    def __iter__(self) -> Iterator[str]:
        i = 0
        while True:
            if i >= len(self._cache):
                self._cache.append(next(self._gen))
            yield self._cache[i]
            i += 1


def _uses_tail_filter(spec: SubshiftSpec) -> bool:
    # Substitution factors must occur arbitrarily late in the generated
    # word (prefix-only factors are not part of the subshift); restricting
    # the scan to the tail half and waiting for stabilization implements
    # that filter.  For primitive substitutions it converges to the plain
    # factor set.
    return isinstance(spec, SubstitutionSpec)


# ---------------------------------------------------------------------------
# Window scanning


def _window_set(region: str, n: int) -> frozenset[str]:
    return frozenset(region[i : i + n] for i in range(len(region) - n + 1))


def _scan_region(text: str, tail: bool) -> str:
    return text[len(text) // 2 :] if tail else text


class _Saturator:
    """Tracks snapshot agreement across two consecutive doublings."""

    def __init__(self):
        self.last_change_len = None
        self.prev = None

    def feed(self, value, length: int) -> bool:
        if value != self.prev:
            self.prev = value
            self.last_change_len = length
            return False
        return length >= 4 * self.last_change_len


def _scan_factors(spec, n: int, max_text: int, snapshots: Iterable[str],
                  tail: bool) -> frozenset[str]:
    expected = n + 1 if isinstance(spec, SturmianSpec) and n >= 1 else None
    sat = _Saturator()
    for text in snapshots:
        region = _scan_region(text, tail)
        if len(region) < max(n, 1):
            continue
        cur = _window_set(region, n)
        if expected is not None and len(cur) == expected:
            return cur
        if sat.feed(cur, len(text)):
            return cur
        if len(text) > max_text:
            raise SaturationFailure(
                f"factor set of length {n} did not stabilize within {max_text} letters"
            )
    raise InternalInvariantError("snapshot stream ended")  # pragma: no cover


# ---------------------------------------------------------------------------
# Shift-of-finite-type enumeration


def _sft_factors(spec: ExplicitSpec, n: int, cap: int) -> frozenset[str]:
    """De Bruijn-style enumeration: locally admissible words pruned to the
    bi-extendable ones, then cut down to length n."""
    alpha = spec.letters
    m = max((len(f) for f in spec.forbidden), default=1)
    k = max(n, m, 1)

    def clean(w: str) -> bool:
        return not any(w.endswith(f) for f in spec.forbidden if len(f) <= len(w))

    words: set[str] = {""}
    for _ in range(k):
        nxt = {w + c for w in words for c in alpha if clean(w + c)}
        if len(nxt) > cap:
            raise ResourceLimit(f"SFT enumeration exceeded {cap} words")
        words = nxt
        if not words:
            return frozenset()

    words = _prune_biextendable(words)
    if not words:
        return frozenset()
    out: set[str] = set()
    for w in words:
        for i in range(k - n + 1):
            out.add(w[i : i + n])
    return frozenset(out)


def _prune_biextendable(words: set[str]) -> set[str]:
    """Keep words that lie on a bi-infinite path of the overlap graph."""
    while True:
        prefixes = {w[:-1] for w in words}
        suffixes = {w[1:] for w in words}
        kept = {w for w in words if w[1:] in prefixes and w[:-1] in suffixes}
        if kept == words:
            return words
        words = kept


def _sft_count(spec: ExplicitSpec, n: int, cap: int) -> int:
    """Exact admissible-word count via path counting on the overlap graph."""
    m = max((len(f) for f in spec.forbidden), default=1)
    k0 = max(m, 1)
    if n <= k0:
        return len(_sft_factors(spec, n, cap))
    vertices = sorted(_sft_factors(spec, k0, cap))
    if not vertices:
        return 0
    index = {w: i for i, w in enumerate(vertices)}
    succ: list[list[int]] = [[] for _ in vertices]
    for w in vertices:
        for c in spec.letters:
            v = w[1:] + c
            j = index.get(v)
            if j is not None:
                succ[index[w]].append(j)
    counts = [1] * len(vertices)
    for _ in range(n - k0):
        nxt = [0] * len(vertices)
        for i, targets in enumerate(succ):
            ci = counts[i]
            if ci:
                for j in targets:
                    nxt[j] += ci
        counts = nxt
    return sum(counts)


# ---------------------------------------------------------------------------
# Language tables


class LanguageTable:
    """Memoizing language oracle of one subshift.

    `factors(n)` returns the exact set of admissible length-n words and
    `complexity(n)` its cardinality: the size of the cached factor set for
    scan-based families, a closed form for full shifts and a path count
    for shifts of finite type.  Inserts are synchronized; all queries are
    pure functions of the spec.
    """

    def __init__(self, spec: SubshiftSpec, max_text: int = DEFAULT_MAX_TEXT,
                 max_factors: int = DEFAULT_MAX_FACTORS):
        self.spec = spec
        self.max_text = max_text
        self.max_factors = max_factors
        self._lock = threading.RLock()
        self._factors: dict[int, frozenset[str]] = {}
        self._counts: dict[int, int] = {}
        self._snapshot_cache: _SnapshotCache | None = None

    def factors(self, n: int) -> frozenset[str]:
        if n < 0:
            raise ValueError("factor length must be nonnegative")
        with self._lock:
            got = self._factors.get(n)
            if got is not None:
                return got
            result = self._compute_factors(n)
            self._factors[n] = result
            self._counts[n] = len(result)
            return result

    def complexity(self, n: int) -> int:
        if n < 0:
            raise ValueError("factor length must be nonnegative")
        with self._lock:
            got = self._counts.get(n)
            if got is not None:
                return got
            if isinstance(self.spec, FullShiftSpec):
                count = len(self.spec.letters) ** n
            elif isinstance(self.spec, ExplicitSpec):
                count = _sft_count(self.spec, n, self.max_factors)
            else:
                count = len(self.factors(n))
            self._counts[n] = count
            return count

    def is_admissible(self, word: str) -> bool:
        return word in self.factors(len(word))

    def complexity_interp(self, x: float) -> float:
        """Piecewise affine extension of the complexity to real arguments."""
        if x < 0:
            raise ValueError("argument must be nonnegative")
        lo = math.floor(x)
        hi = math.ceil(x)
        if lo == hi:
            return float(self.complexity(lo))
        c_lo, c_hi = self.complexity(lo), self.complexity(hi)
        return c_lo + (c_hi - c_lo) * (x - lo)

    def _compute_factors(self, n: int) -> frozenset[str]:
        spec = self.spec
        if n == 0:
            # The empty word is admissible iff the subshift is nonempty.
            return frozenset({""}) if self.factors(1) else frozenset()
        if isinstance(spec, FullShiftSpec):
            if len(spec.letters) ** n > self.max_factors:
                raise ResourceLimit(f"full-shift factor set of length {n} exceeds cap")
            return frozenset("".join(t) for t in itertools.product(spec.letters, repeat=n))
        if isinstance(spec, ExplicitSpec):
            return _sft_factors(spec, n, self.max_factors)
        return _scan_factors(spec, n, self.max_text, self._snapshots(),
                             _uses_tail_filter(spec))

    def _snapshots(self) -> Iterable[str]:
        if self._snapshot_cache is None:
            self._snapshot_cache = _SnapshotCache(self.spec)
        return self._snapshot_cache


_TABLES: dict[SubshiftSpec, LanguageTable] = {}
_TABLES_LOCK = threading.Lock()


def language_table(spec: SubshiftSpec) -> LanguageTable:
    """Shared memoized table for `spec` (one per distinct spec value)."""
    with _TABLES_LOCK:
        table = _TABLES.get(spec)
        if table is None:
            table = LanguageTable(spec)
            _TABLES[spec] = table
        return table


def factors(spec: SubshiftSpec, n: int) -> frozenset[str]:
    """Admissible words of length n."""
    return language_table(spec).factors(n)


def complexity(spec: SubshiftSpec, n: int) -> int:
    """Number of admissible words of length n."""
    return language_table(spec).complexity(n)


def complexity_interp(spec: SubshiftSpec, x: float) -> float:
    return language_table(spec).complexity_interp(x)


def substitution_enumeration_diagnostics(spec: SubstitutionSpec, n: int,
                                         max_text: int = DEFAULT_MAX_TEXT) -> dict:
    """Compare the tail-occurrence filter with a plain prefix scan.

    The two agree for primitive substitutions; a disagreement flags a
    substitution whose generated word has prefix-only factors (those are
    correctly excluded by the tail filter).
    """
    tail_set = factors(spec, n)
    plain = _scan_factors(spec, n, max_text, _substitution_snapshots(spec), tail=False)
    return {"tail": tail_set, "prefix": plain, "agree": tail_set == plain}


FIBONACCI_RULES = {"a": "ab", "b": "a"}


def fibonacci_spec() -> SubstitutionSpec:
    """The golden-ratio substitution subshift (a -> ab, b -> a)."""
    return SubstitutionSpec.from_rules(FIBONACCI_RULES, "a")
