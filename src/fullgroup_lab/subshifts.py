"""Subshift construction and word-complexity computation.

Five families are supported: Sturmian subshifts given by the continued
fraction of their slope, substitution subshifts, Toeplitz subshifts built
by hole filling, full shifts, and explicit shifts of finite type given by
forbidden words.  Words are plain Python strings over single-character
letters.

Sturmian, substitution and Toeplitz languages are read off an expanding
generated word, a Sturmian one by the standard-word recursion.  Each
snapshot but a Toeplitz one is one substitution step from the one before,
refused before it is built when its length, read off the letter counts,
passes twice the text budget.  Each snapshot is indexed by a
prefix-doubling suffix array whose rounds stop once their keys cover the
longest length asked so far, and for every start position the longest
common prefix with the suffix sorted just before it, exact below that
depth, is read back from the doubling rounds' keys, a few numpy passes a
round.  A longer query indexes the snapshot again, deeper.  One histogram
of those values yields the snapshot's count of distinct length-n windows
for every n up to the depth at once, and the windows starting where that
LCP is below n are its length-n factors, one each.  A factor set is declared complete once it
survives two consecutive doublings of the generated length (plus the
Sturmian early exit where the complexity n + 1 is known).  That stop is a
heuristic, not a certificate.  Full shifts use the closed form, and a shift
of finite type spells or counts the paths of one graph on its allowed
k-words.  Results are memoized in the spec's own
`LanguageTable`, `spec.language`, the one place that enumerates, orders and
locates factors; it is safe to share across threads.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Iterator, KeysView, Mapping, NamedTuple

import numpy as np

from .errors import (
    ConditionViolated,
    EmptyAlphabet,
    InternalInvariantError,
    ResourceLimit,
    SaturationFailure,
    ValidationError,
)

# Generated-text budget for factor enumeration (letters).
DEFAULT_MAX_TEXT = 1 << 23
# Element budget for explicit factor-set enumeration.
DEFAULT_MAX_FACTORS = 2_000_000
# Letters one factor set read off a snapshot index may spell (256 MiB).
MAX_FACTOR_LETTERS = 1 << 28


def _check_letters(letters: tuple[str, ...]) -> None:
    """Refuse an alphabet that is empty, repeats a letter or has a letter
    that is not one character."""
    if not letters:
        raise EmptyAlphabet("alphabet must contain at least one letter")
    if len(set(letters)) != len(letters):
        raise EmptyAlphabet(f"duplicate letters in alphabet {letters}")
    for c in letters:
        if len(c) != 1:
            raise EmptyAlphabet(f"letters must be single characters, got {c!r}")


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
    language: LanguageTable = field(init=False, repr=False, compare=False)

    variant = "sturmian"

    def __post_init__(self):
        object.__setattr__(self, "cf", tuple(int(a) for a in self.cf))
        if not self.cf:
            raise ConditionViolated("Sturmian", 1, "continued fraction list is empty")
        if any(a < 1 for a in self.cf):
            raise ConditionViolated("Sturmian", 1, "continued fraction coefficients must be >= 1")
        object.__setattr__(self, "language", LanguageTable(self))


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
    language: LanguageTable = field(init=False, repr=False, compare=False)

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
            raise ConditionViolated("substitution", 1, "image does not start with the seed letter",
                                    self.seed)
        growing = growing_letters(d)
        for a in sorted(d):
            if a not in growing:
                raise ConditionViolated("substitution", 2, "iterated image length stays bounded", a)
        object.__setattr__(self, "language", LanguageTable(self))

    @classmethod
    def from_rules(cls, rules: Mapping[str, str], seed: str) -> "SubstitutionSpec":
        return cls(tuple(sorted(rules.items())), seed)

    @property
    def rules_dict(self) -> dict[str, str]:
        return dict(self.rules)


@dataclass(frozen=True)
class ToeplitzSpec:
    """Toeplitz subshift of the word obtained by filling pattern holes."""

    pattern: str
    hole: str = "*"
    language: LanguageTable = field(init=False, repr=False, compare=False)

    variant = "toeplitz"

    def __post_init__(self):
        if len(self.hole) != 1:
            raise ValidationError(
                f"Toeplitz field 'hole' must be one character, got {self.hole!r}")
        if not self.pattern:
            raise EmptyAlphabet("empty Toeplitz pattern")
        if self.pattern[0] == self.hole:
            raise ConditionViolated("Toeplitz", 1, "pattern must start with a letter, not a hole")
        if self.hole not in self.pattern:
            raise ConditionViolated("Toeplitz", 2, "pattern contains no hole to fill")
        if not tuple(sorted(set(self.pattern) - {self.hole})):
            raise EmptyAlphabet("pattern has no letters")
        object.__setattr__(self, "language", LanguageTable(self))

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
    language: LanguageTable = field(init=False, repr=False, compare=False)

    variant = "full_shift"

    def __post_init__(self):
        _check_letters(tuple(self.letters))
        object.__setattr__(self, "language", LanguageTable(self))


@dataclass(frozen=True)
class ExplicitSpec:
    """Shift of finite type given by a finite set of forbidden words."""

    letters: tuple[str, ...]
    forbidden: tuple[str, ...]
    language: LanguageTable = field(init=False, repr=False, compare=False)

    variant = "explicit"

    def __post_init__(self):
        _check_letters(tuple(self.letters))
        object.__setattr__(self, "forbidden", tuple(sorted(set(self.forbidden))))
        for w in self.forbidden:
            if not w:
                raise EmptyAlphabet("the empty word cannot be forbidden")
            for c in w:
                if c not in self.letters:
                    raise EmptyAlphabet(f"forbidden word {w!r} uses unknown letter {c!r}")
        object.__setattr__(self, "language", LanguageTable(self))


SubshiftSpec = SturmianSpec | SubstitutionSpec | ToeplitzSpec | FullShiftSpec | ExplicitSpec


_JSON_KINDS = {  # a bool is not a JSON integer
    "a boolean": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "an object": lambda v: isinstance(v, Mapping),
    "a list of strings": lambda v: type(v) in (list, tuple) and all(type(x) is str for x in v),
    "a list of integers": lambda v: type(v) in (list, tuple) and all(type(x) is int for x in v),
}


def json_field(doc: Mapping, name: str, kind: str, default=...,
               where: str = "spec description"):
    """Field `name` of a JSON document, of `kind` (a key of `_JSON_KINDS`).
    An absent or null field takes `default`, or with none is an error, as is
    a value of another kind: a ValidationError that names the field."""
    value = doc.get(name)
    if value is None:
        if default is ...:
            raise ValidationError(f"{where} lacks a {name!r} field")
        return default
    if not _JSON_KINDS[kind](value):
        raise ValidationError(f"{where} field {name!r} must be {kind}, got {value!r}")
    return value


def build_spec(description: Mapping) -> SubshiftSpec:
    """Construct and validate a spec from a plain dict description."""
    try:
        variant = description["variant"]
    except KeyError:
        raise EmptyAlphabet("spec description lacks a 'variant' field") from None
    field = partial(json_field, description)
    if variant == "sturmian":
        cf = field("cf", "a list of integers")
        return SturmianSpec(tuple(cf), field("swap_letters", "a boolean", False))
    if variant == "substitution":
        return SubstitutionSpec.from_rules(field("rules", "an object"), field("seed", "a string"))
    if variant == "toeplitz":
        return ToeplitzSpec(field("pattern", "a string"), field("hole", "a string", "*"))
    if variant == "full_shift":
        return FullShiftSpec(tuple(field("alphabet", "a list of strings")))
    if variant == "explicit":
        return ExplicitSpec(tuple(field("alphabet", "a list of strings")),
                            tuple(field("forbidden", "a list of strings")))
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


def substitution_iterate(rules: Mapping[str, str], word: str, k: int,
                         limit: int = DEFAULT_MAX_TEXT) -> str:
    """psi^k(word) for the substitution psi given by `rules`: the one place
    that joins substitution images.  Each iterate's length is read off the
    letter counts first, and one past `limit` letters is refused with
    ResourceLimit before any is built."""
    if k < 0:
        raise ValueError("iteration count must be nonnegative")
    counts = {c: word.count(c) for c in rules}
    for i in range(1, k + 1):
        counts = {d: sum(m * rules[c].count(d) for c, m in counts.items()) for d in rules}
        if sum(counts.values()) > limit:
            raise ResourceLimit(f"psi^{i} of a {len(word)}-letter word has "
                                f"{sum(counts.values())} letters, past the text budget "
                                f"of {limit} letters")
    for _ in range(k):
        word = "".join(rules[c] for c in word)
    return word


def sturmian_rules(cf: tuple[int, ...]) -> dict[str, str]:
    """theta_{a_1} o ... o theta_{a_m} over one period of the continued
    fraction, theta_c being a -> a^c b, b -> a: its k-th iterate of 'a' is
    the (k m)-th standard word (Lothaire, Algebraic Combinatorics on Words,
    ch. 2).  An image past DEFAULT_MAX_TEXT letters is refused with
    ResourceLimit."""
    rules = {"a": "a", "b": "b"}
    for m in cf:
        if m >= DEFAULT_MAX_TEXT:  # theta_m(a) alone has m + 1 letters
            raise ResourceLimit(f"continued fraction coefficient {m} passes the text "
                                f"budget of {DEFAULT_MAX_TEXT} letters")
        rules = {"a": substitution_iterate(rules, "a" * m + "b", 1), "b": rules["a"]}
    return rules


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

    The holes of the periodic pattern word are filled, in order, with the
    letters of the word itself.  The holes among its first L letters take
    the first H letters, and H < L because the pattern starts with a letter.
    So the word is built level by level, from the shortest of the lengths
    L, H(L), H(H(L)), ... that has no hole: each level repeats the pattern
    and scatters the level before into its holes.  A pattern without holes
    is simply repeated.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not pattern:
        raise EmptyAlphabet("empty Toeplitz pattern")
    if pattern[0] == hole:
        raise ConditionViolated("Toeplitz", 1, "pattern must start with a letter, not a hole")
    is_hole = [c == hole for c in pattern]
    lengths = [length]
    while True:
        periods, rest = divmod(lengths[-1], len(pattern))
        holes = periods * sum(is_hole) + sum(is_hole[:rest])
        if not holes:
            break
        lengths.append(holes)
    letters = np.frombuffer(pattern.encode("utf-32-le"), dtype=np.uint32)
    word = np.empty(0, np.uint32)
    for size in reversed(lengths):
        periods = -(-size // len(pattern))
        level = np.tile(letters, periods)[:size]
        level[np.tile(is_hole, periods)[:size]] = word
        word = level
    return word.tobytes().decode("utf-32-le")


# ---------------------------------------------------------------------------
# Expanding-word snapshots per family


def _snapshot_steps(spec: SubshiftSpec, limit: int) -> tuple[str, Callable[[str], str]]:
    """The word a scan-based spec's snapshots grow from, and the step from
    one snapshot to the next.  A substitution step past `limit` letters is
    refused before it is built, every time it is asked for."""
    if isinstance(spec, SturmianSpec):
        # the standard words s_k = s_{k-1}^{a_k} s_{k-2}, from s_{-1} = b and
        # s_0 = a, coefficients cycled: theta_{a_k}(a) = a^{a_k} b read with
        # a -> s_{k-1} and b -> s_{k-2}
        a, b = "ba" if spec.swap_letters else "ab"
        k, before = 0, b

        def standard_word(text: str) -> str:
            nonlocal k, before
            word = substitution_iterate({a: text, b: before},
                                        a * spec.cf[k % len(spec.cf)] + b, 1, limit)
            k, before = k + 1, text
            return word

        return a, standard_word
    if isinstance(spec, SubstitutionSpec):
        return spec.seed, partial(substitution_iterate, spec.rules_dict, k=1, limit=limit)
    if isinstance(spec, ToeplitzSpec):  # snapshots of 4, 8, 16, ... periods
        return spec.pattern * 2, lambda text: toeplitz_word(spec.pattern, 2 * len(text), spec.hole)
    raise TypeError(f"spec family {spec.variant!r} is not scan-based")


# ---------------------------------------------------------------------------
# Suffix-array factor index

# Bits of the packed sort key of one prefix-doubling round.
_KEY_BITS = 62
# Sorted-adjacent pairs whose LCP one pass of `_lcp_descent` reads at a time.
_LCP_BLOCK = 8192


class _Round(NamedTuple):
    """One prefix-doubling round, as much as the LCP descent reads of it.

    The round's key packs `fields` ranks of `step` letters each, `bits` wide,
    the first field highest.  With a `table`, `ranks` holds each position's
    rank + 1 in the round's key order and `table[rank + 1]` is the key;
    without one, `ranks` holds the ranks + 1 of the round before, which the
    key packs.  Either way `ranks[size]` is 0: past the end, below every
    rank."""

    step: int
    bits: int
    fields: int
    ranks: np.ndarray
    table: np.ndarray | None

    def keys(self, at: np.ndarray) -> np.ndarray:
        if self.table is not None:
            return self.table[self.ranks[at]]
        key = np.zeros(len(at), np.int64)
        for offset in range(0, self.fields * self.step, self.step):
            key <<= self.bits
            # a field that starts past the end lies beyond the first field
            # in which the two keys differ, so any value does: ranks[size]
            key |= np.take(self.ranks, at + offset, mode="clip")
        return key

    def advances(self) -> np.ndarray:
        """The letters two keys share, indexed by the bit length e of their
        XOR: the fields wholly above bit e - 1, times `step` (all fields at
        e = 0)."""
        e = np.arange(64)
        return (self.fields - 1 - (e - 1) // self.bits) * self.step


def _suffix_array(dense: str, letter_count: int,
                  depth: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Start positions of the suffixes of `dense` in sorted order, for each
    start position the length of the longest common prefix of its suffix
    with the suffix sorted just before it, -1 for the first (both int32),
    and the depth below which that LCP is exact.

    `dense` spells its text with the characters 0 .. letter_count - 1.
    Prefix doubling (Manber & Myers, SIAM J. Comput. 22, 1993), generalized:
    while the suffixes are ranked by their first k letters, one round packs
    the ranks + 1 at i, i + k, i + 2k, ... into one 62-bit key, as many as
    fit, and sorts by it.  A block past the end packs as 0, below every
    rank, so a proper prefix sorts first.  The first round packs letters
    (k = 1); rounds stop after the first whose key covers at least `depth`
    letters, or once every key is distinct.  The suffixes are then sorted
    by their first `covered` letters, where `covered` is the last key's
    length: an LCP below it is exact, and a pair of equal keys reads
    `covered`, at most its LCP.  With 2 letters the first round covers 31
    letters and the second 186.  Once every key is distinct the order is
    the one suffix order and every LCP is exact: the depth reported is then
    the text length, so a `depth` of at least that is the exact index.

    A round holds its int64 keys, sorted in place, their int64 argsort and
    int32 ranks in key order: 20 bytes a letter.  For the LCP descent
    (`_lcp_descent`) the last round keeps its sorted keys, and each earlier
    round keeps one of two things:
    - its ranks + 1 in the narrowest unsigned type, 1, 2 or 4 bytes a
      letter, and the table of its distinct keys in sorted order, 8 bytes a
      key, when that table is no larger than those ranks;
    - otherwise the ranks + 1 of the round before (for the first round, the
      letters + 1), from which the descent packs the key again.
    Rounds share these arrays: at most one rank array a round, plus the
    letters, and tables no larger than their ranks.
    """
    size = len(dense)
    # every round's ranks in key order, then the LCP array written over them;
    # allocated before any round, so it pins none of their freed heap
    rank = np.empty(size, np.int32)
    shifted = np.zeros(size + 1, np.min_scalar_type(letter_count))
    shifted[:size] = np.frombuffer(dense.encode("utf-32-le"), dtype=np.int32)
    shifted[:size] += 1
    groups = letter_count
    step = 1
    rounds: list[_Round] = []
    while True:
        bits = groups.bit_length()
        fields = _KEY_BITS // bits
        key = np.zeros(size, np.int64)
        for offset in range(0, fields * step, step):
            key *= 1 << bits
            if offset < size:
                key[: size - offset] += shifted[offset:size]
        sa = np.argsort(key)
        key.sort()
        rank[0] = 1
        np.not_equal(key[1:], key[:-1], out=rank[1:])
        np.cumsum(rank, out=rank)
        groups = int(rank[-1])
        if groups == size or step * fields >= depth:
            sa = sa.astype(np.int32)
            _lcp_descent(sa, key, _Round(step, bits, fields, shifted, None), rounds, out=rank)
            return sa, rank, size if groups == size else step * fields
        ranks = np.zeros(size + 1, np.min_scalar_type(groups))
        ranks[sa] = rank
        del sa
        if (groups + 1) * 8 <= ranks.nbytes:
            table = np.zeros(groups + 1, np.int64)
            table[rank] = key
            rounds.append(_Round(step, bits, fields, ranks, table))
        else:
            rounds.append(_Round(step, bits, fields, shifted, None))
        del key
        shifted = ranks
        step *= fields


def _lcp_descent(sa: np.ndarray, last_keys: np.ndarray, last: _Round,
                 rounds: list[_Round], out: np.ndarray) -> None:
    """The LCP of each suffix with the one sorted just before it, indexed by
    start position, -1 for the first suffix, capped at the `covered` letters
    of the last round's key.

    Two suffixes a and b whose keys differ in the last round `last`, whose
    sorted keys are `last_keys`, share the leading fields of those keys,
    q * step equal letters.  So h = q * step, and the suffixes at a + h and
    b + h differ within the next field: in the key of the round before.
    Descending round by round, each adds its q * step to h, and the first
    round, one letter a field, leaves h the exact LCP.  Positions stay at
    most the text length, where every key is 0.  A pair whose last keys are
    equal reads all the fields, h = covered: its LCP is at least that, so it
    is capped there and not read in the rounds below.
    Each round is a few numpy passes over a block of `_LCP_BLOCK` pairs,
    whatever the LCP lengths.
    """
    size = len(sa)
    out[sa[0]] = -1
    steps = [(round_, round_.advances()) for round_ in reversed(rounds)]
    last_advances = last.advances()
    covered = last_advances[0]
    for lo in range(1, size, _LCP_BLOCK):
        hi = min(size, lo + _LCP_BLOCK)
        a, b = sa[lo - 1 : hi - 1], sa[lo:hi]
        h = last_advances[_bit_length(last_keys[lo - 1 : hi - 1] ^ last_keys[lo:hi])]
        differ = np.flatnonzero(h < covered)
        if len(differ) < len(h):
            out[b] = h
            a, b, h = a[differ], b[differ], h[differ]
        for round_, advances in steps:
            xor = round_.keys(a + h)
            xor ^= round_.keys(b + h)
            h += advances[_bit_length(xor)]
        out[b] = h


def _bit_length(x: np.ndarray) -> np.ndarray:
    """The bit length of each nonnegative int64 of `x`, which is overwritten,
    through the exponent of a float64.  Keeping only the bits whose next
    higher bit is clear leaves the highest set bit and clears the one below
    it, so the conversion cannot round up to the next power of two."""
    x &= ~(x >> 1)
    return np.frexp(x.astype(np.float64))[1]


class _FactorIndex:
    """All factors of one snapshot region up to a depth, read once.

    `lcp[i]` is the longest common prefix of suffix i with the suffix
    sorted just before it, from `_suffix_array`'s doubling rounds, exact
    below the index's `depth` and at least `depth` where it reads that.
    The length-n windows, n <= depth, that start where it is below n are
    the distinct length-n factors of the region, one each.  Suffix i
    therefore adds one factor to every n with lcp[i] < n <= len - i, and a
    difference-array histogram of those ranges gives `counts[n]` for all
    n <= depth.  Only those lengths, and lengths past the text, where there
    is no window, are answered.  The index keeps the text, an int32 array,
    5 bytes a letter, and `depth + 1` counts.  A factor set of more than
    `MAX_FACTOR_LETTERS` letters is refused before it is spelled.
    """

    __slots__ = ("text", "snapshot_len", "lcp", "depth", "counts")

    def __init__(self, text: str, snapshot_len: int, depth: int):
        self.text = text
        self.snapshot_len = snapshot_len
        letters = sorted(set(text))
        dense = text.translate({ord(c): i for i, c in enumerate(letters)})
        _, self.lcp, self.depth = _suffix_array(dense, len(letters), depth)
        # allocated before the int64 temporaries, so it pins none of their freed heap
        self.counts = np.empty(self.depth + 1, np.int32)
        diff = np.bincount(self.lcp + 1, minlength=self.depth + 2)
        # suffix i stops counting at n = size - i + 1: once at each of 2 .. size + 1
        diff[2:] -= 1
        np.cumsum(diff[: self.depth + 1], out=self.counts)

    def answers(self, n: int) -> bool:
        return n <= self.depth or n > len(self.text)

    def count(self, n: int) -> int:
        if n > len(self.text):
            return 0
        if n > self.depth:
            raise InternalInvariantError(f"factor index of depth {self.depth} asked for {n}")
        return int(self.counts[n])

    def factors(self, n: int) -> frozenset[str]:
        text = self.text
        if n > len(text):
            return frozenset()
        if self.count(n) * n > MAX_FACTOR_LETTERS:
            raise ResourceLimit(f"factor set of length {n} exceeds the letter cap")
        starts = np.flatnonzero(self.lcp[: len(text) - n + 1] < n)
        return frozenset([text[i : i + n] for i in starts.tolist()])


class _IndexStream:
    """Replayable stream of factor indexes over a spec's expanding words.

    Each snapshot region (the whole snapshot, or its tail half when `tail`)
    is indexed when a query first reaches it, and indexed again, deeper,
    when a longer query reaches it; queries at every length up to its depth
    read the same index.  The depth asked is the stream's: the first query's
    length, and when a query passes it, that length or twice the depth,
    whichever is more.  So rising lengths, which reach the large late
    snapshots last, index each of those about once, not once per round.
    """

    def __init__(self, spec: SubshiftSpec, limit: int, tail: bool):
        self.tail = tail
        self._text, self._grow = _snapshot_steps(spec, limit)
        self._cache: list[_FactorIndex] = []
        self._depth = 0

    def reaching(self, n: int) -> Iterator[_FactorIndex]:
        """The indexes in snapshot order, each answering length n."""
        if n > self._depth:
            self._depth = max(n, 2 * self._depth)
        for i in itertools.count():
            if i == len(self._cache):
                text = self._text = self._grow(self._text)
                region = text[len(text) // 2 :] if self.tail else text
                self._cache.append(_FactorIndex(region, len(text), self._depth))
            elif not self._cache[i].answers(n):
                index = self._cache[i]
                self._cache[i] = _FactorIndex(index.text, index.snapshot_len, self._depth)
            yield self._cache[i]


def _saturate(spec, n: int, max_text: int, stream: _IndexStream) -> _FactorIndex:
    """The index at which the length-n factor set stabilized.

    Whole snapshots are prefixes of one another, so a region's factor set
    contains the previous one's and equal counts mean equal sets: counts
    are compared.  Tail halves are not nested, so there the sets are.  A
    length past the text budget is refused before any text is generated.
    """
    if n > max_text:
        raise SaturationFailure(
            f"factor length {n} is longer than the text budget of {max_text} letters"
        )
    expected = n + 1 if isinstance(spec, SturmianSpec) and n >= 1 else None
    prev = changed_at = None
    for index in stream.reaching(n):
        if len(index.text) < max(n, 1):
            continue
        count = index.count(n)
        if expected is not None and count == expected:
            return index
        value = index.factors(n) if stream.tail else count
        if value != prev:
            prev, changed_at = value, index.snapshot_len
        elif index.snapshot_len >= 4 * changed_at:
            return index
        if index.snapshot_len > max_text:
            raise SaturationFailure(
                f"factor set of length {n} did not stabilize within {max_text} letters"
            )
    raise InternalInvariantError("snapshot stream ended")  # pragma: no cover


# ---------------------------------------------------------------------------
# Shifts of finite type


def _overlap_graph(spec: ExplicitSpec, cap: int) -> dict[str, tuple[str, ...]]:
    """The allowed words of length k = max(1, longest forbidden word) that lie
    on a bi-infinite path, each mapped to its successors w[1:] + c.  The
    shift is the set of bi-infinite paths of this graph (Lind & Marcus,
    An Introduction to Symbolic Dynamics and Coding, ch. 2)."""
    k = max((len(f) for f in spec.forbidden), default=1)
    words = [""]
    for _ in range(k):
        words = [w + c for w in words for c in spec.letters
                 if not any((w + c).endswith(f) for f in spec.forbidden)]
        if len(words) > cap:
            raise ResourceLimit(f"SFT enumeration exceeded {cap} words")
    live = set(words)
    while True:
        succ = {w: tuple(v for v in (w[1:] + c for c in spec.letters) if v in live)
                for w in live}
        entered = {v for targets in succ.values() for v in targets}
        kept = {w for w in live if succ[w] and w in entered}
        if kept == live:
            return succ
        live = kept


def _step_paths(graph: dict[str, tuple[str, ...]], paths: dict[str, int]) -> dict[str, int]:
    """Path counts one vertex longer: `paths[w]` paths end at vertex w."""
    longer = dict.fromkeys(graph, 0)
    for w, count in paths.items():
        for v in graph[w]:
            longer[v] += count
    return longer


def _spell_paths(graph: dict[str, tuple[str, ...]], n: int, cap: int) -> frozenset[str]:
    """The length-n words of the shift: prefixes of the vertices up to their
    length k, and beyond it the words spelled by paths, depth first into one
    letter list, so each word costs its own letters.  Refused first past `cap`
    words, or past a full shift's `cap * bit_length(cap)` letters: every
    vertex starts a path, so the words hold at least len(graph) * n."""
    k = len(next(iter(graph), ""))
    if n <= k or not graph:
        return frozenset(w[:n] for w in graph)
    if len(graph) * n > cap * cap.bit_length():
        raise ResourceLimit(f"SFT factor set of length {n} exceeds the letter cap")
    paths = dict.fromkeys(graph, 1)
    for _ in range(n - k):
        paths = _step_paths(graph, paths)
        if sum(paths.values()) > cap:
            raise ResourceLimit(f"SFT enumeration exceeded {cap} words")
    words, letters, stack = [], [], [(w, 0) for w in graph]  # letters: a vertex, then one a step
    while stack:
        w, step = stack.pop()
        letters[step:] = [w if step == 0 else w[-1]]
        if step == n - k:
            words.append("".join(letters))
        else:
            stack.extend((v, step + 1) for v in graph[w])
    return frozenset(words)


# ---------------------------------------------------------------------------
# Language tables


class _SiblingPlan(NamedTuple):
    """How rows over the n-words factor through their (n-2)-centres, as
    column indices: a row does iff its `left` and `right` columns agree,
    and then its row over the centres is its `pick` columns."""

    pick: np.ndarray
    left: np.ndarray
    right: np.ndarray


class LanguageTable:
    """Memoizing language oracle of one subshift, owned by its spec as `spec.language`.

    `words(n)` is the ordered index of the exact set of admissible length-n
    words: each word maps to its position in sorted order, the order of the
    dict, so a table over them is a vector of shifts.  `factors(n)` is its
    key view, the set itself.  `complexity(n)` is its cardinality: for
    scan-based families a count read from the snapshot factor indexes (the
    set itself is built only when `words` asks for it), a closed form for
    full shifts and a path count on one overlap graph for shifts of finite
    type.

    The word geometry of cocycle tables lives here too.  `subwords(n, lo, width)` gives, for each of those
    words, the position in `words(width)` of its subword starting at `lo`.
    `siblings(n)` is the plan that canonical reduction reads, as three index
    arrays: for each (n-2)-word, the position of the first n-word around it
    as centre, and the pairs of positions that must carry equal shifts for
    a table to factor through the centre; None when some (n-2)-word is no
    centre.
    All three are memoized like `words`, one entry per key.  Inserts
    are synchronized, while a hit reads without the lock: entries are only
    ever added, and whole.  All queries are pure functions of the spec.
    """

    def __init__(self, spec: SubshiftSpec, max_text: int = DEFAULT_MAX_TEXT,
                 max_factors: int = DEFAULT_MAX_FACTORS):
        self.spec = spec
        self.max_text = max_text
        self.max_factors = max_factors
        self._lock = threading.RLock()
        self._counts: dict[int, int] = {}
        self._words: dict[int, dict[str, int]] = {}
        self._subwords: dict[tuple[int, int, int], tuple[int, ...]] = {}
        self._siblings: dict[int, _SiblingPlan | None] = {}
        self._paths: tuple[int, dict[str, int]] | None = None  # see _count_paths

    def factors(self, n: int) -> KeysView[str]:
        return self.words(n).keys()

    # Every compose reads these several times, so a hit skips the lock.

    def words(self, n: int) -> dict[str, int]:
        got = self._words.get(n)
        if got is None:
            if n < 0:
                raise ValueError("factor length must be nonnegative")
            with self._lock:
                got = self._words.get(n)
                if got is None:
                    got = {w: i for i, w in enumerate(sorted(self._compute_factors(n)))}
                    self._words[n] = got
                    self._counts[n] = len(got)
        return got

    def subwords(self, n: int, lo: int, width: int) -> tuple[int, ...]:
        key = (n, lo, width)
        got = self._subwords.get(key)
        if got is None:
            with self._lock:
                position = self.words(width)
                got = tuple(position[w[lo:lo + width]] for w in self.words(n))
                self._subwords[key] = got
        return got

    def siblings(self, n: int) -> _SiblingPlan | None:
        try:
            return self._siblings[n]
        except KeyError:
            pass
        with self._lock:
            centre = self.subwords(n, 1, n - 2)
            first: dict[int, int] = {}
            for i, c in enumerate(centre):
                first.setdefault(c, i)
            plan = None
            if len(first) == len(self.words(n - 2)):
                pairs = [(i, first[c]) for i, c in enumerate(centre) if first[c] != i]
                reads = ([first[c] for c in range(len(first))],
                         [i for i, _ in pairs], [j for _, j in pairs])
                plan = _SiblingPlan(*(np.array(r, dtype=np.intp) for r in reads))
            self._siblings[n] = plan
        return plan

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
                count = self._count_paths(n)
            else:
                count = _saturate(self.spec, n, self.max_text, self._indexes).count(n)
            self._counts[n] = count
            return count

    def is_admissible(self, word: str) -> bool:
        return word in self.words(len(word))

    def _compute_factors(self, n: int) -> frozenset[str]:
        spec = self.spec
        if isinstance(spec, FullShiftSpec):
            cap = self.max_factors  # a power past the cap's bit length passes it
            count = len(spec.letters) ** min(n, cap.bit_length())
            # its words hold count * n letters; on two or more letters the word
            # cap lets through at most cap * bit_length(cap), and one letter
            # gets the same
            if count > cap or count * n > cap * cap.bit_length():
                raise ResourceLimit(f"full-shift factor set of length {n} exceeds cap")
            return frozenset("".join(t) for t in itertools.product(spec.letters, repeat=n))
        if isinstance(spec, ExplicitSpec):
            return _spell_paths(self._graph, n, self.max_factors)
        return _saturate(self.spec, n, self.max_text, self._indexes).factors(n)

    def _count_paths(self, n: int) -> int:
        """len(_spell_paths(self._graph, n)), without spelling the paths: the
        path counts of the longest length counted so far step forward to n,
        memoizing each length passed, so a table to n costs n steps."""
        graph = self._graph
        k = len(next(iter(graph), ""))
        if n <= k or not graph:
            return len({w[:n] for w in graph})
        length, paths = self._paths or (k, dict.fromkeys(graph, 1))
        while length < n:
            length, paths = length + 1, _step_paths(graph, paths)
            self._counts[length] = sum(paths.values())
        self._paths = length, paths
        return self._counts[n]

    @cached_property
    def _graph(self) -> dict[str, tuple[str, ...]]:
        return _overlap_graph(self.spec, self.max_factors)

    @cached_property
    def _indexes(self) -> _IndexStream:
        # Substitution factors must occur arbitrarily late in the generated
        # word (prefix-only factors are not part of the subshift); restricting
        # the scan to the tail half and waiting for stabilization implements
        # that filter.  For primitive substitutions it converges to the plain
        # factor set.
        return _IndexStream(self.spec, 2 * self.max_text, isinstance(self.spec, SubstitutionSpec))


def substitution_enumeration_diagnostics(spec: SubstitutionSpec, n: int) -> dict:
    """Compare the tail-occurrence filter with a plain prefix scan, both
    within the text budget of the spec's language table.

    The two agree for primitive substitutions; a disagreement flags a
    substitution whose generated word has prefix-only factors (those are
    correctly excluded by the tail filter).
    """
    max_text = spec.language.max_text
    tail_set = spec.language.factors(n)
    plain = _saturate(spec, n, max_text,
                      _IndexStream(spec, 2 * max_text, tail=False)).factors(n)
    return {"tail": tail_set, "prefix": plain, "agree": tail_set == plain}


FIBONACCI_RULES = {"a": "ab", "b": "a"}


def fibonacci_spec() -> SubstitutionSpec:
    """The golden-ratio substitution subshift (a -> ab, b -> a)."""
    return SubstitutionSpec.from_rules(FIBONACCI_RULES, "a")
