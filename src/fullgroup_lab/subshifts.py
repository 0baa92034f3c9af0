"""Subshift construction and word-complexity computation.

Five families are supported: Sturmian subshifts given by the continued
fraction of their slope, substitution subshifts, Toeplitz subshifts built
by hole filling, full shifts, and explicit shifts of finite type given by
forbidden words.  Words are plain Python strings over single-character
letters.

A substitution psi meets the growth condition when every letter a grows,
|psi^k(a)| unbounded.  Rule (`growing_letters`): call a letter surviving
when no psi^k empties it; a grows iff it reaches, through surviving letters
in zero steps or more, a letter c on a cycle whose image holds two or more
surviving letters, counted with multiplicity.  Proof: a surviving letter's
image holds one, so the surviving letters of psi^k(a) never fall in number,
and |psi^k(a)| is unbounded exactly when their number is (with d letters, a
mortal letter's d-th image is empty).  With such a c, psi^j(c), j its
cycle's length, holds c and one more surviving letter, so the number grows
without bound.  Without, each cycle letter's only surviving image letter is
its successor on the cycle, and as every chain of d steps or more repeats a
letter, each surviving letter of psi^k(a), k >= d, is a cycle letter: the
number is fixed from k = d on.

Sturmian and substitution languages are read off generated text, with a
certificate.  A Sturmian language has n + 1 factors of length n (Lothaire,
Algebraic Combinatorics on Words, ch. 2), so its counts need no text, and
its length-n factors are the windows of the first standard word that holds
n + 1 of them: every window of a standard word is a factor.  A substitution
psi, with fixed point u = psi(u), has the factors that occur infinitely
often in u as its language (Queffelec, Substitution Dynamical Systems,
LNM 1294), and two facts make them finite work:

1. The two-letter words that recur in u, R, come from a finite search.  Cut
   u = psi(u) into the blocks psi(u_j).  An occurrence of a pair cd at
   j >= 1 yields the pairs of psi(cd) that start inside psi(c), and these
   are the pairs at every position of block j, each later than j (u_0's
   image has two letters at least, as u_0 grows).  So the occurrences at
   positions >= 1 form a tree, rooted at the children of u_0 u_1 at
   offsets >= 1, whose labels walk the pair graph cd -> those pairs.  A
   finitely branching infinite tree has infinitely many nodes of a label
   exactly when the graph reaches that label from a cycle that the roots
   reach (`_recurrent_pairs`).
2. Let |psi^k(c)| >= n for every letter c of R.  Then the length-n
   factors are the length-n windows of the words psi^k(cd), cd in R, that
   start inside psi^k(c).  Each is a factor, as cd recurs.  Past the last
   occurrence of a pair outside R, a window starts inside some block
   psi^k(u_j) and, being no longer than psi^k(u_{j+1}), ends inside the
   next one, and u_j u_{j+1} is in R.

With b the least |psi^k(c)| over the letters of R, the blocks psi^k(c)
followed by the first b - 1 letters of psi^k(d) hold those windows for
every length up to b, and k is taken least with b >= n, so one index serves
a table until a longer length is asked for (`_recurrent_blocks`).  The
blocks, like a standard word, are spelled from level words (`level_words`,
which points read too), their lengths refused past the text budget,
`MAX_TEXT`, before any letter is spelled.
The blocks are indexed together, by a prefix-doubling suffix array and
Kasai's LCP scan, which count the distinct windows of every length at once
and spell those of one length when asked (`_FactorIndex`).

A Toeplitz language generates no text: its factors of one length are the
pattern's templates filled by shorter factors, and from a length certified
by the pattern itself on, its counts add up over the templates, and a
periodic word's counts stay at the first one the next length repeats
(`_ToeplitzLanguage`).  Full shifts use the closed form, and a shift of
finite type spells or counts the paths of one graph on its allowed
k-words; a count that would pass `MAX_COUNT_BITS` is refused first.  Each
family is one engine with `count(n)` and `factors(n)`, picked once by the
spec's own `LanguageTable`, `spec.language`: the one place that memoizes,
orders and locates factors, safe to share across threads, whose one lock
guards every call into its engine.
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import cached_property, partial
from typing import Iterable, Iterator, KeysView, Mapping, NamedTuple

import numpy as np

from .errors import (
    ConditionViolated,
    EmptyAlphabet,
    ResourceLimit,
    UnresolvableHole,
    ValidationError,
)
from .values import Frozen

# Letters one piece of generated text may take: a standard word or the
# recurrent pairs' blocks.
MAX_TEXT = 1 << 24
SPELLED = 1 << 12  # letters of the longest level word a table keeps spelled
REACH = 1 << 64  # letters that the level words of a table reach
# Element budget for explicit factor-set enumeration.
DEFAULT_MAX_FACTORS = 2_000_000
# Letters one factor set may spell (256 MiB).
MAX_FACTOR_LETTERS = 1 << 28
# Bits one count may take, or one table's memo of path counts with a 64-bit
# word an entry at least (32 MiB).
MAX_COUNT_BITS = MAX_FACTOR_LETTERS


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


class SturmianSpec(Frozen):
    """Sturmian subshift with slope given by a continued fraction.

    `cf` holds one period of the (eventually periodic) continued fraction
    of the slope; the list is cycled when longer standard words are needed,
    so the slope is a quadratic irrational and the language is aperiodic.
    The golden slope is ``cf=(1,)``.  `swap_letters` flips the two letter
    roles, covering both coding conventions.
    """

    __slots__ = ("cf", "swap_letters", "language")
    _fields = ("cf", "swap_letters")
    cf: tuple[int, ...]
    swap_letters: bool
    language: LanguageTable

    def __init__(self, cf: Iterable[int], swap_letters: bool = False):
        self._set(cf=tuple(int(a) for a in cf), swap_letters=swap_letters)
        if not self.cf:
            raise ConditionViolated("Sturmian", 1, "continued fraction list is empty")
        if any(a < 1 for a in self.cf):
            raise ConditionViolated("Sturmian", 1, "continued fraction coefficients must be >= 1")
        self._set(language=LanguageTable(self))


class SubstitutionSpec(Frozen):
    """Subshift of a substitution satisfying the two growth conditions.

    Condition 1: the image of `seed` starts with `seed`, so iterates
    converge to a one-sided fixed word.  Condition 2: every letter's
    iterated image length tends to infinity; this is decided exactly on
    the incidence digraph (see `growing_letters`).
    """

    __slots__ = ("rules", "seed", "language")
    _fields = ("rules", "seed")
    rules: tuple[tuple[str, str], ...]
    seed: str
    language: LanguageTable

    def __init__(self, rules: Iterable[tuple[str, str]], seed: str):
        self._set(rules=tuple(sorted((str(k), str(v)) for k, v in rules)), seed=seed)
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
        self._set(language=LanguageTable(self))

    @classmethod
    def from_rules(cls, rules: Mapping[str, str], seed: str) -> "SubstitutionSpec":
        return cls(tuple(sorted(rules.items())), seed)

    @property
    def rules_dict(self) -> dict[str, str]:
        return dict(self.rules)


class ToeplitzSpec(Frozen):
    """Toeplitz subshift of the word obtained by filling pattern holes."""

    __slots__ = ("pattern", "hole", "language")
    _fields = ("pattern", "hole")
    pattern: str
    hole: str
    language: LanguageTable

    def __init__(self, pattern: str, hole: str = "*"):
        self._set(pattern=pattern, hole=hole)
        if len(self.hole) != 1:
            raise ValidationError(
                f"Toeplitz field 'hole' must be one character, got {self.hole!r}")
        if not self.pattern:
            raise EmptyAlphabet("empty Toeplitz pattern")
        if self.pattern[0] == self.hole:
            raise ConditionViolated("Toeplitz", 1, "pattern must start with a letter, not a hole")
        if self.hole not in self.pattern:
            raise ConditionViolated("Toeplitz", 2, "pattern contains no hole to fill")
        self._set(language=LanguageTable(self))


class FullShiftSpec(Frozen):
    """The full shift over a finite alphabet; every word is admissible."""

    __slots__ = ("letters", "language")
    _fields = ("letters",)
    letters: tuple[str, ...]
    language: LanguageTable

    def __init__(self, letters: Iterable[str]):
        self._set(letters=tuple(letters))
        _check_letters(self.letters)
        self._set(language=LanguageTable(self))


class ExplicitSpec(Frozen):
    """Shift of finite type given by a finite set of forbidden words."""

    __slots__ = ("letters", "forbidden", "language")
    _fields = ("letters", "forbidden")
    letters: tuple[str, ...]
    forbidden: tuple[str, ...]
    language: LanguageTable

    def __init__(self, letters: Iterable[str], forbidden: Iterable[str]):
        self._set(letters=tuple(letters))
        _check_letters(self.letters)
        self._set(forbidden=tuple(sorted(set(forbidden))))
        for w in self.forbidden:
            if not w:
                raise EmptyAlphabet("the empty word cannot be forbidden")
            for c in w:
                if c not in self.letters:
                    raise EmptyAlphabet(f"forbidden word {w!r} uses unknown letter {c!r}")
        self._set(language=LanguageTable(self))


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
        return {"variant": "explicit", "alphabet": list(spec.letters),
                "forbidden": list(spec.forbidden)}
    raise TypeError(f"not a subshift spec: {spec!r}")


# ---------------------------------------------------------------------------
# Substitution machinery


class LevelWords(NamedTuple):
    """Level words W_j(c), built by `level_words`: W_0(c) = `words[0][c]`, one
    letter, and W_j(c) the runs W_{j-1}(d)^m, (d, m) in `runs[j][c]`, of
    `lengths[j][c]` letters; `words[j]` holds those of at most `SPELLED`.
    No length falls, and the levels run until each of the last len(words[0])
    passes `REACH` letters in every word, so every period up to that many
    levels has a multiple there."""

    runs: tuple[Mapping[str, tuple[tuple[str, int], ...]], ...]
    lengths: tuple[dict[str, int], ...]
    words: tuple[dict[str, str], ...]

    def spell(self, j: int, c: str, s: int, e: int) -> str:
        """Letters s .. e-1 of W_j(c), none if e <= s, for 0 <= s and
        e <= |W_j(c)|, by a descent (Dumont & Thomas, TCS 65, 1989) that keeps,
        level by level, only the copies that meet them, m of them by one
        division, so it spells about as many letters as it returns."""
        runs = ((c, 1),)
        while True:  # letters s .. e-1 of the level-j words of `runs`, in order
            width, kept, start = e - s, [], 0
            for d, m in runs:
                n = self.lengths[j][d]
                first, stop = max(s, 0) // n, min(-(-e // n), m)
                if first < stop:
                    start = start if kept else s - first * n
                    kept.append((d, stop - first))
                s, e = s - n * m, e - n * m
            words = self.words[j]
            if all(d in words for d, _ in kept):
                return "".join(words[d] * m for d, m in kept)[start : start + width]
            runs = [r for d, m in kept for r in self.runs[j][d] * m]
            j, s, e = j - 1, start, start + width


def level_words(spec: SturmianSpec | SubstitutionSpec) -> LevelWords:
    """The level words of `spec`, the one place that holds each level rule.
    A substitution's are its iterates, psi^j(c) the runs of psi(c) letter by
    letter.  A Sturmian spec's are W_k(a) = s_k and W_k(b) = s_{k-1}, from
    s_0 = a and s_{-1} = b, swapped when the spec says so: s_k is the run
    s_{k-1}^{a_k} then s_{k-2}, the coefficients cycled, and for k >= 0 a
    prefix of s_{k+1} and a suffix of s_{k+2} (Lothaire, Algebraic
    Combinatorics on Words, ch. 2).  No length falls: s_k is no shorter than
    s_{k-1}, and as every letter of a substitution grows, no image is empty."""
    if isinstance(spec, SturmianSpec):
        base = dict(zip("ab", "ba" if spec.swap_letters else "ab"))
        rules = ({"a": (("a", m), ("b", 1)), "b": (("a", 1),)} for m in itertools.cycle(spec.cf))
    else:
        base = {c: c for c, _ in spec.rules}
        rules = itertools.repeat({c: tuple((d, 1) for d in image) for c, image in spec.rules})
    lengths, runs, words = [dict.fromkeys(base, 1)], [{}], [base]
    while len(lengths) < len(base) or min(lengths[-len(base)].values()) < REACH:
        runs.append(level := next(rules))
        lengths.append({c: sum(lengths[-1][d] * m for d, m in r) for c, r in level.items()})
        words.append({c: "".join(words[-1][d] * m for d, m in r)
                      for c, r in level.items() if lengths[-1][c] <= SPELLED})
    return LevelWords(tuple(runs), tuple(lengths), tuple(words))


def _reach(graph: Mapping[str, Iterable[str]], sources: Iterable[str]) -> set[str]:
    """The vertices of `graph` reached from `sources` in one step or more."""
    seen: set[str] = set()
    todo = [v for s in sources for v in graph[s]]
    while todo:
        v = todo.pop()
        if v not in seen:
            seen.add(v)
            todo.extend(graph[v])
    return seen


def growing_letters(rules: Mapping[str, str]) -> set[str]:
    """Letters whose iterated image length tends to infinity, by the growth
    rule of the module docstring."""
    mortal: set[str] = set()  # the letters that some psi^k empties
    while dying := {a for a, image in rules.items() if a not in mortal and set(image) <= mortal}:
        mortal |= dying
    graph = {a: [c for c in image if c not in mortal]
             for a, image in rules.items() if a not in mortal}
    roots = {c for c, image in graph.items() if len(image) >= 2 and c in _reach(graph, [c])}
    return {a for a in graph if a in roots or roots & _reach(graph, [a])}


def _recurrent_pairs(rules: Mapping[str, str], seed: str) -> list[str]:
    """The two-letter words that occur infinitely often in the fixed point
    u = psi(u) that starts with `seed`, by fact 1 of the module docstring:
    the pairs that the pair graph reaches from a cycle that the children of
    u_0 u_1 at offsets >= 1 reach."""

    def children(pair: str, start: int) -> set[str]:
        image = rules[pair[0]] + rules[pair[1]][0]
        return {image[i : i + 2] for i in range(start, len(rules[pair[0]]))}

    graph: dict[str, set[str]] = {}
    todo = list(children(seed + rules[seed][1], 1))
    while todo:
        p = todo.pop()
        if p not in graph:
            graph[p] = children(p, 0)
            todo.extend(graph[p])
    return sorted(_reach(graph, [p for p in graph if p in _reach(graph, [p])]))


# ---------------------------------------------------------------------------
# Toeplitz hole filling


def toeplitz_word(pattern: str, length: int, hole: str = "*", start: int = 0) -> str:
    """The `length` letters from position `start` (an int of any size) of
    the two-sided Toeplitz word x of `pattern`; from 0, the one-sided word.

    x repeats the pattern of p cells and q holes, and its hole at i carries
    x_h(i), h(i) = floor(i/p) q + (holes of the pattern before i mod p).  h
    grows by one exactly at a hole, so the holes of the window [s, e) take,
    in order, the letters of [h(s), h(e)).  So x is built level by level,
    from the first of the windows [s, e), [h(s), h(e)), ... without a hole:
    each level repeats the pattern and scatters the level before into its
    holes.  The windows close in on 0, as h(i) < i for i > 0 (the pattern
    starts with a letter) and h(i) > i for i < 0, except that a pattern
    ending with a hole has h(-1) = -1, a hole filled by itself: such a
    pattern refuses a negative start.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    if not pattern:
        raise EmptyAlphabet("empty Toeplitz pattern")
    if pattern[0] == hole:
        raise ConditionViolated("Toeplitz", 1, "pattern must start with a letter, not a hole")
    if start < 0 and pattern[-1] == hole:
        raise UnresolvableHole(f"pattern {pattern!r} leaves a permanent hole at offset -1")
    p = len(pattern)
    is_hole = [c == hole for c in pattern]
    before = list(itertools.accumulate(is_hole, initial=0))

    def h(i: int) -> int:
        return i // p * before[p] + before[i % p]

    windows = []
    s, e = start, start + length
    while s < e:
        windows.append((s, e))
        s, e = h(s), h(e)
    letters = np.frombuffer(pattern.encode("utf-32-le"), dtype=np.uint32)
    word = np.empty(0, np.uint32)
    for s, e in reversed(windows):
        cells = slice(s % p, s % p + e - s)
        level = np.tile(letters, cells.stop // p + 1)[cells]
        level[np.tile(is_hole, cells.stop // p + 1)[cells]] = word
        word = level
    return word.tobytes().decode("utf-32-le")


# Letters `_fill_holes` fills with one numpy pass (a longer word fills alone).
_FILL_LETTERS = 1 << 22


def _fill_holes(template: str, hole: str, words: set[str]) -> Iterator[str]:
    """`template` once for each of `words`, its holes filled in order by
    that word's letters; every word has as many letters as it has holes.
    Each numpy pass fills words of about `_FILL_LETTERS` letters in all."""
    cells = np.frombuffer(template.encode("utf-32-le"), dtype=np.uint32)
    holes = np.flatnonzero(cells == ord(hole))
    m = len(template)
    words = iter(words)
    while block := list(itertools.islice(words, max(1, _FILL_LETTERS // m))):
        filled = np.tile(cells, (len(block), 1))
        filled[:, holes] = np.frombuffer("".join(block).encode("utf-32-le"),
                                         dtype=np.uint32).reshape(len(block), len(holes))
        text = filled.tobytes().decode("utf-32-le")
        yield from (text[i : i + m] for i in range(0, len(text), m))


class _ToeplitzLanguage:
    """The language of a Toeplitz word by the hole recursion, with no text.

    Let the pattern P have p letters, q of them holes, and let j(r) be the
    number of holes before r.  The one-sided word T has T[bp + r] = P[r]
    when r is not a hole and T[bp + r] = T[bq + j(r)] when it is.  So the
    length-m window at i = bp + r is P's periodic extension read from r,
    the template of (r, m), with its k_r = k(r, m) holes filled by the
    length-k_r window of T at bq + j(r): the hole after the j(r) before r
    in period b.  As b runs, the windows at the positions = r mod p are
    branch B_r(m), the template filled by each window of length k_r at a
    position = j(r) mod q.  Filling one template is injective.  Let
    g = gcd(p, q), and G(m, c) the length-m windows at positions = c mod g.
    Three facts make this a recursion on the states (m, c mod g), and a
    fourth counts the words whose branches never come apart:

    1. The windows at positions = j mod q are G(m, j mod g).  Every
       position is fixed at a finite level: level 1 fixes the letters of
       P, level K + 1 a hole bp + r whose source bq + j(r) level K fixes,
       and the chain i -> bq + j(r) strictly decreases to a letter
       (j(r) < r, since P starts with a letter).  Level K has a period
       Pi_K: Pi_1 = p, and moving b by Pi_K / gcd(Pi_K, q) moves the source
       by a multiple of Pi_K, so Pi_{K+1} = p Pi_K / gcd(Pi_K, q).  With
       p = g p' and q = g q', Pi_K = g p'^K and gcd(Pi_K, q) = g for every
       K.  A window at i lies within some level K, so it recurs at
       i + t Pi_K for all t >= 0, and these positions cover every residue
       mod q that is = i mod g.  For coprime p and q there is one class.
       As g divides p and q, B_r(m) lies in class r mod g and is the
       template filled by G(k_r, j(r) mod g).
    2. The base case needs no text.  The lengths k_r are at most m, and
       k_r = m only when the template is all holes, which m past P's
       longest run of holes rules out.  Then B_r(m) = G(m, j(r) mod g), and
       the sets of that length are the least fixed point of their g
       equations over the other branches, already spelled.  It is sound:
       the windows form a fixed point, and each one enters the least one
       by induction on its position, down the decreasing chain of fact 1
       to a window that holds a letter.
    3. m0, the first length at which B_0(m), ..., B_{p-1}(m) are pairwise
       disjoint, certifies the counts.  A window of B_r(m + 1) has its
       length-m prefix, at the same position, in B_r(m), so disjointness
       carries to every longer length.  For m >= m0 the union is disjoint
       and the fills injective, so |G(m, c)| is the sum over r = c mod g of
       |G(k_r, j(r) mod g)|.  No template is all holes there: such a B_r(m)
       would equal a whole class, holding some other branch of it (each
       class has p / g >= 2 residues).  So k_r < m and the counts recurse
       down to lengths below m0, which are spelled.
    4. A flat length f, one with rho(f + 1) = rho(f), certifies the counts
       from f on: they are all rho(f).  Each length-n factor of the
       infinite word T extends to the right, so rho(n + 1) >= rho(n), and
       equality means each extends by exactly one letter.  Then so does
       each length-(f + 1) factor, as the letter after it is the one after
       its length-f suffix, and rho(f + 2) = rho(f + 1), and so on.  As rho
       never falls, rho(m) = rho(f) at some m > f makes f flat.  A pattern
       whose branches never come apart, its period not essential (`ab**`
       and `a**`, whose words are periodic), is counted this way: by its
       spelled sets up to its flat length (1 and 0) and by rho there past it.

    A pattern u^k is read as u.  With P = u^k, the position
    bp + s|u| + r (s < k, r < |u|) is (bk + s)|u| + r, and when r is a
    hole its source bq + s q_u + j_u(r) is (bk + s) q_u + j_u(r): the rule
    of u's word at that position.  So the two words agree letter by letter,
    and `ab*ab*` is counted as `ab*`, whose m0 is 3, not by spelled sets.

    A length is spelled only when the letters of all its fills, at most
    `MAX_FACTOR_LETTERS`, are known to fit; for lengths from m0 on they are
    the factor set's own letters.  The sizes of every spelled length are
    kept, and the spelled sets within a quarter of that cap, the oldest
    dropped first, so a long table holds no more words than that.
    """

    def __init__(self, pattern: str, hole: str):
        p = len(pattern)
        pattern = next(pattern[:d] for d in range(1, p + 1)
                       if p % d == 0 and pattern[:d] * (p // d) == pattern)
        self.pattern = pattern
        self.hole = hole
        self.period = len(pattern)
        self.holes = pattern.count(hole)
        self.classes = math.gcd(self.period, self.holes)
        self.before = list(itertools.accumulate((c == hole for c in pattern[:-1]), initial=0))
        self.m0: int | None = None
        self.flat: int | None = None  # fact 4's f, once one is found
        self._overlapping = 0  # the branches overlap at every length up to it
        # rho(m) and the sizes |G(m, c)| of every length spelled so far
        self._sizes = {0: (1, (1,) * self.classes)}
        self._sets: dict[int, tuple[set[str], ...]] = {}  # oldest first
        self._held = 0  # letters in _sets
        self._counts: dict[tuple[int, int], int] = {}

    def branches(self, m: int) -> Iterator[tuple[int, int, int]]:
        """(r, k_r, j(r) mod g) of each branch B_r(m)."""
        p, q = self.period, self.holes
        for r, j in enumerate(self.before):
            end = r + m
            yield r, end // p * q + self.before[end % p] - j, j % self.classes

    def count(self, n: int) -> int:
        """The number of length-n factors."""
        if self.first_disjoint(n) is not None:
            return sum(self.class_count(k, c) for _, k, c in self.branches(n))
        return self._size(n if self.flat is None else min(n, self.flat))[0]

    def factors(self, n: int) -> frozenset[str]:
        """The length-n factors, refused past `MAX_FACTOR_LETTERS` letters
        before they are spelled."""
        if self.count(n) * n > MAX_FACTOR_LETTERS:
            raise ResourceLimit(f"factor set of length {n} exceeds the letter cap")
        return frozenset().union(*self._spell(n))

    def class_count(self, m: int, c: int) -> int:
        """|G(m, c)|: from m0 on by fact 3, below it the spelled set's size."""
        if self.m0 is None or m < self.m0:
            return self._size(m)[1][c]
        counts, stack = self._counts, [(m, c)]
        while stack:
            m, c = stack[-1]
            if (m, c) in counts:
                stack.pop()
                continue
            parts = [(k, j) for r, k, j in self.branches(m) if r % self.classes == c]
            todo = [s for s in parts if s[0] >= self.m0 and s not in counts]
            if todo:
                stack.extend(todo)
                continue
            counts[m, c] = sum(counts[k, j] if k >= self.m0 else self._size(k)[1][j]
                               for k, j in parts)
            stack.pop()
        return counts[m, c]

    def first_disjoint(self, n: int) -> int | None:
        """m0 if it is at most n, else None.  As disjointness carries to
        longer lengths, lengths are tried past the last one known to
        overlap at doubling steps, capped at n, and m0 is then bisected.
        A step whose sets would pass the letter cap starts over at one
        length past that one: a steep language, such as a*****b's, can
        pass the cap at twice its m0 and not at m0.  A step whose count
        equals that of the last length known to overlap finds that length
        flat (fact 4), and the search ends there."""
        if self.m0 is not None or self.flat is not None or self._overlapping >= n:
            return self.m0 if self.m0 is not None and self.m0 <= n else None
        step = 1
        while True:
            m = min(self._overlapping + step, n)
            try:
                if self._disjoint(m):
                    break
            except ResourceLimit:
                if step == 1:
                    raise
                step = 1
                continue
            if self._size(m)[0] == self._size(self._overlapping)[0]:
                self.flat = self._overlapping
                self._overlapping = m
                return None
            self._overlapping = m
            if m == n:
                return None
            step *= 2
        while m - self._overlapping > 1:
            mid = (self._overlapping + m) // 2
            if self._disjoint(mid):
                m = mid
            else:
                self._overlapping = mid
        self.m0 = m
        return m

    def _disjoint(self, m: int) -> bool:
        rho = self._size(m)[0]
        return sum(self._size(k)[1][j] for _, k, j in self.branches(m)) == rho

    def _size(self, m: int) -> tuple[int, tuple[int, ...]]:
        """rho(m) and |G(m, c)| for every class c, spelled if not yet known."""
        got = self._sizes.get(m)
        if got is None:
            self._spell(m)
            got = self._sizes[m]
        return got

    def _spell(self, m: int) -> tuple[set[str], ...]:
        """G(m, c) for every class c, by facts 1 and 2, memoized within the
        letters `_keep` allows (and never changed once made)."""
        if m == 0:
            return ({""},) * self.classes
        got = self._sets.get(m)
        if got is not None:
            return got
        branches = list(self.branches(m))
        fills = {k: self._spell(k) for k in sorted({k for _, k, _ in branches if k < m})}
        if sum(len(fills[k][j]) for _, k, j in branches if k < m) * m > MAX_FACTOR_LETTERS:
            raise ResourceLimit(f"factor set of length {m} exceeds the letter cap")
        found = [set() for _ in range(self.classes)]
        links = [set() for _ in range(self.classes)]  # all-hole branches
        text = self.pattern * (m // self.period + 2)
        for r, k, j in branches:
            if k < m:
                found[r % self.classes].update(
                    _fill_holes(text[r : r + m], self.hole, fills[k][j]))
            else:
                links[r % self.classes].add(j)
        grown = True
        while grown:  # the least fixed point of fact 2
            grown = False
            for c, sources in enumerate(links):
                for j in sources:
                    if not found[j] <= found[c]:
                        found[c] |= found[j]
                        grown = True
        got = tuple(found)
        self._sizes[m] = (len(found[0].union(*found[1:])), tuple(map(len, found)))
        self._keep(m, got)
        return got

    def _keep(self, m: int, sets: tuple[set[str], ...]) -> None:
        """Memoize G(m, .) while the spelled sets kept hold at most a quarter
        of `MAX_FACTOR_LETTERS` letters, dropping the oldest lengths first.
        Sets past that bound alone are not kept."""
        letters, budget = m * sum(map(len, sets)), MAX_FACTOR_LETTERS // 4
        if letters > budget:
            return
        while self._held + letters > budget:
            k = next(iter(self._sets))
            self._held -= k * sum(map(len, self._sets.pop(k)))
        self._sets[m] = sets
        self._held += letters


# ---------------------------------------------------------------------------
# Suffix-array factor index

# Bits of the packed sort key of one prefix-doubling round.
_KEY_BITS = 62


def _suffix_array(dense: str, letter_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Start positions of the suffixes of `dense` in sorted order, and for
    each start position the length of the longest common prefix of its
    suffix with the suffix sorted just before it, -1 for the first (both
    int32).

    `dense` spells its text with the characters 0 .. letter_count - 1.
    Prefix doubling (Manber & Myers, SIAM J. Comput. 22, 1993), generalized:
    while the suffixes are ranked by their first k letters, one round packs
    the ranks + 1 at i, i + k, i + 2k, ... into one 62-bit key, as many as
    fit, and sorts by it.  A block past the end packs as 0, below every
    rank, so a proper prefix sorts first.  The first round packs letters
    (k = 1); rounds stop once every key is distinct.  A round holds its int64
    keys, sorted in place, their int64 argsort and int32 ranks in key order,
    20 bytes a letter; only the ranks + 1, in the narrowest unsigned type,
    pass to the next round.

    The LCP is Kasai's linear scan in text order (Kasai et al., CPM 2001)
    over the letters closed by one that occurs nowhere else, so every
    comparison stops there: the value at i + 1 is at least the value at i
    minus one, so the comparisons resume where the previous position
    stopped.
    """
    size = len(dense)
    # every round's ranks in key order, then the LCP array written over them;
    # allocated before any round, so it pins none of their freed heap
    rank = np.empty(size, np.int32)
    # the letters + 1, closed by 0, which occurs nowhere else
    letters = np.zeros(size + 1, np.min_scalar_type(letter_count))
    letters[:size] = np.frombuffer(dense.encode("utf-32-le"), dtype=np.int32)
    letters[:size] += 1
    shifted, groups, step = letters, letter_count, 1
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
        del key
        np.cumsum(rank, out=rank)
        groups = int(rank[-1])
        if groups == size:
            break
        shifted = np.empty(size, np.min_scalar_type(groups))
        shifted[sa] = rank
        del sa
        step *= fields
    del shifted
    sa = sa.astype(np.int32)
    before = np.empty(size, np.int32)
    before[sa[1:]] = sa[:-1]
    before[sa[0]] = -1
    text, out = memoryview(letters), memoryview(rank)
    i = h = 0
    for j in memoryview(before):
        if j < 0:
            out[i] = -1
            h = 0
        else:
            while text[i + h] == text[j + h]:
                h += 1
            out[i] = h
            if h:
                h -= 1
        i += 1
    return sa, rank


class _FactorIndex:
    """All factors of a few blocks of text, read once.

    The blocks are joined, each closed by a separator letter of its own, so
    no common prefix runs past a block's end.  `lcp[i]` is the longest
    common prefix of suffix i with the suffix sorted just before it
    (`_suffix_array`), and `room[i]` the letters from i to its block's end.
    The length-n windows that start where lcp < n <= room are the distinct
    length-n factors of the blocks, one each: the suffixes that start with
    one of them are sorted together, and only the first has a shorter LCP.
    So suffix i adds one factor to every n with lcp[i] < n <= room[i], and
    a difference-array histogram of those ranges gives `counts[n]` for
    every n up to the longest block; past it there is no window.  The index
    keeps the text and three int32 arrays.  A factor set of more than
    `MAX_FACTOR_LETTERS` letters is refused before it is spelled.
    """

    __slots__ = ("text", "room", "lcp", "counts")

    def __init__(self, blocks: list[str]):
        letters = sorted(set().union(*blocks))
        dense = {ord(c): i for i, c in enumerate(letters)}
        self.text = "".join(block + "\0" for block in blocks)
        _, self.lcp = _suffix_array(
            "".join(block.translate(dense) + chr(len(letters) + j)
                    for j, block in enumerate(blocks)),
            len(letters) + len(blocks))
        sizes = np.array([len(block) + 1 for block in blocks])
        self.room = (np.repeat(np.cumsum(sizes) - 1, sizes)
                     - np.arange(len(self.text))).astype(np.int32)
        longest = int(sizes.max()) - 1
        diff = (np.bincount(self.lcp + 1, minlength=longest + 2)
                - np.bincount(self.room + 1, minlength=longest + 2))
        self.counts = np.cumsum(diff[: longest + 1]).astype(np.int32)

    def count(self, n: int) -> int:
        return int(self.counts[n]) if n < len(self.counts) else 0

    def factors(self, n: int) -> frozenset[str]:
        if self.count(n) * n > MAX_FACTOR_LETTERS:
            raise ResourceLimit(f"factor set of length {n} exceeds the letter cap")
        starts = np.flatnonzero((self.lcp < n) & (self.room >= n))
        return frozenset([self.text[i : i + n] for i in starts.tolist()])


def _recurrent_blocks(spec: SubstitutionSpec, levels: LevelWords,
                      n: int) -> tuple[int, _FactorIndex]:
    """(b, index): the index of the blocks psi^k(c) + psi^k(d)[:b - 1], cd
    in `_recurrent_pairs`, whose length-m windows are the language's for
    every m <= b (module docstring), k least with b >= n, read off the
    level words of `spec`.  Blocks past `MAX_TEXT` letters in all are
    refused with ResourceLimit before any is spelled."""
    pairs = _recurrent_pairs(spec.rules_dict, spec.seed)
    letters = set("".join(pairs))
    for k, lengths in enumerate(levels.lengths):  # lengths[c] = |psi^k(c)|
        bound = min(lengths[c] for c in letters)
        size = sum(lengths[c] + bound for c, _ in pairs)
        if size > MAX_TEXT or bound >= n:  # the last levels pass REACH > MAX_TEXT
            break
    if size > MAX_TEXT:
        raise ResourceLimit(f"the recurrent pairs' blocks under psi^{k} have {size} "
                            f"letters, past the text budget of {MAX_TEXT} letters")
    return bound, _FactorIndex([levels.spell(k, c, 0, lengths[c])
                                + levels.spell(k, d, 0, bound - 1) for c, d in pairs])


class _SubstitutionLanguage:
    """A substitution's language: the last `_recurrent_blocks` index, kept while it answers."""

    def __init__(self, spec: SubstitutionSpec):
        self.spec = spec
        self._last_index: tuple[int, _FactorIndex | None] = (-1, None)  # the blocks' bound

    def count(self, n: int) -> int:
        return self._index(n).count(n)

    def factors(self, n: int) -> frozenset[str]:
        return self._index(n).factors(n)

    def _index(self, n: int) -> _FactorIndex:
        if self._last_index[0] < n:
            self._last_index = _recurrent_blocks(self.spec, self._levels, n)
        return self._last_index[1]

    @cached_property
    def _levels(self) -> LevelWords:
        return level_words(self.spec)


class _SturmianLanguage(_SubstitutionLanguage):
    """A Sturmian language: n + 1 factors of each length n, counted with no text,
    and spelled off the index of the first standard word holding them all."""

    def count(self, n: int) -> int:
        return n + 1

    def _index(self, n: int) -> _FactorIndex:
        k, index = self._last_index  # the word's k
        while index is None or index.count(n) <= n:
            k += 1
            size = self._levels.lengths[k]["a"]  # |s_k|
            if size > MAX_TEXT:
                raise ResourceLimit(f"standard word s_{k} has {size} letters, "
                                    f"past the text budget of {MAX_TEXT} letters")
            index = _FactorIndex([self._levels.spell(k, "a", 0, size)])
            self._last_index = k, index
        return index


# ---------------------------------------------------------------------------
# Full shifts and shifts of finite type


class _FullShiftLanguage:
    """A full shift's language: every word, counted by the closed form."""

    def __init__(self, spec: FullShiftSpec):
        self.letters = spec.letters

    def count(self, n: int) -> int:
        # k ** n has at most n * bit_length(k - 1) + 1 bits
        if n * (len(self.letters) - 1).bit_length() > MAX_COUNT_BITS:
            raise ResourceLimit(f"full-shift count at length {n} has more than "
                                f"{MAX_COUNT_BITS} bits")
        return len(self.letters) ** n

    def factors(self, n: int) -> frozenset[str]:
        cap = DEFAULT_MAX_FACTORS  # a power past the cap's bit length passes it
        count = len(self.letters) ** min(n, cap.bit_length())
        # its words hold count * n letters; on two or more letters the word
        # cap lets through at most cap * bit_length(cap), and one letter
        # gets the same
        if count > cap or count * n > cap * cap.bit_length():
            raise ResourceLimit(f"full-shift factor set of length {n} exceeds cap")
        return frozenset("".join(t) for t in itertools.product(self.letters, repeat=n))


def _overlap_graph(spec: ExplicitSpec) -> dict[str, tuple[str, ...]]:
    """The allowed words of length k = max(1, longest forbidden word) that lie
    on a bi-infinite path, each mapped to its successors w[1:] + c.  The
    shift is the set of bi-infinite paths of this graph (Lind & Marcus,
    An Introduction to Symbolic Dynamics and Coding, ch. 2).  Each length's
    words are counted before any is built: w + c ends with a forbidden f
    exactly when w ends with f[:-1] and c is f's last letter."""
    k = max((len(f) for f in spec.forbidden), default=1)
    words = [""]
    for _ in range(k):
        size = sum(len(spec.letters) - len({f[-1] for f in spec.forbidden if w.endswith(f[:-1])})
                   for w in words)
        if size > DEFAULT_MAX_FACTORS:
            raise ResourceLimit(f"SFT enumeration exceeded {DEFAULT_MAX_FACTORS} words")
        words = [w + c for w in words for c in spec.letters
                 if not any((w + c).endswith(f) for f in spec.forbidden)]
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


def _spell_paths(graph: dict[str, tuple[str, ...]], n: int) -> frozenset[str]:
    """The length-n words of the shift: prefixes of the vertices up to their
    length k, and beyond it the words spelled by paths, depth first into one
    letter list, so each word costs its own letters.  Refused first past
    cap = `DEFAULT_MAX_FACTORS` words, or past a full shift's
    cap * bit_length(cap) letters: every vertex starts a path, so the words
    hold at least len(graph) * n."""
    k = len(next(iter(graph), ""))
    if n <= k or not graph:
        return frozenset(w[:n] for w in graph)
    cap = DEFAULT_MAX_FACTORS
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


class _PathLanguage:
    """A shift of finite type's language: the paths of its overlap graph,
    built on first use, spelled by `_spell_paths` or counted by stepping
    one path-count vector forward, each length passed memoized, so counts
    to n cost n steps."""

    def __init__(self, spec: ExplicitSpec):
        self.spec = spec
        self._paths: tuple[int, dict[str, int]] | None = None  # the last length stepped to
        self._counts: dict[int, int] = {}

    def factors(self, n: int) -> frozenset[str]:
        return _spell_paths(self._graph, n)

    def count(self, n: int) -> int:
        """len(factors(n)), unspelled; refused before any step when the memo to n
        could pass `MAX_COUNT_BITS`: length m has at most len(graph) * d^(m-k)
        paths, d the largest out-degree, each entry a 64-bit word at least."""
        graph = self._graph
        k = len(next(iter(graph), ""))
        if n <= k or not graph:
            return len({w[:n] for w in graph})
        t, e = n - k, (max(map(len, graph.values())) - 1).bit_length()
        if t * (64 + len(graph).bit_length()) + e * t * (t + 1) // 2 > MAX_COUNT_BITS:
            raise ResourceLimit(f"SFT path counts to length {n} could hold more than "
                                f"{MAX_COUNT_BITS} bits")
        length, paths = self._paths or (k, dict.fromkeys(graph, 1))
        while length < n:
            length, paths = length + 1, _step_paths(graph, paths)
            self._counts[length] = sum(paths.values())
        self._paths = length, paths
        return self._counts[n]

    @cached_property
    def _graph(self) -> dict[str, tuple[str, ...]]:
        return _overlap_graph(self.spec)


# ---------------------------------------------------------------------------
# Language tables


_ENGINES = {
    SturmianSpec: _SturmianLanguage,
    SubstitutionSpec: _SubstitutionLanguage,
    ToeplitzSpec: lambda spec: _ToeplitzLanguage(spec.pattern, spec.hole),
    FullShiftSpec: _FullShiftLanguage,
    ExplicitSpec: _PathLanguage,
}


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
    key view, the set itself, and `complexity(n)` its cardinality.  Both come
    from the family's engine, picked once from `_ENGINES`, which counts
    without the set where it can and builds nothing until asked.  The caps
    are module constants, each read where its check is made.

    The word geometry of cocycle tables lives here too.  `windows(n,
    starts, width)` is a read-only int32 matrix (a factor set holds far
    fewer than 2^31 words): row i, column j holds the position in
    `words(width)` of the i-th n-word's subword at `starts[j]`, made by one
    `fromiter` over exactly those starts; `subwords(n, lo, width)` is its
    one-column case.  `siblings(n)` is the plan that
    canonical reduction reads, as three index arrays: for each (n-2)-word,
    the position of the first n-word around it as centre, and the pairs of
    positions that must carry equal shifts for a table to factor through
    the centre; None when some (n-2)-word is no centre.  Both are memoized
    like `words`, one entry per key.  Inserts, and every call into the
    engine, which holds no lock, hold the table's one lock, while a hit
    reads without it: entries are only ever added, and whole.
    All queries are pure functions of the spec.
    """

    def __init__(self, spec: SubshiftSpec):
        self.spec = spec
        self._engine = _ENGINES[type(spec)](spec)
        self._lock = threading.RLock()
        self._counts: dict[int, int] = {}
        self._words: dict[int, dict[str, int]] = {}
        self._subwords: dict[tuple[int, tuple[int, ...], int], np.ndarray] = {}
        self._siblings: dict[int, _SiblingPlan | None] = {}

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
                    got = {w: i for i, w in enumerate(sorted(self._engine.factors(n)))}
                    self._words[n] = got
                    self._counts[n] = len(got)
        return got

    def subwords(self, n: int, lo: int, width: int) -> np.ndarray:
        return self.windows(n, (lo,), width)[:, 0]

    def windows(self, n: int, starts: tuple[int, ...], width: int) -> np.ndarray:
        key = (n, starts, width)
        got = self._subwords.get(key)
        if got is None:
            with self._lock:
                got = self._subwords.get(key)
                if got is None:
                    position, words = self.words(width), self.words(n)
                    got = np.fromiter((position[w[lo:lo + width]] for w in words for lo in starts),
                                      dtype=np.int32, count=len(words) * len(starts))
                    got = got.reshape(len(words), len(starts))
                    got.flags.writeable = False
                    self._subwords[key] = got
        return got

    def siblings(self, n: int) -> _SiblingPlan | None:
        if n in self._siblings:  # None is a plan too
            return self._siblings[n]
        with self._lock:
            centre = self.subwords(n, 1, n - 2).tolist()
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
            if got is None:
                got = self._counts[n] = self._engine.count(n)
            return got

    def is_admissible(self, word: str) -> bool:
        return word in self.words(len(word))


FIBONACCI_RULES = {"a": "ab", "b": "a"}


def fibonacci_spec() -> SubstitutionSpec:
    """The golden-ratio substitution subshift (a -> ab, b -> a)."""
    return SubstitutionSpec.from_rules(FIBONACCI_RULES, "a")
