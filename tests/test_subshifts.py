import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fullgroup_lab import (
    ConditionViolated,
    EmptyAlphabet,
    ExplicitSpec,
    FullShiftSpec,
    LanguageTable,
    MechanicalPoint,
    ResourceLimit,
    SturmianSpec,
    SubstitutionFixedPoint,
    SubstitutionSpec,
    ToeplitzSpec,
    build_spec,
    fibonacci_spec,
    spec_to_dict,
    toeplitz_word,
)
from fullgroup_lab import errors, subshifts
from fullgroup_lab.subshifts import (
    _FactorIndex,
    _overlap_graph,
    _recurrent_blocks,
    _recurrent_pairs,
    _spell_paths,
    _step_paths,
    _suffix_array,
    growing_letters,
    level_words,
)

from conftest import naive_iterate

FIB = {"a": "ab", "b": "a"}
NONPRIM = {"a": "aba", "b": "bb"}


# --- spec construction -------------------------------------------------------


def test_build_spec_fibonacci_valid():
    spec = build_spec({"variant": "substitution", "rules": FIB, "seed": "a"})
    assert isinstance(spec, SubstitutionSpec)
    assert spec.rules_dict == FIB


def test_build_spec_constant_rule_violates_growth():
    with pytest.raises(ConditionViolated) as err:
        build_spec({"variant": "substitution", "rules": {"a": "a"}, "seed": "a"})
    assert err.value.condition == 2


def test_build_spec_nonprimitive_example_valid():
    spec = build_spec({"variant": "substitution", "rules": NONPRIM, "seed": "a"})
    assert isinstance(spec, SubstitutionSpec)


def test_condition_one_requires_seed_prefix():
    with pytest.raises(ConditionViolated) as err:
        SubstitutionSpec.from_rules({"a": "ba", "b": "ab"}, "a")
    assert err.value.condition == 1


def test_empty_rules_rejected():
    with pytest.raises(EmptyAlphabet):
        SubstitutionSpec.from_rules({}, "a")


def test_unknown_variant_rejected():
    with pytest.raises(EmptyAlphabet):
        build_spec({"variant": "wat"})


def test_sturmian_requires_positive_coefficients():
    with pytest.raises(ConditionViolated, match=r"^Sturmian condition 1 fails: continued "
                       r"fraction coefficients must be >= 1$"):
        SturmianSpec((1, 0, 2))
    with pytest.raises(ConditionViolated, match=r"^Sturmian condition 1 fails: continued "
                       r"fraction list is empty$"):
        SturmianSpec(())


def test_toeplitz_pattern_validation():
    with pytest.raises(ConditionViolated, match=r"^Toeplitz condition 1 fails: pattern must "
                       r"start with a letter, not a hole$") as err:
        ToeplitzSpec("*aab")
    assert err.value.condition == 1
    with pytest.raises(ConditionViolated, match=r"^Toeplitz condition 2 fails: pattern "
                       r"contains no hole to fill$") as err:
        ToeplitzSpec("ab")
    assert err.value.condition == 2
    with pytest.raises(ConditionViolated, match=r"^Toeplitz condition 1 fails: pattern must "
                       r"start with a letter"):
        toeplitz_word("*ab", 4)


@pytest.mark.parametrize(
    "doc",
    [
        {"variant": "sturmian", "cf": [1, 2], "swap_letters": True},
        {"variant": "substitution", "rules": FIB, "seed": "a"},
        {"variant": "toeplitz", "pattern": "a*ab*a", "hole": "*"},
        {"variant": "full_shift", "alphabet": ["a", "b", "c"]},
        {"variant": "explicit", "alphabet": ["a", "b"], "forbidden": ["bb"]},
    ],
)
def test_spec_dict_round_trip(doc):
    spec = build_spec(doc)
    assert build_spec(spec_to_dict(spec)) == spec


def test_each_spec_owns_its_table_outside_equality_hash_and_repr():
    a, b = fibonacci_spec(), fibonacci_spec()
    assert a == b and hash(a) == hash(b)
    assert a.language is not b.language and a.language.spec is a
    assert repr(a) == "SubstitutionSpec(rules=(('a', 'ab'), ('b', 'a')), seed='a')"
    assert spec_to_dict(a) == {"variant": "substitution", "rules": FIB, "seed": "a"}


@pytest.mark.parametrize("make", [FullShiftSpec, lambda letters: ExplicitSpec(letters, ["bb"])])
def test_spec_letters_from_a_list_are_a_tuple(make):
    # letters given as a list hash, and equal the same letters given as a tuple
    from_list, from_tuple = make(["a", "b"]), make(("a", "b"))
    assert from_list.letters == ("a", "b")
    assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
    assert {from_list: 1}[from_tuple] == 1


# --- factor sets -------------------------------------------------------------


def test_fibonacci_factors_length_two(fib_spec):
    # independent oracle: scan a long prefix generated by direct iteration
    word = "a"
    for _ in range(15):
        word = "".join(FIB[c] for c in word)
    oracle = {word[i : i + 2] for i in range(len(word) - 1)}
    assert fib_spec.language.factors(2) == oracle == {"aa", "ab", "ba"}


def test_full_shift_factors_all_words():
    fs = FullShiftSpec(("a", "b"))
    assert len(fs.language.factors(3)) == 8


def test_sturmian_golden_six_factors_of_length_five():
    assert len(SturmianSpec((1,)).language.factors(5)) == 6


def test_factors_memoized_identity(fib_spec):
    # `words` is the one memo, and `factors` is its key view
    assert fib_spec.language.words(7) is fib_spec.language.words(7)
    assert fib_spec.language.factors(7) == fib_spec.language.words(7).keys()


def test_factors_zero_is_empty_word(fib_spec):
    assert fib_spec.language.factors(0) == frozenset({""})


# --- complexity --------------------------------------------------------------


def test_sturmian_complexity_exact():
    spec = SturmianSpec((1,))
    for n in range(1, 64):
        assert spec.language.complexity(n) == n + 1


def test_sturmian_swapped_same_complexity():
    spec = SturmianSpec((2, 1), swap_letters=True)
    for n in range(1, 32):
        assert spec.language.complexity(n) == n + 1


def test_full_shift_complexity_closed_form():
    fs = FullShiftSpec(("a", "b"))
    assert fs.language.complexity(10) == 1024
    assert fs.language.complexity(50) == 2**50


def test_toeplitz_complexity_matches_brute_scan():
    spec = ToeplitzSpec("a*ab*a")
    # oracle: hand-rolled filling as in the definition, then a raw window scan
    base = ("a*ab*a" * 3000)[:18000]
    cur = base
    while "*" in cur:
        filler = iter(cur)
        cur = "".join(next(filler) if c == "*" else c for c in base)
    counts = {n: len({cur[i : i + n] for i in range(12000 - n)}) for n in (1, 2, 3, 4)}
    for n in (1, 2, 3, 4):
        assert spec.language.complexity(n) == counts[n]
    assert spec.language.complexity(4) == 11


def test_golden_mean_shift_matches_transfer_matrix():
    spec = ExplicitSpec(("a", "b"), ("bb",))
    # oracle: count n-words avoiding "bb" by dynamic programming
    # (every locally admissible word extends bi-infinitely here)
    for n in range(1, 14):
        ends_a, ends_b = 1, 1
        for _ in range(n - 1):
            ends_a, ends_b = ends_a + ends_b, ends_a
        assert spec.language.complexity(n) == ends_a + ends_b


def test_sft_with_dead_ends_prunes_non_extendable_words():
    # "a" cannot be continued: both aa and ab are forbidden
    spec = ExplicitSpec(("a", "b"), ("aa", "ab"))
    assert spec.language.factors(1) == frozenset({"b"})
    assert spec.language.factors(3) == frozenset({"bbb"})
    assert spec.language.complexity(20) == 1


def test_empty_sft_language():
    spec = ExplicitSpec(("a",), ("a",))
    assert spec.language.factors(1) == frozenset()
    assert spec.language.factors(0) == frozenset()


def test_complexity_counts_windows_of_a_long_prefix(monkeypatch):
    spec = ToeplitzSpec("a*ab*a")
    table = LanguageTable(spec)
    prefix = toeplitz_word(spec.pattern, 1 << 16)
    for n in (64, 65, 70):
        windows = {prefix[i : i + n] for i in range(len(prefix) - n + 1)}
        assert table.complexity(n) == len(windows)
    # a rising table indexes the recurrent pairs' blocks once for each
    # power of the substitution, 48,885 letters in all to n = 2000 on
    # Fibonacci; a falling table's first index answers every shorter length
    built = []

    class Spy(subshifts._FactorIndex):
        def __init__(self, blocks):
            built.append(sum(map(len, blocks)))
            super().__init__(blocks)

    monkeypatch.setattr(subshifts, "_FactorIndex", Spy)
    for spec, top in ((fibonacci_spec(), 2000), (SubstitutionSpec.from_rules(NONPRIM, "a"), 1000)):
        up, down, built[:] = LanguageTable(spec), LanguageTable(spec), []
        rising = [up.complexity(n) for n in range(1, top + 1)]
        assert sum(built) <= 50_000
        built[:] = []
        assert [down.complexity(n) for n in range(top, 0, -1)] == rising[::-1]
        assert len(built) == 1
    assert rising[:10] == [2, 3, 5, 8, 10, 13, 16, 19, 21, 24]


# --- suffix-array factor index ------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda k: st.text(alphabet="abc"[:k], min_size=1, max_size=300)))
@example("a" * 300)
@example("ab" * 150)
def test_factor_index_matches_brute_force_windows(text):
    # the whole text, and the text cut into three blocks: a window of the
    # blocks never runs across a cut
    cuts = (len(text) // 3, len(text) // 2)
    for blocks in ([text], [text[: cuts[0]], text[cuts[0] : cuts[1]], text[cuts[1] :]]):
        index = _FactorIndex(blocks)
        for n in range(len(text) + 2):
            windows = {b[i : i + n] for b in blocks for i in range(len(b) - n + 1)}
            assert index.count(n) == len(windows)
            assert index.factors(n) == windows


def _common_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of a and b, by bisection on
    slices."""
    lo, hi = 0, min(len(a), len(b))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _lcp_texts():
    rng = random.Random(20_011)
    for k in (1, 2, 3, 17):
        letters = "abcdefghijklmnopq"[:k]
        for size in (1, 2, 49, 50, 63, 64, 700, 5000):
            yield f"random-{k}-{size}", "".join(rng.choices(letters, k=size))
        # a repeat makes long LCPs, so later rounds run over many letters
        half = "".join(rng.choices(letters, k=2500))
        yield f"repeat-{k}", half + half[:-7] + rng.choice(letters) * 7
    yield "ab*b*", toeplitz_word("ab*b*", 5000)
    yield "a*ab*a", toeplitz_word("a*ab*a", 5000)
    yield "fibonacci", naive_iterate(FIB, "a", 21)[:5000]
    for cf in ((2,), (1, 3), (3, 1, 4)):
        word = next(w for w in _standard_words(cf) if len(w) >= 5000)
        yield f"sturmian-{cf}", word[:5000]


def test_suffix_array_lcp_compares_adjacent_sorted_suffixes():
    for name, text in _lcp_texts():
        letters = sorted(set(text))
        dense = text.translate({ord(c): i for i, c in enumerate(letters)})
        sa, lcp = _suffix_array(dense, len(letters))
        assert sa.dtype == lcp.dtype == np.int32
        order = sorted(range(len(text)), key=lambda i: text[i:])
        assert sa.tolist() == order, name
        expected = [-1] * len(text)
        for a, b in zip(order, order[1:]):
            expected[b] = _common_prefix(text[a:], text[b:])
        assert lcp.tolist() == expected, name


def test_tail_filtered_factors_are_windows_of_a_late_tail():
    # the sets stabilize on iterates of 6,144 and 13,312 letters; a much
    # later iterate's tail half must hold exactly the same windows
    spec = SubstitutionSpec.from_rules(NONPRIM, "a")
    word = naive_iterate(NONPRIM, "a", 16)
    tail = word[len(word) // 2 :]
    for n in (50, 100):
        assert spec.language.factors(n) == {tail[i : i + n] for i in range(len(tail) - n + 1)}


# --- the naive iterate, the tests' reference for level words ------------------


def test_naive_iterate_three_steps():
    assert naive_iterate(FIB, "a", 3) == "abaab"


def test_naive_iterate_produces_known_prefix():
    word = naive_iterate(FIB, "a", 10)
    assert word.startswith("abaababaabaababaababa")


def test_naive_iterate_zero_is_seed():
    assert naive_iterate(NONPRIM, "b", 0) == "b"


def test_standard_word_spell_refuses_past_the_text_budget(monkeypatch):
    # the golden slope's length-36 factors are the windows of s_10, which
    # is psi^10(a) of Fibonacci, F_12 = 144 letters
    # and its index, one block, is afforded at 43 bytes a letter
    word = naive_iterate(FIB, "a", 10)
    assert len(word) == 144
    table = LanguageTable(SturmianSpec((1,)))
    assert table.factors(36) == {word[i : i + 36] for i in range(len(word) - 35)}
    assert table._engine._last_index[0] == 10
    need = 144 * (subshifts.TEXT_BYTES + subshifts.BLOCK_BYTES)
    monkeypatch.setattr(errors, "MAX_BYTES", need - 1)
    with pytest.raises(ResourceLimit, match=f"s_10, 144 letters, needs {need} bytes, past the "
                                            f"byte budget of {need - 1} bytes"):
        LanguageTable(SturmianSpec((1,))).factors(36)


# --- level words: the one engine against the naive references -------------------

STURMIAN_CFS = [(1,), (2, 1), (3,), (1, 2, 3), (5, 1, 1), (50,)]


def _standard_words(cf: tuple[int, ...]):
    """Reference: the standard words s_k = s_{k-1}^{a_k} s_{k-2} for k >= 1,
    from s_{-1} = b and s_0 = a, coefficients cycled."""
    prev, cur = "b", "a"
    for a_k in itertools.cycle(cf):
        prev, cur = cur, cur * a_k + prev
        yield cur


LEVEL_RULES = {"fibonacci": FIB, "aba-bb": NONPRIM, "aaaab-a": {"a": "aaaab", "b": "a"},
               "three-letter": {"a": "abc", "b": "bab", "c": "cab"}}
LEVEL_SPECS = {**{name: SubstitutionSpec.from_rules(rules, "a")
                  for name, rules in LEVEL_RULES.items()},
               **{f"sturmian-{cf}-{swap}": SturmianSpec(cf, swap)
                  for cf in STURMIAN_CFS for swap in (False, True)}}


def _naive_level_words(name: str, top: int = 10**5) -> dict[tuple[int, str], str]:
    """Reference: W_j(c) for every level j and letter c whose word has at
    most `top` letters, by the naive iterate or the standard words, the
    letters swapped as the spec says."""
    spec = LEVEL_SPECS[name]
    if isinstance(spec, SubstitutionSpec):
        rules = spec.rules_dict
        levels = itertools.takewhile(
            lambda level: any(len(w) <= top for w in level.values()),
            ({c: naive_iterate(rules, c, j) for c in rules} for j in itertools.count()))
        return {(j, c): w for j, level in enumerate(levels) for c, w in level.items()
                if len(w) <= top}
    flip = str.maketrans("ab", "ba") if spec.swap_letters else {}
    standard = ["b", "a"] + list(itertools.takewhile(lambda w: len(w) <= top,
                                                     _standard_words(spec.cf)))
    return {(k, c): w.translate(flip) for k in range(len(standard) - 1)
            for c, w in (("a", standard[k + 1]), ("b", standard[k]))}


NAIVE_LEVEL_WORDS = {name: _naive_level_words(name) for name in LEVEL_SPECS}


@pytest.mark.parametrize("name", sorted(LEVEL_SPECS))
def test_level_words_spell_the_naive_words(name):
    # every whole word of at most 10^5 letters, and its integer length
    levels = level_words(LEVEL_SPECS[name])
    naive = NAIVE_LEVEL_WORDS[name]
    assert max(map(len, naive.values())) > 2000
    for (j, c), word in naive.items():
        assert levels.lengths[j][c] == len(word), (j, c)
        assert levels.spell(j, c, 0, len(word)) == word, (j, c)
        assert levels.words[j].get(c, word) == word
        assert (c in levels.words[j]) == (len(word) <= subshifts.SPELLED)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(LEVEL_SPECS)), st.data())
def test_level_word_slices_match_the_naive_words(name, data):
    (j, c), word = data.draw(st.sampled_from(sorted(NAIVE_LEVEL_WORDS[name].items())))
    s = data.draw(st.integers(min_value=0, max_value=len(word)))
    e = data.draw(st.integers(min_value=s, max_value=len(word)))
    assert level_words(LEVEL_SPECS[name]).spell(j, c, s, e) == word[s:e]


@pytest.mark.parametrize("name", sorted(LEVEL_RULES))
def test_recurrent_blocks_are_the_naive_blocks(name):
    # the index text is psi^k(c) + psi^k(d)[:b - 1] for each recurrent pair,
    # each closed by a separator, k least with b >= n
    spec = LEVEL_SPECS[name]
    rules, levels = spec.rules_dict, level_words(spec)
    pairs = _recurrent_pairs(rules, "a")
    images = [{c: c for c in rules}]
    for n in range(1, 201):
        while min(len(images[-1][c]) for c in "".join(pairs)) < n:
            images.append({c: naive_iterate(rules, w, 1) for c, w in images[-1].items()})
        image = images[-1]
        bound = min(len(image[c]) for c in "".join(pairs))
        got, index = _recurrent_blocks(spec, levels, n)
        assert got == bound
        assert index.text == "".join(image[c] + image[d][: bound - 1] + "\0" for c, d in pairs)


@pytest.mark.parametrize("cf", STURMIAN_CFS)
def test_sturmian_rules_iterate_the_standard_words(cf, sturmian_rules):
    # the k-th iterate of a under the one-period composition, the points'
    # reference, is the (k m)-th standard word, as the level words spell it
    rules = sturmian_rules(cf)
    words = list(itertools.islice(_standard_words(cf), 3 * len(cf)))
    standard, swapped = level_words(SturmianSpec(cf)), level_words(SturmianSpec(cf, True))
    assert (standard.words[0], swapped.words[0]) == ({"a": "a", "b": "b"}, {"a": "b", "b": "a"})
    for k in (1, 2, 3):
        word = naive_iterate(rules, "a", k)
        j = k * len(cf)
        assert word == words[j - 1] == standard.spell(j, "a", 0, standard.lengths[j]["a"])
        assert swapped.spell(j, "a", 0, len(word)) == word.translate(str.maketrans("ab", "ba"))


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("cf", STURMIAN_CFS)
def test_sturmian_language_matches_standard_word_windows(cf, swap):
    word = next(w for w in _standard_words(cf) if len(w) >= 20_000)
    if swap:
        word = word.translate(str.maketrans("ab", "ba"))
    reference = _FactorIndex([word])
    table = LanguageTable(SturmianSpec(cf, swap))
    for n in range(1, 401):
        assert table.complexity(n) == reference.count(n) == n + 1
    for n in (1, 2, 7, 60, 400):
        assert table.factors(n) == {word[i : i + n] for i in range(len(word) - n + 1)}


def test_sturmian_huge_coefficient_is_refused_before_its_text():
    # the second standard word of [100000] has about 10^10 letters: counts
    # need no text, and s_1 = a^100000 b holds the factors of length 1 but
    # not those of length 2
    table = LanguageTable(SturmianSpec((100000,)))
    assert [table.complexity(n) for n in (1, 5, 10**12)] == [2, 6, 10**12 + 1]
    assert table.factors(1) == {"a", "b"}
    for _ in range(2):  # the refusal holds for every later query too
        with pytest.raises(ResourceLimit, match="s_2, 10000100001 letters, needs"):
            table.factors(2)


def test_sturmian_counts_read_no_text(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Sturmian count read generated text")

    monkeypatch.setattr(subshifts, "_FactorIndex", refuse)
    monkeypatch.setattr(subshifts.LevelWords, "spell", refuse)
    for cf in STURMIAN_CFS + [(3, 1, 4, 1, 5, 9, 2, 6)]:
        table = LanguageTable(SturmianSpec(cf))
        assert [table.complexity(n) for n in range(2001)] == list(range(1, 2002))


def test_sturmian_factors_are_the_windows_of_a_standard_word(monkeypatch):
    # s_8 of this period has 21,164 letters, too few for 11,001 windows of
    # length 11,000; s_9 (66,761 letters) holds them, within a budget of
    # 130,000,000 bytes, most of it for the words themselves, while the next
    # iterate of the one-period substitution would pass 2.4e8 letters
    cf = (3, 1, 4, 1, 5, 9, 2, 6)
    word = next(w for w in _standard_words(cf) if len(w) > 50_000)
    monkeypatch.setattr(errors, "MAX_BYTES", 130_000_000)
    table = LanguageTable(SturmianSpec(cf))
    assert table.complexity(11_000) == 11_001
    assert table.factors(11_000) == {word[i : i + 11_000] for i in range(len(word) - 10_999)}


def test_sturmian_long_period_starts_from_the_first_standard_word():
    # one period of (1, 2, ..., 11) spells about 8.3e7 letters; s_1 = ab
    # already holds both letters
    table = LanguageTable(SturmianSpec(tuple(range(1, 12))))
    assert table.complexity(1) == 2 and table.factors(1) == {"a", "b"}


# --- Toeplitz words -----------------------------------------------------------


def test_toeplitz_word_reference_prefix():
    assert toeplitz_word("a*ab*a", 24) == "aaabaaaaabbaaaabaaaaabaa"


def test_toeplitz_word_without_holes_is_periodic():
    assert toeplitz_word("ab", 6) == "ababab"


def test_toeplitz_word_two_round_example():
    # oracle: simulate the fill rounds by hand for a*b
    base = ("a*b" * 3)[:8]           # a*ba*ba*
    round1 = []
    filler = iter(base)
    for c in base:
        round1.append(next(filler) if c == "*" else c)
    round1 = "".join(round1)          # holes filled from the periodic word itself
    round2 = []
    filler = iter(round1)
    for c in base:
        round2.append(next(filler) if c == "*" else c)
    round2 = "".join(round2)
    assert "*" not in round2
    assert toeplitz_word("a*b", 8) == round2 == "aabaabab"


def _toeplitz_word_by_loop(pattern: str, length: int, hole: str = "*") -> str:
    """The left-to-right reference: the k-th hole sits at a position beyond
    k, because the pattern starts with a letter, so its filler is already
    written when the hole is reached."""
    word: list[str] = []
    filled = 0
    for c in itertools.islice(itertools.cycle(pattern), length):
        if c == hole:
            c = word[filled]
            filled += 1
        word.append(c)
    return "".join(word)


def _level_starts(pattern: str, hole: str, limit: int) -> list[int]:
    """The shortest length with one, two, three, ... levels of holes: the
    next starts one past the hole that the previous start's letter fills."""
    holes = [i for i, c in enumerate(pattern) if c == hole]
    starts = [1]
    while holes and starts[-1] <= limit:
        j = starts[-1] - 1
        starts.append(j // len(holes) * len(pattern) + holes[j % len(holes)] + 1)
    return starts


@pytest.mark.parametrize("pattern, hole", [
    ("ab", "*"), ("aab", "*"),  # no hole
    ("a*", "*"), ("ab*a", "*"),  # one hole
    ("ab*b*", "*"), ("a*ab*a", "*"),
    ("a**b*", "*"), ("é*€**", "*"), ("𝄞?b??", "?"),  # three holes, non-ASCII letters
])
def test_toeplitz_word_equals_the_left_to_right_loop(pattern, hole):
    starts = _level_starts(pattern, hole, 100_000)
    lengths = set(range(1, 60)) | {s + d for s in starts for d in (-1, 0, 1) if s + d >= 1}
    for length in sorted(lengths):
        assert toeplitz_word(pattern, length, hole) == _toeplitz_word_by_loop(
            pattern, length, hole), length


def test_toeplitz_word_refusals():
    with pytest.raises(ValueError, match="length must be >= 1"):
        toeplitz_word("ab*", 0)
    with pytest.raises(EmptyAlphabet, match="empty Toeplitz pattern"):
        toeplitz_word("", 5)
    with pytest.raises(ConditionViolated, match="Toeplitz condition 1 fails"):
        toeplitz_word("*ab", 5)


def test_toeplitz_word_prefix_stability():
    long = toeplitz_word("a*ab*a", 600)
    assert toeplitz_word("a*ab*a", 200) == long[:200]


# --- Toeplitz languages by the hole recursion ----------------------------------

# gcd(p, q) = 1, 2, 3 and 4, adjacent holes, more factors of 2 in q than in
# p, two patterns whose period is not essential (their words are periodic),
# so their counts are spelled sets at every length, and the square of ab*
TOEPLITZ_PATTERNS = ["ab*b*", "a*ab*a", "ab**b*", "a*b*", "a**b", "ab*a*b**", "a****b",
                     "ab**", "a**", "ab*ab*"]


@pytest.mark.parametrize("pattern", TOEPLITZ_PATTERNS)
def test_toeplitz_language_equals_the_windows_of_a_long_prefix(pattern):
    # 400,000 letters hold every factor to length 40 of these patterns; a
    # prefix that short misses factors of a****b from length 50 (and of
    # ab*** from 28, of abc*a**c* from 11), which 4,000,000 letters hold
    prefix = toeplitz_word(pattern, 400_000)
    longest = {prefix[i : i + 40] for i in range(len(prefix) - 39)}
    counted, spelled = LanguageTable(ToeplitzSpec(pattern)), LanguageTable(ToeplitzSpec(pattern))
    for n in range(41):
        windows = {w[:n] for w in longest}
        assert counted.complexity(n) == len(windows), n
        assert spelled.factors(n) == windows, n


@pytest.mark.parametrize("pattern, m0, carried", [("ab*b*", 5, (8, 12, 18, 32)),
                                                   ("a*ab*a", 6, ())])
def test_toeplitz_counts_add_only_from_the_first_disjoint_length(pattern, m0, carried):
    # from m0 on the branches B_r are disjoint and counts add; one length
    # earlier two of them overlap, and adding overcounts there.  On ab*b*
    # (one class) the overcount carries to the lengths whose recursion
    # passes through length 4; on a*ab*a the two branches that overlap at
    # length 5 lie in different classes, so the class counts stay exact
    exact = LanguageTable(ToeplitzSpec(pattern))
    exact.complexity(40)
    assert exact._engine.m0 == m0
    forced = subshifts._ToeplitzLanguage(pattern, "*")
    forced.m0 = m0 - 1
    over = [n for n in range(m0 - 1, 41) if forced.count(n) != exact.complexity(n)]
    assert all(forced.count(n) > exact.complexity(n) for n in over)
    assert over[0] == m0 - 1 and set(carried) <= set(over)
    assert len(over) > 1 if carried else over == [m0 - 1]


def test_a_toeplitz_pattern_power_is_counted_as_its_root():
    # the branches of ab*ab* at r and r + 3 are equal at every length; read
    # as ab* it comes apart at 3, and counts by the recursion, not by
    # spelled sets
    square, root = LanguageTable(ToeplitzSpec("ab*ab*")), LanguageTable(ToeplitzSpec("ab*"))
    assert [square.complexity(n) for n in range(301)] == [root.complexity(n) for n in range(301)]
    assert (square._engine.pattern, square._engine.m0) == ("ab*", 3)
    assert max(square._engine._sizes) == 3  # spelled to m0 only


def test_toeplitz_first_disjoint_length_is_found_when_twice_it_passes_the_cap(monkeypatch):
    # a****b first comes apart at 16.  The doubling steps try lengths 1, 3,
    # 7, 15 and 31, and under a budget of 4,000,000 bytes the sets of length
    # 31 are refused while those to length 21 are not
    exact = LanguageTable(ToeplitzSpec("a****b"))
    expected = [exact.complexity(n) for n in (16, 32, 100)]
    monkeypatch.setattr(errors, "MAX_BYTES", 4_000_000)
    table = LanguageTable(ToeplitzSpec("a****b"))
    assert [table.complexity(n) for n in (100, 32, 16)] == expected[::-1]
    assert table._engine.m0 == 16
    with pytest.raises(ResourceLimit, match="length 32 needs"):
        table.factors(32)


def test_toeplitz_queries_generate_and_index_no_text(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a Toeplitz query read generated text")

    for name in ("_FactorIndex", "toeplitz_word"):
        monkeypatch.setattr(subshifts, name, refuse)
    monkeypatch.setattr(subshifts.LevelWords, "spell", refuse)
    for pattern in TOEPLITZ_PATTERNS:
        table = LanguageTable(ToeplitzSpec(pattern))
        assert [table.complexity(n) for n in range(1, 69)]
        assert all(table.words(n) for n in range(13))
    table = LanguageTable(ToeplitzSpec("ab*b*"))
    assert table.complexity(1000) == 213_625


@pytest.mark.parametrize("pattern, lengths", [("ab*b*", (2000, 10**12)),
                                             ("a**", (2**29, 10**12)),
                                             ("ab**", (2**28, 10**9))])
def test_toeplitz_factor_sets_are_refused_by_their_count_before_any_is_spelled(pattern,
                                                                                lengths):
    # a** and ab** have no m0: their counts are flat from length 0 and 1 on,
    # so a fresh table refuses them with no doubling search up to the budget
    table = LanguageTable(ToeplitzSpec(pattern))
    tracemalloc.start()
    try:
        for n in lengths:
            assert subshifts._word_bytes(table.complexity(n), n) > errors.MAX_BYTES
            with pytest.raises(ResourceLimit, match=f"length {n} needs"):
                table.factors(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("pattern, flat, rho, reach", [("a**", 0, 1, 1), ("ab**", 1, 2, 3)])
def test_toeplitz_counts_of_a_periodic_word_are_flat_from_a_repeated_count(pattern, flat,
                                                                           rho, reach):
    # their branches never come apart; the first doubling step whose count
    # repeats the one before certifies every longer count (fact 4), so a
    # fresh table answers 10^12 from the lengths to 1 or 3 alone
    deep = LanguageTable(ToeplitzSpec(pattern))
    assert deep.complexity(10**12) == rho
    language = deep._engine
    assert (language.m0, language.flat, max(language._sizes)) == (None, flat, reach)
    table = LanguageTable(ToeplitzSpec(pattern))
    prefix = toeplitz_word(pattern, 10_000)
    for n in range(1, 301):
        assert table.complexity(n) == len({prefix[i : i + n] for i in range(5000)}), n
    assert max(table._engine._sizes) == flat + 1
    for pattern in ("ab*b*", "a****b", "ab*ab*", "a*b*"):
        language = LanguageTable(ToeplitzSpec(pattern))._engine
        assert language.count(60) > 60 and language.flat is None


def test_toeplitz_spelled_sets_kept_stay_within_a_quarter_of_the_cap(monkeypatch):
    # a****b spells every length to its m0 = 16 and more to list factors,
    # 41.9 million bytes of sets kept under the whole budget; under a budget
    # of 32,000,000 bytes the sets kept hold at most 8,000,000, the oldest
    # dropped first, and counts and factor sets do not change
    exact = LanguageTable(ToeplitzSpec("a****b"))
    counts = [exact.complexity(n) for n in range(1, 61)]
    words = [exact.words(n) for n in range(41)]
    monkeypatch.setattr(errors, "MAX_BYTES", 32_000_000)
    table = LanguageTable(ToeplitzSpec("a****b"))
    language, spelled = table._engine, set()
    for n in range(1, 61):
        assert table.complexity(n) == counts[n - 1], n
        if n <= 40:
            assert table.words(n) == words[n], n
        spelled |= language._sets.keys()
        assert language._held == sum(subshifts._word_bytes(sum(map(len, sets)), k)
                                     for k, sets in language._sets.items())
        assert language._held <= 8_000_000
    assert spelled - language._sets.keys()  # some were dropped


# --- language invariants ------------------------------------------------------

ALL_SPECS = [
    SturmianSpec((1,)),
    SturmianSpec((2, 1)),
    fibonacci_spec(),
    SubstitutionSpec.from_rules(NONPRIM, "a"),
    ToeplitzSpec("a*ab*a"),
    FullShiftSpec(("a", "b")),
    ExplicitSpec(("a", "b"), ("bb",)),
]
SPEC_IDS = ["golden", "silver-ish", "fibonacci", "nonprimitive", "toeplitz", "full", "golden-mean"]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_factor_closure_and_extension(spec):
    for n in range(1, 9):
        level = spec.language.factors(n)
        below = spec.language.factors(n - 1)
        for w in level:
            assert w[:-1] in below and w[1:] in below
        # every admissible word extends one letter on each side
        assert level == {u[1:-1] for u in spec.language.factors(n + 2)}


@pytest.mark.parametrize("spec", ALL_SPECS, ids=SPEC_IDS)
def test_complexity_nondecreasing(spec):
    values = [spec.language.complexity(n) for n in range(9)]
    assert values[0] == 1
    assert all(a <= b for a, b in zip(values, values[1:]))
    # each engine's count path and spell path, on tables that share no memo
    counted, spelled = LanguageTable(spec), LanguageTable(spec)
    for n in range(13):
        assert counted.complexity(n) == len(spelled.words(n)), n


def test_substitution_nlogn_envelope(fib_spec):
    # rho(n) <= C n log n with one fitted constant over the whole range
    ns = range(2, 201)
    c_fib = max(fib_spec.language.complexity(n) / (n * math.log(n)) for n in ns)
    assert c_fib < 10
    nonprim = SubstitutionSpec.from_rules(NONPRIM, "a")
    c_np = max(nonprim.language.complexity(n) / (n * math.log(n)) for n in ns)
    assert c_np < 10


def test_primitive_substitution_linear_envelope(fib_spec):
    c = max(fib_spec.language.complexity(n) / n for n in range(1, 201))
    assert c <= 2.0  # rho(n) = n + 1


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=3),
    st.integers(min_value=1, max_value=6),
)
def test_sft_factor_closure_random(forbidden, n):
    spec = ExplicitSpec(("a", "b"), tuple(forbidden))
    level = spec.language.factors(n)
    below = spec.language.factors(n - 1)
    for w in level:
        assert w[:-1] in below and w[1:] in below


# The set scan that enumerated SFT factors before the overlap graph, kept as
# the reference: every clean word of length max(n, k), pruned to the
# bi-extendable ones at that length, then cut down to length n.


def _sft_factors(spec, n):
    alpha = spec.letters
    m = max((len(f) for f in spec.forbidden), default=1)
    k = max(n, m, 1)

    def clean(w):
        return not any(w.endswith(f) for f in spec.forbidden if len(f) <= len(w))

    words = {""}
    for _ in range(k):
        words = {w + c for w in words for c in alpha if clean(w + c)}
        if not words:
            return frozenset()
    words = _prune_biextendable(words)
    if not words:
        return frozenset()
    return frozenset(w[i : i + n] for w in words for i in range(k - n + 1))


def _prune_biextendable(words):
    while True:
        prefixes = {w[:-1] for w in words}
        suffixes = {w[1:] for w in words}
        kept = {w for w in words if w[1:] in prefixes and w[:-1] in suffixes}
        if kept == words:
            return words
        words = kept


def _sft_count(spec, n):
    # path counting on the graph of pruned k-words, k the longest forbidden length
    k0 = max(max((len(f) for f in spec.forbidden), default=1), 1)
    if n <= k0:
        return len(_sft_factors(spec, n))
    vertices = sorted(_sft_factors(spec, k0))
    index = {w: i for i, w in enumerate(vertices)}
    succ = [[index[w[1:] + c] for c in spec.letters if w[1:] + c in index] for w in vertices]
    counts = [1] * len(vertices)
    for _ in range(n - k0):
        nxt = [0] * len(vertices)
        for i, targets in enumerate(succ):
            for j in targets:
                nxt[j] += counts[i]
        counts = nxt
    return sum(counts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.tuples(
    st.just(tuple(letters)),
    st.sets(st.text(alphabet=letters, min_size=1, max_size=4), max_size=5),
)))
@example((("a",), {"a"}))  # the empty language
@example((("a", "b"), {"aa", "ab"}))  # 'a' is a dead end
@example((("a", "b"), {"ab", "ba"}))  # two fixed points, no word joins them
@example((("a", "b", "c"), {"ac", "cb", "bab", "ccc"}))
def test_sft_overlap_graph_matches_the_set_scan(case):
    letters, forbidden = case
    spec = ExplicitSpec(letters, tuple(forbidden))
    table = LanguageTable(spec)
    for n in range(9):
        assert table.factors(n) == _sft_factors(spec, n)
        assert LanguageTable(spec).complexity(n) == _sft_count(spec, n)


def test_sft_complexity_table_steps_one_count_vector(monkeypatch):
    # one table's counts to n = 300 step one path-count vector forward, 297
    # steps past the vertex length 3 in all, and each length passed on the
    # way is memoized; the counts equal the spelled factor sets where those
    # are small and the per-n recount everywhere
    spec = ExplicitSpec(("a", "b", "c"), ("ac", "cb", "bab", "ccc"))
    table = LanguageTable(spec)
    steps = []
    step = _step_paths
    monkeypatch.setattr("fullgroup_lab.subshifts._step_paths",
                        lambda graph, paths: steps.append(1) or step(graph, paths))
    top = table.complexity(300)
    counts = [table.complexity(n) for n in range(301)]
    assert len(steps) == 300 - 3 and counts[300] == top
    for n, count in enumerate(counts):
        if count <= 10_000:
            assert count == len(_spell_paths(table._engine._graph, n))
        assert count == _sft_count(spec, n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["ab", "abc"]).flatmap(lambda letters: st.tuples(
    st.just(tuple(letters)),
    st.sets(st.text(alphabet=letters, min_size=1, max_size=4), max_size=5),
)))
@example((("a", "b"), {"bb"}))
@example((("a", "b", "c"), {"ac", "cb", "bab", "ccc"}))
def test_sft_graph_levels_are_counted_exactly(case):
    # the words of each length up to the longest forbidden one that avoid
    # every forbidden word, spelled by the reference, and then a successor
    # list of one word a letter after each of the longest: each is afforded,
    # in that order, before it is built
    letters, forbidden = case
    spec = ExplicitSpec(letters, tuple(forbidden))
    k = max(map(len, forbidden), default=1)
    sizes = [sum(not any(f in "".join(w) for f in forbidden)
                 for w in itertools.product(letters, repeat=m)) for m in range(1, k + 1)]
    counts = [*enumerate(sizes, 1), (k, sizes[-1] * len(letters))]
    needs, calls = [subshifts._word_bytes(c, m) + m * subshifts.SPELL_BYTES
                    for m, c in counts], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(subshifts, "afford", lambda nbytes, what: calls.append(nbytes))
        _overlap_graph(spec)
    assert calls == needs


def test_sft_graph_level_past_the_word_cap_is_refused_before_it_is_built():
    # 3,000 letters with aaa forbidden: the 9,000,000 words of length 2 are
    # counted from the 3,000 of length 1, and refused by the byte budget
    # before any is built
    spec = ExplicitSpec(tuple(chr(ord("a") + i) for i in range(3000)), ("aaa",))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="the SFT graph's level of length 2 needs"):
            spec.language.complexity(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sft_factors_are_refused_by_their_letters_before_any_is_spelled(monkeypatch):
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match=f"spells more than {subshifts.MAX_PATH_LETTERS} "
                                            "letters"):
        ExplicitSpec(("a", "b"), ("b",)).language.factors(10**12)
    assert time.perf_counter() - start < 1.0
    # one path: a single word, whose letters still pass the path-letter cap
    monkeypatch.setattr(subshifts, "MAX_PATH_LETTERS", 32)
    table = LanguageTable(ExplicitSpec(("a", "b"), ("b",)))
    assert table.factors(32) == {"a" * 32}
    with pytest.raises(ResourceLimit, match="length 33 spells more than 32 letters"):
        table.factors(33)
    monkeypatch.undo()
    # the words are afforded too: on the golden mean shift a budget that
    # holds the 8 words of length 4 refuses the 13 of length 5
    monkeypatch.setattr(errors, "MAX_BYTES",
                        subshifts._word_bytes(8, 4) + 4 * subshifts.SPELL_BYTES)
    table = LanguageTable(ExplicitSpec(("a", "b"), ("bb",)))
    assert len(table.factors(4)) == 8
    with pytest.raises(ResourceLimit, match="the SFT factor set of length 5 needs"):
        table.factors(5)


@st.composite
def growing_substitutions(draw):
    image_a = draw(st.text(alphabet="ab", min_size=1, max_size=3))
    image_b = draw(st.text(alphabet="ab", min_size=1, max_size=3))
    return {"a": "a" + image_a, "b": image_b}


@settings(max_examples=30, deadline=None)
@given(growing_substitutions(), st.integers(min_value=1, max_value=5))
def test_substitution_factor_closure_random(rules, n):
    try:
        spec = SubstitutionSpec.from_rules(rules, "a")
    except ConditionViolated:
        return
    level = spec.language.factors(n)
    assert level
    below = spec.language.factors(n - 1)
    for w in level:
        assert w[:-1] in below and w[1:] in below


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4))
def test_sturmian_complexity_random_slopes(cf):
    spec = SturmianSpec(tuple(cf))
    for n in (1, 2, 5, 9):
        assert spec.language.complexity(n) == n + 1


# --- recurrent factors of substitutions ---------------------------------------


def test_tail_filter_agrees_for_primitive(fib_spec):
    # every factor of the Fibonacci word recurs, so the language is all the
    # windows of an iterate
    word = naive_iterate(FIB, "a", 20)
    for n in range(1, 9):
        assert fib_spec.language.factors(n) == {word[i : i + n] for i in range(len(word) - n + 1)}


def test_tail_filter_flags_prefix_only_factors():
    # a -> ab, b -> bb collapses to the all-b sequence; the letter 'a'
    # occurs once in the generated word and must not enter the language
    spec = SubstitutionSpec.from_rules({"a": "ab", "b": "bb"}, "a")
    assert "ab" in naive_iterate(spec.rules_dict, "a", 3)
    assert spec.language.factors(2) == frozenset({"bb"})
    assert spec.language.factors(3) == frozenset({"bbb"})


def test_tail_saturation_compares_sets_not_counts():
    # the tail halves "b", "cc", "aaaa" of the first iterates hold one letter
    # each, a different one each time: all three letters recur
    spec = SubstitutionSpec.from_rules({"a": "ab", "b": "cc", "c": "aa"}, "a")
    assert spec.language.factors(1) == frozenset("abc")
    assert spec.language.complexity(1) == 3


def test_nonprimitive_language_facts():
    spec = SubstitutionSpec.from_rules(NONPRIM, "a")
    assert "aa" not in spec.language.factors(2)
    for k in range(1, 9):
        assert "b" * k in spec.language.factors(k)
    # here every factor of the generated word recurs (prefixes reoccur)
    word = naive_iterate(NONPRIM, "a", 12)
    assert spec.language.factors(4) == {word[i : i + 4] for i in range(len(word) - 3)}


def test_non_primitive_substitutions_count_every_recurrent_letter_and_pair():
    # a recurs in the fixed point of a -> aabb, b -> bbb (psi^k(a) holds 2^k
    # of them), and cb in that of a -> abc, b -> bb, c -> cc
    assert SubstitutionSpec.from_rules({"a": "aabb", "b": "bbb"}, "a").language.complexity(1) == 2
    spec = SubstitutionSpec.from_rules({"a": "abc", "b": "bb", "c": "cc"}, "a")
    assert spec.language.factors(2) == {"bb", "bc", "cb", "cc"}


def _late_windows(rules, top, size=200_000):
    """Reference: for n <= top, the length-n windows at positions of at
    least sqrt(L) in the iterate of a of L >= `size` letters."""
    word = "a"
    while len(word) < size:
        word = naive_iterate(rules, word, 1)
    tail = word[math.isqrt(len(word)) :]
    longest, end = {tail[i : i + top] for i in range(len(tail) - top + 1)}, tail[-top:]
    return [{w[:n] for w in longest} | {end[i : i + n] for i in range(top - n + 1)}
            for n in range(top + 1)]


def _growing_letters_by_components(rules):
    """Reference: the growing letters by strongly connected components of
    the surviving letters, as decided before the one-cycle rule: a letter
    grows iff it reaches a component that feeds two or more surviving
    letters back into itself, or a walk through two distinct cycles."""
    mortal, changed = set(), True
    while changed:
        changed = False
        for a, image in rules.items():
            if a not in mortal and all(c in mortal for c in image):
                mortal.add(a)
                changed = True
    live = set(rules) - mortal
    adj = {a: Counter(c for c in rules[a] if c in live) for a in live}
    reach = {}
    for a in live:
        seen, frontier = set(), set(adj[a])
        while frontier:
            seen |= frontier
            frontier = {c for b in frontier for c in adj[b]} - seen
        reach[a] = seen
    cyclic = {a for a in live if a in reach[a]}

    def same_scc(u, v):
        return u == v or (v in reach[u] and u in reach[v])

    expanding = set()
    for u in cyclic:
        scc = {v for v in cyclic if same_scc(u, v)}
        if any(sum(m for w, m in adj[v].items() if w in scc) >= 2 for v in scc):
            expanding.add(u)
    growing = set()
    for b in live:
        hit = {u for u in reach[b] | {b} if u in cyclic}
        if hit & expanding or any(v in reach[u] and not same_scc(u, v)
                                  for u in hit for v in hit):
            growing.add(b)
    return growing


def test_growing_letters_match_the_component_rule_on_every_small_substitution():
    # every substitution of 2 letters with images of at most 4 letters, and
    # of 3 letters with images of at most 2: 31^2 + 13^3 = 3,158 cases
    cases = 0
    for letters, longest in (("ab", 4), ("abc", 2)):
        images = ["".join(w) for size in range(longest + 1)
                  for w in itertools.product(letters, repeat=size)]
        for chosen in itertools.product(images, repeat=len(letters)):
            rules = dict(zip(letters, chosen))
            assert growing_letters(rules) == _growing_letters_by_components(rules), rules
            cases += 1
    assert cases == 3158


@st.composite
def growing_rules(draw):
    """A substitution on two or three letters whose letters all grow, and
    whose image of a starts with a."""
    letters = "abc"[: draw(st.integers(min_value=2, max_value=3))]
    rules = {c: draw(st.text(alphabet=letters, min_size=1, max_size=3)) for c in letters}
    rules["a"] = "a" + rules["a"]
    assume(growing_letters(rules) == set(letters))
    return rules


@settings(max_examples=25, deadline=None)
@given(growing_rules())
@example({"a": "aabb", "b": "bbb"})
@example({"a": "abc", "b": "bb", "c": "cc"})
def test_substitution_language_equals_the_windows_of_a_late_tail(rules):
    table = SubstitutionSpec.from_rules(rules, "a").language
    for n, windows in enumerate(_late_windows(rules, 9)):
        assert table.factors(n) == windows, n
        assert table.complexity(n) == len(windows), n


# --- text budgets and thread safety -------------------------------------------


def test_recurrent_blocks_past_the_text_budget_are_refused(monkeypatch):
    # with their separators, the blocks for lengths 33 to 64 (under psi^6)
    # hold 576 letters, whose index needs 20,672 bytes, past 8,600
    monkeypatch.setattr(errors, "MAX_BYTES", 8600)
    table = LanguageTable(SubstitutionSpec.from_rules(NONPRIM, "a"))
    with pytest.raises(ResourceLimit, match="psi\\^6, 576 letters, needs 20672 bytes, past the "
                                            "byte budget of 8600 bytes"):
        table.factors(40)


def test_length_past_the_text_budget_is_refused_before_any_text():
    # blocks within the byte budget would fill megabytes; those of a length
    # past 2^24 letters hold more, at 27 bytes a letter of their index
    table = LanguageTable(fibonacci_spec())
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="past the byte budget"):
            table.complexity(10**12)
        with pytest.raises(ResourceLimit, match="past the byte budget"):
            table.factors(2**24 + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_steep_substitution_blocks_past_the_text_budget_are_refused(monkeypatch):
    # with their separators, the blocks for lengths 6 to 21 hold 262
    # letters, whose index needs 8,834 bytes, past 8,600
    monkeypatch.setattr(errors, "MAX_BYTES", 8600)
    table = LanguageTable(SubstitutionSpec.from_rules({"a": "aaaab", "b": "a"}, "a"))
    for n in (20, 21):
        with pytest.raises(ResourceLimit, match="262 letters, needs 8834 bytes"):
            table.factors(n)


def test_full_shift_cap_is_decided_without_the_power(monkeypatch):
    # 2^(10^12) would need about 125 GB; the budget is compared with 2^64
    # words instead
    table = LanguageTable(FullShiftSpec(("a", "b")))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match=f"full-shift factor set of length {10**12} needs"):
        table.factors(10**12)
    assert time.perf_counter() - start < 1.0
    assert LanguageTable(FullShiftSpec(("a", "b", "c"))).complexity(1024) == 3**1024
    # under a budget that just holds the 8 words of length 3, the 16 of
    # length 4 are refused
    need = subshifts._word_bytes(8, 3) + 3 * subshifts.SPELL_BYTES
    monkeypatch.setattr(errors, "MAX_BYTES", need)
    table = LanguageTable(FullShiftSpec(("a", "b")))
    assert len(table.factors(3)) == 8
    with pytest.raises(ResourceLimit, match="length 4 needs"):
        table.factors(4)
    # one letter's one word is afforded with its letters in flight
    longest = (need - subshifts.WORD_BYTES) // (1 + subshifts.SPELL_BYTES)
    table = LanguageTable(FullShiftSpec(("a",)))
    assert table.factors(longest) == {"a" * longest}
    with pytest.raises(ResourceLimit, match=f"length {longest + 1} needs"):
        table.factors(longest + 1)


def test_full_shift_and_sft_counts_are_refused_past_the_count_bits():
    # 2^n has n + 1 bits and the golden-mean memo to n about n^2 / 2 bits:
    # past MAX_COUNT_BITS both are refused before any power or step is made
    full = LanguageTable(FullShiftSpec(("a", "b")))
    golden = LanguageTable(ExplicitSpec(("a", "b"), ("bb",)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimit, match=f"more than {subshifts.MAX_COUNT_BITS} bits"):
        full.complexity(10**22)
    with pytest.raises(ResourceLimit, match=f"more than {subshifts.MAX_COUNT_BITS} bits"):
        golden.complexity(10**6)
    assert time.perf_counter() - start < 1.0
    assert golden._engine._paths is None
    # one letter's powers are all 1; and the lengths a CLI table reaches
    # before its cells pass 4,300 digits, 14,285 and 20,576, are counted
    assert LanguageTable(FullShiftSpec(("a",))).complexity(10**22) == 1
    assert full.complexity(14_285) == 2**14_285
    fib = [1, 1]
    while len(fib) < 21_002:
        fib.append(fib[-1] + fib[-2])
    assert golden.complexity(21_000) == fib[-1]


def test_lengths_within_the_text_budget_are_unchanged(monkeypatch):
    # with their separators, the blocks for lengths 145 to 233 hold 1,686
    # letters, whose index needs 55,282 bytes, and those for 234 to 377 hold
    # 2,728, whose index needs 89,448, past 86,000
    monkeypatch.setattr(errors, "MAX_BYTES", 86_000)
    table = LanguageTable(fibonacci_spec())
    assert [table.complexity(n) for n in range(1, 234)] == list(range(2, 235))
    with pytest.raises(ResourceLimit, match="psi\\^13, 2728 letters, needs 89448 bytes"):
        table.complexity(234)


def test_the_text_budget_bounds_languages_not_points(monkeypatch):
    # under a budget of 30,100 bytes, 700 letters of one block: psi^16(a)
    # passes it at psi^14 (987 letters) and s_15 of the golden slope has
    # 1,597 letters, but a point reads its level words and spells only what
    # it returns; the Fibonacci blocks under psi^10 serve lengths to F_11 =
    # 89 in 644 letters, an index of 21,116 bytes, while those under psi^11
    # hold 1,042, an index of 34,166
    monkeypatch.setattr(errors, "MAX_BYTES", 30_100)
    refused = "byte budget of 30100 bytes"
    point = SubstitutionFixedPoint(fibonacci_spec(), "a", "a", 16)
    mechanical = MechanicalPoint(SturmianSpec((1,)))
    assert point.letters(-5000, 5000) == mechanical.letters(-5000, 5000)
    assert len(mechanical.letters(10**6, 10**6 + 2000)) == 2000
    language = fibonacci_spec().language
    assert language.complexity(89) == 90
    with pytest.raises(ResourceLimit, match="psi\\^11, 1042 letters, needs 34166 bytes, past "
                                            "the " + refused):
        language.complexity(90)


def _plan_reads(table, n):
    """The sibling plan of the n-words: its pick, left and right columns."""
    plan = table.siblings(n)
    return None if plan is None else tuple(tuple(r.tolist()) for r in plan)


def test_language_table_concurrent_queries():
    # fresh specs, so each table fills its memos under contention
    specs = (fibonacci_spec(), ExplicitSpec(("a", "b", "c"), ("ac", "cb", "bab", "ccc")),
             SturmianSpec((2, 1)), ToeplitzSpec("ab*b*"))

    def queries(table):
        # the index maps are arrays, compared as lists
        return ([table.complexity(n) for n in range(1, 30)],
                [(list(table.words(n).items()), table.subwords(n + 2, 1, n).tolist(),
                  table.windows(n + 4, (0, 2, 3, 4), n).tolist(), _plan_reads(table, n + 2))
                 for n in range(1, 12)])

    expected = [queries(LanguageTable(spec)) for spec in specs]
    assert expected[0][0] == [n + 1 for n in range(1, 30)]
    for spec, serial in zip(specs, expected):
        results = {}

        def worker(idx):
            results[idx] = (spec.language, queries(spec.language))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the memo updates
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == len(threads)
        table = spec.language
        assert all(t is table and v == serial for t, v in results.values())
        for n, (words, _, windows, _) in enumerate(serial[1], start=1):
            assert [w for w, _ in words] == sorted(table.factors(n))
            assert [i for _, i in words] == list(range(len(words)))
            assert windows == [[table.words(n)[w[lo:lo + n]] for lo in (0, 2, 3, 4)]
                               for w in table.words(n + 4)]
