import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup_lab import (
    ExplicitPoint,
    FullShiftSpec,
    MechanicalPoint,
    PeriodicPoint,
    ResourceLimit,
    SpecMismatch,
    SturmianSpec,
    SubstitutionFixedPoint,
    SubstitutionSpec,
    ToeplitzPoint,
    ToeplitzSpec,
    UnresolvableHole,
    ValidationError,
    canonical_point,
    find_cylinder_position,
    is_periodic_window,
    toeplitz_word,
)

from conftest import naive_iterate


def test_fibonacci_fixed_point_center_window(fib_spec, fib_point):
    # oracle: iterate psi^2 on both seeds and read off the junction
    word = naive_iterate(fib_spec.rules_dict, "a", 4)
    expected = word[-2:] + word[:3]
    got = fib_point.window(0, 2)
    assert got == expected == "baaba"
    assert got in fib_spec.language.factors(5)


def test_fixed_point_rejects_bad_seeds(fib_spec):
    with pytest.raises(SpecMismatch):
        SubstitutionFixedPoint(fib_spec, left="b", right="b", power=2)  # "bb" inadmissible


def test_fixed_point_rejects_empty_seeds(fib_spec):
    # an empty seed stays empty, so its tail would never grow
    for left, right in (("", "a"), ("a", "")):
        with pytest.raises(ValidationError, match="nonempty"):
            SubstitutionFixedPoint(fib_spec, left=left, right=right, power=2)


def test_fixed_point_power_past_the_text_budget_reads_the_canonical_windows(fib_spec, fib_point):
    # psi^60(a) has about 4e12 letters, past any text the byte budget holds; the
    # point reads it by its level words, whose construction stays small
    tracemalloc.start()
    try:
        point = SubstitutionFixedPoint(fib_spec, left="a", right="a", power=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for center, radius in ((0, 60), (-10**12, 37), (10**15, 200)):
        assert point.window(center, radius) == fib_point.window(center, radius)


@pytest.mark.parametrize("power", [60, 10**18])
def test_high_powers_give_the_canonical_windows(fib_spec, fib_point, power):
    # psi^power fixes the point exactly when the seeds' cycles divide power
    point = SubstitutionFixedPoint(fib_spec, left="a", right="a", power=power)
    for center, radius in ((0, 0), (0, 5000), (-7, 3), (-10**18, 100), (10**18, 100)):
        assert point.window(center, radius) == fib_point.window(center, radius)
    with pytest.raises(SpecMismatch, match=r"does not start with 'b'$"):
        SubstitutionFixedPoint(fib_spec, left="a", right="b", power=power)


def test_partial_seeds_are_refused_by_name(fib_spec):
    with pytest.raises(ValidationError, match=r"also need 'right'$"):
        SubstitutionFixedPoint(fib_spec, left="b", power=3)
    with pytest.raises(ValidationError, match=r"also need 'left' and 'right'$"):
        SubstitutionFixedPoint(fib_spec, power=2)


def test_explicit_power_gives_the_canonical_windows(fib_spec, fib_point):
    # the canonical point is the (2, "a", "a") fixed point, and psi^4 fixes it too
    point = SubstitutionFixedPoint(fib_spec, left="a", right="a", power=4)
    for center, radius in ((0, 0), (0, 60), (-1000, 37), (5000, 200)):
        assert point.window(center, radius) == fib_point.window(center, radius)


def test_periodic_point_phase():
    p = PeriodicPoint("ab")
    assert p.window(0, 1) == "bab"
    assert PeriodicPoint("ab", phase=1).window(0, 1) == "aba"


def test_mechanical_point_deep_window_admissible():
    spec = SturmianSpec((1,))
    p = MechanicalPoint(spec, 0)
    w = p.window(10**4, 3)
    assert len(w) == 7
    assert w in spec.language.factors(7)


def test_mechanical_matches_substitution_fixed_point(fib_spec, fib_point):
    p = MechanicalPoint(SturmianSpec((1,)), 0)
    assert p.window(0, 40) == fib_point.window(0, 40)


def test_mechanical_intercept_shifts_reading_frame():
    spec = SturmianSpec((1,))
    base = MechanicalPoint(spec, 0)
    shifted = MechanicalPoint(spec, 7)
    assert shifted.window(0, 5) == base.window(7, 5)


def test_mechanical_swap_letters():
    plain = MechanicalPoint(SturmianSpec((1,)), 0)
    swapped = MechanicalPoint(SturmianSpec((1,), swap_letters=True), 0)
    table = str.maketrans("ab", "ba")
    assert swapped.window(0, 10) == plain.window(0, 10).translate(table)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=-300, max_value=300),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=10),
)
def test_window_nesting_and_shift_compatibility(center, radius, extra):
    p = MechanicalPoint(SturmianSpec((1, 2)), 0)
    inner = p.window(center, radius)
    outer = p.window(center, radius + extra)
    assert outer[extra : extra + len(inner)] == inner
    # moving the center right by one drops a letter on the left
    assert p.window(center + 1, radius) == p.window(center, radius + 1)[2:]


def test_mechanical_point_with_a_huge_coefficient_reads_left_of_0():
    # left of 0 the point is the end of s_2 = (a^100000 b)^100000 a, about
    # 10^10 letters, of which a read spells only the copies it meets
    point = MechanicalPoint(SturmianSpec((100000,)))
    assert point.window(0, 3) == "abaaaaa"
    assert point.letters(-200006, -200001) == "aabaa"


def test_mechanical_point_reads_right_of_0_from_any_standard_word():
    # x_0 .. x_100000 is s_1 = a^100000 b; s_2 would have about 10^10 letters
    point = MechanicalPoint(SturmianSpec((100000,)))
    assert point.letters(0, 100001) == "a" * 100000 + "b"


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("cf", [(1,), (2,), (1, 2), (2, 1), (3, 1, 2), (5, 1, 1), (1, 1, 2)])
def test_mechanical_point_is_the_fixed_point_of_the_one_period_square(cf, swap, sturmian_rules):
    # the reference is the two-sided fixed point of psi^2, psi the
    # standard-word substitutions composed over one period
    inner = SubstitutionFixedPoint(SubstitutionSpec.from_rules(sturmian_rules(cf), "a"))
    flip = str.maketrans("ab", "ba") if swap else {}
    for intercept in (0, 7, -13):
        point = MechanicalPoint(SturmianSpec(cf, swap), intercept)
        for center, radius in ((0, 2000), (-1500, 300), (1800, 17)):
            expected = inner.window(center + intercept, radius).translate(flip)
            assert point.window(center, radius) == expected


def test_mechanical_point_of_a_long_period_reads_only_the_standard_words():
    # the square of the one-period composition would spell 3.7e8 letters;
    # the point reads s_8 (21,164 letters) on both sides
    spec = SturmianSpec((3, 1, 4, 1, 5, 9, 2, 6))
    window = MechanicalPoint(spec).window(0, 3000)
    assert window in spec.language.factors(6001)


def _substitution_letter(rules: dict[str, str], c: str, q: int, i: int) -> str:
    """Memo-free descent: letter i of the side spanned by c, whose cycle of
    first letters (i >= 0) or last letters (i < 0) has length q; each level
    keeps the one letter whose image holds i."""
    sizes = [dict.fromkeys(rules, 1)]
    while sizes[-1][c] <= max(i, -i - 1) or (len(sizes) - 1) % q:
        sizes.append({a: sum(sizes[-1][d] for d in image) for a, image in rules.items()})
    i %= sizes[-1][c]
    for level in reversed(sizes[:-1]):
        for c in rules[c]:
            if i < level[c]:
                break
            i -= level[c]
    return c


def _standard_letter(cf: tuple[int, ...], swap: bool, i: int) -> str:
    """Memo-free descent: letter i of the Sturmian point, in s_k from the
    right of 0 and in an even s_k from the left, s_k = s_{k-1}^{a_k} s_{k-2}."""
    sizes = [1, 1]  # |s_{-1}|, |s_0|, ...
    while sizes[-1] <= max(i, -i - 1) or (i < 0 and len(sizes) % 2):
        sizes.append(cf[(len(sizes) - 2) % len(cf)] * sizes[-1] + sizes[-2])
    i, k = i % sizes[-1], len(sizes) - 2
    while k > 0:
        m = cf[(k - 1) % len(cf)]
        if i < m * sizes[k]:
            i, k = i % sizes[k], k - 1
        else:
            i, k = i - m * sizes[k], k - 2
    return "ab"[(k == 0) == swap]


# rules, then each side's seed letter and the length of its cycle of last
# (left) or first (right) letters
LEVEL_POINTS = {
    "fibonacci": ({"a": "ab", "b": "a"}, ("a", 2), ("a", 1)),
    "aba-bb": ({"a": "aba", "b": "bb"}, ("a", 1), ("b", 1)),
    "three-letter": ({"a": "abc", "b": "bab", "c": "cab"}, ("b", 1), ("a", 1)),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(LEVEL_POINTS) + ["mechanical", "mechanical-swapped"]),
    st.integers(min_value=-(10**18), max_value=10**18),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=10),
)
def test_level_point_windows_match_a_memo_free_descent(kind, center, radius, extra):
    if kind in LEVEL_POINTS:
        rules, (left, q_left), (right, q_right) = LEVEL_POINTS[kind]
        point = SubstitutionFixedPoint(SubstitutionSpec.from_rules(rules, "a"), left, right,
                                       q_left * q_right)
        expected = "".join(_substitution_letter(rules, right, q_right, j) if j >= 0
                           else _substitution_letter(rules, left, q_left, j)
                           for j in range(center - radius, center + radius + 1))
    else:
        swap = kind.endswith("swapped")
        point = MechanicalPoint(SturmianSpec((2, 1, 3), swap), -13)
        expected = "".join(_standard_letter((2, 1, 3), swap, j - 13)
                           for j in range(center - radius, center + radius + 1))
    assert point.window(center, radius) == expected
    outer = point.window(center, radius + extra)
    assert outer[extra : extra + len(expected)] == expected
    # moving the center right by one drops a letter on the left
    assert point.window(center + 1, radius) == point.window(center, radius + 1)[2:]


def test_a_read_past_the_level_words_is_refused():
    point = MechanicalPoint(SturmianSpec((1,)), 2**70)
    with pytest.raises(ResourceLimit, match="level words reach$"):
        point.window(0, 1)


def test_sturmian_random_slope_windows_admissible():
    spec = SturmianSpec((3, 1, 2))
    p = MechanicalPoint(spec, 0)
    for center in (-50, -7, 0, 13, 101):
        w = p.window(center, 6)
        assert w in spec.language.factors(13)


def test_toeplitz_point_right_half_matches_one_sided_word():
    spec = ToeplitzSpec("a*ab*a")
    p = ToeplitzPoint(spec, 0)
    assert p.letters(0, 40) == toeplitz_word("a*ab*a", 40)
    assert p.window(-10, 5) in spec.language.factors(11)


def test_toeplitz_point_anchor_shifts():
    spec = ToeplitzSpec("a*ab*a")
    base = ToeplitzPoint(spec, 0)
    moved = ToeplitzPoint(spec, 6)
    assert moved.window(0, 8) == base.window(6, 8)


def test_toeplitz_permanent_hole_rejected():
    # the hole at -1 belongs to the point at every anchor
    for pattern in ("ab*b*", "a*b*", "a**b*", "ab**"):
        for anchor in (0, 5):
            with pytest.raises(UnresolvableHole, match="offset -1$"):
                ToeplitzPoint(ToeplitzSpec(pattern), anchor)


def _filled_letter(pattern: str, j: int, hole: str = "*") -> str:
    """Memo-free two-sided hole filling: the k-th hole of period m carries
    the letter at offset m q + k, so follow those offsets from j until one
    is a letter of the pattern."""
    p = len(pattern)
    holes = [i for i, c in enumerate(pattern) if c == hole]
    while pattern[j % p] == hole:
        r = j % p
        j = (j - r) // p * len(holes) + holes.index(r)
    return pattern[j % p]


@pytest.mark.parametrize("pattern", ["a*ab*a", "a*b", "a**b", "a" + "*" * 28 + "b"])
def test_toeplitz_point_windows_match_a_memo_free_filler(pattern):
    # a window far from 0 is filled through more levels: 175 for the
    # 30-cell pattern at 3^80
    for anchor in (0, -7, 10**15 + 3, -(10**15) - 1, 3**80):
        point = ToeplitzPoint(ToeplitzSpec(pattern), anchor)
        expected = "".join(_filled_letter(pattern, j + anchor) for j in range(-3000, 3000))
        assert point.letters(-3000, 3000) == expected, anchor
    assert ToeplitzPoint(ToeplitzSpec(pattern)).letters(0, 3000) == toeplitz_word(pattern, 3000)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from("*?"),
    st.sampled_from("ab"),
    st.lists(st.sampled_from("ab."), max_size=7),
    st.integers(min_value=-(10**20), max_value=10**20),
    st.integers(min_value=1, max_value=200),
)
def test_toeplitz_word_from_any_start_matches_the_memo_free_filler(hole, first, rest, start, n):
    pattern = first + "".join(rest).replace(".", hole)
    if start < 0 and pattern[-1] == hole:
        with pytest.raises(UnresolvableHole, match="permanent hole at offset -1$"):
            toeplitz_word(pattern, n, hole, start)
    else:
        expected = "".join(_filled_letter(pattern, j, hole) for j in range(start, start + n))
        assert toeplitz_word(pattern, n, hole, start) == expected


def test_nonprimitive_fixed_point_windows(fib_spec):
    spec = SubstitutionSpec.from_rules({"a": "aba", "b": "bb"}, "a")
    p = SubstitutionFixedPoint(spec)
    w = p.window(0, 10)
    assert len(w) == 21
    assert w in spec.language.factors(21)


def test_explicit_point_layout():
    p = ExplicitPoint("b", "", "ab")
    assert p.window(0, 4) == "bbbbababa"
    assert p.letters(-3, 0) == "bbb"
    assert p.letters(0, 4) == "abab"


def test_explicit_point_with_center_word():
    p = ExplicitPoint("ab", "ccc", "ba")
    assert p.letters(0, 3) == "ccc"
    assert p.letters(-4, 0) == "abab"
    assert p.letters(3, 7) == "baba"


def test_is_periodic_window_examples(fib_point):
    assert is_periodic_window(PeriodicPoint("ab"), 5) == 2
    assert is_periodic_window(PeriodicPoint("a"), 3) == 1
    assert is_periodic_window(fib_point, 50) is None


def test_is_periodic_window_needs_four_repetitions():
    # period 3 with a window of length 11 shows < 4 repetitions
    assert is_periodic_window(PeriodicPoint("aab"), 5) is None
    assert is_periodic_window(PeriodicPoint("aab"), 6) == 3


def test_canonical_points_per_family(fib_spec):
    assert canonical_point(fib_spec).window(0, 3)
    assert canonical_point(SturmianSpec((1,))).window(0, 3)
    assert canonical_point(ToeplitzSpec("a*ab*a")).window(0, 3)
    assert canonical_point(FullShiftSpec(("a", "b"))).window(0, 1) == "bab"
    from fullgroup_lab import ExplicitSpec

    with pytest.raises(SpecMismatch):
        canonical_point(ExplicitSpec(("a", "b"), ("bb",)))


def test_find_cylinder_position(fib_spec, fib_point):
    for word in sorted(fib_spec.language.factors(5)):
        c = find_cylinder_position(fib_point, word)
        assert fib_point.window(c, 2) == word


def test_find_cylinder_position_refuses_a_word_it_never_meets(fib_point):
    # "bbb" is no factor of the Fibonacci word, so every window up to the
    # widest one is scanned in vain
    with pytest.raises(ValidationError, match=r"^word 'bbb' not found within radius 65536$"):
        find_cylinder_position(fib_point, "bbb")


POINTS = {
    "fixed point": lambda: SubstitutionFixedPoint(SubstitutionSpec.from_rules({"a": "ab", "b": "a"},
                                                                              "a")),
    "mechanical": lambda: MechanicalPoint(SturmianSpec((2, 1)), -13),
    "toeplitz": lambda: ToeplitzPoint(ToeplitzSpec("a*ab*a"), 5),
    "periodic": lambda: PeriodicPoint("aab", 1),
    "explicit": lambda: ExplicitPoint("ab", "aab", "aba"),
}


def test_window_cache_thread_safety():
    # a point holds no state that a read changes, so concurrent reads of
    # every kind, near 0 and far from it, return what one thread alone would
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind, make in POINTS.items():
            point, results = make(), []
            alone = [point.window(-100, 150), point.letters(-5000, 5000),
                     point.window(-10**12, 30)]

            def worker():
                results.append([point.window(-100, 150), point.letters(-5000, 5000),
                                point.window(-10**12, 30)])

            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [alone] * 8, kind
    finally:
        sys.setswitchinterval(interval)


def test_window_negative_radius_rejected(fib_point):
    with pytest.raises(ValueError):
        fib_point.window(0, -1)
