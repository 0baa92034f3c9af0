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
    substitution_iterate,
    toeplitz_word,
)


def test_fibonacci_fixed_point_center_window(fib_spec, fib_point):
    # oracle: iterate psi^2 on both seeds and read off the junction
    word = substitution_iterate(fib_spec.rules_dict, "a", 4)
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


def test_fixed_point_power_past_the_text_budget_is_refused(fib_spec):
    # psi^60(a) has about 4e12 letters: the letter counts refuse it before
    # any iterate is built, so the allocation peak stays far below the
    # budget of 2^23 letters that the iterates on the way would fill
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit, match="text budget"):
            SubstitutionFixedPoint(fib_spec, left="a", right="a", power=60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


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


def test_mechanical_point_with_a_huge_coefficient_is_refused():
    # the second iterate of a -> a^100000 b, b -> a has about 10^10 letters
    with pytest.raises(ResourceLimit, match="text budget"):
        MechanicalPoint(SturmianSpec((100000,)))


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
    for pattern in ("ab*b*", "a*b*", "a**b*", "ab**"):
        with pytest.raises(UnresolvableHole, match="offset -1$"):
            ToeplitzPoint(ToeplitzSpec(pattern), 0)


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
    point = ToeplitzPoint(ToeplitzSpec(pattern), 0)
    expected = "".join(_filled_letter(pattern, j) for j in range(-3000, 3000))
    assert point.letters(-3000, 3000) == expected
    assert point.letters(0, 3000) == toeplitz_word(pattern, 3000)


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


def test_window_cache_thread_safety(fib_point):
    results = []

    def worker():
        results.append(fib_point.window(-100, 150))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1


def test_window_negative_radius_rejected(fib_point):
    with pytest.raises(ValueError):
        fib_point.window(0, -1)
