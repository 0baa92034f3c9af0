"""Acceptance suite.

One test per criterion; each prints a single line

    [criterion NN] PASS (T s) short description

(run pytest with -s to see them).  Stated tolerances and runtime budgets
are asserted here exactly as pinned; everything computed from exact
rational arithmetic is compared with ==.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from fullgroup_lab import (
    LanguageTable,
    SturmianSpec,
    SubstitutionSpec,
    ToeplitzSpec,
    build_ball,
    compose,
    evaluate,
    factors,
    fibonacci_spec,
    find_cylinder_position,
    identity,
    inverse,
    is_constant_on_cylinder,
    language_table,
    max_displacement_tail,
    pushforward_offsets,
    reflection_check,
    return_probability_suite,
    sample_orbit_walks,
    stable_set_report,
    supported_a_grid,
    toeplitz_word,
)
from fullgroup_lab.cocycles import ball
from fullgroup_lab.walks import ConvolutionCache


@contextmanager
def criterion(num, description, budget=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[criterion {num:02d}] FAIL ({time.perf_counter() - t0:.1f}s) {description}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[criterion {num:02d}] PASS ({elapsed:.1f}s) {description}")
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_sturmian_complexity():
    with criterion(1, "Sturmian complexity rho(n) = n+1 on [1, 200]", budget=10.0):
        table = LanguageTable(SturmianSpec((1,)))
        for n in range(1, 201):
            assert table.complexity(n) == n + 1


def test_criterion_02_sturmian_equals_fibonacci_language(fib_spec):
    with criterion(2, "golden-slope factor sets equal the substitution's, n <= 100"):
        golden = SturmianSpec((1,))
        for n in range(101):
            assert factors(golden, n) == factors(fib_spec, n)


def test_criterion_03_toeplitz_reference_word():
    with criterion(3, "hole filling reproduces the 24-letter reference word"):
        assert toeplitz_word("a*ab*a", 24) == "aaabaaaaabbaaaabaaaaabaa"


def test_criterion_04_toeplitz_complexity_exponent():
    target = math.log(5) / math.log(5 / 2)
    with criterion(4, f"coprime p=5, q=2 log-log slope within 0.25 of {target:.4f}",
                   budget=60.0):
        table = LanguageTable(ToeplitzSpec("ab*b*"))
        grid = sorted({int(round(20 * (400 / 20) ** (i / 9))) for i in range(10)})
        rho = [table.complexity(n) for n in grid]
        slope = float(np.polyfit(np.log(grid), np.log(rho), 1)[0])
        assert abs(slope - target) <= 0.25, f"slope {slope:.4f} outside window"


def test_criterion_05_nonprimitive_growth_ratio():
    with criterion(5, "rho(n)/(n ln ln n) varies < 30% over [50, 500] for a->aba, b->bb"):
        spec = SubstitutionSpec.from_rules({"a": "aba", "b": "bb"}, "a")
        table = language_table(spec)
        ns = list(range(50, 501, 25))
        ratios = [table.complexity(n) / (n * math.log(math.log(n))) for n in ns]
        spread = (max(ratios) - min(ratios)) / min(ratios)
        assert spread < 0.30, f"ratio spread {spread:.3f}"


def test_criterion_06_generators_are_involutions(fib_spec, fib_gens):
    with criterion(6, "alpha, beta, gamma are distinct involutions"):
        e = identity(fib_spec)
        gens = [fib_gens[name] for name in ("alpha", "beta", "gamma")]
        for g in gens:
            assert compose(g, g) == e
        assert len(set(gens)) == 3
        assert e not in gens


def test_criterion_07_lazy_walk_identification(fib_point, fib_cache):
    with criterion(7, "offset pushforward equals the exact 1/3-1/3-1/3 walk, n <= 10"):
        lazy = {0: Fraction(1)}
        for n in range(11):
            assert pushforward_offsets(fib_cache.power(n), fib_point) == lazy
            nxt = {}
            for k, p in lazy.items():
                for dk in (-1, 0, 1):
                    nxt[k + dk] = nxt.get(k + dk, Fraction(0)) + p / 3
            lazy = nxt


def test_criterion_08_schreier_ball_is_line(fib_point, fib_gens):
    with criterion(8, "radius-20 orbit ball is a line with loops, 1-Lipschitz"):
        b = build_ball(fib_point, fib_gens, 20)
        assert b.vertices == tuple(range(-20, 21))
        loops = {src for src, _, dst in b.edges if src == dst}
        assert loops == set(b.vertices)
        nonloop = {(src, dst) for src, _, dst in b.edges if src != dst}
        line = {(v, v + 1) for v in range(-20, 20)} | {(v + 1, v) for v in range(-20, 20)}
        assert nonloop == line
        assert all(abs(src - dst) <= fib_gens.max_shift for src, _, dst in b.edges)


def test_criterion_09_return_probabilities(fib_spec, fib_measure, fib_cache):
    with criterion(9, "mu^{*2n}(e) is the maximum for n <= 6; mu^{*2}(e) = 1/3 exactly"):
        e = identity(fib_spec)
        brute = sum(
            pa * pb
            for _, a, pa in fib_measure.atoms
            for _, b, pb in fib_measure.atoms
            if compose(a, b) == e
        )
        assert brute == Fraction(1, 3)
        suite = return_probability_suite(fib_cache, 6)
        assert suite.rows[0].return_prob == Fraction(1, 3)
        assert suite.all_max_at_identity()
        assert suite.monotone


def test_criterion_10_entropy_bound_chain(fib_measure):
    with criterion(10, "entropy bound chain for n <= 12 (cap 2e6)", budget=600.0):
        cache = ConvolutionCache(fib_measure, cap=2_000_000)
        ball_table = ball(fib_measure.generator_set(), 12, cap=2_000_000)
        reports = [
            stable_set_report(fib_measure, cache.power(n), 9.0,
                              cap=2_000_000, ball_table=ball_table)
            for n in range(1, 13)
        ]
        assert all(rep.entropy_slack >= 0 for rep in reports)
        rates = [rep.walk_entropy / rep.n for rep in reports]
        assert rates[11] < rates[3]
        # the rate sits strictly below the one-step entropy and keeps
        # decreasing over the last four computed points
        assert all(r < rates[0] for r in rates[1:])
        assert rates[8] > rates[9] > rates[10] > rates[11]


def test_criterion_11_gaussian_tail(fib_measure, fib_point):
    with criterion(11, "fitted Gaussian envelope dominates the displacement tail "
                       "and the reflection inequality holds (1e5 trials, n = 100, 400)"):
        for n, seed in ((100, 2024), (400, 2025)):
            sample = sample_orbit_walks(fib_measure, fib_point, n, 100_000, seed=seed)
            grid = supported_a_grid(sample)
            assert len(grid) >= 8
            curve = max_displacement_tail(sample, grid)
            assert curve.dominated()
            refl = reflection_check(sample, grid, curve.fit.b0)
            assert refl.holds


def test_criterion_12_coupling_exhaustive(fib_spec, fib_gens, fib_point):
    with criterion(12, "cocycles of all generator words (n <= 8) are constant on "
                       "depth-l cylinders whenever the walk stays within l - l0, l <= 12"):
        atoms = [g for _, g in fib_gens.elements]
        l0 = fib_gens.max_depth
        constant_memo: dict[tuple, bool] = {}

        def constant(g, word):
            key = (g, word)
            got = constant_memo.get(key)
            if got is None:
                got = constant_memo[key] = is_constant_on_cylinder(g, word)
            return got

        counterexamples = 0
        for depth in range(1, 13):
            threshold = depth - l0
            for word in sorted(factors(fib_spec, 2 * depth + 1)):
                witness = find_cylinder_position(fib_point, word)
                assert fib_point.window(witness, depth) == word
                stack = [(identity(fib_spec), 0, 0)]
                while stack:
                    g, length, running_max = stack.pop()
                    if length and running_max <= threshold and not constant(g, word):
                        counterexamples += 1
                    if length < 8:
                        for s in atoms:
                            prod = compose(s, g)
                            m = abs(evaluate(prod, fib_point, witness))
                            stack.append((prod, length + 1, max(running_max, m)))
        assert counterexamples == 0


def test_criterion_13_property_suites(fib_spec, fib_gens, fib_point, fib_cache):
    with criterion(13, "group axioms, cocycle rule, shift bounds, probability "
                       "conservation, factor closure: all exact"):
        e = identity(fib_spec)
        rng = random.Random(2024)

        small_ball = ball(fib_gens, 4)
        elements = list(small_ball)
        for _ in range(60):
            g, h, k = (rng.choice(elements) for _ in range(3))
            assert compose(compose(g, h), k) == compose(g, compose(h, k))
            assert compose(g, inverse(g)) == e
            assert compose(inverse(g), g) == e
            assert compose(e, g) == g and compose(g, e) == g

        for _ in range(10):
            g, h = rng.choice(elements), rng.choice(elements)
            gh = compose(g, h)
            for pos in rng.sample(range(-120, 120), 10):
                kh = evaluate(h, fib_point, pos)
                assert evaluate(gh, fib_point, pos) == evaluate(g, fib_point, pos + kh) + kh

        full_ball = ball(fib_gens, 6)
        k_bound = fib_gens.max_shift
        assert len(full_ball) == 188
        for g, length in full_ball.items():
            assert g.max_shift <= k_bound * length or length == 0

        for n in range(13):
            assert sum(fib_cache.power(n).probs.values()) == 1

        specs = [
            SturmianSpec((1,)),
            fibonacci_spec(),
            SubstitutionSpec.from_rules({"a": "aba", "b": "bb"}, "a"),
            ToeplitzSpec("a*ab*a"),
        ]
        for spec in specs:
            for n in range(1, 9):
                level = factors(spec, n)
                below = factors(spec, n - 1)
                assert all(w[:-1] in below and w[1:] in below for w in level)
