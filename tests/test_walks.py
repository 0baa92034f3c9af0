import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup_lab import (
    ConvolutionCache,
    DomainError,
    FullShiftSpec,
    InsufficientData,
    ResourceLimit,
    StepMeasure,
    ValidationError,
    WalkSample,
    canonical_point,
    compose,
    cylinder_depth,
    entropy,
    entropy_envelope,
    folner_growth_bound,
    from_table,
    identity,
    inverse,
    max_displacement_tail,
    mixture_entropy_check,
    pushforward_offsets,
    reflection_check,
    return_probability_suite,
    sample_orbit_walks,
    stable_set_report,
    supported_a_grid,
    total_variation,
    uniform_measure,
)
from fullgroup_lab.walks import (
    DRAW_BLOCK,
    _atom_draws,
    cylinder_nonconstancy_rate,
    empirical_offset_distribution,
    shannon_path_diagnostic,
)


def lazy_walk_distribution(n):
    """Exact n-step law of the +1/0/-1 walk with probability 1/3 each."""
    dist = {0: Fraction(1)}
    for _ in range(n):
        out = {}
        for k, p in dist.items():
            for dk in (-1, 0, 1):
                out[k + dk] = out.get(k + dk, Fraction(0)) + p / 3
        dist = out
    return dist


# --- step measures ---------------------------------------------------------------


def test_measure_fields(fib_measure):
    assert fib_measure.min_prob == Fraction(1, 3)
    assert fib_measure.max_shift == 1
    assert len(fib_measure.support) == 3


def test_measure_must_sum_to_one(fib_spec, fib_gens):
    third = Fraction(1, 3)
    for weights in ([Fraction(1, 4)] * 3, [third + Fraction(1, 10**13), third, third]):
        atoms = tuple((n, g, p) for (n, g), p in zip(fib_gens, weights))
        with pytest.raises(ValidationError):
            StepMeasure(fib_spec, atoms)


def test_measure_must_be_symmetric():
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    with pytest.raises(ValidationError):
        StepMeasure(fs, (("shift", tau, Fraction(1)),))
    # adding the inverse with equal weight fixes it
    StepMeasure(fs, (("s", tau, Fraction(1, 2)), ("i", inverse(tau), Fraction(1, 2))))


# --- exact convolution -------------------------------------------------------------


def test_convolution_power_zero_is_point_mass(fib_spec, fib_measure):
    dist = ConvolutionCache(fib_measure).power(0)
    assert dist.probs == {identity(fib_spec): Fraction(1)}


def test_return_probability_after_two_steps(fib_spec, fib_measure, fib_cache):
    # oracle: all nine ordered products of generators
    e = identity(fib_spec)
    hits = sum(
        pa * pb
        for _, a, pa in fib_measure.atoms
        for _, b, pb in fib_measure.atoms
        if compose(a, b) == e
    )
    assert hits == Fraction(1, 3)
    assert fib_cache.power(2).identity_mass(fib_spec) == Fraction(1, 3)


def test_convolution_mass_conserved(fib_cache):
    for n in range(9):
        assert sum(fib_cache.power(n).probs.values()) == 1


def test_convolution_symmetric(fib_cache):
    dist = fib_cache.power(7)
    assert all(dist.probs[inverse(g)] == p for g, p in dist.probs.items())


def test_convolution_resource_limit(fib_measure):
    with pytest.raises(ResourceLimit):
        ConvolutionCache(fib_measure, cap=50).power(8)


def test_entropy_values(fib_cache):
    assert entropy(fib_cache.power(0)) == 0.0
    assert entropy(fib_cache.power(1)) == pytest.approx(math.log(3))


def test_entropy_below_log_support(fib_cache):
    for n in range(1, 9):
        dist = fib_cache.power(n)
        assert entropy(dist) <= math.log(dist.support_size) + 1e-12


def test_entropy_subadditive(fib_cache):
    h = [entropy(fib_cache.power(n)) for n in range(11)]
    for n in range(1, 6):
        for m in range(1, 6):
            assert h[n + m] <= h[n] + h[m] + 1e-12


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6))
def test_entropy_bound_random_distributions(raw):
    total = sum(raw)
    dist = {i: w / total for i, w in enumerate(raw)}
    assert entropy(dist) <= math.log(len(dist)) + 1e-9


# --- mixture entropy ----------------------------------------------------------------


def test_mixture_single_component_is_equality():
    comp = {0: 0.25, 1: 0.75}
    check = mixture_entropy_check([comp], [1])
    assert check.holds and check.slack == pytest.approx(0.0, abs=1e-12)


def test_mixture_disjoint_point_masses():
    check = mixture_entropy_check([{0: 1.0}, {1: 1.0}], [0.5, 0.5])
    assert check.holds
    assert check.mixture_entropy == pytest.approx(math.log(2))
    assert check.bound == pytest.approx(math.log(2))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4),
        min_size=2,
        max_size=3,
    )
)
def test_mixture_inequality_random(rows):
    comps = []
    for raw in rows:
        total = sum(raw)
        comps.append({i: w / total for i, w in enumerate(raw)})
    weights = [1.0 / len(comps)] * len(comps)
    assert mixture_entropy_check(comps, weights).holds


def test_mixture_weights_must_sum_to_one():
    half = Fraction(1, 2)
    for comps, weights in (([{0: 1.0}], [0.5]),
                           ([{0: 1.0}, {1: 1.0}], [half, half + Fraction(1, 10**12)])):
        with pytest.raises(ValidationError):
            mixture_entropy_check(comps, weights)


# --- orbit-walk sampling --------------------------------------------------------------


def test_identity_only_measure_stays_put(fib_spec, fib_point):
    e = identity(fib_spec)
    measure = StepMeasure(fib_spec, (("e", e, Fraction(1)),))
    sample = sample_orbit_walks(measure, fib_point, 20, 50, seed=1)
    assert not sample.offsets.any()


def test_one_step_increments_near_uniform(fib_measure, fib_point):
    sample = sample_orbit_walks(fib_measure, fib_point, 1, 100_000, seed=9)
    values, counts = np.unique(sample.final, return_counts=True)
    assert sorted(values.tolist()) == [-1, 0, 1]
    assert np.all(np.abs(counts / 100_000 - 1 / 3) < 0.01)


def test_sampled_law_matches_exact_convolution(fib_measure, fib_point, fib_cache):
    sample = sample_orbit_walks(fib_measure, fib_point, 10, 100_000, seed=4)
    empirical = empirical_offset_distribution(sample)
    exact = pushforward_offsets(fib_cache.power(10), fib_point)
    assert exact == lazy_walk_distribution(10)
    assert total_variation(empirical, exact) < 0.02


def test_lipschitz_increments(fib_measure, fib_point):
    sample = sample_orbit_walks(fib_measure, fib_point, 64, 500, seed=2)
    assert sample.lipschitz_ok()
    for path in ([0, 1, 3], [0, -1, -3]):
        jump = WalkSample(2, 2, 0, 1, np.array([[0, 1, 0], path], dtype=np.int16))
        assert not jump.lipschitz_ok()


def test_sampling_deterministic_and_prefix_stable(fib_measure, fib_point):
    a = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=5)
    b = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=5)
    c = sample_orbit_walks(fib_measure, fib_point, 12, 650, seed=5)
    d = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=6)
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.offsets, c.offsets[:400])
    assert not np.array_equal(a.offsets, d.offsets)
    # the sampler works in blocks of 2,048 trials; a prefix that crosses a
    # block boundary must not depend on where the blocks fall
    e = sample_orbit_walks(fib_measure, fib_point, 12, 2100, seed=5)
    f = sample_orbit_walks(fib_measure, fib_point, 12, 4500, seed=5)
    assert np.array_equal(e.offsets, f.offsets[:2100])


def test_large_shift_increments_are_not_truncated(fib_spec, fib_point):
    up = from_table(fib_spec, 0, {"a": 128, "b": 128})
    measure = StepMeasure(fib_spec, (("up", up, Fraction(1, 2)),
                                     ("down", inverse(up), Fraction(1, 2))))
    sample = sample_orbit_walks(measure, fib_point, 30, 200, seed=1)
    assert np.all(sample.offsets % 128 == 0)
    assert np.all(np.abs(np.diff(sample.offsets, axis=1)) == 128)


def test_more_than_256_atoms_are_all_drawn():
    # on the one-letter shift sigma^k moves the point by k everywhere,
    # so the final offset of a one-step walk names the atom drawn
    spec = FullShiftSpec(("a",))
    atoms = []
    for k in range(1, 151):
        g = from_table(spec, 0, {"a": k})
        atoms += [(f"+{k}", g, Fraction(1, 300)), (f"-{k}", inverse(g), Fraction(1, 300))]
    measure = StepMeasure(spec, tuple(atoms))
    sample = sample_orbit_walks(measure, canonical_point(spec), 1, 3000, seed=3)
    assert set(sample.final.tolist()) == {s * k for k in range(1, 151) for s in (1, -1)}


def _halves_measure(spec):
    """Stay put with weight 1/2, shift by +1 or -1 with weight 1/4 each."""
    up = from_table(spec, 0, {a: 1 for a in spec.alphabet})
    return StepMeasure(spec, (("e", identity(spec), Fraction(1, 2)),
                              ("up", up, Fraction(1, 4)),
                              ("down", inverse(up), Fraction(1, 4)))), np.array([0, 1, -1])


def _many_atoms_measure():
    """300 atoms sigma^{+-k}, k = 1..150, on the one-letter shift."""
    spec = FullShiftSpec(("a",))
    atoms = []
    for k in range(1, 151):
        g = from_table(spec, 0, {"a": k})
        atoms += [(f"+{k}", g, Fraction(1, 300)), (f"-{k}", inverse(g), Fraction(1, 300))]
    moves = np.array([s * k for k in range(1, 151) for s in (1, -1)])
    return StepMeasure(spec, tuple(atoms)), moves


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 5])
@pytest.mark.parametrize("which", ["halves", "many_atoms"])
def test_atom_draws_equal_a_new_philox_per_trial(fib_spec, seed, which):
    measure, moves = _halves_measure(fib_spec) if which == "halves" else _many_atoms_measure()
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    # the increment table of 300 atoms grows with k*n, so keep their walks short
    n, trials = (9 if which == "halves" else 2), DRAW_BLOCK + 1
    expected = np.array([
        np.searchsorted(cum, np.random.Generator(np.random.Philox(key=[seed, t])).random(n),
                        side="right")
        for t in range(trials)
    ])
    for rows in (DRAW_BLOCK - 1, DRAW_BLOCK + 1):
        blocks = list(_atom_draws(measure, n, rows, seed))
        assert [len(b) for b in blocks] == ([rows] if rows < DRAW_BLOCK else [DRAW_BLOCK, 1])
        assert np.array_equal(np.concatenate(blocks), expected[:rows])
        # every atom moves each point by the same amount, so the sampled
        # offsets are the running sums of the drawn moves
        sample = sample_orbit_walks(measure, canonical_point(measure.spec), n, rows, seed)
        assert np.array_equal(sample.offsets[:, 1:], np.cumsum(moves[expected[:rows]], axis=1))


def test_negative_and_large_seeds_give_distinct_samples(fib_measure, fib_point):
    seeds = [0, -1, -3, 2**63, 2**63 + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = [sample_orbit_walks(fib_measure, fib_point, 20, 50, seed=s).offsets
                   for s in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert not np.array_equal(samples[i], samples[j]), (seeds[i], seeds[j])


def test_offsets_are_step_major_and_max_abs_is_cached(fib_measure, fib_point):
    sample = sample_orbit_walks(fib_measure, fib_point, 30, 100, seed=8)
    assert sample.offsets.shape == (100, 31)
    assert sample.offsets.T.flags.c_contiguous
    # the sampler returns no derived array; max_abs is made on first use, once
    assert [k for k, v in vars(sample).items() if isinstance(v, np.ndarray)] == ["offsets"]
    assert sample.max_abs is sample.max_abs
    assert np.array_equal(sample.max_abs, np.abs(sample.offsets).max(axis=1))


# --- displacement tails -----------------------------------------------------------------


@pytest.fixture(scope="module")
def tail_sample(fib_measure, fib_point):
    return sample_orbit_walks(fib_measure, fib_point, 200, 20_000, seed=12)


def test_tail_fit_dominates(tail_sample):
    grid = supported_a_grid(tail_sample)
    curve = max_displacement_tail(tail_sample, grid)
    assert curve.dominated()
    assert curve.fit.d > 0


def test_tail_reflection_inequality(tail_sample):
    grid = supported_a_grid(tail_sample)
    curve = max_displacement_tail(tail_sample, grid)
    refl = reflection_check(tail_sample, grid, curve.fit.b0)
    assert refl.holds


def test_tail_insufficient_data(tail_sample):
    with pytest.raises(InsufficientData):
        max_displacement_tail(tail_sample, (0.25, 8.0))


def test_small_a_probabilities_trivially_bounded(tail_sample):
    grid = supported_a_grid(tail_sample)
    curve = max_displacement_tail(tail_sample, grid)
    assert all(p <= 1.0 for p in curve.empirical)
    assert curve.empirical[0] > 0.9  # a = 0.25 is almost surely exceeded


# --- depth-stability reports --------------------------------------------------------------


def test_cylinder_depth_formula():
    assert cylinder_depth(1, 9.0) == cylinder_depth(2, 9.0)
    assert cylinder_depth(6, 9.0) == math.ceil(math.sqrt(9.0 * 6 * math.log(6)))


def test_stable_report_trivial_when_depth_dominates(fib_measure, fib_cache):
    rep = stable_set_report(fib_measure, fib_cache.power(6), 9.0)
    assert rep.stable_mass == 1
    assert rep.stable_count == rep.ball_size
    assert rep.entropy_slack >= 0
    assert math.log(max(rep.stable_count, 1)) <= rep.log_count_bound


def test_stable_mass_monotone_in_depth_scale(fib_measure, fib_cache):
    big = stable_set_report(fib_measure, fib_cache.power(8), 9.0)
    small = stable_set_report(fib_measure, fib_cache.power(8), 0.05)
    assert small.depth < big.depth
    assert small.stable_mass <= big.stable_mass
    assert small.stable_mass < 1  # the tiny depth scale actually bites


# --- return probabilities ------------------------------------------------------------------


def test_return_suite_fibonacci(fib_cache):
    suite = return_probability_suite(fib_cache, 3)
    assert suite.rows[0].return_prob == Fraction(1, 3)
    assert suite.all_max_at_identity()
    assert suite.monotone
    assert suite.fitted_constant < math.inf


def test_return_probability_identity_atom_bound():
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    e = identity(fs)
    p0 = Fraction(1, 2)
    measure = StepMeasure(
        fs,
        (("e", e, p0), ("s", tau, Fraction(1, 4)), ("i", inverse(tau), Fraction(1, 4))),
    )
    dist = ConvolutionCache(measure).power(2)
    assert dist.identity_mass(fs) >= p0 * p0


# --- entropy envelope and growth bounds ------------------------------------------------------


def test_envelope_point_mass_measure(fib_spec):
    e = identity(fib_spec)
    measure = StepMeasure(fib_spec, (("e", e, Fraction(1)),))
    env = entropy_envelope(ConvolutionCache(measure), 6)
    assert env.entropies == (0.0,) * 7
    assert env.fitted_constant == 0.05  # the smallest grid constant


def test_envelope_fibonacci_trend(fib_cache):
    env = entropy_envelope(fib_cache, 10)
    rates = env.entropy_rates
    assert rates[10] < rates[1]
    assert all(s >= 0 for s in env.slack)
    # the bound grows like sqrt(n log n) * log n and dominates H at the fit
    assert env.bound_values[-1] >= env.entropies[-1]


def test_folner_bound_values():
    assert folner_growth_bound(1.0, 0.1, 2.0, 1) == pytest.approx(2.0 * math.exp(2.0))
    # alpha = 1 gives exponent 2 + eps
    got = folner_growth_bound(1.0, 0.5, 1.0, 3)
    assert got == pytest.approx(math.exp(3 ** 2.5))
    # alpha = 1.5 gives exponent 6 + eps
    got = folner_growth_bound(1.5, 0.25, 1.0, 2)
    assert got == pytest.approx(math.exp(2 ** 6.25))
    assert folner_growth_bound(1.0, 0.1, 50.0, 50) == math.inf  # overflow guard


def test_folner_bound_domain_errors():
    with pytest.raises(DomainError):
        folner_growth_bound(2.0, 0.1, 1.0, 5)
    with pytest.raises(DomainError):
        folner_growth_bound(0.5, 0.1, 1.0, 5)
    with pytest.raises(DomainError):
        folner_growth_bound(1.5, -0.1, 1.0, 5)


# --- sampled-element diagnostics --------------------------------------------------------------


def test_cylinder_nonconstancy_rare_at_large_depth(fib_spec, fib_measure, fib_point):
    word = fib_point.window(0, cylinder_depth(8, 9.0))
    rate = cylinder_nonconstancy_rate(fib_measure, word, 8, 300, seed=3)
    assert rate == 0.0  # depth 8 walks cannot reach depth-15 cylinders


def test_single_cylinder_nonconstancy_bound(fib_measure, fib_point, tail_sample):
    # the non-constancy probability on a depth-d(n) cylinder is controlled
    # by C1 * n^(-L / 4D) with the constants read off the tail fit
    n, scale = 10, 9.0
    curve = max_displacement_tail(tail_sample, supported_a_grid(tail_sample))
    word = fib_point.window(0, cylinder_depth(n, scale))
    rate = cylinder_nonconstancy_rate(fib_measure, word, n, 400, seed=17)
    bound = curve.fit.c * n ** (-scale / (4.0 * curve.fit.d))
    assert rate <= bound


def test_default_depth_scale_exceeds_eight_fits(tail_sample):
    from fullgroup_lab.walks import default_depth_scale

    curve = max_displacement_tail(tail_sample, supported_a_grid(tail_sample))
    assert default_depth_scale(curve.fit) == pytest.approx(9.0 * curve.fit.d)
    assert default_depth_scale(curve.fit) > 8.0 * curve.fit.d


def test_shannon_diagnostic_reports(fib_cache):
    diag = shannon_path_diagnostic(fib_cache, 8, 200, seed=5)
    assert diag["n"] == 8
    assert 0 < diag["quantiles"]["q10"] <= diag["quantiles"]["q90"]
    assert diag["mean"] > 0
