import math
import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup_lab import (
    AdmissibilityViolation,
    ConvolutionCache,
    DomainError,
    FullShiftSpec,
    GeneratorSet,
    GroupDistribution,
    InsufficientData,
    InternalInvariantError,
    PeriodicPoint,
    ResourceLimit,
    SpecMismatch,
    StepMeasure,
    ValidationError,
    WalkSample,
    ball,
    canonical_point,
    compose,
    cylinder_depth,
    entropy,
    entropy_envelope,
    evaluate,
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
from fullgroup_lab.cocycles import DEFAULT_BALL_CAP
from fullgroup_lab.walks import (
    ATOM_COUNT_MAX,
    CHECK_CHUNK_BYTES,
    DRAW_BLOCK,
    _atom_draws,
    _atom_increment_table,
    _atom_index,
    _check_rows,
    _check_sample_size,
    cylinder_nonconstancy_rate,
    empirical_offset_distribution,
    shannon_path_diagnostic,
)


def chain_of(measure, cap=DEFAULT_BALL_CAP):
    """The exact chain of `measure` over a ball that it grows on demand."""
    return ConvolutionCache(measure, ball(measure.generator_set(), 0, cap))


def fraction_chain(measure, n_max):
    """Reference chain: the laws of steps 0..n_max as dicts of Fractions,
    each built from the last by composing every atom on the left; the dicts
    keep first-insertion order."""
    law = {identity(measure.spec): Fraction(1)}
    laws = [law]
    products = {}  # each (s, g) is composed once over all steps
    for _ in range(n_max):
        out = defaultdict(Fraction)
        for g, pg in law.items():
            for _, s, ps in measure.atoms:
                if (s, g) not in products:
                    products[s, g] = compose(s, g)
                out[products[s, g]] += ps * pg
        law = dict(out)
        laws.append(law)
    return laws


def fraction_entropy(law):
    """Entropy summed over float(Fraction) in the law's order."""
    total = 0.0
    for p in law.values():
        x = float(p)
        if x > 0.0:
            total -= x * math.log(x)
    return total


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
    dist = chain_of(fib_measure).power(0)
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
    assert fib_cache.power(2).identity_mass() == Fraction(1, 3)


def test_convolution_mass_conserved(fib_cache):
    for n in range(9):
        assert sum(fib_cache.power(n).probs.values()) == 1


def test_convolution_symmetric(fib_cache):
    dist = fib_cache.power(7)
    assert all(dist.probs[inverse(g)] == p for g, p in dist.probs.items())


def test_convolution_resource_limit(fib_measure):
    with pytest.raises(ResourceLimit, match="ball enumeration exceeded 50 elements"):
        chain_of(fib_measure, cap=50).power(8)


def _squares_measure():
    """sigma^{+-1} with weight 1/3 and sigma^{+-2} with weight 1/6 on the
    one-letter shift.  The relation sigma.sigma = sigma^2 has odd length,
    so first insertion into the support is not ball order."""
    spec = FullShiftSpec(("a",))
    one, two = from_table(spec, 0, {"a": 1}), from_table(spec, 0, {"a": 2})
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    return StepMeasure(spec, (("+1", one, third), ("-1", inverse(one), third),
                              ("+2", two, sixth), ("-2", inverse(two), sixth)))


@pytest.mark.parametrize("which", ["fibonacci", "halves", "squares"])
def test_integer_chain_equals_fraction_chain(fib_measure, which):
    measure = {
        "fibonacci": lambda: fib_measure,
        "halves": lambda: _halves_measure(FullShiftSpec(("a",)))[0],
        "squares": _squares_measure,
    }[which]()
    gens = measure.generator_set()
    laws = fraction_chain(measure, 8)
    chain = chain_of(measure)
    lengths = dict(ball(gens, 8).items())
    first = {}
    for n, law in enumerate(laws):
        dist = chain.power(n)
        # same elements, same Fractions, same order, so the same float sum
        assert list(dist.probs.items()) == list(law.items())
        assert dist.support_size == len(law)
        assert entropy(dist) == fraction_entropy(law)
        # an element's word length is the first step whose support holds it
        for g in law:
            first.setdefault(g, n)
        assert first == {g: length for g, length in lengths.items() if length <= n}


def test_counts_past_int64_are_python_ints():
    fs = FullShiftSpec(("a",))
    tau = from_table(fs, 0, {"a": 1})
    measure = StepMeasure(fs, (("e", identity(fs), Fraction(1, 1000)),
                               ("s", tau, Fraction(999, 2000)),
                               ("i", inverse(tau), Fraction(999, 2000))))
    chain = chain_of(measure)
    laws = fraction_chain(measure, 11)
    assert chain.denominator == 2000 and 2000**5 < 2**62 < 2**63 < 2000**6
    # past 2^53 a float of the count would round twice; by n = 11 that moves H
    for n in range(5, 12):
        dist = chain.power(n)
        assert (dist.counts.dtype == object) == (n >= 6)
        assert list(dist.probs.items()) == list(laws[n].items())
        assert sum(int(c) for c in dist.counts) == 2000**n
        assert entropy(dist) == fraction_entropy(laws[n])
    assert all(type(c) is int for c in chain.power(6).counts)


def test_chain_mass_is_checked_exactly(fib_cache):
    dist = fib_cache.power(1)
    counts = dist.counts.copy()
    GroupDistribution(1, fib_cache.ball, dist.index, counts, 3)
    counts[0] += 1
    with pytest.raises(InternalInvariantError):
        GroupDistribution(1, fib_cache.ball, dist.index, counts, 3)


def test_chain_ball_must_match_the_atoms(fib_measure, fib_gens):
    fs = FullShiftSpec(("a", "b"))
    with pytest.raises(ValidationError):
        ConvolutionCache(_halves_measure(fs)[0], ball(fib_gens, 0))
    reordered = GeneratorSet(fib_gens.spec, fib_gens.elements[::-1])
    with pytest.raises(ValidationError):
        ConvolutionCache(fib_measure, ball(reordered, 0))


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


@pytest.mark.parametrize("layout", ["step_major", "trial_major"])
def test_lipschitz_check_sees_a_jump_at_every_chunk_edge(layout):
    trials = CHECK_CHUNK_BYTES // 16
    rows = _check_rows(trials, 2)
    assert rows == 8
    rng = np.random.default_rng(11)
    for n in (rows - 1, rows, rows + 1, 2 * rows + 1):
        steps = np.zeros((n + 1, trials), dtype=np.int16)
        np.cumsum(rng.integers(-1, 2, size=(n, trials)), axis=0, out=steps[1:])
        offsets = steps.T if layout == "step_major" else np.ascontiguousarray(steps.T)
        assert WalkSample(n, trials, 0, 1, offsets).lipschitz_ok()
        # step j is offsets[:, j] - offsets[:, j-1]; a chunk holds `rows` steps
        edges = {1, n} | {j for j in (rows, rows + 1, 2 * rows, 2 * rows + 1) if j <= n}
        for j in sorted(edges):
            for jump in (2, -2):
                bad = offsets.copy(order="K")
                assert bad.T.flags.c_contiguous == (layout == "step_major")
                t = trials // 3
                bad[t, j:] += jump - (bad[t, j] - bad[t, j - 1])  # step j becomes `jump`
                assert np.abs(np.diff(bad, axis=1)).max() == 2
                assert not WalkSample(n, trials, 0, 1, bad).lipschitz_ok(), (n, j, jump)
                assert WalkSample(n, trials, 0, 2, bad).lipschitz_ok(), (n, j, jump)


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


@pytest.mark.parametrize("atoms", [3, ATOM_COUNT_MAX, ATOM_COUNT_MAX + 1, 300])
def test_atom_index_equals_searchsorted_at_every_bound(atoms):
    # weights 1/2, 1/4, 1/4 put the bounds on exact binary fractions
    weights = ([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)] if atoms == 3
               else [Fraction(1, atoms)] * atoms)
    cum = np.cumsum([float(w) for w in weights])
    cum[-1] = 1.0
    x = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0), np.nextafter(cum[:-1], 1),
                        [0.0, np.nextafter(1.0, 0)]])
    out = np.empty(len(x), dtype=np.min_scalar_type(atoms - 1))
    _atom_index(cum, x, out, np.empty(len(x), dtype=bool))
    expected = np.searchsorted(cum, x, side="right")
    assert np.array_equal(out, expected)
    assert expected[0] == 1 and expected[-1] == atoms - 1


def _evaluated_increment_table(measure, point, span):
    return np.array([[evaluate(g, point, off) for off in range(-span, span + 1)]
                     for _, g, _ in measure.atoms])


@pytest.mark.parametrize("which", ["fibonacci", "many_atoms"])
def test_atom_increment_table_equals_evaluate(fib_measure, fib_point, which):
    measure = fib_measure if which == "fibonacci" else _many_atoms_measure()[0]
    point = fib_point if which == "fibonacci" else canonical_point(measure.spec)
    span = measure.max_shift * 3 + 1
    table = _atom_increment_table(measure, point, span, np.int16)
    assert table.dtype == np.int16 and table.shape == (len(measure.atoms), 2 * span + 1)
    assert np.array_equal(table, _evaluated_increment_table(measure, point, span))


@pytest.mark.parametrize("validate, error", [(False, SpecMismatch),
                                             (True, AdmissibilityViolation)])
def test_atom_increment_table_rejects_inadmissible_windows(fib_spec, fib_gens, fib_measure,
                                                           validate, error):
    point = PeriodicPoint("bb", spec=fib_spec, validate=validate)
    with pytest.raises(error):
        evaluate(fib_gens["gamma"], point, 0)
    with pytest.raises(error):
        _atom_increment_table(fib_measure, point, 3, np.int16)


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


def test_walk_peak_memory_is_counted_by_the_cap(fib_measure, fib_point):
    n, trials = 400, 5000
    sample_orbit_walks(fib_measure, fib_point, n, 1, seed=0)  # language tables built
    tracemalloc.start()
    try:
        sample = sample_orbit_walks(fib_measure, fib_point, n, trials, seed=0)
        sample.max_abs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of draws: the floats, their uint8 atom indices, the compare
    # mask and the step-major copy of the indices
    block = DRAW_BLOCK * n * (8 + 1 + 1 + 1)
    assert peak < sample.offsets.nbytes + block + 10**6
    assert peak <= _check_sample_size(n, trials, len(fib_measure.atoms), n + 1, np.int16)
    # the Lipschitz check holds one chunk of step rows, not a second matrix
    tracemalloc.start()
    try:
        assert sample.lipschitz_ok()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < _check_rows(trials, 2) * trials * 2 + 10**5 < sample.offsets.nbytes / 2


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


def test_stable_report_trivial_when_depth_dominates(fib_cache):
    rep = stable_set_report(fib_cache, 6, 9.0)
    assert rep.stable_mass == 1
    assert rep.stable_count == rep.ball_size
    assert rep.entropy_slack >= 0
    assert math.log(max(rep.stable_count, 1)) <= rep.log_count_bound


def test_stable_mass_monotone_in_depth_scale(fib_cache):
    big = stable_set_report(fib_cache, 8, 9.0)
    small = stable_set_report(fib_cache, 8, 0.05)
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
    dist = chain_of(measure).power(2)
    assert dist.identity_mass() >= p0 * p0


# --- entropy envelope and growth bounds ------------------------------------------------------


def test_envelope_point_mass_measure(fib_spec):
    e = identity(fib_spec)
    measure = StepMeasure(fib_spec, (("e", e, Fraction(1)),))
    env = entropy_envelope(chain_of(measure), 6)
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
