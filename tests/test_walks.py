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
    CocycleElement,
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
    is_constant_on_cylinder,
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
from fullgroup_lab import walks
from fullgroup_lab.cli import main
from fullgroup_lab.cocycles import DEFAULT_BALL_CAP, increment_table
from fullgroup_lab.fileio import write_json
from fullgroup_lab.walks import (
    ATOM_COUNT_MAX,
    DRAW_BLOCK,
    SHANNON_QUANTILES,
    _atom_draws,
    _atom_index,
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
    reference = ball(gens, 8)
    lengths = {reference.element(i): length
               for i, length in enumerate(reference.lengths.tolist())}
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
    assert not sample.max_abs.any() and not sample.final.any()
    assert sample.summary == [(j, 0.0, 0.0, 0.0, 0) for j in range(21)]


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


def test_lipschitz_increments(fib_measure, fib_point, walk_matrix, tmp_path, monkeypatch):
    # every step of a real sample stays within the generator shift bound
    oracle = walk_matrix(fib_measure, fib_point, 64, 500, 2)
    assert np.abs(np.diff(oracle.offsets, axis=1)).max() == fib_measure.max_shift == 1
    sample_orbit_walks(fib_measure, fib_point, 64, 500, seed=2)
    # one table entry past the bound is refused before any draw is made
    write_json(tmp_path / "fib.json", {"variant": "substitution", "rules": {"a": "ab", "b": "a"},
                                       "seed": "a"})
    write_json(tmp_path / "gens.json", {"spec": "fib.json", "builtin": "fibonacci"})
    real = walks.increment_table
    draws = []
    monkeypatch.setattr(walks, "_atom_draws", lambda *args: draws.append(args))
    for entry in (2, -2):
        def jumpy(gens, point, span, dtype):
            table = real(gens, point, span, dtype)
            table[1, span] = entry
            return table
        monkeypatch.setattr(walks, "increment_table", jumpy)
        with pytest.raises(InternalInvariantError):
            sample_orbit_walks(fib_measure, fib_point, 5, 10, seed=0)
        out = tmp_path / f"jump{entry}"
        assert main(["walk", "--spec", str(tmp_path / "fib.json"),
                     "--gens", str(tmp_path / "gens.json"), "--n", "5", "--trials", "10",
                     "--out", str(out)]) == 4
        assert not out.exists()
    assert draws == []


def test_sampling_deterministic_and_prefix_stable(fib_measure, fib_point, walk_matrix):
    a = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=5)
    b = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=5)
    c = sample_orbit_walks(fib_measure, fib_point, 12, 650, seed=5)
    d = sample_orbit_walks(fib_measure, fib_point, 12, 400, seed=6)
    assert a.summary == b.summary
    assert np.array_equal(a.max_abs, b.max_abs) and np.array_equal(a.final, b.final)
    assert np.array_equal(a.max_abs, c.max_abs[:400]) and np.array_equal(a.final, c.final[:400])
    assert not np.array_equal(a.final, d.final)
    # draws are made in blocks of DRAW_BLOCK trials; a prefix that crosses a
    # block boundary must not depend on where the blocks fall
    e = walk_matrix(fib_measure, fib_point, 12, 2100, 5)
    f = walk_matrix(fib_measure, fib_point, 12, 4500, 5)
    assert np.array_equal(e.offsets, f.offsets[:2100])
    assert np.array_equal(walk_matrix(fib_measure, fib_point, 12, 400, 5).offsets,
                          e.offsets[:400])
    g = sample_orbit_walks(fib_measure, fib_point, 12, 4500, seed=5)
    assert np.array_equal(g.max_abs[:2100], e.max_abs) and np.array_equal(g.final[:2100], e.final)


def test_large_shift_increments_are_not_truncated(fib_spec, fib_point, walk_matrix):
    up = from_table(fib_spec, 0, {"a": 128, "b": 128})
    measure = StepMeasure(fib_spec, (("up", up, Fraction(1, 2)),
                                     ("down", inverse(up), Fraction(1, 2))))
    # at n = 240 the span 128n + 1 passes 30,000, so the offsets are int32
    for n, dtype in ((30, np.int16), (240, np.int32)):
        sample = sample_orbit_walks(measure, fib_point, n, 200, seed=1)
        oracle = walk_matrix(measure, fib_point, n, 200, 1)
        assert np.all(oracle.offsets % 128 == 0)
        assert np.all(np.abs(np.diff(oracle.offsets, axis=1)) == 128)
        assert sample.final.dtype == dtype
        assert np.array_equal(sample.max_abs, oracle.max_abs)
        assert np.array_equal(sample.final, oracle.final)
        assert sample.summary == oracle.summary


def test_more_than_256_atoms_are_all_drawn():
    # on the one-letter shift sigma^k moves the point by k everywhere,
    # so the final offset of a one-step walk names the atom drawn
    measure, moves = _shift_measure(150)
    sample = sample_orbit_walks(measure, canonical_point(measure.spec), 1, 3000, seed=3)
    assert set(sample.final.tolist()) == set(moves.tolist())


def _halves_measure(spec):
    """Stay put with weight 1/2, shift by +1 or -1 with weight 1/4 each."""
    up = from_table(spec, 0, {a: 1 for a in spec.language.words(1)})
    return StepMeasure(spec, (("e", identity(spec), Fraction(1, 2)),
                              ("up", up, Fraction(1, 4)),
                              ("down", inverse(up), Fraction(1, 4)))), np.array([0, 1, -1])


def _shift_measure(k_max):
    """2 * k_max atoms sigma^{+-k}, k = 1..k_max, of equal weight, on the
    one-letter shift, with the move of each."""
    spec = FullShiftSpec(("a",))
    w = Fraction(1, 2 * k_max)
    atoms = []
    for k in range(1, k_max + 1):
        g = from_table(spec, 0, {"a": k})
        atoms += [(f"+{k}", g, w), (f"-{k}", inverse(g), w)]
    moves = np.array([s * k for k in range(1, k_max + 1) for s in (1, -1)])
    return StepMeasure(spec, tuple(atoms)), moves


# (atoms, bits per draw) of each measure: 1, 2, 4, 8 and 16 bits
_DRAW_MEASURES = {"two_atoms": (2, 1), "halves": (3, 2), "eight_atoms": (8, 4),
                  "forty_atoms": (40, 8), "many_atoms": (300, 16)}


@pytest.mark.parametrize("seed", [0, 7, 2**62 + 5, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("which", list(_DRAW_MEASURES))
def test_atom_draws_equal_a_new_philox_per_trial(fib_spec, oracle_draws, seed, which):
    atoms, bits = _DRAW_MEASURES[which]
    measure, moves = _halves_measure(fib_spec) if atoms == 3 else _shift_measure(atoms // 2)
    assert len(measure.atoms) == atoms
    per = max(1, 8 // bits)
    # 9 is no multiple of 8, 4 or 2 draws per byte; the increment table of
    # 300 atoms grows with k*n, so their walks stay short
    n = 9 if atoms < 300 else 2
    expected = oracle_draws(measure, n, DRAW_BLOCK + 1, seed)
    for rows in (DRAW_BLOCK - 1, DRAW_BLOCK + 1):
        draws = _atom_draws(measure, n, rows, seed)
        assert draws.dtype == (np.uint8 if bits <= 8 else np.uint16)
        assert draws.shape == (math.ceil(n / per), rows) and draws.flags.c_contiguous
        # draw j of trial t: row j // per, bits (j % per) * b upwards
        unpacked = np.stack([(draws[j // per] >> (j % per * bits)) & ((1 << bits) - 1)
                             for j in range(n)], axis=1)
        assert np.array_equal(unpacked, expected[:rows])
        assert not np.any(draws[-1] >> ((n - 1) % per + 1) * bits)  # unused bits are 0
        # every atom moves each point by the same amount, so the sampled
        # offsets are the running sums of the drawn moves
        sample = sample_orbit_walks(measure, canonical_point(measure.spec), n, rows, seed)
        offsets = np.cumsum(moves[expected[:rows]], axis=1)
        assert np.array_equal(sample.final, offsets[:, -1])
        assert np.array_equal(sample.max_abs, np.abs(offsets).max(axis=1))


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
    measure = fib_measure if which == "fibonacci" else _shift_measure(150)[0]
    point = fib_point if which == "fibonacci" else canonical_point(measure.spec)
    span = measure.max_shift * 3 + 1
    table = increment_table(measure.generator_set(), point, span, np.int16)
    assert table.dtype == np.int16 and table.shape == (len(measure.atoms), 2 * span + 1)
    assert np.array_equal(table, _evaluated_increment_table(measure, point, span))


def test_atom_increment_table_rejects_inadmissible_windows(fib_gens, fib_measure):
    # a point outside the subshift is refused where its windows meet a table
    point = PeriodicPoint("bb")
    with pytest.raises(SpecMismatch):
        evaluate(fib_gens["gamma"], point, 0)
    with pytest.raises(SpecMismatch):
        increment_table(fib_measure.generator_set(), point, 3, np.int16)


def test_negative_and_large_seeds_give_distinct_samples(fib_measure, fib_point):
    seeds = [0, -1, -3, 2**63, 2**63 + 1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = [sample_orbit_walks(fib_measure, fib_point, 20, 50, seed=s).summary
                   for s in seeds]
    for i in range(len(seeds)):
        for j in range(i):
            assert samples[i] != samples[j], (seeds[i], seeds[j])


@pytest.mark.parametrize("seed", [0, 5, 2**62 + 5])
@pytest.mark.parametrize("trials", [1, DRAW_BLOCK - 1, DRAW_BLOCK + 1, 2100])
@pytest.mark.parametrize("n", [1, 30])
def test_streamed_summary_equals_the_matrix_oracle(fib_measure, fib_point, walk_matrix,
                                                   seed, trials, n):
    sample = sample_orbit_walks(fib_measure, fib_point, n, trials, seed)
    oracle = walk_matrix(fib_measure, fib_point, n, trials, seed)
    assert sample.summary == oracle.summary
    assert np.array_equal(sample.max_abs, oracle.max_abs)
    assert np.array_equal(sample.final, oracle.final)


def test_sample_keeps_per_trial_vectors_and_no_matrix(fib_measure, fib_point):
    sample = sample_orbit_walks(fib_measure, fib_point, 30, 100, seed=8)
    arrays = {k: v.shape for k, v in vars(sample).items() if isinstance(v, np.ndarray)}
    assert arrays == {"max_abs": (100,), "final": (100,)}
    assert [row[0] for row in sample.summary] == list(range(31))


def test_walk_peak_memory_is_counted_by_the_cap(fib_measure, fib_point):
    n, trials = 400, 5000
    sample_orbit_walks(fib_measure, fib_point, n, 1, seed=0)  # language tables built
    tracemalloc.start()
    try:
        sample_orbit_walks(fib_measure, fib_point, n, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the atoms of every draw, four 2-bit draws to a byte; one byte per draw
    # would add 1.5 MB here and fail the bound below
    moves = math.ceil(n / 4) * trials
    # one block of draws: the floats, their uint8 atom indices, the compare
    # mask and the packed rows
    block = DRAW_BLOCK * (n * (8 + 1 + 1) + math.ceil(n / 4))
    assert peak < moves + block + 3 * 10**5
    assert peak <= _check_sample_size(n, trials, len(fib_measure.atoms), n + 1, np.int16)
    # below the int16 offset matrix that the sampler no longer holds
    assert peak < trials * (n + 1) * 2


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


def _tail_oracle(sample):
    """The tail statistics from one scan of the arrays per grid point: the
    supported grid, its exceedance counts, b0 and the reflection rows."""
    max_abs, final_abs = sample.max_abs, np.abs(sample.final)
    scale = math.sqrt(sample.n)
    grid = []
    for a in walks.BASE_TAIL_GRID:
        if int(np.sum(max_abs >= a * scale)) < walks.MIN_TAIL_EXCEEDANCES:
            break
        grid.append(float(a))
    counts = tuple(int(np.sum(max_abs >= a * scale)) for a in grid)
    b0 = next(float(a) for a in walks.BASE_TAIL_GRID
              if np.mean(final_abs >= a * scale) <= 0.5)
    rows = tuple((float(a), float(np.mean(max_abs >= a * scale)),
                  2.0 * float(np.mean(final_abs >= (a - b0) * scale))) for a in grid)
    return tuple(grid), counts, b0, rows


@pytest.mark.parametrize("n, seed", [(400, 0), (400, 7), (37, 5)])
def test_tail_reports_equal_the_per_threshold_oracle(fib_measure, fib_point, n, seed):
    sample = sample_orbit_walks(fib_measure, fib_point, n, 20_000, seed)
    grid, counts, b0, rows = _tail_oracle(sample)
    if n == 400:
        # sqrt(n) = 20 makes every threshold an integer, and maxima land on them
        assert all(np.any(sample.max_abs == a * 20) for a in grid[:-1])
    assert supported_a_grid(sample) == grid
    curve = max_displacement_tail(sample, grid)
    assert curve.exceedances == counts
    assert curve.fit.b0 == b0
    refl = reflection_check(sample, grid, b0)
    assert refl.rows == rows
    assert refl.holds == all(lhs <= rhs + 1e-12 for _, lhs, rhs in rows)


# --- depth-stability reports --------------------------------------------------------------


def test_cylinder_depth_formula():
    assert cylinder_depth(1, 9.0) == cylinder_depth(2, 9.0)
    assert cylinder_depth(6, 9.0) == math.ceil(math.sqrt(9.0 * 6 * math.log(6)))


def test_cylinder_depth_refuses_a_finite_scale_whose_depth_is_not():
    # scale * n * ln n passes the float range though the scale does not
    assert cylinder_depth(4, 1e300) == math.ceil(math.sqrt(1e300 * 4 * math.log(4)))
    for n, scale in ((1, 1.7e308), (4, 1.7e308), (10**6, 1e303)):
        with pytest.raises(DomainError, match="float range"):
            cylinder_depth(n, scale)


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


@pytest.mark.parametrize("depth_scale", [9.0, 0.05])
def test_stable_report_on_a_ball_grown_past_n(fib_measure, depth_scale):
    chain = ConvolutionCache(fib_measure, ball(fib_measure.generator_set(), 8))
    lengths, depths = chain.ball.lengths, chain.ball.depths
    assert lengths.max() == 8
    for n in range(1, 9):
        rep = stable_set_report(chain, n, depth_scale)
        in_ball = lengths <= n
        assert rep.ball_size == int(np.count_nonzero(in_ball))
        assert rep.stable_count == int(np.count_nonzero(in_ball & (depths <= rep.depth)))


def test_entropy_run_sums_each_power_once(tmp_path, monkeypatch):
    write_json(tmp_path / "fib.json", {"variant": "substitution", "rules": {"a": "ab", "b": "a"},
                                       "seed": "a"})
    write_json(tmp_path / "gens.json", {"spec": "fib.json", "builtin": "fibonacci"})
    real = walks.entropy
    powers = []

    def counting(dist):
        powers.append(dist.n)
        return real(dist)

    monkeypatch.setattr(walks, "entropy", counting)
    assert main(["entropy", "--spec", str(tmp_path / "fib.json"),
                 "--gens", str(tmp_path / "gens.json"), "--n", "8",
                 "--out", str(tmp_path / "out")]) == 0
    # the rows, the envelope and the rates all read one sum per power
    assert sorted(powers) == list(range(9))


# --- return probabilities ------------------------------------------------------------------


def test_return_suite_fibonacci(fib_cache):
    suite = return_probability_suite(fib_cache, 3)
    assert suite.rows[0].return_prob == Fraction(1, 3)
    assert suite.all_max_at_identity()
    assert suite.monotone
    assert suite.fitted_constant < math.inf


def _first_constant(grid, ns, holds):
    """The grid search written out: c fails at its first failing n."""
    for c in grid:
        ok = True
        for n in ns:
            if not holds(c, n):
                ok = False
                break
        if ok:
            return c
    return None


def test_fitted_constants_equal_the_grid_search(fib_spec, fib_cache):
    oracle = fib_spec.language
    suite = return_probability_suite(fib_cache, 5)

    def returns_hold(c, n):
        rho = oracle.complexity(math.ceil(c * math.sqrt(n * math.log(max(n, 2)))))
        lower = (1.0 / c) * math.exp(-c * rho * math.log(max(n, 2))) if n > 1 else 1.0 / c
        return not float(suite.rows[n - 1].return_prob) < lower

    assert suite.fitted_constant == _first_constant(
        [i / 4.0 for i in range(1, 257)], range(1, 6), returns_hold)
    env = entropy_envelope(fib_cache, 10)

    def envelope_holds(c, n):
        rho = oracle.complexity(math.ceil(c * math.sqrt(n * math.log(n))))
        return env.entropies[n] <= c * rho * math.log(n) + 1e-12

    assert env.fitted_constant == _first_constant(walks.ENVELOPE_GRID, range(2, 11),
                                                  envelope_holds)
    assert env.entropies == tuple(fib_cache.power(n).entropy for n in range(11))


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


# --- exact group-element diagnostics --------------------------------------------------------


def test_cylinder_nonconstancy_rare_at_large_depth(fib_spec, fib_cache, fib_point):
    word = fib_point.window(0, cylinder_depth(8, 9.0))
    rate = cylinder_nonconstancy_rate(fib_cache, word, 8)
    assert rate == 0.0  # depth 8 walks cannot reach depth-15 cylinders


def test_single_cylinder_nonconstancy_bound(fib_cache, fib_point, tail_sample):
    # the non-constancy probability on a depth-d(n) cylinder is controlled
    # by C1 * n^(-L / 4D) with the constants read off the tail fit
    n, scale = 10, 9.0
    curve = max_displacement_tail(tail_sample, supported_a_grid(tail_sample))
    word = fib_point.window(0, cylinder_depth(n, scale))
    rate = cylinder_nonconstancy_rate(fib_cache, word, n)
    bound = curve.fit.c * n ** (-scale / (4.0 * curve.fit.d))
    assert rate <= bound


def test_default_depth_scale_exceeds_eight_fits(tail_sample):
    from fullgroup_lab.walks import default_depth_scale

    curve = max_displacement_tail(tail_sample, supported_a_grid(tail_sample))
    assert default_depth_scale(curve.fit) == pytest.approx(9.0 * curve.fit.d)
    assert default_depth_scale(curve.fit) > 8.0 * curve.fit.d


def test_shannon_diagnostic_reports(fib_cache):
    diag = shannon_path_diagnostic(fib_cache, 8)
    assert diag["n"] == 8
    assert 0 < diag["quantiles"]["q10"] <= diag["quantiles"]["q90"]
    assert diag["mean"] > 0


@pytest.mark.parametrize("n", [0, -1])
def test_shannon_diagnostic_refuses_n_below_one(fib_cache, n):
    with pytest.raises(ValidationError, match="n must be >= 1"):
        shannon_path_diagnostic(fib_cache, n)


def _nonconstancy_oracle(law, word):
    """Mass of the law on elements not constant on the cylinder of `word`."""
    return sum((p for g, p in law.items() if not is_constant_on_cylinder(g, word)),
               Fraction(0))


def _shannon_oracle(law, n):
    """Mean and lower weighted quantiles of -log(p)/n under the law: the
    value at which the Fraction mass, summed in ascending order of value,
    first reaches q."""
    values = sorted((-math.log(float(p)) / n, p) for p in law.values())
    quantiles = {}
    for name, q in SHANNON_QUANTILES.items():
        mass = Fraction(0)
        for value, p in values:
            mass += p
            if mass >= q:
                quantiles[name] = value
                break
    return fraction_entropy(law) / n, quantiles


def test_exact_diagnostics_equal_the_fraction_oracle(fib_measure, fib_point):
    laws = fraction_chain(fib_measure, 8)
    chain = chain_of(fib_measure)
    for n in range(1, 9):
        words = ["a", "b", "aba", "baa", fib_point.window(0, 2), fib_point.window(3, 3),
                 fib_point.window(0, cylinder_depth(n, 9.0))]
        for word in words:
            rate = cylinder_nonconstancy_rate(chain, word, n)
            assert type(rate) is Fraction
            assert rate == _nonconstancy_oracle(laws[n], word)
        mean, quantiles = _shannon_oracle(laws[n], n)
        diag = shannon_path_diagnostic(chain, n)
        assert diag == {"n": n, "mean": mean, "quantiles": quantiles}
    # deeper elements cut a short cylinder, so this sum is not empty
    assert cylinder_nonconstancy_rate(chain, "a", 4) == Fraction(58, 81)


@pytest.mark.parametrize("which", ["fibonacci", "squares"])
def test_reports_read_rows_and_build_no_element(fib_measure, fib_point, monkeypatch, which):
    if which == "fibonacci":
        measure, point, words = fib_measure, fib_point, ["a", "b", "aba", "baa", "abaab",
                                                         fib_point.window(0, 3)]
    else:
        measure, point, words = _squares_measure(), PeriodicPoint("a"), ["a", "aaa"]
    # the element-based values, from the elements of a second chain's support
    law = chain_of(measure).power(12).probs
    chain = chain_of(measure)
    dist = chain.power(12)
    rates = {word: _nonconstancy_oracle(law, word) for word in words}
    offsets = defaultdict(Fraction)
    for g, p in law.items():
        offsets[evaluate(g, point, 0)] += p

    def refuse(*args):
        raise AssertionError("a report built a CocycleElement")

    monkeypatch.setattr(CocycleElement, "__init__", refuse)
    # on Fibonacci deeper elements cut some cylinder; on the one-letter
    # shift every element has depth 0
    assert any(rates.values()) == (which == "fibonacci")
    for word in words:
        assert cylinder_nonconstancy_rate(chain, word, 12) == rates[word]
    assert pushforward_offsets(dist, point) == offsets
    # an inadmissible cylinder carries no mass; a window outside the language
    # has no column to read
    assert cylinder_nonconstancy_rate(chain, "bbb" if which == "fibonacci" else "aba", 12) == 0
    with pytest.raises(SpecMismatch):
        pushforward_offsets(dist, PeriodicPoint("b"))


def test_nonconstancy_rate_rejects_even_words(fib_cache):
    with pytest.raises(ValueError):
        cylinder_nonconstancy_rate(fib_cache, "ab", 2)
