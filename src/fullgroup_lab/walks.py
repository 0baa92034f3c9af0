"""Random walks driven by finitely supported symmetric step measures.

Two complementary routes are implemented and cross-checked:

* exact convolution powers of the step measure over canonical group
  elements, with rational weights, from which entropy, return
  probabilities, and the depth-stability reports are computed exactly;
* Monte-Carlo orbit walks that track the integer offset of a fixed point
  along the trajectory, from which displacement tails are estimated and
  fitted against a Gaussian-shaped envelope.

Sampling uses one counter-based stream per trial, derived from
(seed, trial index), so results do not depend on trial batching or the
number of worker threads.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cocycles import (
    CocycleElement,
    GeneratorSet,
    ball,
    compose,
    evaluate,
    identity,
    inverse,
    is_constant_on_cylinder,
    is_constant_on_depth,
)
from .errors import (
    DomainError,
    InsufficientData,
    InternalInvariantError,
    ResourceLimit,
    ValidationError,
)
from .points import Point
from .subshifts import SubshiftSpec, language_table

DEFAULT_SUPPORT_CAP = 2_000_000
BASE_TAIL_GRID = tuple(round(0.25 * i, 2) for i in range(1, 17))  # 0.25 .. 4.0
MIN_TAIL_EXCEEDANCES = 10


def _threads_from_env() -> int:
    raw = os.environ.get("FULLGROUP_LAB_THREADS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Step measures and exact convolution


@dataclass(frozen=True)
class StepMeasure:
    """Finitely supported symmetric probability measure on named elements."""

    spec: SubshiftSpec
    atoms: tuple[tuple[str, CocycleElement, Fraction], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValidationError("a step measure needs at least one atom")
        total = sum((p for _, _, p in self.atoms), Fraction(0))
        if total != 1:
            raise ValidationError(f"atom probabilities sum to {total}, not 1")
        if any(p <= 0 for _, _, p in self.atoms):
            raise ValidationError("atom probabilities must be positive")
        probs = {g: p for _, g, p in self.atoms}
        if len(probs) != len(self.atoms):
            raise ValidationError("duplicate atoms in step measure")
        for _, g, p in self.atoms:
            if probs.get(inverse(g)) != p:
                raise ValidationError(
                    "measure is not symmetric: inverse atom missing or reweighted"
                )

    @property
    def min_prob(self) -> Fraction:
        """Uniform ellipticity constant of the induced orbit kernels."""
        return min(p for _, _, p in self.atoms)

    @property
    def support(self) -> tuple[CocycleElement, ...]:
        return tuple(g for _, g, _ in self.atoms)

    @property
    def max_shift(self) -> int:
        """Lipschitz bound: no atom moves any point by more than this."""
        return max(g.max_shift for _, g, _ in self.atoms)

    def generator_set(self) -> GeneratorSet:
        return GeneratorSet(self.spec, tuple((n, g) for n, g, _ in self.atoms))


def uniform_measure(gens: GeneratorSet) -> StepMeasure:
    p = Fraction(1, len(gens))
    return StepMeasure(gens.spec, tuple((name, g, p) for name, g in gens))


def measure_from_weights(gens: GeneratorSet, weights: Mapping[str, Fraction]) -> StepMeasure:
    atoms = tuple((name, g, Fraction(weights[name])) for name, g in gens)
    return StepMeasure(gens.spec, atoms)


@dataclass(frozen=True)
class GroupDistribution:
    """Exact distribution of the walk position after `n` steps."""

    n: int
    probs: dict[CocycleElement, Fraction]

    def __post_init__(self):
        total = sum(self.probs.values(), Fraction(0))
        if total != 1:
            raise InternalInvariantError(f"distribution mass {total} != 1 at step {self.n}")

    @property
    def support_size(self) -> int:
        return len(self.probs)

    def identity_mass(self, spec: SubshiftSpec) -> Fraction:
        return self.probs.get(identity(spec), Fraction(0))

    def max_prob(self) -> Fraction:
        return max(self.probs.values())


class ConvolutionCache:
    """Memoized chain of convolution powers of one step measure."""

    def __init__(self, measure: StepMeasure, cap: int = DEFAULT_SUPPORT_CAP):
        self.measure = measure
        self.cap = cap
        start = GroupDistribution(0, {identity(measure.spec): Fraction(1)})
        self._powers: list[GroupDistribution] = [start]

    def power(self, n: int) -> GroupDistribution:
        if n < 0:
            raise ValueError("convolution power must be nonnegative")
        while len(self._powers) <= n:
            self._powers.append(self._step(self._powers[-1]))
        return self._powers[n]

    def _step(self, dist: GroupDistribution) -> GroupDistribution:
        out: dict[CocycleElement, Fraction] = defaultdict(Fraction)
        for g, pg in dist.probs.items():
            for _, s, ps in self.measure.atoms:
                out[compose(s, g)] += ps * pg
        if len(out) > self.cap:
            raise ResourceLimit(f"convolution support exceeded {self.cap} elements")
        return GroupDistribution(dist.n + 1, dict(out))


def exact_convolution(measure: StepMeasure, n: int, cap: int = DEFAULT_SUPPORT_CAP,
                      cache: ConvolutionCache | None = None) -> GroupDistribution:
    """Distribution of the left walk after n steps (new atoms multiply on
    the left), deduplicated by canonical table identity."""
    if cache is None:
        cache = ConvolutionCache(measure, cap)
    return cache.power(n)


# ---------------------------------------------------------------------------
# Entropy


def entropy(dist: GroupDistribution | Mapping) -> float:
    """Shannon entropy in nats; the 0 log 0 terms are dropped."""
    probs = dist.probs.values() if isinstance(dist, GroupDistribution) else dist.values()
    total = 0.0
    for p in probs:
        x = float(p)
        if x > 0.0:
            total -= x * math.log(x)
    return total


@dataclass(frozen=True)
class MixtureEntropyCheck:
    holds: bool
    mixture_entropy: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.mixture_entropy


def mixture_entropy_check(components: Sequence[Mapping], weights: Sequence) -> MixtureEntropyCheck:
    """Verify that the entropy of a mixture is at most the weighted
    component entropies plus the entropy of the weights."""
    weights = [Fraction(w) if not isinstance(w, float) else w for w in weights]
    total = sum(weights)
    if abs(float(total) - 1.0) > 1e-9:
        raise ValidationError(f"mixture weights sum to {total}, not 1")
    mix: dict = defaultdict(float)
    for comp, w in zip(components, weights):
        for x, p in comp.items():
            mix[x] += float(w) * float(p)
    h_mix = entropy(mix)
    bound = sum(float(w) * entropy(c) for c, w in zip(components, weights))
    bound += entropy({i: w for i, w in enumerate(weights)})
    return MixtureEntropyCheck(h_mix <= bound + 1e-12, h_mix, bound)


# ---------------------------------------------------------------------------
# Monte-Carlo orbit walks


@dataclass
class WalkSample:
    """Sampled offset trajectories m_j of an orbit walk."""

    n: int
    trials: int
    seed: int
    max_shift: int
    offsets: np.ndarray  # shape (trials, n+1), offsets[:, 0] == 0

    @property
    def max_abs(self) -> np.ndarray:
        return np.max(np.abs(self.offsets), axis=1)

    @property
    def final(self) -> np.ndarray:
        return self.offsets[:, -1]

    def lipschitz_ok(self) -> bool:
        steps = np.diff(self.offsets, axis=1)
        return bool(np.all(np.abs(steps) <= self.max_shift))


def _atom_increment_table(measure: StepMeasure, point: Point, span: int,
                          dtype: np.dtype) -> np.ndarray:
    table = np.zeros((len(measure.atoms), 2 * span + 1), dtype=dtype)
    for i, (_, g, _) in enumerate(measure.atoms):
        for off in range(-span, span + 1):
            table[i, off + span] = evaluate(g, point, off)
    return table


def sample_orbit_walks(measure: StepMeasure, point: Point, n: int, trials: int,
                       seed: int, threads: int | None = None) -> WalkSample:
    """Simulate `trials` independent orbit walks of length `n`.

    The offset after each step is the cocycle of the running product at the
    start point; increments are read from a precomputed per-atom table, so
    the point's windows are only evaluated once per reachable offset.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if n < 0:
        raise ValidationError("walk length must be nonnegative")
    threads = threads or _threads_from_env()
    k = measure.max_shift
    span = k * n + 1
    # for n >= 1 every increment is at most k < span, so it fits the offsets dtype
    dtype = np.int16 if span < 30000 else np.int32
    inc = _atom_increment_table(measure, point, span, dtype)
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    cum[-1] = 1.0
    draw_dtype = np.min_scalar_type(len(measure.atoms) - 1)
    offsets = np.zeros((trials, n + 1), dtype=dtype)
    seed_word = seed & 0xFFFFFFFFFFFFFFFF

    def run_chunk(lo: int, hi: int) -> None:
        block = 2048
        for start in range(lo, hi, block):
            stop = min(start + block, hi)
            rows = stop - start
            draws = np.empty((rows, n), dtype=draw_dtype)
            for t in range(start, stop):
                gen = np.random.Generator(np.random.Philox(key=[seed_word, t]))
                draws[t - start] = np.searchsorted(cum, gen.random(n), side="right")
            pos = np.zeros(rows, dtype=np.int64)
            out = offsets[start:stop]
            for j in range(n):
                pos += inc[draws[:, j], pos + span]
                out[:, j + 1] = pos

    if threads <= 1 or trials < 4096:
        run_chunk(0, trials)
    else:
        bounds = np.linspace(0, trials, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(lambda i: run_chunk(bounds[i], bounds[i + 1]), range(threads)))
    sample = WalkSample(n, trials, seed, k, offsets)
    if n and not sample.lipschitz_ok():
        raise InternalInvariantError("sampled increments exceed the generator shift bound")
    return sample


def empirical_offset_distribution(sample: WalkSample) -> dict[int, float]:
    values, counts = np.unique(sample.final, return_counts=True)
    return {int(v): c / sample.trials for v, c in zip(values, counts)}


def pushforward_offsets(dist: GroupDistribution, point: Point,
                        position: int = 0) -> dict[int, Fraction]:
    """Exact law of the orbit offset under the group-element distribution."""
    out: dict[int, Fraction] = defaultdict(Fraction)
    for g, p in dist.probs.items():
        out[evaluate(g, point, position)] += p
    return dict(out)


def total_variation(p: Mapping, q: Mapping) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(x, 0)) - float(q.get(x, 0))) for x in keys)


# ---------------------------------------------------------------------------
# Displacement tails


@dataclass(frozen=True)
class TailFit:
    """Gaussian-shaped envelope for the scaled maximal displacement.

    The shape (d, a0) comes from a weighted least-squares fit of the
    log-tail; c is then raised to the smallest constant that dominates the
    empirical curve on the fitted grid.  b0 is the smallest grid value
    whose final-offset tail drops to 1/2, used by the reflection check.
    """

    c: float
    d: float
    a0: float
    b0: float

    def envelope(self, a) -> np.ndarray:
        a = np.asarray(a, dtype=float)
        return self.c * np.exp(-((a - self.a0) ** 2) / self.d)


@dataclass(frozen=True)
class TailCurve:
    n: int
    trials: int
    a_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    exceedances: tuple[int, ...]
    fit: TailFit

    def dominated(self) -> bool:
        env = self.fit.envelope(self.a_grid)
        return bool(np.all(env + 1e-12 >= np.asarray(self.empirical)))


def supported_a_grid(sample: WalkSample, base_grid: Iterable[float] = BASE_TAIL_GRID,
                     min_exceedances: int = MIN_TAIL_EXCEEDANCES) -> tuple[float, ...]:
    """Prefix of the grid on which the tail still has enough exceedances
    to estimate probabilities."""
    max_abs = sample.max_abs
    scale = math.sqrt(sample.n)
    out = []
    for a in base_grid:
        if int(np.sum(max_abs >= a * scale)) >= min_exceedances:
            out.append(float(a))
        else:
            break
    return tuple(out)


def _tail_b0(sample: WalkSample, base_grid: Iterable[float]) -> float:
    final_abs = np.abs(sample.final)
    scale = math.sqrt(sample.n)
    for a in base_grid:
        if np.mean(final_abs >= a * scale) <= 0.5:
            return float(a)
    raise InsufficientData("final-offset tail never drops below 1/2 on the grid")


def max_displacement_tail(sample: WalkSample,
                          a_grid: Iterable[float] = BASE_TAIL_GRID) -> TailCurve:
    """Empirical tail of max_j |m_j| / sqrt(n) with its dominating fit.

    Raises InsufficientData when the largest grid point has fewer than 10
    exceedances; trim the grid with `supported_a_grid` first.
    """
    a_grid = tuple(float(a) for a in a_grid)
    if len(a_grid) < 3:
        raise InsufficientData("need at least three grid points to fit the tail shape")
    max_abs = sample.max_abs
    scale = math.sqrt(sample.n)
    counts = [int(np.sum(max_abs >= a * scale)) for a in a_grid]
    if counts[-1] < MIN_TAIL_EXCEEDANCES:
        raise InsufficientData(
            f"only {counts[-1]} exceedances at a={a_grid[-1]}; trim the grid"
        )
    probs = [c / sample.trials for c in counts]
    log_p = np.log(probs)
    coeffs = np.polyfit(a_grid, log_p, 2, w=np.sqrt(counts))
    c2, c1, c0 = coeffs
    if c2 >= -1e-12:
        raise InsufficientData("tail curve is not log-concave on this grid")
    d = -1.0 / c2
    a0 = c1 * d / 2.0
    log_c = c0 + a0 * a0 / d
    # raise C to the smallest dominating constant
    log_c = max(log_c, max(lp + (a - a0) ** 2 / d for a, lp in zip(a_grid, log_p)))
    fit = TailFit(float(math.exp(log_c)), float(d), float(a0), _tail_b0(sample, BASE_TAIL_GRID))
    return TailCurve(sample.n, sample.trials, a_grid, tuple(probs), tuple(counts), fit)


@dataclass(frozen=True)
class ReflectionCheck:
    holds: bool
    rows: tuple[tuple[float, float, float], ...]  # (a, lhs, rhs)


def reflection_check(sample: WalkSample, a_grid: Iterable[float], b0: float) -> ReflectionCheck:
    """Empirical version of the maximal inequality: the running-maximum
    tail at x is at most twice the final-offset tail at x - b0*sqrt(n)."""
    max_abs = sample.max_abs
    final_abs = np.abs(sample.final)
    scale = math.sqrt(sample.n)
    rows = []
    ok = True
    for a in a_grid:
        lhs = float(np.mean(max_abs >= a * scale))
        rhs = 2.0 * float(np.mean(final_abs >= (a - b0) * scale))
        rows.append((float(a), lhs, rhs))
        ok = ok and lhs <= rhs + 1e-12
    return ReflectionCheck(ok, tuple(rows))


# ---------------------------------------------------------------------------
# Depth-stability reports and entropy bounds


def cylinder_depth(n: int, depth_scale: float) -> int:
    """ceil(sqrt(scale * n * ln n)); n=1 shares the n=2 value so the log
    never vanishes."""
    n_eff = max(n, 2)
    return math.ceil(math.sqrt(depth_scale * n_eff * math.log(n_eff)))


def default_depth_scale(fit: TailFit) -> float:
    """Depth scale derived from a fitted tail: 9 times the fitted Gaussian
    denominator, comfortably above the 8x threshold the stability argument
    needs.  Use when a walk's TailFit is available; 9.0 is a reasonable
    stand-in otherwise."""
    return 9.0 * fit.d


@dataclass(frozen=True)
class StableSetReport:
    """Exact accounting of the walk mass carried by elements whose cocycle
    is constant on every cylinder of the report depth."""

    n: int
    depth_scale: float
    depth: int
    stable_mass: Fraction          # walk mass on depth-stable elements
    stable_count: int              # depth-stable elements in the radius-n ball
    stable_support_count: int      # depth-stable elements in the walk support
    ball_size: int
    walk_entropy: float
    cylinder_count: int            # admissible words of length 2*depth+1
    log_count_bound: float         # log of (2Kn+1)^cylinder_count
    entropy_bound: float           # mixture bound on the walk entropy
    support_size: int

    @property
    def entropy_slack(self) -> float:
        return self.entropy_bound - self.walk_entropy


def stable_set_report(spec: SubshiftSpec, measure: StepMeasure, dist: GroupDistribution,
                      n: int, depth_scale: float, cap: int = DEFAULT_SUPPORT_CAP,
                      ball_table: Mapping[CocycleElement, int] | None = None) -> StableSetReport:
    """Report on the depth-stable subset at step n.

    `dist` must be the n-th convolution power of `measure`.  The stable
    mass is computed exactly over the support; the stable count enumerates
    the whole radius-n ball (pass a precomputed `ball_table` to share it
    across reports).
    """
    if dist.n != n:
        raise ValidationError(f"distribution is at step {dist.n}, report wants {n}")
    if depth_scale <= 0:
        raise DomainError("depth scale must be positive")
    d = cylinder_depth(n, depth_scale)
    stable_support = [g for g in dist.probs if is_constant_on_depth(g, d)]
    mass = sum((dist.probs[g] for g in stable_support), Fraction(0))
    if ball_table is None:
        ball_table = ball(measure.generator_set(), n, cap)
    ball_size = sum(1 for _, length in ball_table.items() if length <= n)
    stable_count = sum(
        1 for g, length in ball_table.items() if length <= n and is_constant_on_depth(g, d)
    )
    h = entropy(dist)
    k = measure.max_shift
    cylinder_count = language_table(spec).complexity(2 * d + 1)
    log_count_bound = cylinder_count * math.log(2 * k * n + 1) if n else 0.0
    support = len(measure.atoms)
    bound = (
        math.log(max(stable_count, 1))
        + n * float(1 - mass) * math.log(support)
        + math.log(2.0)
    )
    return StableSetReport(
        n=n,
        depth_scale=depth_scale,
        depth=d,
        stable_mass=mass,
        stable_count=stable_count,
        stable_support_count=len(stable_support),
        ball_size=ball_size,
        walk_entropy=h,
        cylinder_count=cylinder_count,
        log_count_bound=log_count_bound,
        entropy_bound=bound,
        support_size=dist.support_size,
    )


@dataclass(frozen=True)
class ReturnProbabilityRow:
    n: int
    even_step: int
    return_prob: Fraction
    max_prob: Fraction

    @property
    def max_at_identity(self) -> bool:
        return self.return_prob == self.max_prob


@dataclass(frozen=True)
class ReturnProbabilitySuite:
    rows: tuple[ReturnProbabilityRow, ...]
    monotone: bool
    fitted_constant: float

    def all_max_at_identity(self) -> bool:
        return all(r.max_at_identity for r in self.rows)


def return_probability_suite(measure: StepMeasure, n_max: int,
                             cap: int = DEFAULT_SUPPORT_CAP,
                             cache: ConvolutionCache | None = None,
                             spec_for_bound: SubshiftSpec | None = None) -> ReturnProbabilitySuite:
    """Exact even-time return probabilities with the max-at-identity and
    monotonicity checks, plus the smallest constant C for which the
    complexity-driven lower bound holds on the computed range."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    if cache is None:
        cache = ConvolutionCache(measure, cap)
    spec = measure.spec
    rows = []
    for n in range(1, n_max + 1):
        dist = cache.power(2 * n)
        rows.append(
            ReturnProbabilityRow(n, 2 * n, dist.identity_mass(spec), dist.max_prob())
        )
    monotone = all(rows[i].return_prob >= rows[i + 1].return_prob for i in range(len(rows) - 1))
    oracle = language_table(spec_for_bound or spec)
    fitted = math.inf
    for c_times_4 in range(1, 257):
        c = c_times_4 / 4.0
        ok = True
        for row in rows:
            n = row.n
            rho = oracle.complexity(math.ceil(c * math.sqrt(n * math.log(max(n, 2)))))
            lower = (1.0 / c) * math.exp(-c * rho * math.log(max(n, 2))) if n > 1 else 1.0 / c
            if float(row.return_prob) < lower:
                ok = False
                break
        if ok:
            fitted = c
            break
    return ReturnProbabilitySuite(tuple(rows), monotone, fitted)


@dataclass(frozen=True)
class EntropyEnvelope:
    """Smallest grid constant C with H(mu^{*n}) <= C rho(ceil(C sqrt(n ln n))) ln n
    for all computed n >= 2."""

    fitted_constant: float
    entropies: tuple[float, ...]          # H at n = 0 .. n_max
    bound_values: tuple[float, ...]       # bound at the fitted constant, n >= 2
    slack: tuple[float, ...]

    @property
    def entropy_rates(self) -> tuple[float, ...]:
        return tuple(h / n if n else 0.0 for n, h in enumerate(self.entropies))


def entropy_envelope(spec: SubshiftSpec, measure: StepMeasure, n_max: int,
                     cap: int = DEFAULT_SUPPORT_CAP,
                     cache: ConvolutionCache | None = None,
                     c_grid: Iterable[float] | None = None) -> EntropyEnvelope:
    if n_max < 2:
        raise ValidationError("n_max must be >= 2")
    if cache is None:
        cache = ConvolutionCache(measure, cap)
    entropies = [entropy(cache.power(n)) for n in range(n_max + 1)]
    oracle = language_table(spec)
    if c_grid is None:
        c_grid = [i / 20.0 for i in range(1, 401)]

    def bound_at(c: float, n: int) -> float:
        return c * oracle.complexity(math.ceil(c * math.sqrt(n * math.log(n)))) * math.log(n)

    fitted = None
    for c in c_grid:
        if all(entropies[n] <= bound_at(c, n) + 1e-12 for n in range(2, n_max + 1)):
            fitted = float(c)
            break
    if fitted is None:
        raise InsufficientData("no grid constant satisfies the entropy envelope")
    bounds = tuple(bound_at(fitted, n) for n in range(2, n_max + 1))
    slack = tuple(b - entropies[n] for n, b in zip(range(2, n_max + 1), bounds))
    return EntropyEnvelope(fitted, tuple(entropies), bounds, slack)


def folner_growth_bound(alpha: float, epsilon: float, c2: float, n: int) -> float:
    """Evaluate the reported upper bound C2 exp(C2 n^{2a/(2-a)+eps}) for a
    group whose subshift complexity is O(n^alpha), 1 <= alpha < 2."""
    if not 1.0 <= alpha < 2.0:
        raise DomainError(f"alpha must lie in [1, 2), got {alpha}")
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    if c2 <= 0:
        raise DomainError("the constant must be positive")
    if n < 1:
        raise DomainError("n must be >= 1")
    exponent = 2.0 * alpha / (2.0 - alpha) + epsilon
    try:
        return c2 * math.exp(c2 * n**exponent)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Element sampling (used by the single-cylinder checks and diagnostics)


def sample_group_elements(measure: StepMeasure, n: int, trials: int,
                          seed: int) -> dict[CocycleElement, int]:
    """Sample `trials` walk endpoints g_n and count them by element."""
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    cum[-1] = 1.0
    atoms = [g for _, g, _ in measure.atoms]
    counts: dict[CocycleElement, int] = defaultdict(int)
    seed_word = seed & 0xFFFFFFFFFFFFFFFF
    for t in range(trials):
        gen = np.random.Generator(np.random.Philox(key=[seed_word, t]))
        g = identity(measure.spec)
        for idx in np.searchsorted(cum, gen.random(n), side="right"):
            g = compose(atoms[idx], g)
        counts[g] += 1
    return dict(counts)


def cylinder_nonconstancy_rate(measure: StepMeasure, word: str, n: int,
                               trials: int, seed: int) -> float:
    """Empirical probability that a sampled g_n is not constant on the
    cylinder of `word`."""
    counts = sample_group_elements(measure, n, trials, seed)
    bad = sum(c for g, c in counts.items() if not is_constant_on_cylinder(g, word))
    return bad / trials


def shannon_path_diagnostic(measure: StepMeasure, n: int, trials: int, seed: int,
                            cache: ConvolutionCache | None = None) -> dict:
    """Report -(1/n) log mu^{*n}(g_n) along sampled paths (diagnostic only:
    the almost-sure limit is asymptotic, no threshold is attached)."""
    if cache is None:
        cache = ConvolutionCache(measure)
    dist = cache.power(n)
    counts = sample_group_elements(measure, n, trials, seed)
    vals = []
    for g, c in counts.items():
        p = dist.probs.get(g)
        if p is None:
            raise InternalInvariantError("sampled element missing from exact support")
        vals.extend([-math.log(float(p)) / n] * c)
    arr = np.asarray(vals)
    return {
        "n": n,
        "trials": trials,
        "mean": float(arr.mean()),
        "quantiles": {
            "q10": float(np.quantile(arr, 0.10)),
            "q50": float(np.quantile(arr, 0.50)),
            "q90": float(np.quantile(arr, 0.90)),
        },
    }
