"""Random walks driven by finitely supported symmetric step measures.

Two complementary routes are implemented and cross-checked:

* exact convolution powers of the step measure on the word-metric ball
  of its atoms, held as integer path counts over D^n (D the common
  denominator of the atom weights), from which entropy, return
  probabilities, and the depth-stability reports are computed exactly;
  Fractions are built only where a report asks for one;
* Monte-Carlo orbit walks that track the integer offset of a fixed point
  along the trajectory, from which displacement tails are estimated and
  fitted against a Gaussian-shaped envelope.

Each trial t draws from its own counter-based stream, Philox keyed by
(seed mod 2^64, t), so results do not depend on trial batching.  One
generator per sampler call is rekeyed for each trial, and draws are mapped
to atoms one block of trials at a time, in reused buffers: up to
ATOM_COUNT_MAX atoms by counting the cumulative bounds each float passes,
past that by one binary search.  Each step of a block then reads the
position-major increment table once, flat at (offset + span) * atoms +
atom.  Offsets are stored step-major, so each step's offsets across the
trials are contiguous, and the Lipschitz check differences them a chunk of
step rows at a time.  A sample whose arrays, all counted, would pass
MAX_SAMPLE_BYTES is refused with ResourceLimit before anything is
allocated.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .cocycles import (
    CayleyBall,
    CocycleElement,
    GeneratorSet,
    compose,
    evaluate,
    identity,
    inverse,
    is_constant_on_cylinder,
)
from .errors import (
    DomainError,
    InsufficientData,
    InternalInvariantError,
    ResourceLimit,
    SpecMismatch,
    ValidationError,
)
from .points import Point
from .subshifts import SubshiftSpec, language_table

BASE_TAIL_GRID = tuple(round(0.25 * i, 2) for i in range(1, 17))  # 0.25 .. 4.0
MIN_TAIL_EXCEEDANCES = 10
ENVELOPE_GRID = tuple(i / 20.0 for i in range(1, 401))  # 0.05 .. 20.0
DRAW_BLOCK = 2048  # trials whose draws are held at once
# counting bounds costs one pass over a block per atom; at 64 atoms it still
# beat one binary search (33 ms against 57 ms for a 2,048 x 400 block, 2-vCPU
# Xeon VM, numpy 2.4)
ATOM_COUNT_MAX = 64
CHECK_CHUNK_BYTES = 1 << 20  # offsets differenced at once by the Lipschitz check
MAX_SAMPLE_BYTES = 1 << 30  # cap on the arrays of one orbit-walk sample

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


class GroupDistribution:
    """Exact distribution of the walk position after `n` steps.

    Support element i is `ball.elements[index[i]]` and has probability
    `counts[i] / denominator`: integer path counts over D^n.  The support
    is in first-insertion order (the previous support's order, then atom
    order); `probs` builds the Fractions on first use.
    """

    def __init__(self, n: int, ball: CayleyBall, index: np.ndarray, counts: np.ndarray,
                 denominator: int):
        if int(counts.sum()) != denominator:
            raise InternalInvariantError(
                f"distribution mass {counts.sum()}/{denominator} != 1 at step {n}"
            )
        self.n = n
        self.support_size = len(index)
        self.ball = ball
        self.index = index
        self.counts = counts
        self.denominator = denominator

    @cached_property
    def probs(self) -> dict[CocycleElement, Fraction]:
        elements = self.ball.elements
        return {
            elements[i]: Fraction(c, self.denominator)
            for i, c in zip(self.index.tolist(), self.counts.tolist())
        }

    def identity_mass(self) -> Fraction:
        # the identity is element 0 of the ball
        return Fraction(int(self.counts[self.index == 0].sum()), self.denominator)

    def max_prob(self) -> Fraction:
        return Fraction(int(self.counts.max()), self.denominator)


class ConvolutionCache:
    """Memoized chain of convolution powers of one step measure.

    `power(n)` is the law of the left walk after n steps (new atoms
    multiply on the left), over the word-metric ball of the measure's
    atoms; the ball grows to radius n when needed, and its cap bounds the
    support.  Weights are integer path counts over D^n, D the least common
    denominator of the atom weights.  One step is one scatter-add per atom
    along the ball's neighbor rows.
    """

    def __init__(self, measure: StepMeasure, ball: CayleyBall):
        if ball.gens != measure.generator_set():
            raise ValidationError("the ball must be built on the measure's atoms, in order")
        self.measure = measure
        self.ball = ball
        self.denominator = math.lcm(*(p.denominator for _, _, p in measure.atoms))
        self._weights = [int(p * self.denominator) for _, _, p in measure.atoms]
        start = GroupDistribution(0, ball, np.zeros(1, dtype=np.intp),
                                  np.ones(1, dtype=np.int64), 1)
        self._powers: list[GroupDistribution] = [start]

    def power(self, n: int) -> GroupDistribution:
        if n < 0:
            raise ValueError("convolution power must be nonnegative")
        self.ball.grow(n)
        while len(self._powers) <= n:
            self._powers.append(self._step(self._powers[-1]))
        return self._powers[n]

    def _step(self, dist: GroupDistribution) -> GroupDistribution:
        n = dist.n + 1
        denominator = self.denominator ** n
        # every partial sum is at most D^n; past int64 the counts are Python ints
        dtype = np.int64 if denominator < 1 << 62 else object
        counts = dist.counts.astype(dtype, copy=False)
        targets = self.ball.neighbors[dist.index]
        acc = np.zeros(len(self.ball), dtype=dtype)
        for a, w in enumerate(self._weights):
            # left multiplication by one atom is injective: no target repeats
            acc[targets[:, a]] += w * counts
        index, first = np.unique(targets, return_index=True)
        index = index[np.argsort(first)]  # first insertion: support order, then atom order
        return GroupDistribution(n, self.ball, index, acc[index], denominator)


# ---------------------------------------------------------------------------
# Entropy


def entropy(dist: GroupDistribution | Mapping) -> float:
    """Shannon entropy in nats, summed in the support's order; the 0 log 0
    terms are dropped."""
    if isinstance(dist, GroupDistribution):
        # int / int is correctly rounded, as float(Fraction) is
        values = [c / dist.denominator for c in dist.counts.tolist()]
    else:
        values = [float(p) for p in dist.values()]
    total = 0.0
    for x in values:
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
    weights = [w if isinstance(w, float) else Fraction(w) for w in weights]
    total = sum(weights)
    if any(isinstance(w, float) for w in weights):
        ok = abs(float(total) - 1.0) <= 1e-9
    else:
        ok = total == 1
    if not ok:
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
    offsets: np.ndarray  # shape (trials, n+1), offsets[:, 0] == 0; may be a transposed view

    @cached_property
    def max_abs(self) -> np.ndarray:
        """max_j |m_j| of each trial, computed once for the tail reports."""
        # two reductions instead of a trials x (n+1) copy holding |offsets|
        return np.maximum(self.offsets.max(axis=1), -self.offsets.min(axis=1))

    @property
    def final(self) -> np.ndarray:
        return self.offsets[:, -1]

    def lipschitz_ok(self) -> bool:
        """True when no step moves a trial by more than max_shift.  The step
        rows are differenced one chunk at a time, each chunk overlapping the
        last by one row, so the check holds one chunk beside the offsets."""
        steps = self.offsets.T
        trials = steps.shape[1]
        rows = _check_rows(trials, steps.itemsize)
        diff = np.empty((min(rows, len(steps) - 1), trials), dtype=steps.dtype)
        for lo in range(0, len(steps) - 1, rows):
            chunk = steps[lo:lo + rows + 1]
            jumps = diff[:len(chunk) - 1]
            np.subtract(chunk[1:], chunk[:-1], out=jumps)
            np.abs(jumps, out=jumps)
            if jumps.max() > self.max_shift:
                return False
        return True


def _check_rows(trials: int, itemsize: int) -> int:
    """Step rows in one chunk of the Lipschitz check: CHECK_CHUNK_BYTES of
    offsets, or one row when a row is larger."""
    return max(1, CHECK_CHUNK_BYTES // (trials * itemsize))


def _atom_increment_table(measure: StepMeasure, point: Point, span: int,
                          dtype: np.dtype) -> np.ndarray:
    """Row i holds atom i's shift at each offset in [-span, span]: each
    offset's window is read once per atom depth and looked up in the
    factor index, and every atom of that depth gathers its row by those
    positions.  The table is the transposed view of a position-major
    array, so `table.T.ravel()` is the sampler's flat table without a copy.
    A window outside the language raises SpecMismatch (a validating point
    raises AdmissibilityViolation when it is read)."""
    oracle = language_table(measure.spec)
    table = np.zeros((2 * span + 1, len(measure.atoms)), dtype=dtype).T
    for depth in {g.depth for _, g, _ in measure.atoms}:
        position = oracle.words(2 * depth + 1)
        try:
            cols = np.array([position[point.window(off, depth)]
                             for off in range(-span, span + 1)])
        except KeyError as exc:
            raise SpecMismatch(
                f"window {exc.args[0]!r} is not admissible for the measure's subshift"
            ) from None
        for i, (_, g, _) in enumerate(measure.atoms):
            if g.depth == depth:
                table[i] = np.array(g.shifts)[cols]
    return table


def _atom_index(cum: np.ndarray, x: np.ndarray, out: np.ndarray, mask: np.ndarray) -> None:
    """Write searchsorted(cum, x, side="right") into `out`, for x in [0, 1)
    and cum[-1] == 1.

    Up to ATOM_COUNT_MAX atoms the index is counted: it is the number of
    bounds cum[k] <= x with k < len(cum) - 1, as x never reaches cum[-1].
    Each bound is one compare into the bool `mask` and one add.  Past that
    one binary search is cheaper, at the cost of its int64 result."""
    if len(cum) > ATOM_COUNT_MAX:
        out[...] = np.searchsorted(cum, x, side="right")
        return
    out.fill(0)
    for bound in cum[:-1]:
        np.greater_equal(x, bound, out=mask)
        out += mask


def _atom_draws(measure: StepMeasure, n: int, trials: int, seed: int) -> Iterator[np.ndarray]:
    """Yield the atom indices of the trials in blocks of up to DRAW_BLOCK
    rows; row t holds the n draws of trial t's own counter-based stream
    Philox(key=[seed mod 2^64, t]).  Each block is the (rows, n) transposed
    view of a new step-major array, so one step's draws are contiguous.

    One generator serves the whole call: for each trial its state is reset
    to that key, counter 0 and an empty buffer, which is the state a new
    Philox(key=[seed, t]) starts in.  The floats, their atom indices and the
    compare mask are buffers that every block reuses."""
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    cum[-1] = 1.0
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"]["key"] = key
    width = min(trials, DRAW_BLOCK)
    floats = np.empty((width, n))
    index = np.empty((width, n), dtype=np.min_scalar_type(len(measure.atoms) - 1))
    mask = np.empty((width, n), dtype=bool)
    for start in range(0, trials, DRAW_BLOCK):
        rows = min(DRAW_BLOCK, trials - start)
        for row in range(rows):
            key[1] = start + row
            bitgen.state = fresh
            gen.random(out=floats[row])
        _atom_index(cum, floats[:rows], index[:rows], mask[:rows])
        yield np.ascontiguousarray(index[:rows].T).T


def _check_sample_size(n: int, trials: int, atoms: int, span: int, dtype: np.dtype) -> int:
    """Return the bytes of the arrays a sample holds at most, and refuse it
    with ResourceLimit when they pass MAX_SAMPLE_BYTES, before any of them
    is allocated.  Counted: the offsets; the increment table; one block of
    draws (the floats, their atom indices, the compare mask and the
    step-major copy, plus the int64 search result past ATOM_COUNT_MAX
    atoms); the step loop's per-trial buffers; and one chunk of the
    Lipschitz check."""
    itemsize = np.dtype(dtype).itemsize
    draw_itemsize = np.min_scalar_type(atoms - 1).itemsize
    width = min(trials, DRAW_BLOCK)
    per_draw = 8 + 2 * draw_itemsize + 1 + (8 if atoms > ATOM_COUNT_MAX else 0)
    need = (trials * (n + 1) * itemsize
            + atoms * (2 * span + 1) * itemsize
            + width * n * per_draw
            + width * (8 + 8 + itemsize)
            + min(_check_rows(trials, itemsize), n) * trials * itemsize)
    if need > MAX_SAMPLE_BYTES:
        raise ResourceLimit(
            f"{trials} walks of {n} steps need {need} bytes, over the cap of "
            f"{MAX_SAMPLE_BYTES} bytes"
        )
    return need


def sample_orbit_walks(measure: StepMeasure, point: Point, n: int, trials: int,
                       seed: int) -> WalkSample:
    """Simulate `trials` independent orbit walks of length `n`.

    The offset after each step is the cocycle of the running product at the
    start point; increments are read from a precomputed per-atom table, so
    the point's windows are only evaluated once per reachable offset.
    Offsets are stored step-major, one contiguous row per step;
    `WalkSample.offsets` is the transposed (trials, n+1) view.
    """
    if trials < 1:
        raise ValidationError("need at least one trial")
    if n < 0:
        raise ValidationError("walk length must be nonnegative")
    k = measure.max_shift
    span = k * n + 1
    # for n >= 1 every increment is at most k < span, so it fits the offsets dtype
    dtype = np.int16 if span < 30000 else np.int32
    atoms = len(measure.atoms)
    _check_sample_size(n, trials, atoms, span, dtype)
    # atom a moves offset m by flat[(m + span) * atoms + a]
    flat = _atom_increment_table(measure, point, span, dtype).T.ravel()
    steps = np.zeros((n + 1, trials), dtype=dtype)
    start = 0
    for draws in _atom_draws(measure, n, trials, seed):
        rows = len(draws)
        out = steps[:, start:start + rows]
        cell = np.full(rows, span, dtype=np.intp)  # offset + span
        where = np.empty(rows, dtype=np.intp)
        moves = draws.T  # moves[j]: step j's atom in each trial
        for j in range(n):
            np.multiply(cell, atoms, out=where)
            where += moves[j]
            # a bounds-checked gather; np.take(out=) was slower, as it buffers
            cell += flat[where]
            np.subtract(cell, span, out=out[j + 1])
        start += rows
        # the next block is made while the loop variable still holds this one
        del draws, moves
    sample = WalkSample(n, trials, seed, k, steps.T)
    if not sample.lipschitz_ok():
        raise InternalInvariantError("sampled increments exceed the generator shift bound")
    return sample


def empirical_offset_distribution(sample: WalkSample) -> dict[int, float]:
    values, counts = np.unique(sample.final, return_counts=True)
    return {int(v): c / sample.trials for v, c in zip(values, counts)}


def pushforward_offsets(dist: GroupDistribution, point: Point) -> dict[int, Fraction]:
    """Exact law of the orbit offset under the group-element distribution."""
    out: dict[int, Fraction] = defaultdict(Fraction)
    for g, p in dist.probs.items():
        out[evaluate(g, point, 0)] += p
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


def supported_a_grid(sample: WalkSample) -> tuple[float, ...]:
    """Prefix of the base grid on which the tail still has enough
    exceedances to estimate probabilities."""
    max_abs = sample.max_abs
    scale = math.sqrt(sample.n)
    out = []
    for a in BASE_TAIL_GRID:
        if int(np.sum(max_abs >= a * scale)) >= MIN_TAIL_EXCEEDANCES:
            out.append(float(a))
        else:
            break
    return tuple(out)


def _tail_b0(sample: WalkSample) -> float:
    final_abs = np.abs(sample.final)
    scale = math.sqrt(sample.n)
    for a in BASE_TAIL_GRID:
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
    fit = TailFit(float(math.exp(log_c)), float(d), float(a0), _tail_b0(sample))
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
    """ceil(sqrt(scale * n * ln n)) for a positive finite scale; n=1 shares
    the n=2 value so the log never vanishes."""
    if not 0 < depth_scale < math.inf:
        raise DomainError(f"depth scale must be positive and finite, not {depth_scale}")
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


def stable_set_report(chain: ConvolutionCache, n: int, depth_scale: float) -> StableSetReport:
    """Report on the depth-stable subset at step n of the chain.

    The stable mass sums the path counts of the support elements whose
    table depth is at most d(n); the stable count masks the chain's ball
    to word length <= n and the same depths.
    """
    d = cylinder_depth(n, depth_scale)
    dist = chain.power(n)
    ball = chain.ball
    stable_support = ball.depths[dist.index] <= d
    mass = Fraction(int(dist.counts[stable_support].sum()), dist.denominator)
    in_ball = ball.lengths <= n
    stable_count = int(np.count_nonzero(in_ball & (ball.depths <= d)))
    h = entropy(dist)
    measure = chain.measure
    k = measure.max_shift
    cylinder_count = language_table(measure.spec).complexity(2 * d + 1)
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
        stable_support_count=int(np.count_nonzero(stable_support)),
        ball_size=int(np.count_nonzero(in_ball)),
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


def return_probability_suite(chain: ConvolutionCache, n_max: int) -> ReturnProbabilitySuite:
    """Exact even-time return probabilities with the max-at-identity and
    monotonicity checks, plus the smallest constant C for which the
    complexity-driven lower bound holds on the computed range."""
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    spec = chain.measure.spec
    rows = []
    for n in range(1, n_max + 1):
        dist = chain.power(2 * n)
        rows.append(ReturnProbabilityRow(n, 2 * n, dist.identity_mass(), dist.max_prob()))
    monotone = all(rows[i].return_prob >= rows[i + 1].return_prob for i in range(len(rows) - 1))
    oracle = language_table(spec)
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


def entropy_envelope(chain: ConvolutionCache, n_max: int) -> EntropyEnvelope:
    if n_max < 2:
        raise ValidationError("n_max must be >= 2")
    entropies = [entropy(chain.power(n)) for n in range(n_max + 1)]
    oracle = language_table(chain.measure.spec)

    def bound_at(c: float, n: int) -> float:
        return c * oracle.complexity(math.ceil(c * math.sqrt(n * math.log(n)))) * math.log(n)

    fitted = None
    for c in ENVELOPE_GRID:
        if all(entropies[n] <= bound_at(c, n) + 1e-12 for n in range(2, n_max + 1)):
            fitted = c
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
    atoms = [g for _, g, _ in measure.atoms]
    counts: dict[CocycleElement, int] = defaultdict(int)
    for block in _atom_draws(measure, n, trials, seed):
        for draws in block:
            g = identity(measure.spec)
            for idx in draws:
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


def shannon_path_diagnostic(chain: ConvolutionCache, n: int, trials: int, seed: int) -> dict:
    """Report -(1/n) log mu^{*n}(g_n) along sampled paths (diagnostic only:
    the almost-sure limit is asymptotic, no threshold is attached)."""
    dist = chain.power(n)
    counts = sample_group_elements(chain.measure, n, trials, seed)
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
