"""Random walks driven by finitely supported symmetric step measures.

Two complementary routes are implemented and cross-checked:

* exact convolution powers of the step measure on the word-metric ball
  of its atoms, held as integer path counts over D^n (D the common
  denominator of the atom weights), from which entropy, return
  probabilities, the depth-stability reports and the group-element
  diagnostics are computed exactly; Fractions are built only where a
  report asks for one;
* Monte-Carlo orbit walks, the only random draws, that track the integer
  offset of a fixed point along the trajectory, from which displacement
  tails are estimated and fitted against a Gaussian-shaped envelope.

Each trial t draws from its own counter-based stream, Philox keyed by
(seed mod 2^64, t), so results do not depend on trial batching.  One
generator per sampler call is rekeyed for each trial, and its floats are
mapped to atoms one block of trials at a time, in reused buffers: up to
ATOM_COUNT_MAX atoms by counting the cumulative bounds each float passes,
past that by one binary search.  Each draw is stored at its information
size, b bits with b the smallest power of two that holds the largest atom
index: 8/b draws share one byte up to 256 atoms, and past that each draw
has a word of its own, uint16 up to 65,536 atoms.  The packed draws of all
trials go into one step-major array, trials wide.  The walk then makes one
pass over the steps, moving every trial at once: each step unpacks its
draws with one shift and one mask, and reads the position-major
`cocycles.increment_table` once, flat at (offset + span) * atoms + atom.
Its contiguous row of narrow integer offsets is summarized directly and
folded into each trial's running max|m| before the next step overwrites
it, so no trials x (n+1) matrix is ever held.  The increment table is
checked against the Lipschitz bound before any draw.  A sample's arrays,
all counted, are afforded against the byte budget (`errors.afford`)
before any is allocated.

A distribution sums its entropy once for every report, and one
least-constant search fits the entropy envelope and the return bound.  Tail
exceedances cost one sort per report that reads them: a `walk` run sorts
max|m| three times (grid trim, tail fit, reflection check) and |final| twice.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .cocycles import (
    CayleyBall,
    CocycleElement,
    GeneratorSet,
    increment_table,
    inverse,
    window_columns,
)
from .errors import (
    DomainError,
    InsufficientData,
    InternalInvariantError,
    ValidationError,
    afford,
)
from .points import Point
from .subshifts import SubshiftSpec
from .values import Frozen

BASE_TAIL_GRID = tuple(round(0.25 * i, 2) for i in range(1, 17))  # 0.25 .. 4.0
MIN_TAIL_EXCEEDANCES = 10
ENVELOPE_GRID = tuple(i / 20.0 for i in range(1, 401))  # 0.05 .. 20.0
DRAW_BLOCK = 256  # trials whose float draws are held at once (0.8 MB at n=400)
# counting bounds costs one pass over a block per atom; at 64 atoms it still
# beat one binary search (33 ms against 57 ms for a 2,048 x 400 block, 2-vCPU
# Xeon VM, numpy 2.4)
ATOM_COUNT_MAX = 64
SUMMARY_ROW_BYTES = 256  # one walk_summary row, a 5-tuple of Python numbers (about 210)

# ---------------------------------------------------------------------------
# Step measures and exact convolution


class StepMeasure(Frozen):
    """Finitely supported symmetric probability measure on named elements."""

    __slots__ = _fields = ("spec", "atoms")
    spec: SubshiftSpec
    atoms: tuple[tuple[str, CocycleElement, Fraction], ...]

    def __init__(self, spec: SubshiftSpec,
                 atoms: tuple[tuple[str, CocycleElement, Fraction], ...]):
        self._set(spec=spec, atoms=atoms)
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
    # no atom, no division: StepMeasure refuses an empty set itself
    return StepMeasure(gens.spec, tuple((name, g, Fraction(1, len(gens))) for name, g in gens))


def measure_from_weights(gens: GeneratorSet, weights: Mapping[str, Fraction]) -> StepMeasure:
    atoms = tuple((name, g, Fraction(weights[name])) for name, g in gens)
    return StepMeasure(gens.spec, atoms)


class GroupDistribution:
    """Exact distribution of the walk position after `n` steps.

    Support element i is `ball.element(index[i])` and has probability
    `counts[i] / denominator`: integer path counts over D^n.  The support
    is in first-insertion order (the previous support's order, then atom
    order); `probs` builds the keyed Fractions, `entropy` sums H, on first use.
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
    def entropy(self) -> float:
        """H(mu^{*n}) in nats, summed once by `entropy`; every report reads it."""
        return entropy(self)

    @cached_property
    def probs(self) -> dict[CocycleElement, Fraction]:
        return {
            self.ball.element(i): Fraction(c, self.denominator)
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
    terms are dropped.  A GroupDistribution keeps its sum as `dist.entropy`."""
    if isinstance(dist, GroupDistribution):
        # int / int is correctly rounded, as float(Fraction) is; a generator,
        # so a large support holds no list of floats
        values = (c / dist.denominator for c in dist.counts.tolist())
    else:
        values = (float(p) for p in dist.values())
    total = 0.0
    for x in values:
        if x > 0.0:
            total -= x * math.log(x)
    return total


class MixtureEntropyCheck(NamedTuple):
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


class WalkSample:
    """Orbit walks as `sample_orbit_walks` summarized them, step by step;
    the trajectories m_j themselves are not kept."""

    def __init__(self, n: int, trials: int, seed: int, max_shift: int,
                 summary: list[tuple[int, float, float, float, int]],
                 max_abs: np.ndarray, final: np.ndarray):
        self.n = n
        self.trials = trials
        self.seed = seed
        self.max_shift = max_shift
        # one row per step j = 0..n: (j, mean, std, mean_abs, max_abs) of m_j over the trials
        self.summary = summary
        self.max_abs = max_abs  # max_j |m_j| of each trial
        self.final = final  # m_n of each trial


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


def _draw_layout(atoms: int) -> tuple[int, int, np.dtype]:
    """How one draw among `atoms` is stored: its width b, the smallest power
    of two with b >= max(1, bit_length(atoms - 1)); the draws per stored
    word, 8 // b up to 8 bits and 1 past that; and the unsigned word type,
    uint8 up to 256 atoms, then the narrowest that holds b bits."""
    bits = 1 << (max(1, (atoms - 1).bit_length()) - 1).bit_length()
    return bits, max(1, 8 // bits), np.min_scalar_type((1 << bits) - 1)


def _atom_draws(measure: StepMeasure, n: int, trials: int, seed: int) -> np.ndarray:
    """Return the atom indices of all draws, packed as `_draw_layout` says,
    in a step-major (ceil(n / per), trials) array: draw j of trial t sits in
    row j // per, column t, at bit (j % per) * b, and the unused high bits
    of the last row are zero.  Column t holds the n draws of trial t's own
    counter-based stream Philox(key=[seed mod 2^64, t]).

    One generator serves the whole call: for each trial its state is set to
    that key, counter 0 and an empty buffer, which is the state a new
    Philox(key=[seed mod 2^64, t]) starts in.  The state is a dict of plain
    ints, which the setter reads faster than arrays.  The floats, their atom
    indices and the compare mask are DRAW_BLOCK-trial buffers that every
    block reuses.  The indices are zero-padded to whole stored words, and a
    block is packed through their little-endian view of `per`-byte words,
    in which draw k of a word sits at bit 8k: OR-ing in the word shifted
    right by k * (8 - b) brings it to bit k * b, and the transpose keeps the
    low byte, which then holds the word's `per` draws."""
    bits, per, dtype = _draw_layout(len(measure.atoms))
    cum = np.cumsum([float(p) for _, _, p in measure.atoms])
    cum[-1] = 1.0
    state = {"bit_generator": "Philox",
             "state": {"counter": [0, 0, 0, 0], "key": [seed & 0xFFFFFFFFFFFFFFFF, 0]},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    key = state["state"]["key"]
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    moves = np.empty((-(-n // per), trials), dtype=dtype)
    width = min(trials, DRAW_BLOCK)
    floats = np.empty((width, n))
    index = np.zeros((width, len(moves) * per), dtype=dtype)
    mask = np.empty((width, n), dtype=bool)
    for start in range(0, trials, DRAW_BLOCK):
        rows = min(DRAW_BLOCK, trials - start)
        for row in range(rows):
            key[1] = start + row
            bitgen.state = state
            gen.random(out=floats[row])
        _atom_index(cum, floats[:rows], index[:rows, :n], mask[:rows])
        words = index[:rows].view(f"<u{per}") if per > 1 else index[:rows]
        packed = words.copy()
        for k in range(1, per):
            packed |= words >> k * (8 - bits)
        moves[:, start:start + rows] = packed.T
    return moves


def _check_sample_size(n: int, trials: int, atoms: int, span: int, dtype: np.dtype) -> int:
    """Return the bytes a sample holds at most, afforded against the byte
    budget before any of them is allocated.  Counted: the packed draws of all trials; one block of draws
    (the floats and the compare mask, plus the int64 search result past
    ATOM_COUNT_MAX atoms, and three buffers of whole stored words: the atom
    indices, zero-padded to them, the packed words and one shifted copy);
    the increment table; the step loop's per-trial buffers and temporaries;
    and the summary rows."""
    itemsize = np.dtype(dtype).itemsize
    _, per, draw_dtype = _draw_layout(atoms)
    draw_itemsize = draw_dtype.itemsize
    packed_rows = -(-n // per)
    width = min(trials, DRAW_BLOCK)
    per_draw = 8 + 1 + (8 if atoms > ATOM_COUNT_MAX else 0)
    # cell, where and std's float64 deviations; one step's unpacked draws;
    # the gathered increments, the offsets, their abs and the running max
    per_trial = 3 * 8 + draw_itemsize + 4 * itemsize
    need = ((trials + 3 * per * width) * packed_rows * draw_itemsize
            + width * n * per_draw
            + atoms * (2 * span + 1) * itemsize
            + trials * per_trial
            + (n + 1) * SUMMARY_ROW_BYTES)
    afford(need, f"a sample of {trials} walks of {n} steps")
    return need


def sample_orbit_walks(measure: StepMeasure, point: Point, n: int, trials: int,
                       seed: int) -> WalkSample:
    """Simulate `trials` independent orbit walks of length `n` and summarize
    them step by step.

    The offset after each step is the cocycle of the running product at the
    start point; increments are read from a precomputed per-atom table, and
    building it reads the point once per generator depth.  The
    table is checked first: no entry may exceed the measure's max_shift, so
    no step can.  Then every draw is made and packed (`_atom_draws`), and
    one pass over the steps moves all trials at once.  Each step's
    contiguous row of narrow integer offsets gets its summary row, read from
    the row itself and equal to what a float64 copy of it gives, and raises
    each trial's running max|m|; the last row is `final`.
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
    table = increment_table(measure.generator_set(), point, span, dtype)
    if np.abs(table).max() > k:
        raise InternalInvariantError("an increment exceeds the generator shift bound")
    # atom a moves offset m by flat[(m + span) * atoms + a]
    flat = table.T.ravel()
    moves = _atom_draws(measure, n, trials, seed)
    bits, per, _ = _draw_layout(atoms)
    low = (1 << bits) - 1
    drawn = np.empty(trials, dtype=moves.dtype)
    cell = np.full(trials, span, dtype=np.intp)  # offset + span
    where = np.empty(trials, dtype=np.intp)
    row = np.zeros(trials, dtype=dtype)
    row_abs = np.zeros(trials, dtype=dtype)
    max_abs = np.zeros(trials, dtype=dtype)
    summary = []
    for j in range(n + 1):
        if j:
            np.right_shift(moves[(j - 1) // per], (j - 1) % per * bits, out=drawn)
            drawn &= low
            np.multiply(cell, atoms, out=where)
            where += drawn
            # a bounds-checked gather; np.take(out=) was slower, as it buffers
            cell += flat[where]
            np.subtract(cell, span, out=row)
            np.abs(row, out=row_abs)
            np.maximum(max_abs, row_abs, out=max_abs)
        # integer means reduce in float64: every partial sum is an integer
        # below 2^53, so exact in any order, and std forms its deviations in
        # float64, so each value is the one a float64 copy of the row gives
        summary.append((j, float(row.mean()), float(row.std()), float(row_abs.mean()),
                        int(row_abs.max())))
    return WalkSample(n, trials, seed, k, summary, max_abs, row)


def empirical_offset_distribution(sample: WalkSample) -> dict[int, float]:
    values, counts = np.unique(sample.final, return_counts=True)
    return {int(v): c / sample.trials for v, c in zip(values, counts)}


def pushforward_offsets(dist: GroupDistribution, point: Point) -> dict[int, Fraction]:
    """Exact law of the orbit offset under the group-element distribution:
    each support depth reads the column of the point's window in its rows."""
    out: dict[int, int] = defaultdict(int)
    for d, at, rows in dist.ball.rows_by_depth(dist.index):
        column = window_columns(dist.ball.gens.spec, point, [0], d)[0]
        for k, c in zip(rows[:, column].tolist(), dist.counts[at].tolist()):
            out[k] += c
    return {k: Fraction(c, dist.denominator) for k, c in out.items()}


def total_variation(p: Mapping, q: Mapping) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(float(p.get(x, 0)) - float(q.get(x, 0))) for x in keys)


# ---------------------------------------------------------------------------
# Displacement tails


class TailFit(NamedTuple):
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


class TailCurve(NamedTuple):
    n: int
    trials: int
    a_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    exceedances: tuple[int, ...]
    fit: TailFit

    def dominated(self) -> bool:
        env = self.fit.envelope(self.a_grid)
        return bool(np.all(env + 1e-12 >= np.asarray(self.empirical)))


def _exceedances(values: np.ndarray, n: int, a_grid: Iterable[float],
                 shift: float = 0.0) -> list[int]:
    """For each a of the grid, how many integer entries of `values` are >=
    (a - shift) sqrt(n): one sort, then one exact float64 search per a."""
    scale = math.sqrt(n)
    ordered = np.sort(values).astype(np.float64)
    thresholds = [(a - shift) * scale for a in a_grid]
    return (len(ordered) - np.searchsorted(ordered, thresholds, side="left")).tolist()


def supported_a_grid(sample: WalkSample) -> tuple[float, ...]:
    """Prefix of the base grid on which the tail still has enough
    exceedances to estimate probabilities."""
    counts = _exceedances(sample.max_abs, sample.n, BASE_TAIL_GRID)
    # the counts never increase along the grid
    return BASE_TAIL_GRID[:sum(c >= MIN_TAIL_EXCEEDANCES for c in counts)]


def max_displacement_tail(sample: WalkSample,
                          a_grid: Iterable[float] = BASE_TAIL_GRID) -> TailCurve:
    """Empirical tail of max_j |m_j| / sqrt(n) with its dominating fit.

    Raises InsufficientData when the largest grid point has fewer than 10
    exceedances; trim the grid with `supported_a_grid` first.
    """
    a_grid = tuple(float(a) for a in a_grid)
    if len(a_grid) < 3:
        raise InsufficientData("need at least three grid points to fit the tail shape")
    counts = _exceedances(sample.max_abs, sample.n, a_grid)
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
    finals = _exceedances(np.abs(sample.final), sample.n, BASE_TAIL_GRID)
    b0 = next((a for a, f in zip(BASE_TAIL_GRID, finals) if f / sample.trials <= 0.5), None)
    if b0 is None:
        raise InsufficientData("final-offset tail never drops below 1/2 on the grid")
    fit = TailFit(float(math.exp(log_c)), float(d), float(a0), b0)
    return TailCurve(sample.n, sample.trials, a_grid, tuple(probs), tuple(counts), fit)


class ReflectionCheck(NamedTuple):
    holds: bool
    rows: tuple[tuple[float, float, float], ...]  # (a, lhs, rhs)


def reflection_check(sample: WalkSample, a_grid: Iterable[float], b0: float) -> ReflectionCheck:
    """Empirical version of the maximal inequality: the running-maximum
    tail at x is at most twice the final-offset tail at x - b0*sqrt(n)."""
    a_grid = tuple(a_grid)
    maxima = _exceedances(sample.max_abs, sample.n, a_grid)
    finals = _exceedances(np.abs(sample.final), sample.n, a_grid, b0)
    rows = tuple((float(a), m / sample.trials, 2.0 * (f / sample.trials))
                 for a, m, f in zip(a_grid, maxima, finals))
    return ReflectionCheck(all(lhs <= rhs + 1e-12 for _, lhs, rhs in rows), rows)


# ---------------------------------------------------------------------------
# Depth-stability reports and entropy bounds


def cylinder_depth(n: int, depth_scale: float) -> int:
    """ceil(sqrt(scale * n * ln n)) for a positive finite scale; n=1 shares
    the n=2 value so the log never vanishes.  A product past the float range
    is refused too."""
    if not 0 < depth_scale < math.inf:
        raise DomainError(f"depth scale must be positive and finite, not {depth_scale}")
    n_eff = max(n, 2)
    square = depth_scale * n_eff * math.log(n_eff)
    if square == math.inf:
        raise DomainError(f"depth scale {depth_scale} at n={n} puts the depth past the "
                          f"float range")
    return math.ceil(math.sqrt(square))


def default_depth_scale(fit: TailFit) -> float:
    """Depth scale derived from a fitted tail: 9 times the fitted Gaussian
    denominator, comfortably above the 8x threshold the stability argument
    needs.  Use when a walk's TailFit is available; 9.0 is a reasonable
    stand-in otherwise."""
    return 9.0 * fit.d


class StableSetReport(NamedTuple):
    """Exact accounting of the walk mass carried by elements whose cocycle
    is constant on every cylinder of the report depth."""

    n: int
    depth_scale: float
    depth: int
    stable_mass: Fraction          # walk mass on depth-stable elements
    stable_count: int              # depth-stable elements in the radius-n ball
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
    table depth is at most d(n); the stable count reads the same depths on
    the radius-n ball, a prefix of the chain's ball (it is in BFS order).
    """
    d = cylinder_depth(n, depth_scale)
    dist = chain.power(n)
    ball = chain.ball
    stable_support = ball.depths[dist.index] <= d
    mass = Fraction(int(dist.counts[stable_support].sum()), dist.denominator)
    ball_size = int(np.searchsorted(ball.lengths, n, side="right"))
    stable_count = int(np.count_nonzero(ball.depths[:ball_size] <= d))
    measure = chain.measure
    k = measure.max_shift
    cylinder_count = measure.spec.language.complexity(2 * d + 1)
    try:
        log_count_bound = cylinder_count * math.log(2 * k * n + 1) if n and k else 0.0
    except OverflowError:  # a count past the float range
        log_count_bound = math.inf
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
        ball_size=ball_size,
        walk_entropy=dist.entropy,
        cylinder_count=cylinder_count,
        log_count_bound=log_count_bound,
        entropy_bound=bound,
        support_size=dist.support_size,
    )


def _least_constant(grid: Iterable[float], ns: Sequence[int],
                    holds: Callable[[float, int], bool]) -> float | None:
    """The first c of `grid` with holds(c, n) at every n of `ns`, in order; else None."""
    return next((c for c in grid if all(holds(c, n) for n in ns)), None)


class ReturnProbabilityRow(NamedTuple):
    n: int
    even_step: int
    return_prob: Fraction
    max_prob: Fraction

    @property
    def max_at_identity(self) -> bool:
        return self.return_prob == self.max_prob


class ReturnProbabilitySuite(NamedTuple):
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
    rows = []
    for n in range(1, n_max + 1):
        dist = chain.power(2 * n)
        rows.append(ReturnProbabilityRow(n, 2 * n, dist.identity_mass(), dist.max_prob()))
    monotone = all(rows[i].return_prob >= rows[i + 1].return_prob for i in range(len(rows) - 1))
    oracle = chain.measure.spec.language

    def holds(c: float, n: int) -> bool:
        rho = oracle.complexity(math.ceil(c * math.sqrt(n * math.log(max(n, 2)))))
        lower = (1.0 / c) * math.exp(-c * rho * math.log(max(n, 2))) if n > 1 else 1.0 / c
        return float(rows[n - 1].return_prob) >= lower

    fitted = _least_constant((i / 4.0 for i in range(1, 257)), range(1, n_max + 1), holds)
    return ReturnProbabilitySuite(tuple(rows), monotone, math.inf if fitted is None else fitted)


class EntropyEnvelope(NamedTuple):
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
    entropies = [chain.power(n).entropy for n in range(n_max + 1)]
    oracle = chain.measure.spec.language

    def bound_at(c: float, n: int) -> float:
        return c * oracle.complexity(math.ceil(c * math.sqrt(n * math.log(n)))) * math.log(n)

    fitted = _least_constant(ENVELOPE_GRID, range(2, n_max + 1),
                             lambda c, n: entropies[n] <= bound_at(c, n) + 1e-12)
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
# Exact group-element diagnostics

SHANNON_QUANTILES = {"q10": Fraction(1, 10), "q50": Fraction(1, 2), "q90": Fraction(9, 10)}


def cylinder_nonconstancy_rate(chain: ConvolutionCache, word: str, n: int) -> Fraction:
    """Exact probability that g_n is not constant on the cylinder of `word`,
    as path counts over D^n.  Only elements deeper than the cylinder can
    be: at each such depth d, the columns of the (2d+1)-words around `word`
    are gathered, and a row whose shifts there differ is not constant."""
    if len(word) % 2 != 1:
        raise ValueError("cylinder words have odd length")
    dist = chain.power(n)
    language = chain.measure.spec.language
    half = (len(word) - 1) // 2
    target = language.words(len(word)).get(word, -1)  # -1: inadmissible, no word around it
    bad = 0
    for d, at, rows in dist.ball.rows_by_depth(dist.index, above=half):
        centres = language.subwords(2 * d + 1, d - half, len(word))
        around = rows[:, centres == target]
        bad += int(dist.counts[at[(around != around[:, :1]).any(axis=1)]].sum())
    return Fraction(bad, dist.denominator)


def shannon_path_diagnostic(chain: ConvolutionCache, n: int) -> dict:
    """Law of -(1/n) log mu^{*n}(g) under g ~ mu^{*n} (diagnostic only: the
    almost-sure limit is asymptotic, no threshold is attached).

    The mean is H(mu^{*n})/n.  Quantile q is the value of the first support
    element, in ascending order of value (descending count), at which the
    cumulative count reaches q D^n: integer compares only.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    dist = chain.power(n)
    counts = np.sort(dist.counts)[::-1]
    cumulative = np.cumsum(counts)
    quantiles = {}
    for name, q in SHANNON_QUANTILES.items():
        c = int(counts[np.searchsorted(cumulative, math.ceil(q * dist.denominator))])
        quantiles[name] = -math.log(c / dist.denominator) / n
    return {"n": n, "mean": dist.entropy / n, "quantiles": quantiles}
