"""Elements of the topological full group of a subshift as cocycle tables.

An element g acts on a point x by shifting it k(x) places, where the
integer k(x) only depends on the letters of x within some finite depth l.
We store g as l and one vector of shifts over the sorted admissible
(2l+1)-words, always reduced to the unique minimal depth, so (depth,
shifts) identity is element identity and elements can key dictionaries
directly.  Operations read a vector on longer words through the index maps
of `LanguageTable.subwords` and `LanguageTable.windows`, never by slicing
words.

One kernel composes and reduces elements and rows alike.  Composition
follows the cocycle rule k_{gh}(x) = k_g(hx) + k_h(x): `compose_plan`
gives g's shift on every word's window moved by each shift k that h may
take, memoized on g (for a constant g, that constant at h's own depth),
in one gather through a window matrix, and `compose_rows` applies the
plan to a batch of h's shift rows as array gathers.
`fold_rows` is one step of canonical reduction on a batch.  `compose` and
`CocycleElement` call them on one row, `CayleyBall` on a whole layer.
Inversion reads g's compose plan for the offsets -j, j among g's shifts:
at depth l+K every admissible word must select exactly one shift j with
the table sending the (-j)-moved window to j, and a constant c inverts
to -c with no search.  `from_table` accepts a table only if both
products with its inverse are all-zero rows, reduced or not.

Word-metric balls are CayleyBall graphs: the elements in breadth-first
order with their word lengths and depths, plus the index of every left
product by a generator, which is all the exact chain in `walks` needs.
A ball keeps each element as a row of shifts and builds a
`CocycleElement` only when `element(i)` asks for one; it finds equal rows
by sorting one uint64 hash per row, checked row by row.
`increment_table` holds every generator's shift along a point's orbit,
the one orbit move that the walk sampler and the Schreier ball read.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import (
    IncompleteTable,
    NotInvertible,
    ResourceLimit,
    SpecMismatch,
    afford,
    unique_dict,
)
from .points import Point
from .subshifts import SubshiftSpec, SubstitutionSpec
from .values import Frozen

DEFAULT_BALL_CAP = 2_000_000  # elements of a word-metric ball, and so of the exact chain


class CocycleElement:
    """Immutable full-group element in canonical (minimal-depth) form:
    `shifts[i]` is the shift on the cylinder of the i-th word of
    `spec.language.words(2 * depth + 1)`."""

    __slots__ = ("spec", "depth", "shifts", "max_shift", "_hash", "_inverse", "_plans")

    def __init__(self, spec: SubshiftSpec, depth: int, shifts: tuple[int, ...] | np.ndarray):
        self.spec = spec
        self.depth, self.shifts = _reduce_depth(spec, depth, shifts)
        self.max_shift = max(map(abs, self.shifts), default=0)
        self._hash = hash((self.depth, self.shifts))
        self._inverse = None
        self._plans: dict[tuple, _ComposePlan] = {}  # compose_plan's, keyed (depth, offsets)

    def _words(self) -> dict[str, int]:
        return self.spec.language.words(2 * self.depth + 1)

    @property
    def table(self) -> dict[str, int]:
        """Shift table over admissible (2*depth+1)-words, as a fresh dict."""
        return dict(zip(self._words(), self.shifts))

    def shift_at(self, word: str) -> int:
        """Shift on the cylinder of `word` (len(word) == 2*depth+1)."""
        i = self._words().get(word)
        if i is None:
            raise SpecMismatch(
                f"word {word!r} is not admissible for this element's subshift"
            )
        return self.shifts[i]

    def __eq__(self, other):
        return (
            isinstance(other, CocycleElement)
            and self._hash == other._hash
            and self.depth == other.depth
            and self.shifts == other.shifts
            and self.spec == other.spec
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<CocycleElement depth={self.depth} max_shift={self.max_shift}>"

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "entries": [{"word": w, "k": k} for w, k in zip(self._words(), self.shifts)],
        }


def _incomplete(count: int, length: int) -> IncompleteTable:
    return IncompleteTable(f"table must cover exactly the {count} admissible words "
                           f"of length {length}")


def _reduce_depth(spec: SubshiftSpec, depth: int, shifts: tuple[int, ...] | np.ndarray):
    """Fold a shift vector as a one-row batch, outermost level first, until
    it stops factoring through the shorter central words."""
    count = len(spec.language.words(2 * depth + 1))
    if len(shifts) != count:
        raise _incomplete(count, 2 * depth + 1)
    row = np.asarray(shifts)[None]
    while depth > 0:
        fold, row_on_centres = fold_rows(spec, depth, row)
        if not fold[0]:
            break
        row, depth = row_on_centres, depth - 1
    return depth, tuple(row[0].tolist())


def fold_rows(spec: SubshiftSpec, depth: int, rows: np.ndarray):
    """Which shift rows over the (2*depth+1)-words factor through their
    (2*depth-1)-centres, and those rows read on the centres: none at depth
    0, or when some shorter word is no centre."""
    plan = spec.language.siblings(2 * depth + 1) if depth > 0 else None
    if plan is None:
        return np.zeros(len(rows), dtype=bool), rows[:0]
    fold = (rows.take(plan.left, axis=1) == rows.take(plan.right, axis=1)).all(axis=1)
    return fold, rows.compress(fold, axis=0).take(plan.pick, axis=1)


class _ComposePlan(NamedTuple):
    """How s composes on the left with rows of one table depth whose
    shifts all lie in `offsets`: the product depth, the column `read` of a
    row that holds its shift k on each (2*depth+1)-word, and s's shift on
    word w's window moved by k at `table[base[w] + column[k - lo]]`, where
    lo is the least offset and column[k - lo] is k's place in `offsets`:
    just k - lo, with no `column`, when the offsets are a whole range."""

    depth: int
    read: np.ndarray
    lo: int
    column: np.ndarray | None
    base: np.ndarray
    table: np.ndarray


def compose_plan(s: CocycleElement, depth: int, offsets: tuple[int, ...]) -> _ComposePlan:
    """The plan of s on rows of table depth `depth` whose shifts lie in
    `offsets` (sorted, distinct), memoized on s.  Its table holds s's
    shifts at their narrowest integer type, word-major, one window read per
    offset, gathered at once through the product words' window matrix at
    exactly those starts; for a constant s, that constant once per offset,
    at h's depth."""
    plan = s._plans.get((depth, offsets))
    if plan is None:
        oracle = s.spec.language
        shifts = np.array(s.shifts, dtype=_row_dtype(s.max_shift))
        if len(set(s.shifts)) == 1:
            # a constant shift c moves every point by c: k_{sh} = c + k_h, at h's depth
            d, table = depth, np.full(len(offsets), s.shifts[0], dtype=shifts.dtype)
            read = np.arange(len(oracle.words(2 * depth + 1)), dtype=np.intp)
            base = np.zeros(len(read), dtype=np.intp)
        else:
            d = max(depth, s.depth + max(-offsets[0], offsets[-1]))
            n, width = 2 * d + 1, 2 * s.depth + 1
            read = oracle.subwords(n, d - depth, 2 * depth + 1)
            # after h moves x by k, s reads the window that starts k places further right
            starts = tuple(d - s.depth + k for k in offsets)
            table = shifts.take(oracle.windows(n, starts, width)).ravel()
            base = np.arange(len(read), dtype=np.intp) * len(offsets)
        lo, column = offsets[0], None
        if offsets[-1] - lo >= len(offsets):
            column = np.zeros(offsets[-1] - lo + 1, dtype=np.intp)
            column[np.subtract(offsets, lo)] = np.arange(len(offsets))
        plan = s._plans[(depth, offsets)] = _ComposePlan(d, read, lo, column, base, table)
    return plan


def compose_rows(plan: _ComposePlan, rows: np.ndarray) -> np.ndarray:
    """The products s.h of `plan = compose_plan(s, ...)` for the rows h: on
    word w, with k = h[read[w]], s's shift on w's window moved by k, plus k."""
    k = rows.take(plan.read, axis=1)
    place = np.subtract(k, plan.lo, dtype=np.intp)
    if plan.column is not None:
        place = plan.column.take(place)
    return plan.table.take(place + plan.base) + k


def identity(spec: SubshiftSpec) -> CocycleElement:
    """The identity element: shift 0 on every letter cylinder."""
    return CocycleElement(spec, 0, (0,) * len(spec.language.words(1)))


def _preimage_table(g: CocycleElement) -> tuple[int, np.ndarray]:
    """The inverse's depth and shifts, or raise NotInvertible: g's compose
    plan for the offsets -j, j among g's shifts, holds g's shift on each
    word's window moved by -j, and the one column that reads j gives -j."""
    offsets = np.array(sorted({-k for k in g.shifts}))
    plan = compose_plan(g, 0, tuple(offsets.tolist()))
    hits = plan.table.reshape(-1, len(offsets)) == -offsets
    count = hits.sum(axis=1)
    bad = count != 1
    if bad.any():
        i = bad.argmax()
        word = list(g.spec.language.words(2 * plan.depth + 1))[i]
        kind = "no preimage" if not count[i] else f"{count[i]} preimages"
        raise NotInvertible(f"configuration {word!r} has {kind}")
    return plan.depth, offsets[hits.argmax(axis=1)]


def from_table(spec: SubshiftSpec, depth: int, table: dict[str, int]) -> CocycleElement:
    """Validate a user table (totality and invertibility) and canonicalize."""
    table = {str(w): int(k) for w, k in table.items()}
    words = spec.language.words(2 * depth + 1)
    if table.keys() != words.keys():
        raise _incomplete(len(words), 2 * depth + 1)
    # the inverse reads windows of at least 2 * max_shift + 1 letters: asking
    # for them first refuses, past the language's caps, a shift too large
    # for any integer row
    spec.language.words(2 * max(map(abs, table.values()), default=0) + 1)
    g = CocycleElement(spec, depth, tuple(map(table.__getitem__, words)))
    g_inv = inverse(g)
    # a product is the identity iff its unreduced row is all 0
    for s, h in ((g, g_inv), (g_inv, g)):
        plan = compose_plan(s, h.depth, tuple(sorted(set(h.shifts))))
        if compose_rows(plan, np.array(h.shifts, ndmin=2)).any():
            raise NotInvertible("preimage table is not a two-sided inverse")
    return g


def inverse(g: CocycleElement) -> CocycleElement:
    """Group inverse; shifts satisfy k_inv(y) = -k_g(g^{-1} y)."""
    if g._inverse is not None:
        return g._inverse
    if len(set(g.shifts)) == 1:
        # a constant shift c moves every point by c, and -c moves it back
        inv = CocycleElement(g.spec, g.depth, tuple(-k for k in g.shifts))
    else:
        inv = CocycleElement(g.spec, *_preimage_table(g))
    g._inverse = inv
    inv._inverse = g
    return inv


def compose(g: CocycleElement, h: CocycleElement) -> CocycleElement:
    """The element g.h (h acts first): h's shifts as a one-row batch
    through g's compose plan for the shifts that h takes."""
    if g.spec != h.spec:
        raise SpecMismatch("cannot compose elements over different subshifts")
    plan = compose_plan(g, h.depth, tuple(sorted(set(h.shifts))))
    return CocycleElement(g.spec, plan.depth, compose_rows(plan, np.array(h.shifts, ndmin=2))[0])


def evaluate(g: CocycleElement, point: Point, position: int = 0) -> int:
    """The shift g applies at the point shifted to `position`."""
    return g.shift_at(point.window(position, g.depth))


def window_columns(spec: SubshiftSpec, point: Point, offsets: Iterable[int],
                   depth: int) -> np.ndarray:
    """The column of a shift row that applies at each offset: the position
    among the sorted admissible (2*depth+1)-words of the point's window
    there, all sliced from one read.  A window outside the language raises SpecMismatch."""
    w, lo = 2 * depth + 1, min(offsets)
    position, text = spec.language.words(w), point.letters(lo - depth, max(offsets) + depth + 1)
    try:
        return np.array([position[text[k - lo : k - lo + w]] for k in offsets], dtype=np.intp)
    except KeyError as exc:
        raise SpecMismatch(f"window {exc.args[0]!r} is not admissible for the "
                           "generators' subshift") from None


def increment_table(gens: GeneratorSet, point: Point, span: int,
                    dtype: np.dtype) -> np.ndarray:
    """Row i holds generator i's `evaluate` at each offset in [-span, span]:
    the point is read once per generator depth, and each offset's window
    looked up by `window_columns`; every generator of that depth gathers its
    row by those positions.  `table.T` is position-major and contiguous."""
    table = np.zeros((2 * span + 1, len(gens)), dtype=dtype).T
    for depth in {g.depth for _, g in gens}:
        cols = window_columns(gens.spec, point, range(-span, span + 1), depth)
        for i, (_, g) in enumerate(gens):
            if g.depth == depth:
                table[i] = np.array(g.shifts)[cols]
    return table


def equals(g: CocycleElement, h: CocycleElement) -> bool:
    """Semantic equality: refine both tables to common depth and compare.

    Canonical forms are unique, so this coincides with `==`; it exists as
    an independently computed check used by the test suite.
    """
    if g.spec != h.spec:
        return False
    d = max(g.depth, h.depth)
    return _refined(g, d) == _refined(h, d)


def _refined(g: CocycleElement, depth: int) -> dict[str, int]:
    """g's table read on the admissible (2*depth+1)-words, depth >= g.depth."""
    oracle = g.spec.language
    n = 2 * depth + 1
    reads = oracle.subwords(n, depth - g.depth, 2 * g.depth + 1)
    return dict(zip(oracle.words(n), map(g.shifts.__getitem__, reads.tolist())))


def is_constant_on_cylinder(g: CocycleElement, word: str) -> bool:
    """True iff the cocycle is constant on the cylinder of `word`
    (odd length, centered)."""
    if len(word) % 2 != 1:
        raise ValueError("cylinder words have odd length")
    l = (len(word) - 1) // 2
    if g.depth <= l:
        return True
    oracle = g.spec.language
    target = oracle.words(len(word)).get(word)
    centres = oracle.subwords(2 * g.depth + 1, g.depth - l, len(word))
    return len({k for c, k in zip(centres.tolist(), g.shifts) if c == target}) <= 1


class GeneratorSet(Frozen):
    """Named full-group elements used as random-walk generators."""

    __slots__ = _fields = ("spec", "elements")
    spec: SubshiftSpec
    elements: tuple[tuple[str, CocycleElement], ...]

    def __init__(self, spec: SubshiftSpec, elements: tuple[tuple[str, CocycleElement], ...]):
        self._set(spec=spec, elements=elements)
        for name, g in self.elements:
            if g.spec != self.spec:
                raise SpecMismatch(f"generator {name!r} lives on a different subshift")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.elements)

    def __getitem__(self, name: str) -> CocycleElement:
        for n, g in self.elements:
            if n == name:
                return g
        raise KeyError(name)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @property
    def max_depth(self) -> int:
        """Largest table depth over the generators: cylinders of this depth
        determine every generator's shift."""
        return max((g.depth for _, g in self.elements), default=0)

    @property
    def max_shift(self) -> int:
        """Largest absolute shift over the generators (Lipschitz bound of
        the orbit embedding)."""
        return max((g.max_shift for _, g in self.elements), default=0)


def fibonacci_generators(spec: SubstitutionSpec) -> GeneratorSet:
    """The three involutions generating the classical subgroup over the
    golden-ratio substitution subshift.

    alpha swaps the two points of each orbit segment reading 'aa' across
    the origin, beta does the same for 'ba', and gamma for the letter 'b'
    at or before the origin.
    """
    if not isinstance(spec, SubstitutionSpec) or spec.rules_dict != {"a": "ab", "b": "a"}:
        raise SpecMismatch("the built-in generators require the a->ab, b->a subshift")
    oracle = spec.language

    def branch(two: str) -> dict[str, int]:
        return {w: 1 if w[1:3] == two else -1 if w[0:2] == two else 0 for w in oracle.factors(5)}

    gamma_table = {w: 1 if w[1] == "b" else -1 if w[0] == "b" else 0 for w in oracle.factors(3)}
    alpha = from_table(spec, 2, branch("aa"))
    beta = from_table(spec, 2, branch("ba"))
    gamma = from_table(spec, 1, gamma_table)
    return GeneratorSet(spec, (("alpha", alpha), ("beta", beta), ("gamma", gamma)))


def _row_dtype(bound: int) -> np.dtype:
    """The narrowest signed integer type that holds every shift up to `bound`."""
    for kind in (np.int8, np.int16, np.int32):
        if bound <= np.iinfo(kind).max:
            return np.dtype(kind)
    return np.dtype(np.int64)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row of a 2-D array: keys are equal iff rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _row_hashes(rows: np.ndarray) -> np.ndarray:
    """One uint64 key per row of a contiguous 2-D array, equal for equal
    rows: the row's bytes as 64-bit words, the last one zero-padded, each
    xored into the key and stirred by splitmix64's xor-multiply-shift."""
    size = rows.shape[1] * rows.itemsize
    words = np.zeros((len(rows), -(-size // 8) * 8), dtype=np.uint8)
    words[:, :size] = rows.view(np.uint8).reshape(len(rows), size)
    words = words.view(np.uint64)
    key = np.zeros(len(rows), dtype=np.uint64)
    for j in range(words.shape[1]):
        key ^= words[:, j]
        key += 0x9E3779B97F4A7C15
        key ^= key >> 30
        key *= 0xBF58476D1CE4E5B9
        key ^= key >> 27
        key *= 0x94D049BB133111EB
        key ^= key >> 31
    return key


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first of each distinct row of a contiguous 2-D
    array, and for every row the place of its first in that list.  Rows
    are sorted by their uint64 hash, and each row of a run of equal hashes
    is checked against the run's first row; only when some run holds two
    different rows do the bytes keys of `_row_keys` decide, so no run ever
    merges two different rows."""
    keys = _row_hashes(rows)
    order = keys.argsort()
    keys = keys[order]
    run = np.empty(len(keys), dtype=bool)
    run[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=run[1:])
    firsts = np.minimum.reduceat(order, np.flatnonzero(run))
    which = np.empty_like(order)
    which[order] = np.cumsum(run) - 1
    lead = firsts[which]
    later = np.flatnonzero(lead != np.arange(len(rows)))
    if (rows[later] != rows[lead[later]]).any():
        _, firsts, which = np.unique(_row_keys(rows), return_index=True, return_inverse=True)
    return firsts, which.ravel()


class CayleyBall:
    """The word-metric ball of a generator set, in breadth-first order.

    Element i (the identity is 0) has word length `lengths[i]` and table
    depth `depths[i]`; `len(ball)` counts the elements.  For every element
    shorter than `radius`, row i of the int32 array `neighbors` holds the
    index of compose(s, element(i)) for each generator s in order: the
    edges of the left walk.  Those elements are a prefix of the ball.

    The shift rows are the ball's only element store: one 2-D array per
    table depth, of the narrowest integer type that holds radius times the
    generators' largest shift, read by `shift_rows`.  `element(i)` builds
    one `CocycleElement` from its row.  `grow` composes a whole layer at
    once with the kernels of `compose`: each group of rows of one depth and
    largest shift m goes through each generator's `compose_plan` for the
    offsets -m..m and `compose_rows`, and `fold_rows` reduces the products.  An edge back to
    the layer before is read off the forward edge of the inverse generator,
    when the set holds one, so only the other edges are composed; `composed_cells` counts the (element, generator)
    cells composed so far.  Products are deduplicated depth by depth, deepest
    first, against the last two layers when the set is inverse-closed, and
    against the whole ball when it is not: `_distinct_rows` sorts one uint64
    hash per row and checks each row against the first of its run of equal
    hashes, and sorts the rows' bytes only when a hash collides.  A layer
    affords every array it makes against the byte budget (`errors.afford`)
    before it makes them, on top of the ball's arrays and those it keeps:
    at its start, before each compose, before each depth is settled and
    before the append.
    """

    def __init__(self, gens: GeneratorSet, cap: int):
        self.gens = gens
        self.cap = cap
        self.radius = 0
        self.composed_cells = 0
        self.lengths = np.zeros(1, dtype=np.int64)
        self.depths = np.zeros(1, dtype=np.int64)
        self.neighbors = np.empty((0, len(gens)), dtype=np.int32)
        self._atoms = [s for _, s in gens.elements]
        self._rows = {0: np.zeros((1, len(gens.spec.language.words(1))), dtype=np.int8)}
        self._slots = np.zeros(1, dtype=np.int64)  # element i is _rows[depths[i]][_slots[i]]

    def __len__(self) -> int:
        return len(self.lengths)

    def shift_rows(self, depth: int, ids: np.ndarray) -> np.ndarray:
        """The shift rows of elements `ids`, all of table depth `depth`: row
        j is element ids[j]'s shift on each admissible (2*depth+1)-word."""
        return self._rows[depth][self._slots[ids]]

    def rows_by_depth(self, ids: np.ndarray, above: int = -1):
        """For each table depth d > `above` among elements `ids`, in
        increasing order: d, the positions in `ids` of that depth and
        their shift rows."""
        depths = self.depths[ids]
        for d in sorted(self._rows):
            at = np.flatnonzero(depths == d) if d > above else ()
            if len(at):
                yield d, at, self.shift_rows(d, ids[at])

    def element(self, i: int) -> CocycleElement:
        """Element i, built from its shift row."""
        depth = int(self.depths[i])
        return CocycleElement(self.gens.spec, depth, self.shift_rows(depth, i))

    def grow(self, radius: int) -> None:
        """Continue the breadth-first search out to `radius`.  A layer that
        would take the ball past `cap` elements, or whose arrays, with the
        ball's, would pass the byte budget at any step, raises ResourceLimit
        and leaves the ball's elements as they were.  Back edges are read,
        not composed; they never reach a new element, so elements are found
        in the same order as by composing every edge, one element and one
        generator at a time."""
        if radius <= self.radius:
            return
        dtype = _row_dtype(radius * self.gens.max_shift)
        if dtype.itemsize > self._rows[0].dtype.itemsize:
            # the wider rows, made while the narrower ones are live
            afford(sum(a.nbytes for a in self._arrays())
                   + sum(r.size for r in self._rows.values()) * dtype.itemsize,
                   f"ball layer {self.radius + 1}")
            self._rows = {d: r.astype(dtype) for d, r in self._rows.items()}
        position = {s: a for a, s in enumerate(self._atoms)}
        # back[a]: a generator that undoes atom a, or -1
        back = np.array([position.get(inverse(s), -1) for s in self._atoms], dtype=np.int64)
        while self.radius < radius:
            self._grow_layer(back, closed=bool((back >= 0).all()))

    def _arrays(self) -> tuple[np.ndarray, ...]:
        """Every array the ball holds."""
        return (self.lengths, self.depths, self.neighbors, self._slots, *self._rows.values())

    def _grow_layer(self, back: np.ndarray, closed: bool) -> None:
        first, size, width = len(self.neighbors), len(self.lengths), len(self._atoms)
        what = f"ball layer {self.radius + 1}"
        # kept: the bytes live from one step to the next, the ball's arrays
        # first.  Each step affords the arrays it makes on top of kept before
        # it makes them, and kept then counts those it keeps
        ball_bytes = kept = sum(a.nbytes for a in self._arrays())
        # the layer's int64 targets, one a cell (element, generator), and the
        # larger of the back edges' read (the edge mask and at most five 8-byte
        # words an edge) and the compose's gathers: rows_by_depth holds the
        # frontier's ids and depths and gathers one depth's rows at a time,
        # while the rows of the depth before, a group's copy and its todo rows
        # may still be live, so three times the frontier's rows at most, and
        # 80 bytes an element of masks and indices
        start = int(np.searchsorted(self.lengths, self.radius - 1))
        last = self.neighbors[start:]
        per_depth = np.bincount(self.depths[first:]).tolist()
        gathered = (3 * self._rows[0].itemsize
                    * sum(c * self._rows[d].shape[1] for d, c in enumerate(per_depth) if c)
                    + 80 * (size - first))
        afford(kept + 8 * (size - first) * width + max(40 * last.size, gathered), what)

        # an edge p -> s.p from the layer before, with s.p in this layer,
        # gives the edge s.p -> p by the inverse of s: read, not composed.
        # Every other cell is composed; it holds -1 until its target is known
        targets = np.full((size - first, width), -1, dtype=np.int64)
        p, a = np.nonzero((last >= first) & (back >= 0))
        targets[last[p, a] - first, back[a]] = start + p
        del p, a
        kept += targets.nbytes
        built, composed, kept = self._compose_open_cells(first, targets, kept + gathered, what)
        kept -= gathered

        # one pass from the top depth down: reduce the products built at d,
        # then deduplicate what stays there, against layers r-1 and r when
        # the set is inverse-closed (a product of a layer-r element then has
        # length r-1, r or r+1), otherwise against the whole ball.  A new
        # element is first found at its smallest cell, and new elements are
        # numbered in that order; until then a cell holds -1 - (that first cell)
        floor = start if closed else 0
        peers = np.bincount(self.depths[floor:]).tolist()  # elements of each depth from floor
        added, found = [], 0
        for d in range(max(built, default=-1), -1, -1):
            if built.get(d):
                new, cells, kept = self._settle(d, built, targets.ravel(), floor,
                                                peers[d] if d < len(peers) else 0, kept, what)
                found += len(new)
                if found and size + found > self.cap:
                    raise ResourceLimit(f"ball enumeration exceeded {self.cap} elements")
                added.append((d, new, cells))

        # the new elements' sorted cells and, for the pending cells, a mask
        # and at most two int64 words each; then the int32 rows.  Appending
        # copies the ball's arrays one at a time, each with its new part, so
        # the appended ball and at most its largest old array are live, with
        # the new depths and slots and 16 bytes an element of indices; the
        # appended ball replaces the old one in kept
        largest = max(a.nbytes for a in self._arrays())
        grown = (ball_bytes + 4 * targets.size
                 + sum(new.nbytes + 24 * len(new) for _, new, _ in added))
        afford(kept + 17 * targets.size + grown - ball_bytes + largest + 48 * found, what)
        fresh_cells = np.sort(np.concatenate([np.empty(0, dtype=np.int64),
                                              *(c for _, _, c in added)]))
        pending = targets < 0
        targets[pending] = size + np.searchsorted(fresh_cells, -1 - targets[pending])
        rows = targets.astype(np.int32)
        del targets, pending
        new_depths = np.empty(len(fresh_cells), dtype=np.int64)
        new_slots = np.empty_like(new_depths)
        for d, new, cells in added:
            ids = np.searchsorted(fresh_cells, cells)
            held = len(self._rows.get(d, ()))
            new_depths[ids] = d
            new_slots[ids] = held + np.arange(len(new))
            self._rows[d] = np.concatenate([self._rows[d], new]) if held else new
        self.radius += 1
        self.composed_cells += composed
        self.lengths = np.concatenate([self.lengths, np.full(len(new_depths), self.radius)])
        self.depths = np.concatenate([self.depths, new_depths])
        self._slots = np.concatenate([self._slots, new_slots])
        self.neighbors = np.concatenate([self.neighbors, rows])

    def _compose_open_cells(self, first: int, targets: np.ndarray, kept: int, what: str):
        """Compose every open cell of the layer (-1 in `targets`), a group
        of equal depth and largest shift at a time; a cell is member * width
        + atom, its rank in the one-at-a-time order.  Return the products by
        the depth they are built at, with their cells; the cells composed;
        and kept, with the products' bytes."""
        width = len(self._atoms)
        built = defaultdict(list)
        composed = 0
        for depth, at, layer_rows in self.rows_by_depth(np.arange(first, len(self.lengths))):
            reach = np.abs(layer_rows).max(axis=1)
            for m in np.flatnonzero(np.bincount(reach)).tolist():
                group = reach == m
                members, shifts = at[group], layer_rows[group]
                offsets = tuple(range(-m, m + 1))
                for a, s in enumerate(self._atoms):
                    todo = targets[members, a] < 0
                    h = shifts[todo]
                    cells = members[todo] * width + a
                    composed += len(cells)
                    if not len(cells):
                        continue
                    plan = compose_plan(s, depth, offsets)
                    # the product, and the gather, its two intp indices and
                    # the sum, all of the product's shape
                    afford(kept + len(h) * len(plan.read) * (2 * h.itemsize + 16), what)
                    product = compose_rows(plan, h)
                    built[plan.depth].append((product, cells))
                    kept += product.nbytes + cells.nbytes
        return built, composed, kept

    def _settle(self, d: int, built: dict, targets: np.ndarray, floor: int, peers: int,
                kept: int, what: str):
        """Reduce the products built at depth d, pass those that fold on to
        built[d - 1] and deduplicate the rest against the ball's `peers`
        elements of depth d from `floor` on, writing each product's target: a known
        element, or -1 - the first cell of a new one.  Return the new
        elements' rows and first cells, in cell order, and kept, in which
        these and the rows passed on replace the products."""
        parts = built.pop(d)
        count = sum(len(cells) for _, cells in parts)
        row = parts[0][0].shape[1] * parts[0][0].itemsize  # bytes a row
        # on top of the products, the most of these, each counting the rows
        # passed on (fold_rows' rows on the centres and their cells) among the
        # rows it handles:
        # - the join, or fold_rows' two gathers and their compare, or the
        #   folded rows' copy and their rows on the centres: four times the rows;
        # - copies of the rows and cells that stay, the fold mask and the argsort;
        # - a mask over the ball from floor, and each known element's row and
        #   two int64 words; and for each row of their join with these, the
        #   join and then the check's two gathers and its mask, or np.unique's
        #   two copies when a hash collides, and 96 bytes of keys and indices
        afford(kept + max(4 * row * count, (row + 17) * count,
                          len(self.depths) - floor + (row + 16) * peers
                          + (peers + count) * (4 * row + 96)), what)
        joined = sum(x.nbytes for part in parts for x in part)
        shifts, cells = (np.concatenate(x) for x in zip(*parts))
        del parts  # the join replaces them
        fold, on_centres = fold_rows(self.gens.spec, d, shifts)
        if fold.any():
            built[d - 1].append((on_centres, cells[fold]))
            kept += on_centres.nbytes + 8 * len(on_centres)
            shifts, cells = shifts[~fold], cells[~fold]
        by_cell = np.argsort(cells)
        shifts, cells = shifts[by_cell], cells[by_cell]
        known = floor + np.flatnonzero(self.depths[floor:] == d)
        old = self.shift_rows(d, known) if d in self._rows else shifts[:0]
        firsts, which = _distinct_rows(np.concatenate([old, shifts]))
        is_old = firsts < len(old)
        label = np.empty(len(firsts), dtype=np.int64)
        label[is_old] = known[firsts[is_old]]
        label[~is_old] = -1 - cells[firsts[~is_old] - len(old)]
        targets[cells] = label[which[len(old):]]
        fresh = np.sort(firsts[~is_old]) - len(old)
        new, new_cells = shifts[fresh], cells[fresh]
        return new, new_cells, kept - joined + new.nbytes + new_cells.nbytes


def ball(gens: GeneratorSet, radius: int, cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """The CayleyBall of all elements of word length <= radius.

    Breadth-first left products with canonical-table deduplication; raises
    ResourceLimit instead of truncating when `cap` is exceeded.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    out = CayleyBall(gens, cap)
    out.grow(radius)
    return out


def element_from_dict(spec: SubshiftSpec, data: dict) -> CocycleElement:
    """Parse the {depth, entries: [{word, k}]} wire format; the depth and
    every k must be JSON integers, the depth nonnegative, and no word given
    twice."""
    try:
        depth = data["depth"]
        table = unique_dict(((e["word"], e["k"]) for e in data["entries"]),
                            IncompleteTable, "malformed element document: word")
    except (KeyError, TypeError) as exc:
        raise IncompleteTable(f"malformed element document: {exc}") from exc
    for name, value in (("depth", depth), *(("k", k) for k in table.values())):
        if type(value) is not int:  # neither a bool nor a float is a JSON integer
            raise IncompleteTable(
                f"malformed element document: {name} {value!r} is not an integer"
            )
    if depth < 0:
        raise IncompleteTable(f"malformed element document: depth {depth} is negative")
    return from_table(spec, depth, table)
