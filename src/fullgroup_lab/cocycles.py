"""Elements of the topological full group of a subshift as cocycle tables.

An element g acts on a point x by shifting it k(x) places, where the
integer k(x) only depends on the letters of x within some finite depth l.
We store g as the total map from admissible (2l+1)-words to shifts, always
reduced to the unique minimal depth, so table identity is element identity
and tables can key dictionaries directly.

Composition follows the cocycle rule k_{gh}(x) = k_g(hx) + k_h(x);
inversion and the invertibility check both run the same preimage search:
at depth l+K every admissible word must select exactly one shift j with
the table sending the j-shifted subwindow to j.

Word-metric balls are CayleyBall graphs: the elements in breadth-first
order with their word lengths and depths, plus the index of every left
product by a generator, which is all the exact chain in `walks` needs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    IncompleteTable,
    InternalInvariantError,
    NotInvertible,
    ResourceLimit,
    SpecMismatch,
)
from .points import Point
from .subshifts import SubshiftSpec, SubstitutionSpec, language_table

DEFAULT_BALL_CAP = 2_000_000  # elements of a word-metric ball, and so of the exact chain


class CocycleElement:
    """Immutable full-group element in canonical (minimal-depth) form."""

    __slots__ = ("spec", "depth", "_table", "_items", "max_shift", "_hash", "_inverse")

    def __init__(self, spec: SubshiftSpec, depth: int, table: dict[str, int],
                 _canonical: bool = False):
        if not _canonical:
            depth, table = _reduce_depth(spec, depth, dict(table))
        self.spec = spec
        self.depth = depth
        self._table = table
        self._items = tuple(sorted(table.items()))
        self.max_shift = max((abs(k) for k in table.values()), default=0)
        self._hash = hash((self.depth, self._items))
        self._inverse = None

    @property
    def table(self) -> dict[str, int]:
        """Shift table over admissible (2*depth+1)-words (do not mutate)."""
        return self._table

    def shift_at(self, word: str) -> int:
        """Shift on the cylinder of `word` (len(word) == 2*depth+1)."""
        try:
            return self._table[word]
        except KeyError:
            raise SpecMismatch(
                f"word {word!r} is not admissible for this element's subshift"
            ) from None

    def __eq__(self, other):
        return (
            isinstance(other, CocycleElement)
            and self._hash == other._hash
            and self.depth == other.depth
            and self._items == other._items
            and self.spec == other.spec
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<CocycleElement depth={self.depth} max_shift={self.max_shift}>"

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "entries": [{"word": w, "k": k} for w, k in self._items],
        }


def _reduce_depth(spec: SubshiftSpec, depth: int, table: dict[str, int]):
    """Merge sibling cylinders outermost-first until the table stops
    factoring through the shorter central word."""
    oracle = language_table(spec)
    expected = oracle.factors(2 * depth + 1)
    if set(table) != expected:
        raise IncompleteTable(
            f"table must cover exactly the {len(expected)} admissible words "
            f"of length {2 * depth + 1}"
        )
    while depth > 0:
        grouped: dict[str, int] = {}
        consistent = True
        for w, k in table.items():
            v = w[1:-1]
            if grouped.setdefault(v, k) != k:
                consistent = False
                break
        if not consistent or set(grouped) != set(oracle.factors(2 * depth - 1)):
            break
        table = grouped
        depth -= 1
    return depth, table


def identity(spec: SubshiftSpec) -> CocycleElement:
    """The identity element: shift 0 on every letter cylinder."""
    table = {w: 0 for w in language_table(spec).factors(1)}
    return CocycleElement(spec, 0, table, _canonical=True)


def _preimage_table(spec: SubshiftSpec, depth: int, table: dict[str, int],
                    max_shift: int) -> dict[str, int]:
    """Inverse table at depth depth+max_shift, or raise NotInvertible."""
    big_depth = depth + max_shift
    width = 2 * depth + 1
    inv: dict[str, int] = {}
    for v in language_table(spec).factors(2 * big_depth + 1):
        hits = [
            j
            for j in range(-max_shift, max_shift + 1)
            if table[v[max_shift - j : max_shift - j + width]] == j
        ]
        if len(hits) != 1:
            kind = "no preimage" if not hits else f"{len(hits)} preimages"
            raise NotInvertible(f"configuration {v!r} has {kind}")
        inv[v] = -hits[0]
    return inv


def from_table(spec: SubshiftSpec, depth: int, table: dict[str, int]) -> CocycleElement:
    """Validate a user table (totality and invertibility) and canonicalize."""
    table = {str(w): int(k) for w, k in table.items()}
    g = CocycleElement(spec, depth, table)
    g_inv = inverse(g)
    ident = identity(spec)
    if compose(g, g_inv) != ident or compose(g_inv, g) != ident:
        raise NotInvertible("preimage table is not a two-sided inverse")
    return g


def inverse(g: CocycleElement) -> CocycleElement:
    """Group inverse; shifts satisfy k_inv(y) = -k_g(g^{-1} y)."""
    if g._inverse is not None:
        return g._inverse
    if g.max_shift == 0:
        # only the identity has an all-zero table
        inv = g
    else:
        inv_table = _preimage_table(g.spec, g.depth, g._table, g.max_shift)
        inv = CocycleElement(g.spec, g.depth + g.max_shift, inv_table)
    g._inverse = inv
    inv._inverse = g
    return inv


def compose(g: CocycleElement, h: CocycleElement) -> CocycleElement:
    """The element g.h (h acts first)."""
    if g.spec != h.spec:
        raise SpecMismatch("cannot compose elements over different subshifts")
    d = max(h.depth, g.depth + h.max_shift)
    out: dict[str, int] = {}
    width_h = 2 * h.depth + 1
    width_g = 2 * g.depth + 1
    h_table = h._table
    g_table = g._table
    h_lo = d - h.depth
    for w in language_table(g.spec).factors(2 * d + 1):
        kh = h_table[w[h_lo : h_lo + width_h]]
        lo = d + kh - g.depth
        out[w] = g_table[w[lo : lo + width_g]] + kh
    return CocycleElement(g.spec, d, out)


def evaluate(g: CocycleElement, point: Point, position: int = 0) -> int:
    """The shift g applies at the point shifted to `position`."""
    return g.shift_at(point.window(position, g.depth))


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
    if depth == g.depth:
        return dict(g._table)
    pad = depth - g.depth
    width = 2 * g.depth + 1
    return {
        w: g._table[w[pad : pad + width]]
        for w in language_table(g.spec).factors(2 * depth + 1)
    }


def is_constant_on_depth(g: CocycleElement, d: int) -> bool:
    """True iff the cocycle is constant on every admissible depth-d cylinder."""
    if d < 0:
        raise ValueError("depth must be nonnegative")
    return g.depth <= d


def is_constant_on_cylinder(g: CocycleElement, word: str) -> bool:
    """True iff the cocycle is constant on the cylinder of `word`
    (odd length, centered)."""
    if len(word) % 2 != 1:
        raise ValueError("cylinder words have odd length")
    l = (len(word) - 1) // 2
    if g.depth <= l:
        return True
    pad = g.depth - l
    seen: set[int] = set()
    for w, k in g._table.items():
        if w[pad : pad + len(word)] == word:
            seen.add(k)
            if len(seen) > 1:
                return False
    return True


@dataclass(frozen=True)
class GeneratorSet:
    """Named full-group elements used as random-walk generators."""

    spec: SubshiftSpec
    elements: tuple[tuple[str, CocycleElement], ...]

    def __post_init__(self):
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

    def is_inverse_closed(self) -> bool:
        members = {g for _, g in self.elements}
        return all(inverse(g) in members for g in members)


FIBONACCI_GENERATOR_ORDER = ("alpha", "beta", "gamma")


def fibonacci_generators(spec: SubstitutionSpec) -> GeneratorSet:
    """The three involutions generating the classical subgroup over the
    golden-ratio substitution subshift.

    alpha swaps the two points of each orbit segment reading 'aa' across
    the origin, beta does the same for 'ba', and gamma for the letter 'b'
    at or before the origin.
    """
    if not isinstance(spec, SubstitutionSpec) or spec.rules_dict != {"a": "ab", "b": "a"}:
        raise SpecMismatch("the built-in generators require the a->ab, b->a subshift")
    oracle = language_table(spec)

    def branch(two: str) -> dict[str, int]:
        table = {}
        for w in oracle.factors(5):
            if w[1:3] == two:
                table[w] = 1
            elif w[0:2] == two:
                table[w] = -1
            else:
                table[w] = 0
        return table

    gamma_table = {}
    for w in oracle.factors(3):
        if w[1] == "b":
            gamma_table[w] = 1
        elif w[0] == "b":
            gamma_table[w] = -1
        else:
            gamma_table[w] = 0

    alpha = from_table(spec, 2, branch("aa"))
    beta = from_table(spec, 2, branch("ba"))
    gamma = from_table(spec, 1, gamma_table)
    return GeneratorSet(spec, (("alpha", alpha), ("beta", beta), ("gamma", gamma)))


class CayleyBall(Mapping):
    """The word-metric ball of a generator set, read as a mapping from
    element to word length in breadth-first order.

    Element i is `elements[i]` (the identity is 0), with word length
    `lengths[i]` and table depth `depths[i]`.  For every element shorter
    than `radius`, row i of the int32 array `neighbors` holds the index of
    compose(s, elements[i]) for each generator s in order: the edges of the
    left walk.  Those elements are a prefix of `elements`.
    """

    def __init__(self, gens: GeneratorSet, cap: int):
        self.gens = gens
        self.cap = cap
        self.radius = 0
        self.elements = [identity(gens.spec)]
        self._index = {self.elements[0]: 0}
        self.lengths = np.zeros(1, dtype=np.int64)
        self.depths = np.zeros(1, dtype=np.int64)
        self.neighbors = np.empty((0, len(gens)), dtype=np.int32)

    def grow(self, radius: int) -> None:
        """Continue the breadth-first search out to `radius`.  A layer that
        would take the ball past `cap` elements raises ResourceLimit and
        leaves the ball as it was."""
        atoms = [s for _, s in self.gens.elements]
        while self.radius < radius:
            first, size = len(self.neighbors), len(self.elements)
            new: dict[CocycleElement, int] = {}
            rows = np.empty((size - first, len(atoms)), dtype=np.int32)
            for i in range(first, size):
                g = self.elements[i]
                for a, s in enumerate(atoms):
                    prod = compose(s, g)
                    j = self._index.get(prod)
                    if j is None:
                        j = new.setdefault(prod, size + len(new))
                        if j >= self.cap:
                            raise ResourceLimit(
                                f"ball enumeration exceeded {self.cap} elements"
                            )
                    rows[i - first, a] = j
            self.radius += 1
            self.elements.extend(new)
            self._index.update(new)
            self.lengths = np.concatenate([self.lengths, np.full(len(new), self.radius)])
            self.depths = np.concatenate(
                [self.depths, np.array([g.depth for g in new], dtype=np.int64)]
            )
            self.neighbors = np.concatenate([self.neighbors, rows])

    def __getitem__(self, g: CocycleElement) -> int:
        return int(self.lengths[self._index[g]])

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def ball(gens: GeneratorSet, radius: int, cap: int = DEFAULT_BALL_CAP) -> CayleyBall:
    """All elements of word length <= radius, mapped to their word length.

    Breadth-first left products with canonical-table deduplication; raises
    ResourceLimit instead of truncating when `cap` is exceeded.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    out = CayleyBall(gens, cap)
    out.grow(radius)
    return out


def element_from_dict(spec: SubshiftSpec, data: dict) -> CocycleElement:
    """Parse the {depth, entries: [{word, k}]} wire format."""
    try:
        depth = int(data["depth"])
        table = {e["word"]: int(e["k"]) for e in data["entries"]}
    except (KeyError, TypeError) as exc:
        raise IncompleteTable(f"malformed element document: {exc}") from exc
    return from_table(spec, depth, table)
