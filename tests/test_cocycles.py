import hashlib
import itertools
import random
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fullgroup_lab import (
    ExplicitSpec,
    FullShiftSpec,
    GeneratorSet,
    IncompleteTable,
    NotInvertible,
    PeriodicPoint,
    ResourceLimit,
    SpecMismatch,
    ToeplitzSpec,
    ball,
    compose,
    element_from_dict,
    equals,
    evaluate,
    fibonacci_generators,
    fibonacci_spec,
    find_cylinder_position,
    from_table,
    identity,
    inverse,
    is_constant_on_cylinder,
)
from fullgroup_lab import cocycles, errors
from fullgroup_lab.cocycles import CocycleElement, _reduce_depth, _refined, compose_plan

from conftest import word_lengths


@pytest.fixture(scope="module")
def abg(fib_gens):
    return fib_gens["alpha"], fib_gens["beta"], fib_gens["gamma"]


# --- identity ------------------------------------------------------------------


def test_identity_element(fib_spec, fib_point):
    e = identity(fib_spec)
    assert e.depth == 0 and e.max_shift == 0
    assert set(e.table.values()) == {0}
    assert evaluate(e, fib_point, 17) == 0


def test_identity_laws(fib_spec, abg):
    e = identity(fib_spec)
    for g in abg:
        assert compose(e, g) == g
        assert compose(g, e) == g


# --- from_table ----------------------------------------------------------------


def test_from_table_accepts_branch_table(fib_spec, abg):
    alpha, _, _ = abg
    rebuilt = from_table(fib_spec, 2, dict(alpha.table))
    assert rebuilt == alpha


def test_from_table_shift_on_full_shift():
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    point = PeriodicPoint("ab")
    assert all(evaluate(tau, point, j) == 1 for j in range(-5, 5))
    assert inverse(tau).table == {"a": -1, "b": -1}


def test_from_table_collision_not_invertible():
    # two one-letter cylinders map onto the same configuration
    fs = FullShiftSpec(("a", "b"))
    with pytest.raises(NotInvertible):
        from_table(fs, 0, {"a": 1, "b": 0})


def test_preimage_tries_only_the_shifts_the_table_takes():
    # sigma^k . gamma takes the three shifts k - 1, k and k + 1, so its
    # preimage table reads one window column per shift instead of one per
    # offset in [-K, K], K = k + 1.  For k = 1..40 the inversions add 198
    # columns to a fresh spec's memo: 120 windows, and one column for each
    # index or sibling map of a level.  Reading every offset would add
    # sum(2k + 3) = 1,760 windows instead of 120
    spec = fibonacci_spec()
    table = spec.language
    gamma = fibonacci_generators(spec)["gamma"]
    elements = [compose(from_table(spec, 0, {"a": k, "b": k}), gamma) for k in range(1, 41)]

    def columns():
        return sum(len(starts) for _, starts, _ in table._subwords)

    before = columns()
    inverses = [inverse(g) for g in elements]
    assert columns() - before <= 5 * 40
    for k, (g, g_inv) in enumerate(zip(elements, inverses), 1):
        assert sorted(set(g.shifts)) == [k - 1, k, k + 1]
        assert compose(g_inv, g) == identity(spec)


def test_from_table_refuses_an_inverse_that_is_not_two_sided(fib_spec, abg, monkeypatch):
    # the zero-row check stands apart from the preimage search: an inverse
    # that does not undo g, here the identity, is refused
    monkeypatch.setattr(cocycles, "_preimage_table", lambda g: (g.depth, (0,) * len(g.shifts)))
    with pytest.raises(NotInvertible, match="preimage table is not a two-sided inverse"):
        from_table(fib_spec, 2, abg[0].table)


def test_from_table_requires_total_table(fib_spec):
    words = sorted(fib_spec.language.factors(3))
    partial = {w: 0 for w in words[:-1]}
    with pytest.raises(IncompleteTable):
        from_table(fib_spec, 1, partial)
    extra = {w: 0 for w in words} | {"bbb": 0}
    with pytest.raises(IncompleteTable):
        from_table(fib_spec, 1, extra)


def test_element_dict_round_trip(fib_spec, abg):
    alpha, _, _ = abg
    doc = alpha.to_dict()
    assert element_from_dict(fib_spec, doc) == alpha


# --- evaluate ------------------------------------------------------------------


def test_gamma_piecewise_values(fib_spec, fib_point, abg):
    _, _, gamma = abg
    at_b = find_cylinder_position(fib_point, "aba")     # x_0 = b
    before_b = find_cylinder_position(fib_point, "baa")  # x_{-1} = b
    assert evaluate(gamma, fib_point, at_b) == 1
    assert evaluate(gamma, fib_point, before_b) == -1


def test_alpha_at_baa_window(fib_point, abg):
    alpha, _, _ = abg
    # window x_{-2} x_{-1} x_0 = "baa" fires the +1 branch (x_{-1} x_0 = aa)
    pos = find_cylinder_position(fib_point, "baaba")
    assert fib_point.window(pos, 2)[:3] == "baa"
    assert evaluate(alpha, fib_point, pos) == 1


# --- compose / inverse ----------------------------------------------------------


def test_compose_alpha_beta_on_baa(fib_spec, fib_point, abg):
    alpha, beta, _ = abg
    ab = compose(alpha, beta)
    pos = find_cylinder_position(fib_point, "baa")
    # oracle: apply beta, then alpha at the shifted position
    k_beta = evaluate(beta, fib_point, pos)
    k_alpha = evaluate(alpha, fib_point, pos + k_beta)
    assert k_beta == 1 and k_alpha == 1
    assert evaluate(ab, fib_point, pos) == k_alpha + k_beta == 2


def test_generators_are_involutions(fib_spec, abg):
    e = identity(fib_spec)
    for g in abg:
        assert compose(g, g) == e
        assert inverse(g) == g


def test_inverse_of_product(abg):
    alpha, beta, _ = abg
    assert inverse(compose(alpha, beta)) == compose(beta, alpha)


def test_inverse_of_identity(fib_spec):
    e = identity(fib_spec)
    assert inverse(e) == e


def test_compose_requires_same_spec(fib_spec, abg):
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    with pytest.raises(SpecMismatch):
        compose(abg[0], tau)


# --- canonical form and equality -------------------------------------------------


def test_constant_zero_table_canonicalizes_to_identity(fib_spec):
    table = {w: 0 for w in fib_spec.language.factors(7)}
    g = from_table(fib_spec, 3, table)
    assert g == identity(fib_spec)
    assert g.depth == 0


def test_equals_matches_operator_eq(fib_spec, abg):
    alpha, beta, gamma = abg
    e = identity(fib_spec)
    assert equals(compose(alpha, alpha), e)
    assert not equals(alpha, beta)
    pairs = [(alpha, alpha), (alpha, beta), (compose(alpha, beta), compose(alpha, beta)),
             (compose(alpha, beta), compose(beta, alpha)), (gamma, e)]
    for g, h in pairs:
        assert equals(g, h) == (g == h)


def test_refinement_preserves_semantics(fib_spec, abg):
    _, _, gamma = abg
    refined = _refined(gamma, 4)
    assert set(refined) == fib_spec.language.factors(9)
    rebuilt = from_table(fib_spec, 4, refined)
    assert rebuilt == gamma
    assert rebuilt.depth == gamma.depth == 1


# --- builtin generators -----------------------------------------------------------


def test_generator_depths_and_shifts(fib_gens):
    assert fib_gens.max_depth == 2
    assert fib_gens.max_shift == 1
    assert fib_gens["gamma"].depth == 1
    assert fib_gens["alpha"].depth == 2
    members = {g for _, g in fib_gens}
    assert all(inverse(g) in members for g in members)


def test_generators_distinct(abg):
    assert len(set(abg)) == 3


def test_generators_match_piecewise_rules(fib_point, abg):
    alpha, beta, gamma = abg

    def oracle(two, x, pos):
        w = x.window(pos, 2)
        if w[1:3] == two:
            return 1
        if w[0:2] == two:
            return -1
        return 0

    def oracle_gamma(x, pos):
        w = x.window(pos, 1)
        if w[1] == "b":
            return 1
        if w[0] == "b":
            return -1
        return 0

    for pos in range(-15, 15):
        assert evaluate(alpha, fib_point, pos) == oracle("aa", fib_point, pos)
        assert evaluate(beta, fib_point, pos) == oracle("ba", fib_point, pos)
        assert evaluate(gamma, fib_point, pos) == oracle_gamma(fib_point, pos)


def test_builtin_generators_reject_other_specs():
    with pytest.raises(SpecMismatch):
        fibonacci_generators(FullShiftSpec(("a", "b")))


# --- balls -----------------------------------------------------------------------


def _elements(b):
    """The ball's elements in index order, each built from its shift row."""
    return [b.element(i) for i in range(len(b))]


def _lengths(b):
    """Each element of the ball mapped to its word length, in index order."""
    return dict(zip(_elements(b), word_lengths(b).tolist()))


def test_ball_radius_zero(fib_spec, fib_gens):
    b = ball(fib_gens, 0)
    assert set(_elements(b)) == {identity(fib_spec)} and _lengths(b)[identity(fib_spec)] == 0


def test_ball_radius_one(fib_spec, fib_gens, abg):
    b = ball(fib_gens, 1)
    assert set(_elements(b)) == {identity(fib_spec), *abg}
    assert sorted(_lengths(b).values()) == [0, 1, 1, 1]


def test_ball_shift_bound(fib_gens):
    for g, length in _lengths(ball(fib_gens, 5)).items():
        assert g.max_shift <= fib_gens.max_shift * max(length, 0)


def test_ball_resource_limit(fib_gens):
    with pytest.raises(ResourceLimit):
        ball(fib_gens, 6, cap=20)


def _assert_rows_are_left_products(b, gens):
    """One row per element shorter than the radius: its left products."""
    atoms = [s for _, s in gens.elements]
    elements = _elements(b)
    assert b.neighbors.shape == (np.count_nonzero(word_lengths(b) < b.radius), len(atoms))
    for i, row in enumerate(b.neighbors.tolist()):
        assert [elements[j] for j in row] == [compose(s, elements[i]) for s in atoms]


def test_ball_neighbors_lengths_and_depths(fib_spec, fib_gens):
    b = ball(fib_gens, 3)
    elements, lengths = _elements(b), _lengths(b)
    assert elements[0] == identity(fib_spec)
    assert len(lengths) == len(b) == 22
    ordered = word_lengths(b).tolist()
    assert ordered == [lengths[g] for g in elements] == sorted(ordered)
    assert b.depths.tolist() == [g.depth for g in elements]
    assert b.neighbors.dtype == np.int32
    _assert_rows_are_left_products(b, fib_gens)


def test_ball_grows_in_place(fib_gens):
    b = ball(fib_gens, 2)
    b.grow(5)
    fresh = ball(fib_gens, 5)
    assert b.radius == 5
    assert list(_lengths(b).items()) == list(_lengths(fresh).items())
    assert np.array_equal(b.neighbors, fresh.neighbors)
    b.grow(4)  # never shrinks
    assert b.radius == 5 and len(b) == len(fresh)


def test_ball_cap_leaves_the_ball_as_it_was(fib_gens):
    b = ball(fib_gens, 2, cap=21)  # radius 2 has 10 elements, radius 3 has 22
    items, rows = list(_lengths(b).items()), b.neighbors.copy()
    for _ in range(2):
        with pytest.raises(ResourceLimit, match="ball enumeration exceeded 21 elements"):
            b.grow(3)
        assert b.radius == 2 and list(_lengths(b).items()) == items
        assert np.array_equal(b.neighbors, rows) and b.starts == [0, 1, 4, 10]
        assert len(b) == len(b.depths) == len(b._slots) == 10
    b.cap = 22
    b.grow(3)
    assert list(_lengths(b).items()) == list(_lengths(ball(fib_gens, 3)).items())


def test_ball_byte_budget_refuses_a_layer_before_it_is_built(fib_gens, monkeypatch):
    b = ball(fib_gens, 5)
    rows = b.neighbors.copy()
    monkeypatch.setattr(errors, "MAX_BYTES", 0)
    for _ in range(2):
        with pytest.raises(ResourceLimit, match=r"ball layer 6 needs \d+ bytes, past the byte "
                                                r"budget of 0 bytes"):
            b.grow(6)
        assert b.radius == 5 and len(b) == 94 and np.array_equal(b.neighbors, rows)
    monkeypatch.undo()
    b.grow(6)
    assert b.starts == ball(fib_gens, 6).starts


MiB = 1 << 20
# traced bytes a ball holds outside its arrays: the generators' compose plans
# and the language's index and window maps, 2.4 MiB at most when
# ball(fib_gens, 20) is grown
BALL_ALLOWANCE = 4 * MiB


def test_each_afford_of_a_ball_layer_refuses_within_its_traced_peak(monkeypatch):
    # a ball's afford calls, in order, make the same counts under any budget
    # up to the one that refuses, so a budget at least every count before a
    # count c and below c refuses at c.  Read off one recording run, each
    # afford site's first such c from 4 MiB on, and the last such c below
    # 128 MiB, are refused in turn, and the traced peak stays within the
    # budget and the allowance
    calls, afford = [], cocycles.afford

    def record(nbytes, what):
        frame = sys._getframe(1)
        calls.append((frame.f_code.co_name, frame.f_lineno, nbytes))
        afford(nbytes, what)

    gens = fibonacci_generators(fibonacci_spec())
    monkeypatch.setattr(cocycles, "afford", record)
    ball(gens, 19, cap=10**12)
    monkeypatch.setattr(cocycles, "afford", afford)
    refusals, most = {}, 0
    for site, line, nbytes in calls:
        if 4 * MiB <= most < nbytes <= 128 * MiB:
            refusals.setdefault((site, line), (most, nbytes))
            last = most, nbytes
        most = max(most, nbytes)
    # the layer's start and end, a compose and a depth settled
    assert sorted(site for site, _ in refusals) == [
        "_compose_open_cells", "_grow_layer", "_grow_layer", "_settle"]
    assert last[0] > 64 * MiB
    for budget, nbytes in [*refusals.values(), last]:
        monkeypatch.setattr(errors, "MAX_BYTES", budget)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimit, match=f"needs {nbytes} bytes"):
                ball(gens, 40, cap=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget + BALL_ALLOWANCE


def test_ball_word_lengths_are_geodesic(fib_gens, abg):
    alpha, beta, gamma = abg
    lengths = _lengths(ball(fib_gens, 3))
    assert lengths[compose(alpha, beta)] == 2
    assert lengths[compose(alpha, alpha)] == 0


def test_ball_back_edges_match_direct_composes(fib_spec, fib_gens, abg):
    # three involutions: every back edge is read from the layer before
    _assert_rows_are_left_products(ball(fib_gens, 6), fib_gens)
    # sigma's inverse is no generator, so only alpha's back edges are read
    sigma = from_table(fib_spec, 0, {"a": 1, "b": 1})
    gens = GeneratorSet(fib_spec, (("alpha", abg[0]), ("sigma", sigma)))
    _assert_rows_are_left_products(ball(gens, 5), gens)


def test_ball_composes_only_the_forward_edges(fib_gens):
    b = ball(fib_gens, 12)
    # 16,437 cells when the 5,586 back edges are composed too
    assert b.composed_cells == 10_851
    assert b.composed_cells + 5_586 == b.neighbors.size


def _reference_ball(gens, radius):
    """The ball by one `compose` per edge: a dict index, every edge composed."""
    atoms = [s for _, s in gens.elements]
    elements, lengths = [identity(gens.spec)], [0]
    index, rows = {elements[0]: 0}, []
    for i, g in enumerate(elements):
        if lengths[i] == radius:
            break
        row = []
        for s in atoms:
            prod = compose(s, g)
            if prod not in index:
                index[prod] = len(elements)
                elements.append(prod)
                lengths.append(lengths[i] + 1)
            row.append(index[prod])
        rows.append(row)
    return elements, lengths, [g.depth for g in elements], rows


def test_ball_keeps_layer_starts_and_narrow_bookkeeping(fib_gens):
    # the layers are the starts' gaps, and each array is as narrow as its
    # values: int8 depths (no table is deeper than 127) and int32 slots
    b = ball(fib_gens, 16)
    assert not hasattr(b, "lengths") and len(b) == b.starts[-1] == 145_278
    _, lengths, _, _ = _reference_ball(fib_gens, 16)
    assert np.diff(b.starts).tolist() == np.bincount(lengths).tolist()
    assert b.depths.itemsize == 1 and b._slots.dtype == np.int32
    rows = sum(r.nbytes for r in b._rows.values())
    assert sum(a.nbytes for a in b._arrays()) == rows + 4 * (b.neighbors.size + len(b)) + len(b)


def _swap(spec, two):
    """The involution exchanging the two letters of each occurrence of `two`."""
    return from_table(spec, 1, {
        w: 1 if w[1:] == two else -1 if w[:2] == two else 0 for w in spec.language.factors(3)
    })


def _oracle_generator_sets():
    toeplitz = ToeplitzSpec("ab*b*")
    full = FullShiftSpec(("a", "b"))
    fib = fibonacci_spec()
    alpha = fibonacci_generators(fib)["alpha"]
    tau, tau5 = (from_table(full, 0, {"a": c, "b": c}) for c in (1, 5))
    return {
        "toeplitz-swaps": (GeneratorSet(toeplitz, (("ab", _swap(toeplitz, "ab")),
                                                   ("ba", _swap(toeplitz, "ba")))), 10),
        "full-shift": (GeneratorSet(full, (("tau", from_table(full, 0, {"a": 1, "b": 1})),
                                           ("swap", _swap(full, "ab")))), 5),
        "alpha-sigma": (GeneratorSet(fib, (("alpha", alpha),
                                           ("sigma", from_table(fib, 0, {"a": 1, "b": 1})))), 6),
        # 3 x 43 passes the int8 range of the rows
        "sigma-43": (GeneratorSet(fib, (("alpha", alpha),
                                        ("sigma43", from_table(fib, 0, {"a": 43, "b": 43})))), 3),
        # neither inverse is a generator, so a product can fall back two or
        # more layers: sigma . sigma^-1 is the identity, found again at length 3
        "sigma-inverse-square": (GeneratorSet(fib, (("sigma", from_table(fib, 0, {"a": 1, "b": 1})),
                                                    ("sigma^-2", from_table(fib, 0, {"a": -2, "b": -2})))),
                                 6),
        # constant generators keep every product at depth 0, however far
        # the ball reaches, so the byte budget never comes near
        "tau-pair": (GeneratorSet(full, (("tau", tau), ("tau^-1", inverse(tau)))), 20),
        "tau5-pair-and-identity": (GeneratorSet(full, (("tau5", tau5), ("tau^-5", inverse(tau5)),
                                                       ("id", identity(full)))), 20),
    }


@pytest.mark.parametrize("name", sorted(_oracle_generator_sets()))
def test_ball_equals_the_compose_per_edge_reference(name):
    gens, radius = _oracle_generator_sets()[name]
    b = ball(gens, radius)
    elements, lengths, depths, rows = _reference_ball(gens, radius)
    if name.startswith("tau"):
        assert len(b) == 2 * radius + 1
    assert _elements(b) == elements
    assert word_lengths(b).tolist() == lengths and b.depths.tolist() == depths
    assert b.neighbors.tolist() == rows


def test_ball_grown_past_the_int8_bound_equals_the_reference():
    # radius 2 x 43 fits int8 rows, radius 3 does not: the stored rows are
    # widened and the products of the int8 step tables join int16 rows
    gens, radius = _oracle_generator_sets()["sigma-43"]
    b = ball(gens, 2)
    assert b._rows[0].dtype == np.int8
    b.grow(radius)
    assert b._rows[0].dtype == np.int16
    elements, lengths, depths, rows = _reference_ball(gens, radius)
    assert _elements(b) == elements
    assert word_lengths(b).tolist() == lengths and b.depths.tolist() == depths
    assert b.neighbors.tolist() == rows


def _ball_digest(b):
    digest = hashlib.sha256()
    for g in _elements(b):
        digest.update(repr((g.depth, g.shifts)).encode())
    for array, dtype in ((word_lengths(b), "<i8"), (b.depths, "<i8"), (b.neighbors, "<i4")):
        digest.update(array.astype(dtype).tobytes())
    return digest.hexdigest()


def test_ball_order_is_pinned(fib_gens):
    # every element's (depth, shifts) in order, then lengths, depths and
    # neighbors: a change that reorders the ball changes this digest
    assert _ball_digest(ball(fib_gens, 12)) == (
        "30d62d7560b10272c5ec16de0b47c96f15d9e2fc598c68e8a1b898a4783e377f"
    )


def _one_hash(monkeypatch):
    """Give every row the same uint64 hash, and count the bytes-key
    fallbacks that this forces."""
    fallbacks, bytes_keys = [], cocycles._row_keys

    def row_keys(rows):
        fallbacks.append(len(rows))
        return bytes_keys(rows)

    monkeypatch.setattr(cocycles, "_row_hashes", lambda rows: np.zeros(len(rows), np.uint64))
    monkeypatch.setattr(cocycles, "_row_keys", row_keys)
    return fallbacks


@pytest.mark.parametrize("name", sorted(_oracle_generator_sets()))
def test_ball_with_every_row_hash_colliding_equals_the_reference(name, monkeypatch):
    # one run of equal hashes per depth: whenever it holds two different
    # rows, the bytes keys decide, and no different rows are merged
    gens, radius = _oracle_generator_sets()[name]
    fallbacks = _one_hash(monkeypatch)
    b = ball(gens, radius)
    elements, lengths, depths, rows = _reference_ball(gens, radius)
    assert fallbacks
    assert _elements(b) == elements
    assert word_lengths(b).tolist() == lengths and b.depths.tolist() == depths
    assert b.neighbors.tolist() == rows


def test_ball_order_is_pinned_when_every_row_hash_collides(fib_gens, monkeypatch):
    fallbacks = _one_hash(monkeypatch)
    assert _ball_digest(ball(fib_gens, 12)) == (
        "30d62d7560b10272c5ec16de0b47c96f15d9e2fc598c68e8a1b898a4783e377f"
    )
    assert fallbacks


def test_no_row_hash_collides_on_the_radius_12_ball(fib_gens, monkeypatch):
    # the bytes keys are the fallback only: the hash mixes every row word
    def refuse(rows):
        raise AssertionError("two different rows share a hash")

    monkeypatch.setattr(cocycles, "_row_keys", refuse)
    assert len(ball(fib_gens, 12)) == 10_608


def test_sibling_plans_are_one_per_word_length():
    spec = fibonacci_spec()  # a fresh spec's table sees only this ball
    ball(fibonacci_generators(spec), 12)
    table = spec.language
    assert table._siblings and set(table._siblings) <= set(table._words)


# --- constancy predicates ----------------------------------------------------------


def test_is_constant_on_cylinder(fib_spec, abg):
    alpha, _, _ = abg
    # alpha's shift is fully determined by x_{-2} x_{-1} x_0; any cylinder
    # pinning those letters is constant, shorter ones need not be
    assert is_constant_on_cylinder(alpha, "baaba")
    assert not is_constant_on_cylinder(alpha, "aba")
    assert is_constant_on_cylinder(alpha, "ababa")


# --- group laws and the cocycle rule -----------------------------------------------


def test_group_axioms_on_sampled_triples(fib_spec, fib_gens):
    rng = random.Random(7)
    elements = _elements(ball(fib_gens, 4))
    e = identity(fib_spec)
    for _ in range(40):
        g, h, k = (rng.choice(elements) for _ in range(3))
        assert compose(compose(g, h), k) == compose(g, compose(h, k))
        assert compose(g, inverse(g)) == e
        assert compose(inverse(g), g) == e


def test_cocycle_rule_pointwise(fib_gens, fib_point):
    rng = random.Random(11)
    elements = _elements(ball(fib_gens, 4))
    for _ in range(25):
        g, h = rng.choice(elements), rng.choice(elements)
        gh = compose(g, h)
        for pos in rng.sample(range(-60, 60), 10):
            kh = evaluate(h, fib_point, pos)
            assert evaluate(gh, fib_point, pos) == evaluate(g, fib_point, pos + kh) + kh


def test_composition_depth_bound(fib_gens):
    rng = random.Random(3)
    elements = _elements(ball(fib_gens, 4))
    for _ in range(40):
        g, h = rng.choice(elements), rng.choice(elements)
        assert compose(g, h).depth <= g.depth + h.depth + h.max_shift


# --- coupling property (small instance; the acceptance suite is exhaustive) ---------


def test_coupling_small(fib_spec, fib_gens, fib_point):
    atoms = [g for _, g in fib_gens.elements]
    l0 = fib_gens.max_depth
    for depth in range(1, 9):
        for word in sorted(fib_spec.language.factors(2 * depth + 1)):
            witness = find_cylinder_position(fib_point, word)
            stack = [(identity(fib_spec), 0, 0)]
            while stack:
                g, length, running_max = stack.pop()
                if length:
                    if running_max <= depth - l0:
                        assert is_constant_on_cylinder(g, word)
                if length < 5:
                    for s in atoms:
                        prod = compose(s, g)
                        offset = abs(evaluate(prod, fib_point, witness))
                        stack.append((prod, length + 1, max(running_max, offset)))


# --- the string-keyed tables as an oracle --------------------------------------------
#
# A reference implementation on word-keyed tables: each table is a dict from
# admissible words to shifts, and every read slices a word.  It starts from
# the dicts that `table` rebuilds and checks the shift vectors independently.


def _dict_reduce(spec, depth, table):
    assert set(table) == spec.language.factors(2 * depth + 1)
    while depth > 0:
        grouped = {}
        for w, k in table.items():
            if grouped.setdefault(w[1:-1], k) != k:
                return depth, table
        if set(grouped) != spec.language.factors(2 * depth - 1):
            break
        table, depth = grouped, depth - 1
    return depth, table


def _dict_doc(spec, depth, table):
    depth, table = _dict_reduce(spec, depth, table)
    return {"depth": depth, "entries": [{"word": w, "k": k} for w, k in sorted(table.items())]}


def _dict_compose(g, h):
    d = max(h.depth, g.depth + h.max_shift)
    g_table, h_table = g.table, h.table
    out = {}
    for w in g.spec.language.factors(2 * d + 1):
        kh = h_table[w[d - h.depth : d + h.depth + 1]]
        lo = d + kh - g.depth
        out[w] = g_table[w[lo : lo + 2 * g.depth + 1]] + kh
    return _dict_doc(g.spec, d, out)


def _dict_inverse(g):
    k, width, table = g.max_shift, 2 * g.depth + 1, g.table
    inv = {}
    for v in g.spec.language.factors(2 * (g.depth + k) + 1):
        hits = [j for j in range(-k, k + 1) if table[v[k - j : k - j + width]] == j]
        assert len(hits) == 1
        inv[v] = -hits[0]
    return _dict_doc(g.spec, g.depth + k, inv)


def _assert_matches_dict_oracle(elements):
    for g in elements:
        assert inverse(g).to_dict() == _dict_inverse(g)
        for h in elements:
            assert compose(g, h).to_dict() == _dict_compose(g, h)


def test_shift_vectors_match_the_dict_oracle_on_a_ball(fib_gens):
    elements = _elements(ball(fib_gens, 4))
    assert len(elements) == 46
    _assert_matches_dict_oracle(elements)


def test_shift_powers_match_the_dict_oracle_on_the_full_shift():
    fs = FullShiftSpec(("a", "b"))
    # compose(tau^j, tau^k) is built at depth k over 2^(2k+1) words
    _assert_matches_dict_oracle([from_table(fs, 0, {"a": j, "b": j}) for j in range(1, 7)])


def test_compose_with_a_constant_left_factor():
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    power = tau
    for k in range(1, 21):
        # built over all 2^(2k+1) words of depth k, the product passes the
        # factor cap at k = 20
        product = compose(tau, power)
        assert product == CocycleElement(fs, 0, (k + 1, k + 1))
        if k <= 6:
            assert product.to_dict() == _dict_compose(tau, power)
        power = product


def test_compose_reads_only_the_shifts_the_right_factor_takes(fib_spec, abg):
    # sigma^m . alpha shifts every point by m - 1, m or m + 1, so composing
    # with it reads three windows a word, however large m is; a constant
    # factor's plan holds its constant once per shift.  Fresh elements hold
    # only the plans of these composes
    m = 1000
    alpha = CocycleElement(fib_spec, abg[0].depth, abg[0].shifts)
    sigma = CocycleElement(fib_spec, 0, (m, m))
    g = compose(sigma, alpha)
    assert sorted(set(g.shifts)) == [m - 1, m, m + 1]
    [plan] = sigma._plans.values()
    assert plan.table.size == 3
    start = time.perf_counter()
    product = compose(alpha, g)
    assert time.perf_counter() - start < 10
    [plan] = alpha._plans.values()
    assert plan.table.size == 3 * plan.read.size
    assert product.to_dict() == _dict_compose(alpha, g)


def test_from_table_loads_a_shift_of_1000_in_bounded_time(fib_spec, abg):
    # the two-sided check tests the two product rows for zero, so it
    # reduces no product level by level down to depth 0
    m = 1000
    alpha = CocycleElement(fib_spec, abg[0].depth, abg[0].shifts)
    g = compose(CocycleElement(fib_spec, 0, (m, m)), alpha)
    start = time.perf_counter()
    assert from_table(fib_spec, g.depth, g.table) == g
    assert time.perf_counter() - start < 10


def _sliced_plan(s, depth, d, offsets):
    """What compose_plan(s, depth, offsets) reads, by slicing words: for
    each (2d+1)-word, the position of its centre (2*depth+1)-word and s's
    shift on its window moved by each offset."""
    oracle, width = s.spec.language, 2 * s.depth + 1
    position, centre = oracle.words(width), oracle.words(2 * depth + 1)
    return ([centre[w[d - depth:d + depth + 1]] for w in oracle.words(2 * d + 1)],
            [[s.shifts[position[w[d - s.depth + k:d - s.depth + k + width]]] for k in offsets]
             for w in oracle.words(2 * d + 1)])


@pytest.mark.parametrize("offsets", [
    tuple(range(-3, 4)),        # a whole range: every window column
    (-3, -2, -1, 0, 1, 3),      # dense with a gap: a subset of the columns
    (-1, 0, 1),                 # at a depth past the shift, a few columns of many
    (-4, 5),                    # gapped
    (7,),
])
@pytest.mark.parametrize("depth", [0, 2, 6])
def test_compose_plan_tables_match_sliced_windows(offsets, depth):
    spec = fibonacci_spec()  # a fresh table, so its memo shows each plan's reads
    alpha, beta, gamma = (g for _, g in fibonacci_generators(spec))
    elements = [alpha, gamma, compose(alpha, beta), compose(gamma, compose(beta, alpha))]
    for s in elements:
        plan = compose_plan(s, depth, offsets)
        read, table = _sliced_plan(s, depth, plan.depth, offsets)
        assert plan.read.tolist() == read
        assert plan.table.reshape(-1, len(offsets)).tolist() == table
        # the table's window matrix spells exactly the starts the offsets read
        lo = plan.depth - s.depth
        starts = tuple(lo + k for k in offsets)
        assert (2 * plan.depth + 1, starts, 2 * s.depth + 1) in spec.language._subwords


def test_toeplitz_swaps_match_the_dict_oracle():
    spec = ToeplitzSpec("ab*b*")
    g, h = _swap(spec, "ab"), _swap(spec, "ba")
    assert g.max_shift == h.max_shift == 1
    _assert_matches_dict_oracle([g, h, compose(g, h), compose(h, compose(g, h))])


@pytest.mark.parametrize("name", sorted(_oracle_generator_sets()))
def test_ball_left_products_match_the_dict_oracle(name):
    # compose shares the ball's kernels, so the ball's rows are checked
    # against the string oracle.  It has no constant rule and builds
    # tau^j . tau^k over all 2^(2k+1) words, so the constant pairs stop early
    gens, radius = _oracle_generator_sets()[name]
    b = ball(gens, {"tau-pair": 7, "tau5-pair-and-identity": 2}.get(name, radius))
    elements = _elements(b)
    for i, row in enumerate(b.neighbors.tolist()):
        for (_, s), j in zip(gens, row):
            assert elements[j].to_dict() == _dict_compose(s, elements[i])


def test_element_documents_round_trip_over_a_ball(fib_spec, fib_gens):
    for g in _elements(ball(fib_gens, 4)):
        assert element_from_dict(fib_spec, g.to_dict()) == g


# --- the tuple-loop preimage search as an oracle ------------------------------------
#
# Inversion as it was written before it read a compose plan: one loop over
# the words of depth l + K, reading the table through one subword map per
# shift the table takes.


def _tuple_preimage_table(spec, depth, shifts, max_shift):
    """Inverse shift vector at depth depth+max_shift, or raise NotInvertible."""
    oracle = spec.language
    n = 2 * (depth + max_shift) + 1
    # a read-back equals j only if j is one of the table's shifts
    js = sorted(set(shifts))
    # row i: the shift the table reads on word i's subwindow moved by each j
    reads = zip(*(
        map(shifts.__getitem__, oracle.subwords(n, max_shift - j, 2 * depth + 1))
        for j in js
    ))
    inv = []
    for v, read in zip(oracle.words(n), reads):
        hits = [j for j, k in zip(js, read) if k == j]
        if len(hits) != 1:
            kind = "no preimage" if not hits else f"{len(hits)} preimages"
            raise NotInvertible(f"configuration {v!r} has {kind}")
        inv.append(-hits[0])
    return tuple(inv)


def _outcome(search):
    """search()'s depth and inverse vector, or its NotInvertible text."""
    try:
        depth, shifts = search()
    except NotInvertible as exc:
        return str(exc)
    return depth, tuple(np.asarray(shifts).tolist())


def _loop_outcome(g):
    return _outcome(lambda: (g.depth + g.max_shift,
                             _tuple_preimage_table(g.spec, g.depth, g.shifts, g.max_shift)))


def _kernel_outcome(g):
    """Only for a non-constant g: inverse takes a constant apart."""
    return _outcome(lambda: cocycles._preimage_table(g))


# radii that keep the tuple loop near 1 s over all sets: it reads tau^k
# over all 2^(2k+1) full-shift words, constant or not
_PREIMAGE_RADII = {"toeplitz-swaps": 11, "full-shift": 3, "alpha-sigma": 8, "sigma-43": 4,
                   "sigma-inverse-square": 11, "tau-pair": 7, "tau5-pair-and-identity": 1}


@pytest.mark.parametrize("name", sorted(_oracle_generator_sets()))
def test_inverses_match_the_tuple_preimage_search_on_a_ball(name):
    # the kernel search on every non-constant element; inverse, with its
    # constant rule, on every element
    gens, _ = _oracle_generator_sets()[name]
    for g in _elements(ball(gens, _PREIMAGE_RADII[name])):
        loop = _loop_outcome(g)
        if len(set(g.shifts)) > 1:
            assert _kernel_outcome(g) == loop
        assert inverse(g) == CocycleElement(g.spec, *loop)


@pytest.mark.parametrize("spec, depth", [(FullShiftSpec(("a", "b")), 0),
                                         (FullShiftSpec(("a", "b")), 1),
                                         (fibonacci_spec(), 1)])
def test_preimage_search_refuses_like_the_tuple_loop(spec, depth):
    # every table of shifts in -1..1 at this depth: the kernel gives the
    # tuple loop's inverse vector, or its exact message for the first word
    # with no preimage or several
    words = len(spec.language.words(2 * depth + 1))
    kinds = set()
    for shifts in itertools.product((-1, 0, 1), repeat=words):
        g = CocycleElement(spec, depth, shifts)
        if len(set(g.shifts)) > 1:
            loop = _loop_outcome(g)
            assert _kernel_outcome(g) == loop
            if isinstance(loop, str):
                kinds.add(loop.split(" has ")[-1])
    assert {"no preimage", "2 preimages"} <= kinds


# --- the dict-grouping reduction as an oracle ------------------------------------------
#
# Canonical reduction as it was written before the sibling plans: group the
# shifts by centre word in a dict at every level.


def _grouping_reduce_depth(spec, depth, shifts):
    oracle = spec.language
    while depth > 0:
        centre = oracle.subwords(2 * depth + 1, 1, 2 * depth - 1)
        grouped = dict(zip(centre, shifts))
        if (len(grouped) != len(oracle.words(2 * depth - 1))
                or tuple(map(grouped.__getitem__, centre)) != shifts):
            break
        shifts = tuple(map(grouped.__getitem__, range(len(grouped))))
        depth -= 1
    return depth, shifts


@st.composite
def _shift_vectors(draw):
    """A shift vector at depth <= 5, refined up from a random vector at a
    lower depth, then (sometimes) changed in one place."""
    spec = draw(st.sampled_from([fibonacci_spec(), ToeplitzSpec("ab*b*"),
                                 FullShiftSpec(("a", "b")), ExplicitSpec(("a", "b"), ("bb",))]))
    table = spec.language
    depth = draw(st.integers(0, 5))
    low = draw(st.integers(0, depth))
    rnd = draw(st.randoms(use_true_random=False))
    base = [rnd.randint(-1, 1) for _ in table.words(2 * low + 1)]
    shifts = tuple(base[i] for i in table.subwords(2 * depth + 1, depth - low, 2 * low + 1))
    if shifts and draw(st.booleans()):
        i = rnd.randrange(len(shifts))
        shifts = shifts[:i] + (shifts[i] + 1,) + shifts[i + 1:]
    return spec, depth, shifts


@settings(max_examples=200, deadline=None)
@given(_shift_vectors())
def test_sibling_plans_reduce_like_the_grouping_oracle(vector):
    spec, depth, shifts = vector
    assert _reduce_depth(spec, depth, shifts) == _grouping_reduce_depth(spec, depth, shifts)
