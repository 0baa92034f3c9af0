import pytest

from fullgroup_lab import (
    FullShiftSpec,
    GeneratorSet,
    PeriodicCollision,
    PeriodicPoint,
    build_ball,
    evaluate,
    from_table,
    identity,
    inverse,
)


def test_radius_zero_single_vertex(fib_point, fib_gens):
    ball = build_ball(fib_point, fib_gens, 0)
    assert ball.vertices == (0,)
    assert all(src == dst == 0 for src, _, dst in ball.edges)


def test_fibonacci_ball_is_path_with_loops(fib_point, fib_gens):
    ball = build_ball(fib_point, fib_gens, 10)
    assert ball.vertices == tuple(range(-10, 11))
    loops = {src for src, _, dst in ball.edges if src == dst}
    assert loops == set(ball.vertices)
    nonloop = {(src, dst) for src, _, dst in ball.edges if src != dst}
    path = {(v, v + 1) for v in range(-10, 10)} | {(v + 1, v) for v in range(-10, 10)}
    assert nonloop == path


def test_edges_are_lipschitz(fib_point, fib_gens):
    ball = build_ball(fib_point, fib_gens, 15)
    assert all(abs(src - dst) <= ball.max_shift for src, _, dst in ball.edges)


def test_degree_and_symmetry(fib_point, fib_gens):
    ball = build_ball(fib_point, fib_gens, 8)
    assert ball.degree_ok(fib_gens)
    assert ball.is_symmetric()
    # interior vertices carry every generator label
    for v in range(-7, 8):
        assert set(ball.neighbors(v)) == set(fib_gens.names)


def test_connectivity_within_radius(fib_point, fib_gens):
    ball = build_ball(fib_point, fib_gens, 6)
    adjacency = {}
    for src, _, dst in ball.edges:
        adjacency.setdefault(src, set()).add(dst)
    seen = {0}
    frontier = [0]
    for _ in range(ball.radius):
        frontier = [w for v in frontier for w in adjacency.get(v, ()) if w not in seen]
        seen.update(frontier)
    assert seen == set(ball.vertices)


def test_empty_generator_set_ball_is_one_vertex():
    fs = FullShiftSpec(("a", "b"))
    gens = GeneratorSet(fs, ())
    point = PeriodicPoint("ab")
    ball = build_ball(point, gens, 3)
    assert ball.vertices == (0,) and ball.edges == ()


def test_periodic_point_collision():
    fs = FullShiftSpec(("a", "b"))
    tau = from_table(fs, 0, {"a": 1, "b": 1})
    gens = GeneratorSet(fs, (("s", tau), ("i", inverse(tau))))
    point = PeriodicPoint("ab")
    with pytest.raises(PeriodicCollision):
        build_ball(point, gens, 4)


def test_aperiodic_point_is_fine_with_shift_generators(fib_spec, fib_point):
    # the subshift's own shift acts; on an aperiodic point offsets stay distinct
    from fullgroup_lab import from_table as build

    table = {w: 1 for w in fib_spec.language.factors(1)}
    tau = build(fib_spec, 0, table)
    gens = GeneratorSet(fib_spec, (("s", tau), ("i", inverse(tau))))
    ball = build_ball(fib_point, gens, 5)
    assert ball.vertices == tuple(range(-5, 6))


def _evaluated_ball(point, gens, radius):
    """Reference search: two `evaluate` calls per vertex and generator, one
    to explore and one to list the edges."""
    dist = {0: 0}
    frontier = [0]
    for layer in range(1, radius + 1):
        new = []
        for v in frontier:
            for _, g in gens:
                w = v + evaluate(g, point, v)
                if w not in dist:
                    dist[w] = layer
                    new.append(w)
        frontier = new
    edges = tuple((v, name, v + evaluate(g, point, v)) for v in sorted(dist)
                  for name, g in gens if v + evaluate(g, point, v) in dist)
    return tuple(sorted(dist)), edges


@pytest.mark.parametrize("which", ["shift", "fibonacci"])
def test_ball_equals_the_evaluate_reference(fib_spec, fib_gens, fib_point, which):
    if which == "shift":
        tau = from_table(fib_spec, 0, {w: 1 for w in fib_spec.language.factors(1)})
        gens = GeneratorSet(fib_spec, (("s", tau), ("i", inverse(tau))))
    else:
        gens = fib_gens
    for radius in (0, 1, 4, 9):
        ball = build_ball(fib_point, gens, radius)
        assert ball.max_shift == 1
        assert (ball.vertices, ball.edges) == _evaluated_ball(fib_point, gens, radius)
