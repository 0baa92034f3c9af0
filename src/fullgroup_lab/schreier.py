"""Finite balls of orbit Schreier graphs.

Vertices are the integer orbit offsets of a fixed point (offset j stands
for the point shifted j places), so aperiodic points are handled exactly.
Edges carry generator names; loops record generators that fix a vertex.
Every move is read from one `cocycles.increment_table` over the offsets
the ball can reach, the same table the orbit-walk sampler steps through.
"""

from __future__ import annotations

from typing import NamedTuple

from .cocycles import GeneratorSet, increment_table
from .errors import PeriodicCollision
from .points import Point, is_periodic_window


class SchreierBall(NamedTuple):
    """Ball of the orbit graph around offset 0, in the graph metric.

    Offset j stands for the center point shifted j places.
    """

    center: Point | None
    radius: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, str, int], ...]  # (source offset, label, target offset)
    max_shift: int

    def neighbors(self, vertex: int) -> dict[str, int]:
        return {label: dst for src, label, dst in self.edges if src == vertex}

    def degree_ok(self, gens: GeneratorSet) -> bool:
        """No vertex repeats a generator label, and all labels are known.

        Interior vertices carry every label; boundary vertices may lack
        the arcs that would leave the ball.
        """
        labels = set(gens.names)
        for v in self.vertices:
            out = [label for src, label, _ in self.edges if src == v]
            if len(out) != len(set(out)) or not set(out) <= labels:
                return False
        return True

    def is_symmetric(self) -> bool:
        """Every edge is matched by a reverse edge (with some label)."""
        arcs = {(src, dst) for src, _, dst in self.edges}
        return all((dst, src) in arcs for src, dst in arcs)


def build_ball(point: Point, gens: GeneratorSet, radius: int) -> SchreierBall:
    """Breadth-first exploration of the orbit graph up to `radius` steps.

    Raises PeriodicCollision when the point is visibly periodic and the
    ball is large enough for distinct offsets to denote the same point,
    which would make the integer labelling collide.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    k = gens.max_shift
    probe_radius = max(8, k * radius + gens.max_depth + 4)
    period = is_periodic_window(point, probe_radius)
    if period is not None and 2 * k * radius >= period:
        raise PeriodicCollision(
            f"point has visible period {period}: offsets would collide "
            f"within a radius-{radius} ball"
        )

    # a vertex of layer r lies within k*r of 0; moves[v + span] holds each
    # generator's shift at offset v
    span = k * radius
    moves = increment_table(gens, point, span, int).T.tolist()
    dist = {0: 0}
    frontier = [0]
    for layer in range(1, radius + 1):
        new = []
        for v in frontier:
            for step in moves[v + span]:
                w = v + step
                if w not in dist:
                    dist[w] = layer
                    new.append(w)
        frontier = new
        if not frontier:
            break
    vertices = tuple(sorted(dist))
    edges = []
    for v in vertices:
        for name, step in zip(gens.names, moves[v + span]):
            w = v + step
            if w in dist:
                edges.append((v, name, w))
    return SchreierBall(point, radius, vertices, tuple(edges), k)

