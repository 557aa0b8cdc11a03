"""Triangular-grid geometry: axial coordinates, the six directions, directed paths.

Points are axial integer pairs; the six unit offsets are chosen so that each
neighbor sits at Euclidean distance 1 once mapped through ``to_cartesian``.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence


class Point(NamedTuple):
    x: int
    y: int


# Unit offsets, counterclockwise starting east. Opposite directions sum to (0, 0).
E = Point(1, 0)
NE = Point(0, 1)
NW = Point(-1, 1)
W = Point(-1, 0)
SW = Point(0, -1)
SE = Point(1, -1)

DIRECTIONS: tuple[Point, ...] = (E, NE, NW, W, SW, SE)

_UNIT_OFFSETS = frozenset(DIRECTIONS)
_HALF_SQRT3 = math.sqrt(3.0) / 2.0


def translate(p: Point, d: Point) -> Point:
    return Point(p[0] + d[0], p[1] + d[1])


def are_adjacent(p: Point, q: Point) -> bool:
    return Point(q[0] - p[0], q[1] - p[1]) in _UNIT_OFFSETS


def to_cartesian(p: Point) -> tuple[float, float]:
    """Screen coordinates (x + y/2, y*sqrt(3)/2); all six neighbors end up at distance 1."""
    return (p[0] + p[1] / 2.0, p[1] * _HALF_SQRT3)


def path_is_valid(points: Sequence[Point] | Iterable[Point]) -> bool:
    """True iff consecutive points are grid-adjacent and no point repeats."""
    pts = [Point(p[0], p[1]) for p in points]
    if len(set(pts)) != len(pts):
        return False
    return all(are_adjacent(a, b) for a, b in zip(pts, pts[1:]))


def mirror(p: Point) -> Point:
    """Reflection across the horizontal axis; a graph automorphism of the grid."""
    return Point(p[0] + p[1], -p[1])
