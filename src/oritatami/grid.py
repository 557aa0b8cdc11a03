"""Triangular-grid geometry: axial coordinates, the six directions, directed paths.

Points are axial integer pairs; the six unit offsets are chosen so that each
neighbor sits at Euclidean distance 1 once mapped through ``to_cartesian``.
"""

from __future__ import annotations

import math
from itertools import accumulate
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


def are_adjacent(p: Point, q: Point) -> bool:
    return (q[0] - p[0], q[1] - p[1]) in _UNIT_OFFSETS


def to_cartesian(p: Point) -> tuple[float, float]:
    """Screen coordinates (x + y/2, y*sqrt(3)/2); all six neighbors end up at distance 1."""
    return (p[0] + p[1] / 2.0, p[1] * _HALF_SQRT3)


def path_is_valid(points: Sequence[Point] | Iterable[Point]) -> bool:
    """True iff consecutive points are grid-adjacent and no point repeats."""
    pts = [(p[0], p[1]) for p in points]
    if len(set(pts)) != len(pts):
        return False
    return all((bx - ax, by - ay) in _UNIT_OFFSETS for (ax, ay), (bx, by) in zip(pts, pts[1:]))


def mirror(p: Point) -> Point:
    """Reflection across the horizontal axis; a graph automorphism of the grid."""
    return transform(_MIRROR, p)


# A linear map of the grid as an integer matrix (a, b, c, d): it sends the
# offset (x, y) to (a*x + b*y, c*x + d*y).
Symmetry = tuple[int, int, int, int]


def compose(f: Symmetry, g: Symmetry) -> Symmetry:
    """The map that applies ``g`` first, then ``f``."""
    return (
        f[0] * g[0] + f[1] * g[2],
        f[0] * g[1] + f[1] * g[3],
        f[2] * g[0] + f[3] * g[2],
        f[2] * g[1] + f[3] * g[3],
    )


def transform(m: Symmetry, p: Point, center: Point = Point(0, 0)) -> Point:
    """``p`` moved by ``m`` about ``center``."""
    dx, dy = p[0] - center[0], p[1] - center[1]
    return Point(center[0] + m[0] * dx + m[1] * dy, center[1] + m[2] * dx + m[3] * dy)


_ROTATE = (0, -1, 1, 1)  # 60 degrees counterclockwise: E -> NE -> NW -> ...
_MIRROR = (1, 1, 0, -1)  # ``mirror``
_ROTATIONS = tuple(accumulate(range(5), lambda m, _: compose(_ROTATE, m), initial=(1, 0, 0, 1)))
# The 12 grid automorphisms that fix the origin: the six rotations, then each
# of them after ``mirror``. The identity comes first.
SYMMETRIES: tuple[Symmetry, ...] = _ROTATIONS + tuple(compose(r, _MIRROR) for r in _ROTATIONS)
