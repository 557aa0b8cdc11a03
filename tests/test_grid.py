import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oritatami.grid import (
    DIRECTIONS,
    SYMMETRIES,
    Point,
    are_adjacent,
    compose,
    mirror,
    path_is_valid,
    to_cartesian,
    transform,
)

points = st.builds(Point, st.integers(-50, 50), st.integers(-50, 50))


def test_neighbors_of_origin():
    # Canonical choice order follows this order: E, NE, NW, W, SW, SE.
    assert DIRECTIONS == (
        Point(1, 0),
        Point(0, 1),
        Point(-1, 1),
        Point(-1, 0),
        Point(0, -1),
        Point(1, -1),
    )


def test_direction_opposites_cancel():
    for d in DIRECTIONS:
        assert Point(-d.x, -d.y) in DIRECTIONS


@given(points, points)
def test_adjacency_is_symmetric(p, q):
    for d in DIRECTIONS:
        step = Point(p.x + d.x, p.y + d.y)
        assert are_adjacent(p, step) and are_adjacent(step, p)
    assert are_adjacent(p, q) == are_adjacent(q, p)


def test_to_cartesian_basis():
    assert to_cartesian(Point(0, 0)) == (0.0, 0.0)
    x, y = to_cartesian(Point(0, 1))
    assert x == pytest.approx(0.5)
    assert y == pytest.approx(math.sqrt(3) / 2)
    x, y = to_cartesian(Point(-1, 1))
    assert x == pytest.approx(-0.5)
    assert y == pytest.approx(math.sqrt(3) / 2)


@given(points)
def test_to_cartesian_unit_distance(p):
    px, py = to_cartesian(p)
    for d in DIRECTIONS:
        qx, qy = to_cartesian(Point(p.x + d.x, p.y + d.y))
        assert math.hypot(qx - px, qy - py) == pytest.approx(1.0, abs=1e-9)


def test_path_validity():
    assert path_is_valid([Point(0, 0), Point(1, 0), Point(1, 1)])
    assert not path_is_valid([Point(0, 0), Point(2, 0)])
    assert not path_is_valid([Point(0, 0), Point(1, 0), Point(0, 0)])
    assert path_is_valid([Point(0, 0)])
    assert path_is_valid([])


@given(points, points)
def test_mirror_is_involutive_automorphism(p, q):
    assert mirror(mirror(p)) == p
    assert are_adjacent(p, q) == are_adjacent(mirror(p), mirror(q))


def test_symmetries_are_the_point_group():
    # Twelve distinct maps, closed under composition, each permuting the
    # six directions; the identity first, then mirror after the rotations.
    assert SYMMETRIES[0] == (1, 0, 0, 1) and len(set(SYMMETRIES)) == 12
    assert {compose(f, g) for f in SYMMETRIES for g in SYMMETRIES} == set(SYMMETRIES)
    for g in SYMMETRIES:
        assert {transform(g, d) for d in DIRECTIONS} == set(DIRECTIONS)
    assert [transform(g, Point(1, 0)) for g in SYMMETRIES[:6]] == list(DIRECTIONS)
    assert transform(SYMMETRIES[6], Point(3, 4)) == mirror(Point(3, 4))


@given(points, points)
def test_transform_about_a_center(p, c):
    for g in SYMMETRIES:
        q = transform(g, p, c)
        assert Point(q.x - c.x, q.y - c.y) == transform(g, Point(p.x - c.x, p.y - c.y))
