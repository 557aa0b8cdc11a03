"""The built-in worked system.

``glider_*`` is the 12-bead glider spacer: a delay-3 deterministic system
whose transcript cycles through bead types 579..590 and translates by a
fixed vector every period. It doubles as the 1-bit spacer of the brick
harness (the bead sequence it exposes below depends on whether it enters a
row at the top or at the bottom).
"""

from __future__ import annotations

from .folding import Conformation, OritatamiSystem, RuleSet
from .grid import Point, mirror

GLIDER_PERIOD: tuple[str, ...] = tuple(str(b) for b in range(579, 591))

GLIDER_RULES = RuleSet(
    [
        ("579", "584"),
        ("580", "589"),
        ("581", "588"),
        ("582", "587"),
        ("583", "586"),
        ("585", "590"),
        ("586", "590"),
    ]
)

GLIDER_DELAY = 3
GLIDER_ARITY = 2

_SEED_PATH = [(0, 0), (1, -1), (1, -2), (2, -2), (2, -1), (1, 0)]
_SEED_BEADS = ["585", "586", "587", "588", "589", "590"]
_SEED_BONDS = [(0, 5), (1, 5)]  # 585-590 and 586-590


def glider_seed(mirrored: bool = False) -> Conformation:
    """The six-bead hexagonal seed; mirrored flips it across the horizontal axis,
    which makes the transcript enter the row band at the bottom instead of the top."""
    pts = [Point(x, y) for x, y in _SEED_PATH]
    if mirrored:
        pts = [mirror(p) for p in pts]
    return Conformation(tuple(pts), tuple(_SEED_BEADS), frozenset(_SEED_BONDS))


def glider_system(periods: int = 4, mirrored: bool = False) -> OritatamiSystem:
    return OritatamiSystem(
        rules=GLIDER_RULES,
        arity=GLIDER_ARITY,
        delay=GLIDER_DELAY,
        seed=glider_seed(mirrored),
        transcript=GLIDER_PERIOD * periods,
    )
