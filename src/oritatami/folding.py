"""Cotranscriptional folding engine on the triangular grid.

A conformation is a self-avoiding directed path carrying one bead per point
plus a set of h-interactions (bonds) between beads that sit at unit distance
and are at least two positions apart along the path. A system folds its
transcript one bead at a time: each bead settles on the placement-and-bond
choice whose best reachable energy, looking ahead over the next ``delay - 1``
nascent beads, is minimal. Ties are genuine nondeterminism; the engine can
enumerate every branch, sample one with a seeded RNG, or take the canonical
first choice. ``fold_summary`` gives enumeration's terminal count, completed
count and first terminal without building the others: below each node whose
lookahead reaches the transcript end, it counts.

Energy is minus the bond count, so "minimal energy" means "most bonds".
Bead indices are 0-based internally. Error messages, like the text formats
in :mod:`sysfile` and the fold trace, number beads from 1.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .grid import (
    DIRECTIONS,
    SYMMETRIES,
    Point,
    Symmetry,
    are_adjacent,
    path_is_valid,
    transform,
)


class DeadEnd(Exception):
    """No placement exists for the next transcript bead: folding cannot proceed."""


class BranchBudgetExceeded(Exception):
    """Exhaustive enumeration produced more terminal branches than allowed."""


class LookaheadBudgetExceeded(Exception):
    """One lookahead search pushed more nascent beads than allowed."""


# Default cap on the terminals an enumeration may produce.
BRANCH_BUDGET = 10_000
# Cap on the nascent beads one lookahead search may push: 22 times the most any
# test, demo or benchmark input within it needs (4,497, at a delay-1,500 rail).
LOOKAHEAD_BUDGET = 100_000


def _normalize_pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


_NO_PARTNERS: frozenset[str] = frozenset()


class RuleSet:
    """Symmetric relation on bead types licensing bonds."""

    __slots__ = ("_pairs", "_partners")

    def __init__(self, pairs: Iterable[tuple[str, str]] = ()):
        self._pairs = frozenset(_normalize_pair(str(a), str(b)) for a, b in pairs)
        partners: dict[str, set[str]] = {}
        for a, b in self._pairs:
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
        self._partners = {t: frozenset(s) for t, s in partners.items()}

    def allows(self, a: str, b: str) -> bool:
        return b in self.partners(a)

    def partners(self, bead: str) -> frozenset[str]:
        """Every bead type that ``bead`` may bond with (empty if none)."""
        return self._partners.get(bead, _NO_PARTNERS)

    @property
    def pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self._pairs))

    def without(self, a: str, b: str) -> "RuleSet":
        """A copy lacking one pair; handy for mutation experiments."""
        return RuleSet(p for p in self._pairs if p != _normalize_pair(a, b))

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RuleSet) and self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"RuleSet({sorted(self._pairs)!r})"


@dataclass(frozen=True)
class Conformation:
    """A placed, bonded folding: path, bead sequence, and bond set.

    ``bonds`` holds 0-based index pairs (i, j) with i + 2 <= j and the two
    path points adjacent on the grid.
    """

    path: tuple[Point, ...]
    beads: tuple[str, ...]
    bonds: frozenset[tuple[int, int]] = frozenset()

    @classmethod
    def build(
        cls,
        path: Sequence[tuple[int, int]],
        beads: Sequence[str],
        bonds: Iterable[tuple[int, int]] = (),
    ) -> "Conformation":
        pts = tuple(Point(x, y) for x, y in path)
        pairs = frozenset((i, j) if i < j else (j, i) for i, j in bonds)
        return cls(pts, tuple(str(b) for b in beads), pairs)

    def __len__(self) -> int:
        return len(self.path)


def validate_conformation(
    c: Conformation,
    rules: RuleSet | None = None,
    max_arity: int | None = None,
) -> None:
    """Raise ValueError unless ``c`` is well formed (and R-valid / within arity, if given).

    Every bond's range and adjacency are checked before any bond's rule, so
    a conformation with both kinds of fault reports its geometry, whether
    or not ``rules`` is given."""
    if len(c.beads) != len(c.path):
        raise ValueError(f"{len(c.beads)} beads on a {len(c.path)}-point path")
    if not path_is_valid(c.path):
        raise ValueError("path is not a self-avoiding chain of adjacent points")
    for i, j in c.bonds:
        if not (0 <= i and i + 2 <= j and j < len(c.path)):
            raise ValueError(f"bond ({i + 1}, {j + 1}) out of range or between near-consecutive beads")
        if not are_adjacent(c.path[i], c.path[j]):
            raise ValueError(f"bond ({i + 1}, {j + 1}) joins non-adjacent points")
    if rules is not None:
        for i, j in c.bonds:
            if not rules.allows(c.beads[i], c.beads[j]):
                raise ValueError(f"bond ({i + 1}, {j + 1}) pairs {c.beads[i]}/{c.beads[j]} outside the rule set")
    if max_arity is not None:
        arity = max(Counter(chain.from_iterable(c.bonds)).values(), default=0)
        if arity > max_arity:
            raise ValueError(f"conformation arity {arity} exceeds cap {max_arity}")


def energy(c: Conformation) -> int:
    """Minus the number of bonds."""
    return -len(c.bonds)


class StabilizationChoice(NamedTuple):
    """One way to stabilize the next bead: its point and the bonds it forms.

    ``bonds`` lists the partner indices (0-based, ascending). Two choices are
    equal iff both the point and the bond set coincide.
    """

    point: Point
    bonds: tuple[int, ...]


@dataclass(frozen=True)
class OritatamiSystem:
    """Rule set, arity cap, delay, seed conformation, and transcript."""

    rules: RuleSet
    arity: int
    delay: int
    seed: Conformation
    transcript: tuple[str, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if len(self.seed) == 0:
            raise ValueError("seed must contain at least one bead")
        validate_conformation(self.seed, self.rules, self.arity)
        object.__setattr__(self, "transcript", tuple(str(b) for b in self.transcript))


class FoldOutcome(NamedTuple):
    conformation: Conformation
    completed: bool


# The farthest a later bead's partners are counted from the path end (see
# _Lookahead): it covers every bead of a window up to delay 6.
_REACH = 7

# The workspace keys a point by one int, (x - x0) * stride + (y - y0), taken
# relative to the start conformation's first point (x0, y0). Two points share
# a key only if their y differ by a nonzero multiple of the stride, and
# ``_Fold.point`` decodes a key whose y lies in [-stride / 2, stride / 2). A
# workspace holds at most ``beads`` beads on a connected path, so every point
# it places a bead on lies within ``beads - 1`` steps of (x0, y0), as does the
# difference ``key - end`` of two path points (``_reach_gains``); a key offset
# of the geometry lies within _REACH steps of 0; and a probe lies within _REACH
# steps of the path end, so within ``beads - 2 + _REACH`` steps of any path
# point. A step moves y by at most 1, so while half the stride exceeds both
# ``beads - 1`` and _REACH, each of these keys decodes and none shares its int
# with another. ``_stride`` takes the smallest power of two whose half does: a
# fold of up to 16,384 beads keys every point by a single-digit int (below
# 2**30), and a larger one, such as a compiled seed of 138,236 beads, by two.
def _stride(beads: int) -> int:
    """The key stride of a workspace holding at most ``beads`` beads."""
    return 2 << max(beads - 1, _REACH).bit_length()


class _Geometry(NamedTuple):
    """The key offsets a workspace of one stride reads."""

    stride: int
    # Each step from the path end, with the five steps on from there that do
    # not lead back to the path end.
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    # The points at each grid distance 0 .. _REACH from a point, one ring per
    # distance, and the points within each distance (``disks``, keyed windows'
    # neighbourhoods), with their sizes and each point's distance.
    rings: tuple[tuple[int, ...], ...]
    disks: tuple[tuple[int, ...], ...]
    disk_sizes: tuple[int, ...]
    distance: dict[int, int]


@lru_cache(maxsize=None)
def _geometry(stride: int) -> _Geometry:
    """The geometry of ``stride``, built once per stride (a power of two)."""
    neighbours = tuple(dx * stride + dy for dx, dy in DIRECTIONS)
    steps = tuple((d, tuple(e for e in neighbours if e != -d)) for d in neighbours)
    points: list[list[int]] = [[] for _ in range(_REACH + 1)]
    span = range(-_REACH, _REACH + 1)
    for dx in span:
        for dy in span:
            r = max(abs(dx), abs(dy), abs(dx + dy))
            if r <= _REACH:
                points[r].append(dx * stride + dy)
    rings = tuple(map(tuple, points))
    disks = tuple(accumulate(rings))
    distance = {d: r for r, ring in enumerate(rings) for d in ring}
    return _Geometry(stride, steps, rings, disks, tuple(map(len, disks)), distance)


class _Fold:
    """Mutable folding workspace: push/pop beads without copying the conformation.

    It holds ``start`` and at most ``beads - len(start)`` beads pushed on it.
    ``path`` holds int point keys, in the stride ``_stride(beads)`` of its
    ``geometry``; ``point`` and ``key`` convert between a key and its ``Point``.
    """

    __slots__ = ("rules", "arity", "origin", "geometry", "path", "beads", "occupied", "bond_count", "bond_log")

    def __init__(self, rules: RuleSet, arity: int, start: Conformation, beads: int):
        self.rules = rules
        self.arity = arity
        self.origin = start.path[0]
        self.geometry = _geometry(_stride(beads))
        self.path: list[int] = [self.key(p) for p in start.path]
        self.beads: list[str] = list(start.beads)
        self.occupied: dict[int, int] = {k: i for i, k in enumerate(self.path)}
        self.bond_count: list[int] = [0] * len(start.path)
        for i, j in start.bonds:
            self.bond_count[i] += 1
            self.bond_count[j] += 1
        self.bond_log: list[tuple[int, int]] = sorted(start.bonds)

    def key(self, p: tuple[int, int]) -> int:
        return (p[0] - self.origin[0]) * self.geometry.stride + (p[1] - self.origin[1])

    def point(self, key: int) -> Point:
        stride = self.geometry.stride
        half = stride >> 1
        dx, dy = divmod(key + half, stride)
        return Point(self.origin[0] + dx, self.origin[1] + dy - half)

    def placements(self, bead: str) -> list[tuple[int, list[int]]]:
        """Each free point next to the path end, in direction order, as its
        key with the indices of the beads it could bond with there (in
        neighbor order)."""
        end = self.path[-1]
        mates = self.rules.partners(bead)
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        out = []
        for d, around in self.geometry.steps:
            key = end + d
            if key in occupied:
                continue
            eligible = []
            if mates:
                for e in around:
                    idx = occupied.get(key + e)
                    if idx is not None and beads[idx] in mates and bond_count[idx] < arity:
                        eligible.append(idx)
            out.append((key, eligible))
        return out

    def most_bonds(self, bead: str, end: int, cap: int) -> int:
        """The most bonds, up to ``cap``, that ``bead`` could form at any
        free point next to ``end``: ``placements`` reduced to a count, with
        no lists built. ``end`` is the path end, or a free point next to it
        where the bead before ``bead`` is scored without being pushed; that
        point is never scanned, since no step leads back to it. ``cap`` is
        the bead's reach gain, an upper bound on the count, so stopping there
        is exact."""
        mates = self.rules.partners(bead)
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        best = 0
        for d, around in self.geometry.steps:
            key = end + d
            if key in occupied:
                continue
            n = 0
            for e in around:
                idx = occupied.get(key + e)
                if idx is not None and beads[idx] in mates and bond_count[idx] < arity:
                    n += 1
                    if n == cap:
                        return cap
            if n > best:
                best = n
        return best

    def ways(self, bead: str, r: int) -> int:
        """How many ways ``bead`` has to bond with exactly ``r`` partners at a
        free point next to the path end: the (point, ``r``-subset of its
        eligible partners) pairs of ``placements``, counted with no lists
        built. With ``r`` zero, that is the number of free points."""
        mates = self.rules.partners(bead)
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        end = self.path[-1]
        total = 0
        for d, around in self.geometry.steps:
            key = end + d
            if key in occupied:
                continue
            if not r:
                total += 1
                continue
            n = 0
            for e in around:
                idx = occupied.get(key + e)
                if idx is not None and beads[idx] in mates and bond_count[idx] < arity:
                    n += 1
            if n >= r:
                total += comb(n, r)
        return total

    def options(self, bead: str) -> list[tuple[int, tuple[int, ...]]]:
        """Every legal (point key, bond subset) for ``bead``, in canonical order
        (see ``_canonical``)."""
        return _canonical(self.placements(bead), self.arity)

    def push(self, key: int, partners: Sequence[int], bead: str) -> None:
        idx = len(self.path)
        self.path.append(key)
        self.beads.append(bead)
        self.occupied[key] = idx
        self.bond_count.append(len(partners))
        for partner in partners:
            self.bond_count[partner] += 1
            self.bond_log.append((partner, idx))

    def pop(self) -> None:
        key = self.path.pop()
        self.beads.pop()
        del self.occupied[key]
        for _ in range(self.bond_count.pop()):
            partner, _ = self.bond_log.pop()
            self.bond_count[partner] -= 1


def _canonical(
    spots: list[tuple[int, list[int]]], arity: int, least: int = 0
) -> list[tuple[int, tuple[int, ...]]]:
    """Each (point key, bond subset) of the placements ``spots`` whose subset
    takes at least ``least`` and at most ``arity`` partners, in canonical
    order: direction order around the path end, then bond subsets sorted
    lexicographically (the empty subset first). A table hit
    (``_Lookahead.minimizers``) restores the same order over the choices
    it stores."""
    out: list[tuple[int, tuple[int, ...]]] = []
    for key, eligible in spots:
        if not eligible:
            # Most points have no partner: the empty subset, with no sort.
            if least <= 0:
                out.append((key, ()))
            continue
        eligible.sort()
        sizes = range(max(least, 0), min(len(eligible), arity) + 1)
        subsets = sorted(chain.from_iterable(combinations(eligible, r) for r in sizes))
        out.extend((key, s) for s in subsets)
    return out


def elongations(
    c: Conformation, bead: str, rules: RuleSet, arity_cap: int
) -> list[StabilizationChoice]:
    """All one-bead elongations of ``c`` by ``bead``: every free placement next to
    the path end, combined with every subset of its eligible bond partners
    (the empty subset included), filtered by the arity cap."""
    fold = _Fold(rules, arity_cap, c, len(c) + 1)
    return [StabilizationChoice(fold.point(k), s) for k, s in fold.options(bead)]


# A new bead bonds with at most five beads: of its six neighbors, one is its predecessor.
_MAX_NEW_BONDS = 5


class _Lookahead:
    """Exact delay-bounded argmin search for one system: its transcript's
    beads placed after its seed. Messages number bead ``i`` as ``start + i +
    1``, so a search over a part of a longer transcript (``stabilize_next``)
    names each bead as the whole transcript does.

    Scores are bond totals, maximised, so the argmin over energy is the argmax
    here. The search is a branch-and-bound over the nascent beads. A bond is
    counted at its later bead, so a bead adds at most ``cap`` bonds, that is
    ``min(arity, 5)``, and none unless one of its partner types occurs in the
    seed or earlier in the transcript (``headroom``). A search at bead ``i`` whose
    window has headroom bounds it more tightly, by the partners within reach
    of the path end ``e`` (``_reach_gains``): a later bead ``k`` lies at most
    ``k - i + 1`` steps from ``e``, so it adds no more bonds than there are
    placed beads of a partner type with spare arity within ``k - i + 2``
    steps of ``e`` (``e`` included), plus window beads ``i .. k - 2`` of a
    partner type. The search reads the placed beads within ``_REACH`` steps
    of ``e`` once: by probing the disk around ``e``, or by taking each
    placed bead's distance from ``e`` when they are fewer than the disk's
    points. A bead whose reach passes ``_REACH`` keeps its headroom gain; so
    the scan costs no more than the disk at any delay and fold length. Before
    each push the child's bound (bonds so far, plus the subset size, plus
    the gains of the beads left) is checked: a child whose bound falls
    strictly below the score it must reach is skipped, and since subset
    sizes are tried largest first, so are the smaller subsets of that
    placement. Ties therefore stay exact. A child whose later beads can add
    no bonds scores exactly its bonds and is not pushed. So the last bead
    that can add bonds is never pushed, and neither is the bead before it,
    unless that is the bead being placed: each choice of that bead is scored
    in place. Its partners' bond counts go up by one while
    ``_Fold.most_bonds`` scans the free points around its point, then go
    back down. The scan counts eligible partners per free point, builds no
    lists and stops at the bead's reach gain, which bounds it. One search
    pushes at most ``LOOKAHEAD_BUDGET`` beads, an in-place score counting
    as one push (``_spend``), else it raises LookaheadBudgetExceeded: its
    only limit, at any depth (``_value``). A search whose window has
    headroom writes its window's bound into ``reach`` and points ``bound``
    there; any other points ``bound`` at ``zeros`` and writes nothing.
    ``bound`` is read only inside the window of the search that set it.
    ``_walk``'s count below the node it searched last reads that search's
    best score and bound, and spends its budget through ``_spend``.

    With ``first``, a search keeps only the first argmin choice: after the
    first best, a later root is searched only for a strictly better score.

    Argmin sets are remembered relative to the path end, keyed by the
    transcript window and every occupied point within ``delay + 1`` steps,
    and never more than one step past the transcript's length (with bead
    type and bond count): that is everything the search can touch, so a
    translated repeat of a situation is answered without searching. An
    entry holds each argmin point's offset from the path end, in the
    direction order of the search that stored it, with the partner offsets
    of each of that point's bond subsets (see ``minimizers``). Only a
    window with an id in ``window_ids`` keys the table: one that occurs more
    than once in the transcript, since no other window can hit, and has
    headroom after its first bead, since the search of any other is a scan
    of at most six placements. And windows are keyed only while that disk,
    of radius ``disk_radius``, is one of the fold geometry's ``disks``
    (``min(delay, len(transcript)) + 1 <= _REACH``, so up to delay 6 on a
    long transcript). Past it the window list, ``len(transcript)`` tuples
    of ``delay`` beads, is not built, no step probes a disk of about
    ``3 * delay ** 2`` keys, and every window is searched directly. A hit
    only answers a situation that was searched before, so keying changes
    no result. Every search of a keyed window is stored, since enumeration
    meets a bead again on each sibling branch, and the table lives as long
    as this object.
    """

    __slots__ = ("transcript", "start", "delay", "cap", "first", "headroom", "table", "window_ids",
                 "disk_radius", "bound", "zeros", "reach", "best", "nodes_left", "root", "score")

    def __init__(self, system: OritatamiSystem, start: int = 0, first: bool = False):
        self.transcript = t = system.transcript
        self.start = start
        self.delay = delay = system.delay
        self.first = first
        self.cap = cap = min(system.arity, _MAX_NEW_BONDS)
        present = set(system.seed.beads)
        gains = []
        for b in t:
            gains.append(0 if system.rules.partners(b).isdisjoint(present) else cap)
            present.add(b)
        # headroom[k] bounds the bonds beads 0..k-1 can add: a prefix sum.
        self.headroom = headroom = list(accumulate(gains, initial=0))
        self.table: dict = {}
        self.disk_radius = min(delay, len(t)) + 1
        ids: dict[tuple[str, ...], int] = {}
        # None for a window that is searched directly (see the class).
        self.window_ids: list[int | None] = [None] * len(t)
        if self.disk_radius <= _REACH:
            windows = [t[i : i + delay] for i in range(len(t))]
            count = Counter(windows)
            self.window_ids = [
                ids.setdefault(w, len(ids))
                if count[w] > 1 and headroom[min(i + delay, len(t))] > headroom[i + 1] else None
                for i, w in enumerate(windows)
            ]
        # Each search points bound at one of these (see _reach_gains).
        self.bound = self.zeros = [0] * (len(t) + 1)
        self.reach = [0] * (len(t) + 1)

    def minimizers(self, fold: _Fold, i: int) -> list[tuple[int, tuple[int, ...]]]:
        """``_search``'s argmin set for bead ``i``, from the table if it can.
        A hit rebuilds only the stored choices, scanning no placement: each
        point is the path end plus its stored offset, and each bond subset
        the indices of the beads at its partner offsets, read through
        ``occupied``. Every partner lies within two steps of the path end,
        inside the keyed disk, so it is occupied alike. Direction order
        follows from the offsets, but the partners' indices may be ordered
        unlike the stored situation's, so each point's subsets are sorted
        again into canonical order (see ``_canonical``)."""
        window = self.window_ids[i]
        if window is None:
            return self._search(fold, i)
        path, occupied, beads, counts = fold.path, fold.occupied, fold.beads, fold.bond_count
        end = path[-1]
        hood = []
        for d in fold.geometry.disks[self.disk_radius]:
            idx = occupied.get(end + d)
            if idx is not None:
                hood.append((d, beads[idx], counts[idx]))
        key = (window, tuple(hood))
        entry = self.table.get(key)
        if entry is None:
            found = self._search(fold, i)
            spots: dict[int, list[list[int]]] = {}
            for k, bonds in found:
                spots.setdefault(k - end, []).append([path[q] - end for q in bonds])
            self.table[key] = tuple(spots.items())
            return found
        out = []
        for d, subsets in entry:
            bonds = sorted(tuple(sorted([occupied[end + m] for m in mates])) for mates in subsets)
            out.extend((end + d, s) for s in bonds)
        return out

    def _search(self, fold: _Fold, i: int) -> list[tuple[int, tuple[int, ...]]]:
        """The argmin set for bead ``i`` as (point key, bonds), in canonical
        order; with ``first``, only its first choice. That search looks for a
        strictly better root only after the first best, so it scores a later
        root only if its bound beats the best (with ``alpha`` one above it).
        At a dead end, where the bead has no placement, the set is empty.
        The set is collected as the roots are scored: a score below
        ``alpha`` lies below the final best, so an inexact one never ties."""
        bead = self.transcript[i]
        options = fold.options(bead)
        if not options:
            return []
        stop = min(i + self.delay, len(self.transcript))
        self._reach_gains(fold, i, stop)
        room = self.bound[stop] - self.bound[i + 1]
        base = len(fold.bond_log)
        self.nodes_left, self.root = LOOKAHEAD_BUDGET, i
        best = -1
        strict = self.first
        kept = []
        for option in options:
            key, bonds = option
            score = base + len(bonds) + room
            alpha = best + strict
            if room and score >= alpha:
                fold.push(key, bonds, bead)
                score = self._value(fold, i + 1, stop, alpha)
                fold.pop()
            if score > best:
                best, kept = score, [option]
            elif score == best and not strict:
                kept.append(option)
        self.best = best
        return kept

    def _reach_gains(self, fold: _Fold, i: int, stop: int) -> None:
        """Set ``bound[i + 1 .. stop]`` for a search at bead ``i``: the
        prefix sums of the most bonds each bead of ``i + 1 .. stop - 1`` can
        add, counted from the partners within its reach (see the class), and
        written into ``reach``. When none of them has headroom, ``bound`` is
        ``zeros``, with no scan and nothing written, so a bond-free fold
        stays linear."""
        t, headroom = self.transcript, self.headroom
        if headroom[stop] == headroom[i + 1]:
            self.bound = self.zeros
            return
        bound = self.bound = self.reach
        partners, arity, geometry = fold.rules.partners, fold.arity, fold.geometry
        path, beads, counts = fold.path, fold.beads, fold.bond_count
        end = path[-1]
        radius = min(stop - i + 1, _REACH)
        # The type of each placed bead with spare arity, ring by ring: read
        # from the placed beads when they are fewer than the disk's points.
        near = []
        if len(path) < geometry.disk_sizes[radius]:
            distance = geometry.distance.get
            for idx, key in enumerate(path):
                if counts[idx] < arity:
                    r = distance(key - end, _REACH + 1)
                    if r <= radius:
                        near.append((r, beads[idx]))
            near.sort()
        else:
            get = fold.occupied.get
            for r, ring in enumerate(geometry.rings[: radius + 1]):
                for d in ring:
                    idx = get(end + d)
                    if idx is not None and counts[idx] < arity:
                        near.append((r, beads[idx]))
        cap = self.cap
        total = bound[i + 1] = 0
        for k in range(i + 1, stop):
            reach = k - i + 2
            if reach > _REACH:
                total += headroom[k + 1] - headroom[k]
            else:
                mates = partners(t[k])
                n = 0
                for r, b in near:
                    if r > reach:
                        break
                    if b in mates:
                        n += 1
                for m in range(i, k - 1):
                    if t[m] in mates:
                        n += 1
                total += min(cap, n)
            bound[k + 1] = total

    def _value(self, fold: _Fold, j: int, stop: int, alpha: int) -> int:
        """Most bonds reachable by placing transcript beads ``j`` .. ``stop - 1``
        (fewer if the path gets stuck). Exact when that is at least
        ``alpha``; otherwise both the returned number and the exact value
        are below ``alpha``, and nothing more is promised. The caller has
        just pushed a bead and checked that beads ``j`` .. ``stop - 1`` can
        add bonds and that their bound reaches ``alpha``. Each pushed bead
        gets a ``_node`` frame on a list, so only ``LOOKAHEAD_BUDGET`` limits
        how deep a search goes."""
        frames = [self._node(fold, j, stop, alpha)]
        while frames:
            child = next(frames[-1], None)
            if child is None:
                frames.pop()
            else:
                frames.append(child)
        return self.score

    def _node(self, fold: _Fold, j: int, stop: int, alpha: int) -> Iterator[Iterator]:
        """``_value``'s frame for bead ``j``. It yields each child's frame, then
        reads the child's score from ``score``; it writes its own there and
        returns, as closing a suspended frame would raise GeneratorExit in it.
        Each frame, and each choice scored in place, spends one push."""
        self._spend()
        base = len(fold.bond_log)
        t, bounds = self.transcript, self.bound
        bead = t[j]
        room = bounds[stop] - bounds[j + 1]
        if not room:
            self.score = base + fold.most_bonds(bead, fold.path[-1], bounds[j + 1] - bounds[j])
            return
        bound = base + bounds[stop] - bounds[j]
        best = base
        arity = fold.arity
        # When bead j + 1 is the last that can add bonds, each choice of bead
        # j is scored in place: its partners' bond counts go up by one while
        # bead j + 1 is scanned from its point.
        leaf = t[j + 1] if bounds[j + 2] == bounds[stop] else None
        counts = fold.bond_count
        for key, eligible in fold.placements(bead):
            for r in range(min(len(eligible), arity), -1, -1):
                top = base + r + room
                if top < alpha or top <= best:
                    break
                for partners in combinations(eligible, r):
                    if leaf is None:
                        fold.push(key, partners, bead)
                        yield self._node(fold, j + 1, stop, max(alpha, best + 1))
                        fold.pop()
                        score = self.score
                    else:
                        # Spent as the push it replaces.
                        self._spend()
                        for p in partners:
                            counts[p] += 1
                        score = base + r + fold.most_bonds(leaf, key, room)
                        for p in partners:
                            counts[p] -= 1
                    if score > best:
                        best = score
                        if best == bound:
                            self.score = best
                            return
                        if top <= best:
                            break
        self.score = best

    def _spend(self) -> None:
        """Spend one unit of the budget of the node searched last: a push
        below it, or a choice scored in place. Past ``LOOKAHEAD_BUDGET``
        units it raises LookaheadBudgetExceeded."""
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise LookaheadBudgetExceeded(
                f"lookahead for transcript bead {self.start + self.root + 1} "
                f"({self.transcript[self.root]}) pushes more than {LOOKAHEAD_BUDGET} nascent beads"
            )


def stabilize_next(
    system: OritatamiSystem, c_i: Conformation, i: int
) -> list[StabilizationChoice]:
    """The full argmin set for stabilizing transcript bead ``i`` (0-based) onto ``c_i``.

    Each candidate placement is scored by the minimum energy reachable through
    further elongation by up to ``delay - 1`` transcript beads (truncated at
    the transcript end); every choice attaining the global minimum is
    returned, in canonical order. Raises DeadEnd when no placement exists
    (the one place it is raised: inside the engine a dead end is an empty
    argmin set), and ValueError when ``i`` is not a bead of the transcript
    or ``c_i`` is not a valid seed of ``system``.
    """
    if not 0 <= i < len(system.transcript):
        raise ValueError(f"bead index {i} is outside a transcript of {len(system.transcript)} beads")
    # This one step searches the system seeded with c_i whose transcript is
    # beads i .. i + delay - 1: all the step reads. No window recurs within
    # its own length, so it is searched with no table.
    step = OritatamiSystem(
        system.rules, system.arity, system.delay, c_i, system.transcript[i : i + system.delay]
    )
    fold = _Fold(system.rules, system.arity, c_i, len(c_i) + len(step.transcript))
    found = _Lookahead(step, i)._search(fold, 0)
    if not found:
        raise DeadEnd(f"no placement for transcript bead {i + 1} ({system.transcript[i]})")
    return [StabilizationChoice(fold.point(k), bonds) for k, bonds in found]


def fold_all(
    system: OritatamiSystem,
    mode: str = "enumerate",
    rng: random.Random | int | None = None,
    branch_budget: int = BRANCH_BUDGET,
) -> tuple[FoldOutcome, ...]:
    """Fold the whole transcript.

    enumerate -- branch over every nondeterministic stabilization and return
    all terminal conformations (transcript completed, or stuck at a dead
    end), in depth-first order. They are distinct: two branches first differ
    at some bead in its point or its bonds to earlier beads. Raises
    BranchBudgetExceeded past ``branch_budget`` terminals. Every node is
    searched, so this is the reference that ``fold_summary``, which counts
    these outcomes without building them, is checked against.
    sample -- pick uniformly among the argmin set at each step (seeded RNG).
    first -- always take the canonically first choice, which each search
    finds alone (see ``_Lookahead``).
    """
    return tuple(outcome for _, _, outcome in _walk(system, mode, rng, branch_budget))


def fold_summary(
    system: OritatamiSystem,
    mode: str = "enumerate",
    rng: random.Random | int | None = None,
    branch_budget: int = BRANCH_BUDGET,
) -> tuple[int, int, FoldOutcome]:
    """``fold_all``'s terminal count, completed count and first outcome.

    first and sample follow one branch, searched as ``fold_all`` does.
    enumerate walks and searches as ``fold_all`` does down to the first node
    of each branch whose window reaches the transcript end, which is always
    searched, then goes on down on the same stack, counting the terminals
    below each of that node's argmin choices with no search or outcome built
    below (see ``_walk``); a mirror-image subtree is not walked, but weighs
    on its source's count. The results equal ``fold_all``'s, and so does
    BranchBudgetExceeded's message, raised as soon as the weighted count
    passes ``branch_budget``: on a symmetric seed, that may be after fewer
    searches than ``fold_all`` makes. A dead end below such a node is
    counted as a terminal; a LookaheadBudgetExceeded that only a skipped
    search would have raised does not happen. The count below a node spends
    the budget of that node's search.
    """
    total = completed = 0
    first = None
    for n, done, outcome in _walk(system, mode, rng, branch_budget, count=True):
        total += n
        completed += done
        if first is None:
            first = outcome
    return total, completed, first


def _as_rng(rng: random.Random | int | None) -> random.Random:
    """``rng`` itself, a ``Random`` seeded with it, or ``Random(0)`` for None."""
    if isinstance(rng, int):
        return random.Random(rng)
    return random.Random(0) if rng is None else rng


def _walk(
    system: OritatamiSystem,
    mode: str,
    rng: random.Random | int | None,
    budget: int,
    count: bool = False,
) -> Iterator[tuple[int, int, FoldOutcome | None]]:
    """Every terminal of the depth-first walk of a fold in ``mode``, in
    order, as (1, 1 if completed else 0, the outcome). From each step's
    argmin set, given as (point key, bonds) pairs, enumerate keeps every
    choice, first the first one, which its search gives alone (see
    ``_Lookahead._search``), and sample one drawn by ``rng``. A branch ends
    where the transcript does, or at a dead end, whose argmin set is empty.
    In enumerate mode it raises BranchBudgetExceeded past ``budget``
    terminals; first and sample follow one branch, with no budget.

    ``count`` is read only in enumerate mode; without it every node is
    searched. With it, no node below the tail node of a branch is searched;
    the tail node is the first whose window reaches the transcript end, and
    it is searched, never answered by the table. Every later step looks as
    far ahead as that search did, so the terminals below it are the ways on
    that reach its best score: completed, or stuck at a dead end with that
    many bonds. They are counted on the same stack. A node's children there
    are its choices whose bound, as in the search, reaches that score, each
    pushed as an entry of its own with no symmetry group, except the last
    bead's: its ways are counted by binomials (``_Fold.ways``), with no
    push. Each push below the tail node spends one unit of the tail node's
    budget (``_Lookahead._spend``). Each group of ways counted at once
    yields (ways, completed ones, the first of them if it is the walk's
    first terminal, else None); so does every terminal above the tail node,
    as ``fold_summary`` reads only the first outcome.

    A count also cuts the walk down to the tail node by the grid's
    symmetries: while a branch's points are all fixed by some symmetries
    about the seed's first point (a single-bead or straight seed and the
    beads placed on its axes), a symmetry ``g`` of that group maps the
    subtree below a kept choice ``c`` onto the subtree below ``g(c)``. So a
    kept choice that is ``g(c)`` for an earlier kept sibling ``c`` is not
    walked; it adds one to the weight of ``c`` (see ``_children``). A
    choice stands for as many subtrees as the product of the weights on its
    way from the root, and each terminal or count below it is yielded, and
    spent from the budget, multiplied by that product. So the totals equal
    ``fold_all``'s, but the budget may run out after fewer searches.
    """
    if mode not in ("enumerate", "first", "sample"):
        raise ValueError(f"unknown fold mode {mode!r}")
    every = mode == "enumerate"
    count = count and every
    rng = _as_rng(rng)
    search = _Lookahead(system, first=mode == "first")
    fold = _Fold(system.rules, system.arity, system.seed, len(system.seed) + len(system.transcript))
    transcript, seed, base = system.transcript, system.seed.path, len(system.seed)
    stop = len(transcript)
    # The bead of the tail node; without count no node is past it.
    tail = max(stop - system.delay, 0) if count else stop

    def snapshot(completed: bool) -> FoldOutcome:
        # The seed's points, then those of the beads placed since.
        path = (*seed, *map(fold.point, fold.path[base:]))
        return FoldOutcome(Conformation(path, tuple(fold.beads), frozenset(fold.bond_log)), completed)

    # Choices still to try, as (bead index i, point key, bonds, group,
    # weight) (see _children); taking one first rewinds the fold to its
    # first i stabilized beads.
    stack: list[Sequence] = []
    # Far from seed[0], a symmetry seldom fixes a point: try the end first.
    fixed =(g for g in SYMMETRIES[1:] if all(transform(g, p, seed[0]) == p for p in reversed(seed)))
    group = tuple(fixed) if count else ()
    i, weight = 0, 1
    total = 0
    while True:
        kept, n = (), 0
        if i <= tail:
            if i < stop:
                kept = (search._search if i == tail else search.minimizers)(fold, i)
                if kept and mode == "sample":
                    kept = [rng.choice(kept)]
            if not kept:
                n, done = 1, int(i == stop)
        else:
            # The ways here need r more bonds.
            r = search.best - len(fold.bond_log)
            if i == stop:
                n = 1
            elif i + 1 == stop:
                n = fold.ways(transcript[i], r)
            else:
                room = search.bound[stop] - search.bound[i + 1]
                kept, group = _canonical(fold.placements(transcript[i]), system.arity, r - room), ()
            done = n
            if not (n or r or kept):
                # A dead end with the best score.
                n = 1
        if kept:
            stack.extend(reversed(_children(kept, group, fold, i, weight)))
        elif n:
            if count and total:
                outcome = None
            elif done and i < stop:
                # The last bead's ways: the first, in canonical order, is
                # its first choice that reaches the score.
                key, bonds = _canonical(fold.placements(transcript[i]), system.arity, r)[0]
                fold.push(key, bonds, transcript[i])
                outcome = snapshot(True)
                fold.pop()
            else:
                outcome = snapshot(i == stop)
            total += n * weight
            if every and total > budget:
                raise BranchBudgetExceeded(f"more than {budget} terminal branches")
            yield n * weight, done * weight, outcome
        if not stack:
            return
        i, key, bonds, group, weight = stack.pop()
        while len(fold.path) > base + i:
            fold.pop()
        if i > tail:
            search._spend()
        fold.push(key, bonds, transcript[i])
        i += 1


def _children(
    kept: Sequence[tuple[int, tuple[int, ...]]], group: Sequence[Symmetry], fold: _Fold, i: int, weight: int
) -> list[Sequence]:
    """The ``_walk`` stack entries (i, point key, bonds, group, weight) of
    the choices ``kept`` for bead ``i`` at a node whose points ``group``
    fixes, below a choice of weight ``weight``. Each entry's group holds the
    symmetries of ``group`` that fix its choice. A choice that an element of
    ``group`` makes out of an earlier kept choice has no entry: it adds
    ``weight`` to that choice's."""
    if not group:
        return [(i, key, bonds, (), weight) for key, bonds in kept]
    # The entry of the choice each symmetry makes a kept choice from.
    images: dict[tuple[int, tuple[int, ...]], list] = {}
    entries = []
    for choice in kept:
        entry = images.get(choice)
        if entry is not None:
            entry[-1] += weight
            continue
        point = fold.point(choice[0])
        fixing: list[Symmetry] = []
        entry = [i, *choice, fixing, weight]
        for g in group:
            image = (fold.key(transform(g, point, fold.origin)), choice[1])
            if image == choice:
                fixing.append(g)
            else:
                images.setdefault(image, entry)
        entries.append(entry)
    return entries
