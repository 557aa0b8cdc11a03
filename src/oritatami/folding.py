"""Cotranscriptional folding engine on the triangular grid.

A conformation is a self-avoiding directed path carrying one bead per point
plus a set of h-interactions (bonds) between beads that sit at unit distance
and are at least two positions apart along the path. A system folds its
transcript one bead at a time: each bead settles on the placement-and-bond
choice whose best reachable energy, looking ahead over the next ``delay - 1``
nascent beads, is minimal. Ties are genuine nondeterminism; the engine can
enumerate every branch, sample one with a seeded RNG, or take the canonical
first choice.

Energy is minus the bond count, so "minimal energy" means "most bonds".
Bead indices are 0-based internally. Error messages, like the text formats
in :mod:`sysfile` and the fold trace, number beads from 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .grid import DIRECTIONS, Point, are_adjacent, path_is_valid


class DeadEnd(Exception):
    """No placement exists for the next transcript bead: folding cannot proceed."""


class BranchBudgetExceeded(Exception):
    """Exhaustive enumeration produced more terminal branches than allowed."""


# Default cap on the terminals an enumeration may produce.
BRANCH_BUDGET = 10_000


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
    """Raise ValueError unless ``c`` is well formed (and R-valid / within arity, if given)."""
    if len(c.beads) != len(c.path):
        raise ValueError(f"{len(c.beads)} beads on a {len(c.path)}-point path")
    if not path_is_valid(c.path):
        raise ValueError("path is not a self-avoiding chain of adjacent points")
    for i, j in c.bonds:
        if not (0 <= i and i + 2 <= j and j < len(c.path)):
            raise ValueError(f"bond ({i + 1}, {j + 1}) out of range or between near-consecutive beads")
        if not are_adjacent(c.path[i], c.path[j]):
            raise ValueError(f"bond ({i + 1}, {j + 1}) joins non-adjacent points")
        if rules is not None and not rules.allows(c.beads[i], c.beads[j]):
            raise ValueError(f"bond ({i + 1}, {j + 1}) pairs {c.beads[i]}/{c.beads[j]} outside the rule set")
    if max_arity is not None and arity_of(c) > max_arity:
        raise ValueError(f"conformation arity {arity_of(c)} exceeds cap {max_arity}")


def energy(c: Conformation) -> int:
    """Minus the number of bonds."""
    return -len(c.bonds)


def arity_of(c: Conformation) -> int:
    """Largest per-bead bond count; 0 for a bond-free conformation."""
    counts: dict[int, int] = {}
    for i, j in c.bonds:
        counts[i] = counts.get(i, 0) + 1
        counts[j] = counts.get(j, 0) + 1
    return max(counts.values(), default=0)


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


class _Fold:
    """Mutable folding workspace: push/pop beads without copying the conformation."""

    __slots__ = ("rules", "arity", "path", "beads", "occupied", "bond_count", "bond_log", "total_bonds")

    def __init__(self, rules: RuleSet, arity: int, start: Conformation):
        self.rules = rules
        self.arity = arity
        self.path: list[Point] = list(start.path)
        self.beads: list[str] = list(start.beads)
        self.occupied: dict[Point, int] = {p: i for i, p in enumerate(start.path)}
        self.bond_count: list[int] = [0] * len(start.path)
        for i, j in start.bonds:
            self.bond_count[i] += 1
            self.bond_count[j] += 1
        self.bond_log: list[tuple[int, int]] = sorted(start.bonds)
        self.total_bonds = len(start.bonds)

    def placements(self, bead: str) -> list[tuple[Point, list[int]]]:
        """Each free point next to the path end, in direction order, with the
        indices of the beads it could bond with there (in neighbor order)."""
        last_x, last_y = self.path[-1]
        last = len(self.path) - 1
        mates = self.rules.partners(bead)
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        out = []
        for dx, dy in DIRECTIONS:
            x, y = last_x + dx, last_y + dy
            if (x, y) in occupied:
                continue
            eligible = []
            if mates:
                for ex, ey in DIRECTIONS:
                    idx = occupied.get((x + ex, y + ey))
                    if (
                        idx is not None
                        and idx != last
                        and bond_count[idx] < arity
                        and beads[idx] in mates
                    ):
                        eligible.append(idx)
            out.append((Point(x, y), eligible))
        return out

    def choices(self, bead: str) -> list[StabilizationChoice]:
        """Every legal (placement, bond subset) for ``bead``, in canonical order.

        Canonical order: direction order around the path end, then bond
        subsets sorted lexicographically (the empty subset first).
        """
        out: list[StabilizationChoice] = []
        for p, eligible in self.placements(bead):
            eligible.sort()
            max_take = min(len(eligible), self.arity)
            subsets = sorted(
                chain.from_iterable(combinations(eligible, r) for r in range(max_take + 1))
            )
            out.extend(StabilizationChoice(p, s) for s in subsets)
        return out

    def push(self, point: Point, partners: Sequence[int], bead: str) -> None:
        idx = len(self.path)
        self.path.append(point)
        self.beads.append(bead)
        self.occupied[point] = idx
        self.bond_count.append(len(partners))
        for partner in partners:
            self.bond_count[partner] += 1
            self.bond_log.append((partner, idx))
        self.total_bonds += len(partners)

    def pop(self) -> None:
        p = self.path.pop()
        self.beads.pop()
        del self.occupied[p]
        n_bonds = self.bond_count.pop()
        for _ in range(n_bonds):
            partner, _ = self.bond_log.pop()
            self.bond_count[partner] -= 1
        self.total_bonds -= n_bonds

    def snapshot(self) -> Conformation:
        return Conformation(tuple(self.path), tuple(self.beads), frozenset(self.bond_log))


def elongations(
    c: Conformation, bead: str, rules: RuleSet, arity_cap: int
) -> list[StabilizationChoice]:
    """All one-bead elongations of ``c`` by ``bead``: every free placement next to
    the path end, combined with every subset of its eligible bond partners
    (the empty subset included), filtered by the arity cap."""
    return _Fold(rules, arity_cap, c).choices(bead)


# A new bead bonds with at most five beads: of its six neighbors, one is its predecessor.
_MAX_NEW_BONDS = 5
_DIRECTION_RANK = {d: k for k, d in enumerate(DIRECTIONS)}


def _hex_disk(radius: int) -> tuple[tuple[int, int], ...]:
    """Every offset within ``radius`` grid steps of the origin, in a fixed order."""
    span = range(-radius, radius + 1)
    return tuple(
        (dx, dy) for dx in span for dy in span if max(abs(dx), abs(dy), abs(dx + dy)) <= radius
    )


class _Lookahead:
    """Exact delay-bounded argmin search for one system.

    Scores are bond totals, maximised, so the argmin over energy is the argmax
    here. Below the root a branch-and-bound search gives up on a subtree once
    its admissible bound (each remaining bead adds at most ``min(arity, 5)``
    bonds, none if its type has no partner) falls strictly below the best
    score already found, so ties stay exact. The last level needs no push:
    its best gain is the largest partner count of any free placement.

    With ``table`` set, argmin sets are remembered relative to the path end,
    keyed by the transcript window and every occupied point within
    ``delay + 1`` steps (with bead type and bond count): that is everything
    the search can touch, so a translated repeat of a situation is answered
    without searching. Only windows that recur later in the transcript are
    stored, and the table lives as long as this object.
    """

    __slots__ = ("transcript", "delay", "arity", "headroom", "table", "window_ids", "recurs", "disk")

    def __init__(self, system: OritatamiSystem, table: bool = False):
        self.transcript = t = system.transcript
        self.delay = delay = system.delay
        self.arity = system.arity
        cap = min(system.arity, _MAX_NEW_BONDS)
        # headroom[k] bounds the bonds beads 0..k-1 can add: a prefix sum.
        self.headroom = list(
            accumulate((cap if system.rules.partners(b) else 0 for b in t), initial=0)
        )
        self.table: dict | None = None
        if table:
            self.table = {}
            windows = [t[i : i + delay] for i in range(len(t))]
            ids: dict[tuple[str, ...], int] = {}
            last: dict[tuple[str, ...], int] = {}
            for i, w in enumerate(windows):
                ids.setdefault(w, len(ids))
                last[w] = i
            self.window_ids = [ids[w] for w in windows]
            self.recurs = [last[w] > i for i, w in enumerate(windows)]
            self.disk = _hex_disk(delay + 1)

    def minimizers(self, fold: _Fold, i: int) -> list[StabilizationChoice]:
        if self.table is None:
            return self._search(fold, i)
        ex, ey = fold.path[-1]
        occupied, beads, counts = fold.occupied, fold.beads, fold.bond_count
        hood = []
        for dx, dy in self.disk:
            idx = occupied.get((ex + dx, ey + dy))
            if idx is not None:
                hood.append((dx, dy, beads[idx], counts[idx]))
        key = (self.window_ids[i], tuple(hood))
        entry = self.table.get(key)
        if entry is not None:
            # Partner offsets map back to indices whose order may differ from
            # the stored situation's, so canonical order is rebuilt.
            restored = []
            for (dx, dy), mates in entry:
                bonds = tuple(sorted(occupied[(ex + mx, ey + my)] for mx, my in mates))
                restored.append((_DIRECTION_RANK[(dx, dy)], bonds, Point(ex + dx, ey + dy)))
            restored.sort()
            return [StabilizationChoice(p, bonds) for _, bonds, p in restored]
        options = self._search(fold, i)
        if self.recurs[i]:
            path = fold.path
            self.table[key] = tuple(
                (
                    (ch.point[0] - ex, ch.point[1] - ey),
                    tuple((path[q][0] - ex, path[q][1] - ey) for q in ch.bonds),
                )
                for ch in options
            )
        return options

    def _search(self, fold: _Fold, i: int) -> list[StabilizationChoice]:
        bead = self.transcript[i]
        options = fold.choices(bead)
        if not options:
            raise DeadEnd(f"no placement for transcript bead {i + 1} ({bead})")
        best = -1
        scores = []
        for ch in options:
            fold.push(ch.point, ch.bonds, bead)
            score = self._value(fold, i + 1, self.delay - 1, best)
            fold.pop()
            scores.append(score)
            if score > best:
                best = score
        return [ch for ch, score in zip(options, scores) if score == best]

    def _value(self, fold: _Fold, next_i: int, depth: int, alpha: int) -> int:
        """Most bonds reachable by placing up to ``depth`` more transcript beads
        from ``next_i`` on (truncated at the transcript end). Exact when that
        is at least ``alpha``; otherwise an upper bound strictly below it."""
        base = fold.total_bonds
        stop = min(next_i + depth, len(self.transcript))
        bound = base + self.headroom[stop] - self.headroom[next_i]
        if bound == base or bound < alpha:
            return bound
        bead = self.transcript[next_i]
        if depth == 1:
            arity = self.arity
            return base + max((min(len(e), arity) for _, e in fold.placements(bead)), default=0)
        best = base
        for point, eligible in fold.placements(bead):
            for r in range(min(len(eligible), self.arity), -1, -1):
                for partners in combinations(eligible, r):
                    fold.push(point, partners, bead)
                    score = self._value(fold, next_i + 1, depth - 1, max(alpha, best + 1))
                    fold.pop()
                    if score > best:
                        best = score
                        if best == bound:
                            return best
        return best


def stabilize_next(
    system: OritatamiSystem, c_i: Conformation, i: int
) -> list[StabilizationChoice]:
    """The full argmin set for stabilizing transcript bead ``i`` (0-based) onto ``c_i``.

    Each candidate placement is scored by the minimum energy reachable through
    further elongation by up to ``delay - 1`` transcript beads (truncated at
    the transcript end); every choice attaining the global minimum is
    returned, in canonical order. Raises DeadEnd when no placement exists.
    """
    return _Lookahead(system).minimizers(_Fold(system.rules, system.arity, c_i), i)


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
    BranchBudgetExceeded past ``branch_budget`` terminals.
    sample -- pick uniformly among the argmin set at each step (seeded RNG).
    first -- always take the canonically first choice.
    """
    if mode == "enumerate":
        keep = lambda options: options
    elif mode == "first":
        keep = lambda options: options[:1]
    elif mode == "sample":
        rng = _as_rng(rng)
        keep = lambda options: [rng.choice(options)]
    else:
        raise ValueError(f"unknown fold mode {mode!r}")
    outcomes: list[FoldOutcome] = []
    for outcome in _walk(system, keep):
        if len(outcomes) >= branch_budget and mode == "enumerate":
            raise BranchBudgetExceeded(f"more than {branch_budget} terminal branches")
        outcomes.append(outcome)
    return tuple(outcomes)


def _as_rng(rng: random.Random | int | None) -> random.Random:
    """``rng`` itself, a ``Random`` seeded with it, or ``Random(0)`` for None."""
    if isinstance(rng, int):
        return random.Random(rng)
    return random.Random(0) if rng is None else rng


def is_deterministic_run(system: OritatamiSystem) -> bool:
    """True iff every stabilization step yields exactly one minimizer.

    A single branch then exists, so walking it covers every reachable step;
    a dead end (zero minimizers) counts as not deterministic.
    """
    (outcome,) = _walk(system, lambda options: options if len(options) == 1 else ())
    return outcome.completed


def _walk(
    system: OritatamiSystem,
    keep: Callable[[list[StabilizationChoice]], Sequence[StabilizationChoice]],
) -> Iterator[FoldOutcome]:
    """Every terminal of the depth-first walk over the choices that ``keep``
    retains from each step's argmin set, in order. A branch ends where the
    transcript does, at a dead end, or where ``keep`` retains nothing."""
    search = _Lookahead(system, table=True)
    fold = _Fold(system.rules, system.arity, system.seed)
    transcript, base = system.transcript, len(system.seed)
    # Choices still to try, as (bead index i, choice); taking one first
    # rewinds the fold to its first i stabilized beads.
    stack: list[tuple[int, StabilizationChoice]] = []
    i = 0
    while True:
        kept: Sequence[StabilizationChoice] = ()
        if i < len(transcript):
            try:
                kept = keep(search.minimizers(fold, i))
            except DeadEnd:
                pass
        if kept:
            stack.extend((i, ch) for ch in reversed(kept))
        else:
            yield FoldOutcome(fold.snapshot(), i == len(transcript))
        if not stack:
            return
        i, ch = stack.pop()
        while len(fold.path) > base + i:
            fold.pop()
        fold.push(ch.point, ch.bonds, transcript[i])
        i += 1
