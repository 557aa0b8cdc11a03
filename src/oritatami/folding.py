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
from collections import Counter
from dataclasses import dataclass, replace
from itertools import accumulate, chain, combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .grid import DIRECTIONS, Point, are_adjacent, path_is_valid


class DeadEnd(Exception):
    """No placement exists for the next transcript bead: folding cannot proceed."""


class BranchBudgetExceeded(Exception):
    """Exhaustive enumeration produced more terminal branches than allowed."""


class LookaheadBudgetExceeded(Exception):
    """One lookahead search pushed more nascent beads than allowed."""


# Default cap on the terminals an enumeration may produce.
BRANCH_BUDGET = 10_000
# Cap on the nascent beads one lookahead search may push: about 190 times the
# most any test, demo or benchmark input needs (525, at a delay-5 glider step).
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


# The workspace keys a point by one int, (x - x0) * _STRIDE + (y - y0), taken
# relative to the start conformation's first point (x0, y0). A path is
# connected, and the search looks at most one step past the transcript's
# length beyond the path end, so every offset it meets is below the seed
# length plus twice the transcript length plus 2: far below _STRIDE / 2 for
# any system that fits in memory, which keeps the key injective.
_STRIDE = 1 << 32
_HALF_STRIDE = _STRIDE // 2
_NEIGHBOURS = tuple(dx * _STRIDE + dy for dx, dy in DIRECTIONS)
# Each step from the path end, with the five steps on from there that do not
# lead back to the path end.
_STEPS = tuple((d, tuple(e for e in _NEIGHBOURS if e != -d)) for d in _NEIGHBOURS)


class _Fold:
    """Mutable folding workspace: push/pop beads without copying the conformation.

    ``path`` holds int point keys (see ``_STRIDE``); ``point`` and ``key``
    convert between a key and its ``Point``.
    """

    __slots__ = ("rules", "arity", "origin", "path", "beads", "occupied", "bond_count", "bond_log",
                 "total_bonds")

    def __init__(self, rules: RuleSet, arity: int, start: Conformation):
        self.rules = rules
        self.arity = arity
        self.origin = start.path[0]
        self.path: list[int] = [self.key(p) for p in start.path]
        self.beads: list[str] = list(start.beads)
        self.occupied: dict[int, int] = {k: i for i, k in enumerate(self.path)}
        self.bond_count: list[int] = [0] * len(start.path)
        for i, j in start.bonds:
            self.bond_count[i] += 1
            self.bond_count[j] += 1
        self.bond_log: list[tuple[int, int]] = sorted(start.bonds)
        self.total_bonds = len(start.bonds)

    def key(self, p: tuple[int, int]) -> int:
        return (p[0] - self.origin[0]) * _STRIDE + (p[1] - self.origin[1])

    def point(self, key: int) -> Point:
        dx, dy = divmod(key + _HALF_STRIDE, _STRIDE)
        return Point(self.origin[0] + dx, self.origin[1] + dy - _HALF_STRIDE)

    def placements(self, bead: str) -> list[tuple[int, list[int]]]:
        """Each free point next to the path end, in direction order, as its
        key with the indices of the beads it could bond with there (in
        neighbor order)."""
        end = self.path[-1]
        mates = self.rules.partners(bead)
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        out = []
        for d, around in _STEPS:
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

    def most_bonds(self, bead: str) -> int:
        """The most bonds ``bead`` could form at any free point next to the
        path end: ``placements`` reduced to a count, with no lists built."""
        mates = self.rules.partners(bead)
        if not mates:
            return 0
        end = self.path[-1]
        occupied, beads, bond_count, arity = self.occupied, self.beads, self.bond_count, self.arity
        cap = min(arity, _MAX_NEW_BONDS)
        best = 0
        for d, around in _STEPS:
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

    def options(self, bead: str) -> list[tuple[int, tuple[int, ...]]]:
        """Every legal (point key, bond subset) for ``bead``, in canonical order.

        Canonical order: direction order around the path end, then bond
        subsets sorted lexicographically (the empty subset first).
        """
        out: list[tuple[int, tuple[int, ...]]] = []
        for key, eligible in self.placements(bead):
            eligible.sort()
            max_take = min(len(eligible), self.arity)
            subsets = sorted(
                chain.from_iterable(combinations(eligible, r) for r in range(max_take + 1))
            )
            out.extend((key, s) for s in subsets)
        return out

    def push(self, key: int, partners: Sequence[int], bead: str) -> None:
        idx = len(self.path)
        self.path.append(key)
        self.beads.append(bead)
        self.occupied[key] = idx
        self.bond_count.append(len(partners))
        for partner in partners:
            self.bond_count[partner] += 1
            self.bond_log.append((partner, idx))
        self.total_bonds += len(partners)

    def pop(self) -> None:
        key = self.path.pop()
        self.beads.pop()
        del self.occupied[key]
        n_bonds = self.bond_count.pop()
        for _ in range(n_bonds):
            partner, _ = self.bond_log.pop()
            self.bond_count[partner] -= 1
        self.total_bonds -= n_bonds


def elongations(
    c: Conformation, bead: str, rules: RuleSet, arity_cap: int
) -> list[StabilizationChoice]:
    """All one-bead elongations of ``c`` by ``bead``: every free placement next to
    the path end, combined with every subset of its eligible bond partners
    (the empty subset included), filtered by the arity cap."""
    fold = _Fold(rules, arity_cap, c)
    return [StabilizationChoice(fold.point(k), s) for k, s in fold.options(bead)]


# A new bead bonds with at most five beads: of its six neighbors, one is its predecessor.
_MAX_NEW_BONDS = 5
_DIRECTION_RANK = {d: k for k, d in enumerate(_NEIGHBOURS)}


def _hex_disk(radius: int) -> tuple[int, ...]:
    """The key offset of every point within ``radius`` grid steps of the
    origin, in a fixed order."""
    span = range(-radius, radius + 1)
    return tuple(
        dx * _STRIDE + dy
        for dx in span
        for dy in span
        if max(abs(dx), abs(dy), abs(dx + dy)) <= radius
    )


class _Lookahead:
    """Exact delay-bounded argmin search for one system.

    Scores are bond totals, maximised, so the argmin over energy is the argmax
    here. The search is a branch-and-bound over the nascent beads. A bond is
    counted at its later bead, so a bead can add bonds only if one of its
    partner types occurs in the seed or earlier in the transcript; such a
    bead adds at most ``min(arity, 5)``, any other bead none (``headroom``).
    Before each push the child's bound (bonds so far, plus the subset size,
    plus the headroom of the beads left) is checked: a child whose bound
    falls strictly below the score it must reach is skipped, and since
    subset sizes are tried largest first, so are the smaller subsets of that
    placement. Ties therefore stay exact. A child with no headroom left
    scores exactly its bonds and is not pushed; a level whose later beads
    have no headroom counts eligible partners per free point and builds no
    lists. One search pushes at most ``LOOKAHEAD_BUDGET`` beads, else it
    raises LookaheadBudgetExceeded; so does a search nested deeper than the
    interpreter's stack allows.

    Argmin sets are remembered relative to the path end, keyed by the
    transcript window and every occupied point within ``delay + 1`` steps,
    and never more than one step past the transcript's length (with bead
    type and bond count): that is everything the search can touch, so a
    translated repeat of a situation is answered without searching. The key
    is built only for windows that occur more than once in the transcript,
    since no other window can hit; entries are stored only for windows that
    recur later, and the table lives as long as this object.
    """

    __slots__ = ("transcript", "delay", "arity", "headroom", "table", "window_ids", "shared",
                 "recurs", "disk", "nodes_left", "root")

    def __init__(self, system: OritatamiSystem):
        self.transcript = t = system.transcript
        self.delay = delay = system.delay
        self.arity = system.arity
        cap = min(system.arity, _MAX_NEW_BONDS)
        present = set(system.seed.beads)
        gains = []
        for b in t:
            gains.append(0 if system.rules.partners(b).isdisjoint(present) else cap)
            present.add(b)
        # headroom[k] bounds the bonds beads 0..k-1 can add: a prefix sum.
        self.headroom = list(accumulate(gains, initial=0))
        self.table: dict = {}
        windows = [t[i : i + delay] for i in range(len(t))]
        ids: dict[tuple[str, ...], int] = {}
        last: dict[tuple[str, ...], int] = {}
        for i, w in enumerate(windows):
            ids.setdefault(w, len(ids))
            last[w] = i
        count = Counter(windows)
        self.window_ids = [ids[w] for w in windows]
        self.shared = [count[w] > 1 for w in windows]
        self.recurs = [last[w] > i for i, w in enumerate(windows)]
        self.disk = _hex_disk(min(delay, len(t)) + 1)

    def minimizers(self, fold: _Fold, i: int) -> list[StabilizationChoice]:
        if not self.shared[i]:
            return [StabilizationChoice(fold.point(k), s) for k, s in self._search(fold, i)]
        end = fold.path[-1]
        occupied, beads, counts = fold.occupied, fold.beads, fold.bond_count
        hood = []
        for d in self.disk:
            idx = occupied.get(end + d)
            if idx is not None:
                hood.append((d, beads[idx], counts[idx]))
        key = (self.window_ids[i], tuple(hood))
        entry = self.table.get(key)
        if entry is None:
            found = self._search(fold, i)
            if self.recurs[i]:
                path = fold.path
                self.table[key] = tuple(
                    (k - end, tuple(path[q] - end for q in bonds)) for k, bonds in found
                )
            return [StabilizationChoice(fold.point(k), s) for k, s in found]
        # Partner offsets map back to indices whose order may differ from the
        # stored situation's, so canonical order is rebuilt.
        restored = sorted(
            (_DIRECTION_RANK[d], tuple(sorted(occupied[end + m] for m in mates)), end + d)
            for d, mates in entry
        )
        return [StabilizationChoice(fold.point(k), bonds) for _, bonds, k in restored]

    def _search(self, fold: _Fold, i: int) -> list[tuple[int, tuple[int, ...]]]:
        """The argmin set for bead ``i`` as (point key, bonds), in canonical order."""
        bead = self.transcript[i]
        options = fold.options(bead)
        if not options:
            raise DeadEnd(f"no placement for transcript bead {i + 1} ({bead})")
        stop = min(i + self.delay, len(self.transcript))
        room = self.headroom[stop] - self.headroom[i + 1]
        base = fold.total_bonds
        self.nodes_left, self.root = LOOKAHEAD_BUDGET, i
        best = -1
        scores = []
        try:
            for key, bonds in options:
                score = base + len(bonds) + room
                if room and score >= best:
                    fold.push(key, bonds, bead)
                    score = self._value(fold, i + 1, stop, best)
                    fold.pop()
                scores.append(score)
                if score > best:
                    best = score
        except RecursionError:
            # _value recurses once per level; past the stack the search is abandoned.
            raise LookaheadBudgetExceeded(
                f"lookahead for transcript bead {i + 1} ({bead}) "
                "nests deeper than the interpreter stack allows"
            ) from None
        return [option for option, score in zip(options, scores) if score == best]

    def _value(self, fold: _Fold, j: int, stop: int, alpha: int) -> int:
        """Most bonds reachable by placing transcript beads ``j`` .. ``stop - 1``
        (fewer if the path gets stuck). Exact when that is at least
        ``alpha``; otherwise an upper bound strictly below it. The caller has
        just pushed a bead and checked that beads ``j`` .. ``stop - 1`` have
        headroom and that their bound reaches ``alpha``; so each call counts
        one push against the search's budget."""
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise LookaheadBudgetExceeded(
                f"lookahead for transcript bead {self.root + 1} "
                f"({self.transcript[self.root]}) pushes more than {LOOKAHEAD_BUDGET} nascent beads"
            )
        base = fold.total_bonds
        bead = self.transcript[j]
        room = self.headroom[stop] - self.headroom[j + 1]
        if not room:
            return base + fold.most_bonds(bead)
        bound = base + self.headroom[stop] - self.headroom[j]
        best = base
        arity = self.arity
        for key, eligible in fold.placements(bead):
            for r in range(min(len(eligible), arity), -1, -1):
                top = base + r + room
                if top < alpha or top <= best:
                    break
                for partners in combinations(eligible, r):
                    fold.push(key, partners, bead)
                    score = self._value(fold, j + 1, stop, max(alpha, best + 1))
                    fold.pop()
                    if score > best:
                        best = score
                        if best == bound:
                            return best
                        if top <= best:
                            break
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
    # The lookahead's headroom counts the bead types present before bead i,
    # so it reads them from c_i. A fresh search serves this one step, and
    # minimizers reads its table before writing to it, so the step is
    # table-free in effect.
    search = _Lookahead(replace(system, seed=c_i))
    return search.minimizers(_Fold(system.rules, system.arity, c_i), i)


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
    search = _Lookahead(system)
    fold = _Fold(system.rules, system.arity, system.seed)
    transcript, base = system.transcript, len(system.seed)
    # The branch's points, kept beside the fold's keys for its snapshots.
    points = list(system.seed.path)
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
            snapshot = Conformation(tuple(points), tuple(fold.beads), frozenset(fold.bond_log))
            yield FoldOutcome(snapshot, i == len(transcript))
        if not stack:
            return
        i, ch = stack.pop()
        while len(fold.path) > base + i:
            fold.pop()
        del points[base + i :]
        points.append(ch.point)
        fold.push(fold.key(ch.point), ch.bonds, transcript[i])
        i += 1
