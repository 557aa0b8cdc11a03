"""Brick-level executor of the zigzag automaton architecture.

One period of the folded transcript processes one input letter through four
row transformations sharing a single interface: a row of n x-slots (one per
transition, values N / Y / Y') and n z-slots (state-code bits). The stages:

1. keep the transitions whose origin equals the current state,
2. keep those reading the current letter (state bits are dropped here),
3. nondeterministically pick one survivor, or halt when there is none,
   then reset the z-slots to zero,
4. write the chosen transition's target state into the z-slots.

Survival through every period of the input word plus the end marker is
acceptance. Enumerate mode is the normative semantics; coin-flip sampling
reproduces the brick-level choice distribution (a fair coin per pending
survivor, scanned right to left, with the lowest-index survivor as the
forced fallback).

A run fills a (state, letter) period table: each entry runs the four stages
once, and every branch that reaches it shares its traces. Codes are
injective, so a slot survives stages 1 and 2 only in the entry of its own
origin and letter, and its stage-3 and stage-4 rows belong to that entry
alone. Enumerate mode's verdict (``run_verdict``) is a frontier carried
through that table, {state: live branch count} letter by letter, so it
takes time linear in the word and has no branch budget. Listing the
branches (``branches``, read by ``write_report``) is one depth-first walk
over the table, with one iterator per depth over that depth's entry, capped
at ``BRANCH_BUDGET`` branches. The table is the run's only cache of rows
and traces. Sample mode is a plain loop over the letters: one table look-up
and one coin pick per period. The report is written branch by branch from
each trace's block, encoded once, so its memory does not grow with the
number of branches.
"""

from __future__ import annotations

import functools
import io
import random
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TypeVar

from .folding import BRANCH_BUDGET, BranchBudgetExceeded, _as_rng
from .nfa import AugmentedNfa, Encoding


class NoChoiceMarked(ValueError):
    """The stage-4 input row does not carry exactly one chosen slot (or stale z bits)."""


class _Halt:
    __slots__ = ()

    def __repr__(self) -> str:
        return "HALT"


HALT = _Halt()

N, Y, YP = "N", "Y", "Y'"
_X_VALUES = frozenset((N, Y, YP))
_Z_VALUES = frozenset((0, 1, None))
_T = TypeVar("_T")


def _all_in(values: Iterable, allowed: frozenset) -> bool:
    """Whether every one of ``values`` is in ``allowed``; an unhashable value
    is not."""
    try:
        return allowed.issuperset(values)
    except TypeError:
        return False


@dataclass(frozen=True)
class BrickRow:
    """The inter-zigzag interface: n flag slots and n state-bit slots.

    ``z`` entries are 0/1, or None where the bits have been dropped (between
    the letter filter and the zero reset).
    """

    x: tuple[str, ...]
    z: tuple[int | None, ...]

    def __post_init__(self):
        if len(self.x) != len(self.z):
            raise ValueError("x and z slot vectors must have equal length")
        if not _all_in(self.x, _X_VALUES):
            raise ValueError(f"bad x values in {self.x!r}")
        if not _all_in(self.z, _Z_VALUES):
            raise ValueError(f"bad z values in {self.z!r}")

    @property
    def n(self) -> int:
        return len(self.x)

    def is_boundary(self) -> bool:
        """Period boundary: every flag N and every z slot a concrete bit."""
        return all(v == N for v in self.x) and all(v in (0, 1) for v in self.z)


def format_row(row: BrickRow) -> str:
    z = ",".join("-" if v is None else str(v) for v in row.z)
    return f"x=[{','.join(row.x)}] z=[{z}]"


def boundary_row(code: Encoding, state: str) -> BrickRow:
    bits = code.state_code[state]
    return BrickRow((N,) * len(bits), tuple(int(ch) for ch in bits))


def module1(row: BrickRow, code: Encoding, nfa: AugmentedNfa) -> BrickRow:
    """Origin check: slot k becomes Y iff transition k originates at the state
    the z bits spell; the z bits pass through unchanged."""
    if not row.is_boundary():
        raise ValueError("stage-1 input must be a period-boundary row")
    q_bits = "".join(str(b) for b in row.z)
    x = tuple(Y if code.state_code[t.origin] == q_bits else N for t in nfa.transitions)
    return BrickRow(x, row.z)


def module2(row: BrickRow, code: Encoding, nfa: AugmentedNfa, letter: str) -> BrickRow:
    """Letter filter: a slot survives only if its transition reads ``letter``
    bit-for-bit. State bits are not propagated through this stage."""
    b_bits = code.letter_bits_of(letter)
    x = tuple(
        v if v == Y and code.letter_bits_of(t.letter) == b_bits else N
        for v, t in zip(row.x, nfa.transitions)
    )
    return BrickRow(x, (None,) * row.n)


def mark_first_valid(row: BrickRow) -> BrickRow | None:
    """Stage 3's first pass: flag the lowest-index survivor as Y' (the forced
    fallback); None when there is no survivor and the fold traps."""
    try:
        first = row.x.index(Y)
    except ValueError:
        return None
    x = row.x[:first] + (YP,) + row.x[first + 1 :]
    return BrickRow(x, row.z)


def module3(
    row: BrickRow, mode: str = "enumerate", rng: random.Random | int | None = None
) -> tuple[BrickRow | _Halt, ...]:
    """Nondeterministic choice among surviving slots.

    enumerate returns one outcome per survivor, the slots still flagged Y
    (exactly one Y, z reset to 0), in slot order, or (HALT,) when none
    survived. coin returns a single outcome drawn with the brick-level coin
    semantics.
    """
    n = row.n
    outcomes = tuple(
        BrickRow(tuple(Y if i == k else N for i in range(n)), (0,) * n)
        for k, v in enumerate(row.x) if v == Y
    )
    if not outcomes:
        return (HALT,)
    if mode == "enumerate":
        return outcomes
    if mode != "coin":
        raise ValueError(f"unknown choice mode {mode!r}")
    return (_coin_pick(outcomes, _as_rng(rng)),)


def _coin_pick(survivors: Sequence[_T], rng: random.Random) -> _T:
    """The brick-level coin rule over ``survivors`` in slot order: the zag
    scans right to left and each survivor but the lowest fires on a fair
    coin (one ``rng.random()`` each, stopping at the first success); the
    lowest, marked by stage 3's first pass, fires if none did."""
    for k in range(len(survivors) - 1, 0, -1):
        if rng.random() < 0.5:
            return survivors[k]
    return survivors[0]


def module4(row: BrickRow, code: Encoding, nfa: AugmentedNfa) -> BrickRow:
    """Write the chosen transition's target code into the z slots and clear
    the chosen flag, restoring the period-boundary format."""
    if any(v != 0 for v in row.z):
        raise NoChoiceMarked("stage-4 input must carry all-zero z slots")
    chosen = [k for k, v in enumerate(row.x) if v != N]
    if len(chosen) != 1 or row.x[chosen[0]] != Y:
        raise NoChoiceMarked(f"expected exactly one chosen slot, got {row.x!r}")
    return boundary_row(code, nfa.transitions[chosen[0]].target)


@dataclass(frozen=True)
class PeriodTrace:
    """Everything one period did: the letter read, the row after each stage,
    the marked row from stage 3's first pass, and the chosen slot (1-based)."""

    letter: str
    after_module1: BrickRow
    after_module2: BrickRow
    marked: BrickRow | None
    after_module3: BrickRow | None
    after_module4: BrickRow | None
    chosen: int | None
    halted: bool


@dataclass(frozen=True)
class RunOutcome:
    """One resolved branch: the states it visited and its per-period traces."""

    accepted: bool
    states: tuple[str, ...]
    traces: tuple[PeriodTrace, ...]
    halt_period: int | None


@dataclass(frozen=True)
class RunResult:
    outcomes: tuple[RunOutcome, ...]
    accepted: bool
    branch_count: int


def _period_shape(n: int, m: int) -> tuple[int, int]:
    # A completed period: 2n + 2m + 2 + 2n zigzags of 2n cells each.
    zigzags = 4 * n + 2 * m + 2
    return zigzags, zigzags * 2 * n


_PeriodTable = Callable[[str, str], list[tuple[PeriodTrace, str | None]]]


def _period_table(nfa: AugmentedNfa, code: Encoding) -> _PeriodTable:
    """A run's period table: (state, letter) -> every (trace, next state)
    pair of that period, in slot order; next state None on halt.

    An entry runs the four stages once, on first use, and every branch that
    reaches it shares its ``PeriodTrace`` objects. Its choices are
    ``module3``'s outcomes. Codes are injective, so a slot survives stage 2
    in one entry only, the one of its transition's origin and letter.
    """

    @functools.cache
    def period(state: str, letter: str) -> list[tuple[PeriodTrace, str | None]]:
        r1 = module1(boundary_row(code, state), code, nfa)
        r2 = module2(r1, code, nfa, letter)
        marked = mark_first_valid(r2)
        if marked is None:
            return [(PeriodTrace(letter, r1, r2, None, None, None, None, True), None)]
        options = []
        for r3 in module3(r2):
            k = r3.x.index(Y)
            trace = PeriodTrace(letter, r1, r2, marked, r3, module4(r3, code, nfa), k + 1, False)
            options.append((trace, nfa.transitions[k].target))
        return options

    return period


def _frontier(table: _PeriodTable, initial: str, letters: Sequence[str]) -> tuple[bool, int]:
    """Enumerate mode's (accepted, branch count) without walking a branch:
    {state: live branch count} carried through the table letter by letter,
    plus the branches that halted on the way."""
    live = {initial: 1}
    halted = 0
    for letter in letters:
        nxt: dict[str, int] = {}
        for state, count in live.items():
            for _, target in table(state, letter):
                if target is None:
                    halted += count
                else:
                    nxt[target] = nxt.get(target, 0) + count
        live = nxt
    alive = sum(live.values())
    return alive > 0, halted + alive


def _walk(
    table: _PeriodTable, initial: str, letters: Sequence[str]
) -> Iterator[tuple[list[PeriodTrace], list[str], bool, int]]:
    """Every terminal branch, in depth-first slot order.

    Yields (traces, states, accepted, kept): the trace of each period run
    and the states visited, one per depth, and how many leading traces are
    unchanged since the previous yield. The walk keeps one iterator per
    depth over that depth's table entry. The lists change once the walk
    resumes, so read them before that.
    """
    traces: list[PeriodTrace] = []
    states = [initial]
    last = len(letters) - 1
    stack = [iter(table(initial, letters[0]))]
    kept = 0
    while stack:
        # The walk enters a depth to take its next option, or to find none
        # and go up; so the shallowest depth entered since the last yield
        # is where the next branch leaves the previous one.
        depth = len(stack) - 1
        if depth < kept:
            kept = depth
        for trace, target in stack[-1]:
            del traces[depth:], states[depth + 1 :]
            traces.append(trace)
            if target is not None:
                states.append(target)
                if depth < last:
                    stack.append(iter(table(target, letters[depth + 1])))
                    break
            yield traces, states, target is not None, kept
            kept = depth
        else:
            stack.pop()


def _sample(
    table: _PeriodTable, initial: str, letters: Sequence[str], rng: random.Random
) -> tuple[list[PeriodTrace], list[str], bool, int]:
    """The one branch that ``_coin_pick`` draws period by period, as
    ``_walk`` would yield it."""
    traces: list[PeriodTrace] = []
    states = [initial]
    state: str | None = initial
    for letter in letters:
        trace, state = _coin_pick(table(state, letter), rng)
        traces.append(trace)
        if state is None:
            return traces, states, False, 0
        states.append(state)
    return traces, states, True, 0


def branches(
    nfa: AugmentedNfa,
    code: Encoding,
    word: Sequence[str],
    mode: str = "enumerate",
    rng: random.Random | int | None = None,
) -> Iterator[tuple[list[PeriodTrace], list[str], bool, int]]:
    """The run's terminal branches as ``_walk`` yields them; in sample mode,
    the one branch ``_sample`` draws.

    The word and mode are checked here, and enumerate mode raises
    BranchBudgetExceeded past ``BRANCH_BUDGET`` branches (counted by the
    frontier) before the first branch is walked.
    """
    letters = nfa.periods(word)
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown run mode {mode!r}")
    table = _period_table(nfa, code)
    if mode == "sample":
        return iter((_sample(table, nfa.initial, letters, _as_rng(rng)),))
    if _frontier(table, nfa.initial, letters)[1] > BRANCH_BUDGET:
        raise BranchBudgetExceeded(f"more than {BRANCH_BUDGET} terminal branches")
    return _walk(table, nfa.initial, letters)


def run_word(
    nfa: AugmentedNfa,
    code: Encoding,
    word: Sequence[str],
    mode: str = "enumerate",
    rng: random.Random | int | None = None,
) -> RunResult:
    """Run the brick machine on ``word`` (the $ period is appended automatically).

    enumerate explores every stage-3 branch and returns all distinct
    outcomes in depth-first slot order, raising BranchBudgetExceeded past
    ``BRANCH_BUDGET`` of them; sample follows a single coin-driven branch.
    A branch accepts iff it survives all len(word) + 1 periods.
    """
    outcomes = tuple(
        RunOutcome(accepted, tuple(states), tuple(traces), None if accepted else len(traces))
        for traces, states, accepted, _ in branches(nfa, code, word, mode, rng)
    )
    return RunResult(outcomes, any(o.accepted for o in outcomes), len(outcomes))


def run_verdict(
    nfa: AugmentedNfa,
    code: Encoding,
    word: Sequence[str],
    mode: str = "enumerate",
    rng: random.Random | int | None = None,
) -> tuple[bool, int]:
    """``run_word``'s (accepted, branch_count) without its outcomes.

    enumerate reads them off the frontier in time linear in the word, with
    no branch budget; sample walks its one branch.
    """
    if mode == "enumerate":
        return _frontier(_period_table(nfa, code), nfa.initial, nfa.periods(word))
    ((_, _, accepted, _),) = branches(nfa, code, word, mode, rng)
    return accepted, 1


def step_count(code: Encoding, word_len: int) -> int:
    """Exact brick-cell count for a word of the given length:
    (t + 1) periods x (4n + 2m + 2) zigzags x 2n cells per zigzag row."""
    if word_len < 0:
        raise ValueError(f"word length must be >= 0, got {word_len}")
    return (word_len + 1) * _period_shape(code.state_bits, code.letter_bits)[1]


def format_report(
    nfa: AugmentedNfa, code: Encoding, word: Sequence[str], result: RunResult
) -> str:
    """Line-oriented run report: every branch, period by period, stage by stage."""
    buf = io.BytesIO()
    runs = ((o.traces, o.states, o.accepted, 0) for o in result.outcomes)
    write_report(buf, nfa, code, word, runs)
    return buf.getvalue().decode("utf-8")


def write_report(
    fh: BinaryIO,
    nfa: AugmentedNfa,
    code: Encoding,
    word: Sequence[str],
    runs: Iterable[tuple[Sequence[PeriodTrace], Sequence[str], bool, int]],
) -> tuple[bool, int]:
    """Write the report of ``runs`` (as ``branches`` yields them) to the
    binary file ``fh`` one branch at a time; return its verdict's
    (accepted, branch count).

    Branches share the period table's ``PeriodTrace`` objects, so each
    distinct trace's block is formatted and encoded once, keyed on ``id``
    (the table or the caller keeps every trace alive meanwhile), and each
    ``  period P`` prefix once per depth. The body holds the encoded
    periods of the current branch; only those past its ``kept`` leading
    periods are looked up again, and a branch is copied once, by one join
    of the body.
    """
    fh.write(f"word: {' '.join(word)} {nfa.dollar}".rstrip().encode() + b"\n")
    blocks: dict[int, bytes] = {}
    prefixes: list[bytes] = []
    # The branch line, then a prefix and a block per period.
    body: list[bytes] = [b""]
    accepted, count = False, 0
    for traces, states, ok, kept in runs:
        count += 1
        accepted = accepted or ok
        body[0] = b"branch %d:\n" % count
        del body[1 + 2 * kept :]
        if len(prefixes) < len(traces):
            prefixes += [b"  period %d" % p for p in range(len(prefixes) + 1, len(traces) + 1)]
        for prefix, trace in zip(prefixes[kept:], traces[kept:]):
            block = blocks.get(id(trace))
            if block is None:
                block = blocks[id(trace)] = _format_period(trace).encode()
            body += (prefix, block)
        tail = b"accepted" if ok else b"halted at period %d" % len(traces)
        body.append(b"  states: %b (%b)\n" % (" -> ".join(states).encode(), tail))
        fh.write(b"".join(body))
        body.pop()
    fh.write(_verdict_line(code, len(word), accepted, count).encode() + b"\n")
    return accepted, count


def _format_period(trace: PeriodTrace) -> str:
    """A period's report lines after its ``  period P`` prefix."""
    text = (
        f" letter={trace.letter}\n"
        f"    module1 {format_row(trace.after_module1)}\n"
        f"    module2 {format_row(trace.after_module2)}\n"
    )
    if trace.halted:
        return text + "    module3 HALT\n"
    return text + (
        f"    module3 mark {format_row(trace.marked)}\n"
        f"    module3 choice f{trace.chosen} {format_row(trace.after_module3)}\n"
        f"    module4 {format_row(trace.after_module4)}\n"
    )


def _verdict_line(code: Encoding, word_len: int, accepted: bool, branch_count: int) -> str:
    verdict = "ACCEPT" if accepted else "REJECT (all branches halted)"
    return f"{verdict} branches={branch_count} steps={step_count(code, word_len)}"
