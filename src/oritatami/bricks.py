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
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

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
_T = TypeVar("_T")


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
        if any(v not in (N, Y, YP) for v in self.x):
            raise ValueError(f"bad x values in {self.x!r}")
        if any(v not in (0, 1, None) for v in self.z):
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


def _one_hot(n: int, k: int) -> BrickRow:
    return BrickRow(tuple(Y if i == k else N for i in range(n)), (0,) * n)


def module3(
    row: BrickRow, mode: str = "enumerate", rng: random.Random | int | None = None
) -> tuple[BrickRow | _Halt, ...]:
    """Nondeterministic choice among surviving slots.

    enumerate returns one outcome per survivor (exactly one Y, z reset to 0),
    in slot order, or (HALT,) when none survived. coin returns a single
    outcome drawn with the brick-level coin semantics.
    """
    outcomes = tuple(_one_hot(row.n, k) for k, v in enumerate(row.x) if v == Y)
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
    k = chosen[0]
    bits = code.state_code[nfa.transitions[k].target]
    return BrickRow((N,) * row.n, tuple(int(ch) for ch in bits))


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


def _run_period(
    nfa: AugmentedNfa, code: Encoding, state: str, letter: str
) -> list[tuple[PeriodTrace, str | None]]:
    """All (trace, next state) pairs for one period, in slot order; next
    state None on halt."""
    r1 = module1(boundary_row(code, state), code, nfa)
    r2 = module2(r1, code, nfa, letter)
    marked = mark_first_valid(r2)
    outcomes: list[tuple[PeriodTrace, str | None]] = []
    if marked is None:
        return [(PeriodTrace(letter, r1, r2, None, None, None, None, True), None)]
    for r3 in module3(r2):
        k = r3.x.index(Y)
        r4 = module4(r3, code, nfa)
        trace = PeriodTrace(letter, r1, r2, marked, r3, r4, k + 1, False)
        outcomes.append((trace, nfa.transitions[k].target))
    return outcomes


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
    for letter in word:
        if letter not in nfa.alphabet:
            raise ValueError(f"letter {letter!r} is not in the input alphabet")
    if mode not in ("enumerate", "sample"):
        raise ValueError(f"unknown run mode {mode!r}")
    rng = _as_rng(rng)
    letters = list(word) + [nfa.dollar]
    periods: dict[tuple[str, str], list[tuple[PeriodTrace, str | None]]] = {}
    outcomes: list[RunOutcome] = []
    # A branch is a chain of (state, trace, parent) links back to the
    # initial state; the state is None once the branch halted. The stack
    # holds (periods run, chain) pairs still to extend, in depth-first order.
    stack: list[tuple[int, tuple]] = [(0, (nfa.initial, None, None))]
    while stack:
        depth, link = stack.pop()
        state = link[0]
        if state is None or depth == len(letters):
            if len(outcomes) >= BRANCH_BUDGET:
                raise BranchBudgetExceeded(f"more than {BRANCH_BUDGET} terminal branches")
            outcomes.append(_unwind(link, depth))
            continue
        key = (state, letters[depth])
        if key not in periods:
            periods[key] = _run_period(nfa, code, state, letters[depth])
        options = periods[key]
        if mode == "sample":
            options = [_coin_pick(options, rng)]
        stack.extend((depth + 1, (nxt, trace, link)) for trace, nxt in reversed(options))
    return RunResult(tuple(outcomes), any(o.accepted for o in outcomes), len(outcomes))


def _unwind(link: tuple, depth: int) -> RunOutcome:
    """The outcome of the branch whose chain ends in ``link``."""
    accepted = link[0] is not None
    states: list[str] = []
    traces: list[PeriodTrace] = []
    while link is not None:
        state, trace, link = link
        if state is not None:
            states.append(state)
        if trace is not None:
            traces.append(trace)
    states.reverse()
    traces.reverse()
    return RunOutcome(accepted, tuple(states), tuple(traces), None if accepted else depth)


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
    return "".join(_report_chunks(nfa, code, word, result))


def _report_chunks(
    nfa: AugmentedNfa, code: Encoding, word: Sequence[str], result: RunResult
) -> Iterator[str]:
    """``format_report``'s text in pieces: the header line, one piece per
    branch, then the verdict.

    Branches share the ``PeriodTrace`` objects of ``run_word``'s period
    table, so each distinct trace is formatted once, keyed on its ``id``
    (``result`` keeps every trace alive while the pieces are made).
    """
    yield f"word: {' '.join(word)} {nfa.dollar}".rstrip() + "\n"
    blocks: dict[int, str] = {}
    for b, outcome in enumerate(result.outcomes, 1):
        piece = [f"branch {b}:\n"]
        for p, trace in enumerate(outcome.traces, 1):
            block = blocks.get(id(trace))
            if block is None:
                block = blocks[id(trace)] = _format_period(trace)
            piece.append(f"  period {p}{block}")
        tail = "accepted" if outcome.accepted else f"halted at period {outcome.halt_period}"
        piece.append(f"  states: {' -> '.join(outcome.states)} ({tail})\n")
        yield "".join(piece)
    yield format_verdict(code, word, result) + "\n"


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


def format_verdict(code: Encoding, word: Sequence[str], result: RunResult) -> str:
    """The run's one-line verdict: the last line of ``format_report``."""
    verdict = "ACCEPT" if result.accepted else "REJECT (all branches halted)"
    cells = step_count(code, len(word))
    return f"{verdict} branches={result.branch_count} steps={cells}"
