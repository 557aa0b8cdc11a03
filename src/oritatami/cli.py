"""Command-line front end.

Subcommands:
    fold <system-file> [--mode enumerate|sample|first] [--rng-seed N]
                       [--trace out.tsv] [--svg out.svg]
    run-nfa <nfa-file> --word <letters> [--mode enumerate|sample]
                       [--rng-seed N] [--report out.txt]
    compile <nfa-file> --word <letters> --out <file>
    check-bricks <defs-file> <env-catalog>
    stats <nfa-file> --word-len N

Exit codes: 0 success / ACCEPT, 1 REJECT (or all-branch dead end / closure
failure), 2 input error (including a branch or lookahead budget overrun).
fold enumerate counts its terminals without building them all
(folding.fold_summary): same output and same branch budget
(folding.BRANCH_BUDGET). run-nfa enumerate counts its branches without
listing them, so only with --report does it have that branch budget.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bricks, harness, seed, sysfile
from .folding import BranchBudgetExceeded, LookaheadBudgetExceeded, energy, fold_summary
from .nfa import parse_nfa_file, prepare
from .render import render_svg
from .sysfile import format_seed_stanza, parse_system_file


def _tokenize_word(raw: str, alphabet: tuple[str, ...]) -> list[str]:
    """Split a word argument into letters: whitespace/commas first; a chunk
    that is not itself a letter must have exactly one split into alphabet
    letters, else ValueError."""
    letters: list[str] = []
    for chunk in raw.replace(",", " ").split():
        if chunk in alphabet:
            letters.append(chunk)
        else:
            letters.extend(_split_chunk(chunk, alphabet))
    return letters


def _split_chunk(chunk: str, alphabet: tuple[str, ...]) -> list[str]:
    """The unique split of ``chunk`` into alphabet letters, by dynamic
    programming over suffixes: linear in the chunk length. Each position
    looks up one slice per distinct letter length."""
    n = len(chunk)
    by_length: dict[int, set[str]] = {}
    for letter in alphabet:
        by_length.setdefault(len(letter), set()).add(letter)
    sizes = tuple(by_length.items())
    # ways[k]: splits of chunk[k:], capped at 2; first[k]: a letter starting one.
    ways = [0] * n + [1]
    first: list[str | None] = [None] * n
    for k in range(n - 1, -1, -1):
        total = 0
        for length, letters in sizes:
            # A slice cut short by the chunk's end is no letter of its length.
            letter = chunk[k : k + length]
            if letter in letters:
                more = ways[k + length]
                if more:
                    total += more
                    first[k] = letter
        ways[k] = total if total < 2 else 2
    if ways[0] == 0:
        raise ValueError(f"cannot split {chunk!r} into alphabet letters")
    if ways[0] > 1:
        raise ValueError(f"{chunk!r} splits into alphabet letters in more than one way")
    letters: list[str] = []
    k = 0
    while k < n:
        letters.append(first[k])
        k += len(first[k])
    return letters


def _cmd_fold(args) -> int:
    system = parse_system_file(args.system)
    terminals, completed, first = fold_summary(system, args.mode, rng=args.rng_seed)
    # The files come first, so a failed write leaves stdout empty.
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(sysfile.format_trace(first.conformation, len(system.seed)))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(first.conformation))
    print(f"terminal conformations: {terminals}")
    print(f"completed: {completed}")
    print(f"energy of first terminal: {energy(first.conformation)}")
    return 0 if completed else 1


def _load_machine(path: str):
    """The augmented machine and its encoding, read from an NFA file."""
    return prepare(*parse_nfa_file(path))


# Report pieces are a few kB each; a large buffer writes them in few calls.
_REPORT_BUFFER = 1 << 18


def _cmd_run_nfa(args) -> int:
    machine, code = _load_machine(args.nfa)
    word = _tokenize_word(args.word, machine.alphabet)
    if args.report:
        # The word, mode and branch budget are checked before the file opens.
        runs = bricks.branches(machine, code, word, mode=args.mode, rng=args.rng_seed)
        with open(args.report, "wb", buffering=_REPORT_BUFFER) as fh:
            accepted, count = bricks.write_report(fh, machine, code, word, runs)
    else:
        accepted, count = bricks.run_verdict(machine, code, word, args.mode, args.rng_seed)
    print(bricks._verdict_line(code, len(word), accepted, count))
    return 0 if accepted else 1


def _cmd_compile(args) -> int:
    machine, code = _load_machine(args.nfa)
    word = _tokenize_word(args.word, machine.alphabet)
    arms = seed.layout(machine, code, word)
    header = (
        f"# seed for {len(machine.transitions)}-slot machine, "
        f"word of {len(word)} letters plus end marker\n"
        f"# horizontal arm {len(arms.horizontal)} beads, "
        f"vertical arm {len(arms.vertical)} beads\n"
    )
    stanza = format_seed_stanza(arms)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(header)
        fh.write(stanza)
    print(f"wrote {len(arms.vertical) + len(arms.horizontal)} seed beads to {args.out}")
    return 0


def _cmd_check_bricks(args) -> int:
    with open(args.defs, "r", encoding="utf-8") as fh:
        defs = harness.parse_submodules(fh.read())
    with open(args.catalog, "r", encoding="utf-8") as fh:
        envs = harness.parse_environments(fh.read())
    try:
        auto = harness.explore_closure(defs, envs)
    except harness.ClosureViolation as exc:
        print(f"closure violation: {exc}", file=sys.stderr)
        return 1
    print(harness.format_automaton(auto), end="")
    if auto.failures:
        return 1
    print(f"closed: {len(auto.environments)} environments, {len(auto.transitions)} transitions")
    return 0


def _cmd_stats(args) -> int:
    _, code = _load_machine(args.nfa)
    n, m = code.state_bits, code.letter_bits
    zigzags, cells = bricks._period_shape(n, m)
    total = bricks.step_count(code, args.word_len)
    print(f"transitions (n): {n}")
    print(f"letter bits (m): {m}")
    print(f"periods: {args.word_len + 1}")
    print(f"zigzags per period: {zigzags}")
    print(f"cells per zigzag row: {cells // zigzags}")
    print(f"total cells: {total}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="oritatami",
        description="Fold oritatami systems and run the brick-level automaton architecture.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", help="fold a system file")
    p.add_argument("system")
    p.add_argument("--mode", choices=("enumerate", "sample", "first"), default="enumerate")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--trace", help="write a TSV fold trace here")
    p.add_argument("--svg", help="write an SVG drawing here")
    p.set_defaults(func=_cmd_fold)

    p = sub.add_parser("run-nfa", help="run the brick machine on a word")
    p.add_argument("nfa")
    p.add_argument("--word", default="")
    p.add_argument("--mode", choices=("enumerate", "sample"), default="enumerate")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--report", help="write the full run report here "
                   f"(enumerate: at most {bricks.BRANCH_BUDGET:,} branches)")
    p.set_defaults(func=_cmd_run_nfa)

    p = sub.add_parser("compile", help="emit the Gamma-seed stanza for a machine and word")
    p.add_argument("nfa")
    p.add_argument("--word", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("check-bricks", help="fold submodules in declared environments")
    p.add_argument("defs")
    p.add_argument("catalog")
    p.set_defaults(func=_cmd_check_bricks)

    p = sub.add_parser("stats", help="print the brick-cell count for a word length")
    p.add_argument("nfa")
    p.add_argument("--word-len", type=int, required=True)
    p.set_defaults(func=_cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes.
        return 2 if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ValueError, OSError, BranchBudgetExceeded, LookaheadBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
