"""Fold a fixed corpus of systems and print one digest of every result.

Run it with one or more lookahead budgets:

    python3 tests/fold_corpus.py 100000 20 60

The corpus is the benchmark's random-fold pool (``perfbench.inputs.
random_system(0..399)``), the glider at delay 3 (1, 5 and 10 periods), 4 (2
and 3), 5 (2) and 6 (1 period), plain and mirrored, and 300 systems from
``oracles.random_system(Random(5), max_delay=5, max_arity=3)``. At each
``LOOKAHEAD_BUDGET`` it runs ``fold_summary`` in enumerate mode at branch
budgets 10,000 and 50, then in first mode and in sample mode (rng 5), and
records each result or error message. It prints the digest of all of them,
then one ``digest@<budget>`` line per lookahead budget, over that budget's
results alone: a change to the search order moves the rows of a budget that
some searches pass, and leaves the others.

Then it runs ``run-nfa`` in process on the brick cases and prints their
digest on a second line, ``bricks <digest>``, over each run's exit code,
stdout, stderr and report bytes. The cases are the doubling machine (every
letter doubles the branches) at 14 and 1,000 letters, in enumerate mode
without and with ``--report`` (both past the branch budget) and in sample
mode, and 200 machines from ``oracles.random_nfa(Random(26))``, each with a
word of 0-10 letters, in enumerate and sample mode with ``--report``.

A third line, ``seed <digest>``, covers the paper's pipeline: ``compile``
in process of the word ``100`` 1,000 times on ``demos/branching.nfa`` and of 50
machines from ``oracles.random_nfa(Random(28))``, each with a word of 0-40
letters (each run's exit code, stdout and file bytes), then ``fold_summary``
of the compiled 1,000-letter word under ``PIPELINE_HEAD`` (4,782
terminals, 4,706 completed), at the default lookahead budget and before any
call is counted. The compile, parse and fold times of the 1,000-letter word
are printed beside it.

Last come the counts of how often each part of the fold corpus called
``_Fold.placements`` (the neighbour scans that list partners),
``_Fold.push``, ``_Fold.ways``, ``_Lookahead.minimizers`` (the table
lookups), ``_Lookahead._search`` and ``_Lookahead._spend`` in each run.

Two versions of the engine fold the corpus alike if they print the same
digest, run the machines alike if they print the same ``bricks`` digest,
and compile and fold the pipeline alike if they print the same ``seed``
digest. The call counts show where folds differ in work. The script sets no
gate, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(ROOT / "tests")]

import oracles  # noqa: E402
from oritatami import cli, folding  # noqa: E402
from oritatami.folding import _Fold, _Lookahead, fold_summary  # noqa: E402
from oritatami.sysfile import parse_system  # noqa: E402
from perfbench.inputs import glider, random_system  # noqa: E402

GLIDERS = ((3, 1), (3, 5), (3, 10), (4, 2), (4, 3), (5, 2), (6, 1))
RUNS = (("enumerate", 10_000), ("enumerate", 50), ("first", None), ("sample", None))
BRANCHING = ROOT / "demos" / "branching.nfa"
PIPELINE_HEAD = "delay 3\narity 2\nrule a 625\nrule b 624\nrule a 505\nrule c 623\n" + "transcript a b c\n" * 4
COUNTED = ((_Fold, "placements"), (_Fold, "push"), (_Fold, "ways"), (_Lookahead, "minimizers"),
           (_Lookahead, "_search"), (_Lookahead, "_spend"))


def corpus() -> dict[str, list]:
    rng = random.Random(5)
    return {
        "pool": [random_system(k) for k in range(400)],
        "gliders": [glider(d, p, m) for d, p in GLIDERS for m in (False, True)],
        "oracles": [oracles.random_system(rng, max_delay=5, max_arity=3) for _ in range(300)],
    }


def outcome_text(outcome) -> str:
    c = outcome.conformation
    return repr((c.path, c.beads, sorted(c.bonds), outcome.completed))


def result_text(system, mode: str, budget: int | None) -> str:
    try:
        if mode == "enumerate":
            total, completed, first = fold_summary(system, mode, branch_budget=budget)
        else:
            total, completed, first = fold_summary(system, mode, rng=5)
    except (folding.BranchBudgetExceeded, folding.LookaheadBudgetExceeded) as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{total} {completed} {outcome_text(first)}"


def brick_cases() -> list[tuple[str, list[str], bool]]:
    """Each brick case as (NFA file text, run-nfa options, with a report)."""
    cases = []
    for letters in (14, 1000):
        word = ["--word", "a" * letters]
        doubling = oracles.DOUBLING_NFA
        cases += [(doubling, word, False), (doubling, word, True),
                  (doubling, [*word, "--mode", "sample", "--rng-seed", "5"], True)]
    rng = random.Random(26)
    for _ in range(200):
        nfa = oracles.random_nfa(rng)
        word = " ".join(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 10)))
        seed = str(rng.randrange(1000))
        for mode in ("enumerate", "sample"):
            cases.append((oracles.nfa_text(nfa), ["--word", word, "--mode", mode, "--rng-seed", seed], True))
    return cases


def bricks_digest() -> str:
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        machine, report = Path(tmp, "m.nfa"), Path(tmp, "run.txt")
        for text, options, with_report in brick_cases():
            machine.write_text(text)
            report.unlink(missing_ok=True)
            argv = ["run-nfa", str(machine), *options] + (["--report", str(report)] if with_report else [])
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            written = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else "-"
            digest.update(f"{text!r} {options} {code} {out.getvalue()!r} {err.getvalue()!r} {written}\n".encode())
    return digest.hexdigest()[:16]


def seed_line() -> str:
    """The ``seed`` digest line, with the 1,000-letter pipeline's times."""
    digest = hashlib.sha256()
    rng = random.Random(28)
    with tempfile.TemporaryDirectory() as tmp:
        machine, out = Path(tmp, "m.nfa"), Path(tmp, "seed.sys")

        def compile_bytes(nfa: str, word: str) -> str:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(["compile", nfa, "--word", word, "--out", str(out)])
            text = out.read_text(encoding="utf-8")
            digest.update(f"{word!r} {code} {stdout.getvalue().replace(str(out), 'OUT')!r} {text!r}\n".encode())
            return text

        start = time.perf_counter()
        text = compile_bytes(str(BRANCHING), " ".join(["100"] * 1000))
        compiled = time.perf_counter()
        for _ in range(50):
            nfa = oracles.random_nfa(rng)
            machine.write_text(oracles.nfa_text(nfa))
            compile_bytes(str(machine), " ".join(rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 40))))
    parse_start = time.perf_counter()
    system = parse_system(PIPELINE_HEAD + text)
    parsed = time.perf_counter()
    total, completed, first = fold_summary(system)
    folded = time.perf_counter()
    digest.update(f"{total} {completed} {outcome_text(first)}\n".encode())
    times = f"compile {compiled - start:.3f} s, parse {parsed - parse_start:.3f} s, fold {folded - parsed:.3f} s"
    return f"seed {digest.hexdigest()[:16]}\t({times})"


def main(argv: list[str]) -> int:
    budgets = [int(a) for a in argv] or [folding.LOOKAHEAD_BUDGET]
    seed = seed_line()
    parts = corpus()
    digest = hashlib.sha256()
    each = {budget: hashlib.sha256() for budget in budgets}
    rows = []
    with oracles.counting(Counter(), COUNTED) as calls:
        for budget in budgets:
            folding.LOOKAHEAD_BUDGET = budget
            for mode, branches in RUNS:
                for part, systems in parts.items():
                    calls.clear()
                    for system in systems:
                        line = f"{budget} {mode} {branches} {result_text(system, mode, branches)}\n".encode()
                        digest.update(line)
                        each[budget].update(line)
                    run = f"{mode} {branches}" if branches else mode
                    rows.append((budget, run, part, *(calls[f"{c.__name__}.{n}"] for c, n in COUNTED)))
    print(f"digest {digest.hexdigest()[:16]}")
    for budget, budget_digest in each.items():
        print(f"digest@{budget} {budget_digest.hexdigest()[:16]}")
    print(f"bricks {bricks_digest()}")
    print(seed)
    header = ("lookahead", "run", "part", *(f"{c.__name__}.{n}" for c, n in COUNTED))
    print("\t".join(header))
    for row in rows:
        print("\t".join(map(str, row)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
