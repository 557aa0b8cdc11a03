"""Time the fold engine, the brick check, the parser and the ``fold``,
``run-nfa`` and ``compile`` commands of two source trees side by side, in
one process.

    python3 tests/inprocess_ab.py PARENT_TREE [CHANGE_TREE] [--case NAME ...]
        [--rounds N] [--folds N]

A tree is a directory holding ``src/oritatami``, such as a checkout or
``git archive REV | tar -x -C DIR``. ``CHANGE_TREE`` defaults to the tree
holding this script. The modules of ``src/oritatami`` import each other
relatively, so each tree loads as a package of its own, ``ori_parent`` and
``ori_change``, and the two are timed call by call in the same interpreter.
Separate processes drift further apart than the gaps this has to show.

A glider case is ``fold_summary`` of the glider at one delay, number of
periods and mode, plain or mirrored, built from each tree's own fixtures.
A ``bricks`` case is ``check-bricks`` without the file reading:
``explore_closure`` plus ``format_automaton``, on the demo ``gspacer``
files (``bricks-demo``) or on a built catalog of 1,002 environments over
501 two-bead submodules (``bricks-1002``). The ``pool`` case is
``fold_summary`` in enumerate mode over every 10th member of the
benchmark's random-fold pool (``POOL``, from ``perfbench.inputs``), each
system rebuilt from the tree's own classes. The ``free`` case is
``fold_summary`` in first mode of ``FREE``, a bond-free transcript of
20,000 beads at delay 10,000 from one seed bead, where no search has
headroom. The ``parse`` and ``pipeline`` cases take the paper's
compile-then-fold pipeline as ``tests/fold_corpus.py`` builds it: each
tree's ``compile`` of ``PIPELINE_LETTERS`` (1,000) letters ``100`` on
``demos/branching.nfa``, untimed, under ``PIPELINE_HEAD``. ``parse`` times
``parse_system`` of that text; ``pipeline`` times ``fold_summary`` of the
system, parsed once and untimed. The ``run-nfa``, ``compile``,
``fold-glider`` and ``fold-pool`` cases run the benchmark's own commands
through each tree's ``cli.main``: ``RUN_NFA_OPS``, every 10th member of the
``nfa-enum`` and ``nfa-sample`` pools with ``--report``; ``COMPILE_OPS``,
every 10th member of the ``compile`` pool; and ``GLIDER_FOLD_OPS`` and
``POOL_FOLD_OPS``, ``fold`` with ``--trace`` and ``--svg`` on seven gliders
and on every 20th member of the random-fold pool. Each op runs in a
temporary directory holding its input files; their exit codes, stdout,
stderr and written files must match byte for byte. Before anything is
timed, both trees run every case and the results must be equal. Then each
of ``--rounds`` rounds times every case on both sides, with the side that
goes first alternating from round to round; a side's time for a case in a
round is the least of ``--folds`` calls. The script prints, per case, each
side's least time over all rounds, the median of its per-round times, and
the ratio of the change's least time to the parent's. Beside them it prints
each side's work: the lookahead searches (``_Lookahead._search``), bead
pushes (``_Fold.push``) and budget units (``_Lookahead._spend``: pushes below
a search's root, choices scored in place and pushes of the count below the
tail node) of one more call, made with all three counted after the results
are compared and outside the timing. It sets no gate, and pytest
does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from collections import Counter
from itertools import chain, zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import oracles  # noqa: E402
from fold_corpus import BRANCHING, PIPELINE_HEAD  # noqa: E402
from perfbench import inputs  # noqa: E402

SIDES = ("ori_parent", "ori_change")
# (delay, periods, mode): delays 3 and 4 in enumerate mode and 5 in first
# mode, as the bench folds them, at lengths where the lookahead table
# answers most steps (d3 p10, p40) and where it answers few (d4, d5).
GLIDERS = ((3, 1, "enumerate"), (3, 10, "enumerate"), (3, 40, "enumerate"), (4, 3, "enumerate"),
           (5, 3, "first"))


def result_text(result) -> str:
    """A fold_summary result as text, equal across the two packages."""
    total, completed, first = result
    c = first.conformation
    return repr((total, completed, c.path, c.beads, sorted(c.bonds), first.completed))


def glider_case(delay: int, periods: int, mirrored: bool, mode: str):
    """A case folding the glider: for a package, a call and its result as text."""

    def build(package):
        folding = package.folding
        base = package.fixtures.glider_system(periods, mirrored=mirrored)
        system = folding.OritatamiSystem(base.rules, base.arity, delay, base.seed, base.transcript)
        return lambda: folding.fold_summary(system, mode), result_text

    return build


STRATA = inputs.load_reference()["strata"]


def every_10th(pool: str) -> list[int]:
    """Every 10th member of a benchmark pool, in index order."""
    return sorted(chain.from_iterable(STRATA[pool]))[::10]


POOL = every_10th("random-fold")


def pool_case(package):
    """A case folding ``POOL``: for a package, a call and its results as text."""
    folding = package.folding
    systems = []
    for index in POOL:
        base = inputs.random_system(index)
        seed = folding.Conformation.build(base.seed.path, base.seed.beads, base.seed.bonds)
        rules = folding.RuleSet(base.rules.pairs)
        systems.append(folding.OritatamiSystem(rules, base.arity, base.delay, seed, base.transcript))
    return lambda: [folding.fold_summary(system, "enumerate") for system in systems], results_text


def results_text(results) -> str:
    return "\n".join(map(result_text, results))


# The bond-free fold: its delay and its number of transcript beads.
FREE = (10_000, 20_000)


def free_case(package):
    """A case folding ``FREE`` in first mode: for a package, a call and its
    result as text."""
    folding = package.folding
    delay, beads = FREE
    seed = folding.Conformation.build([(0, 0)], ["s"])
    system = folding.OritatamiSystem(folding.RuleSet(), 1, delay, seed, ("a",) * beads)
    return lambda: folding.fold_summary(system, "first"), result_text


# The number of letters ``100`` in the pipeline's compiled word.
PIPELINE_LETTERS = 1000


def pipeline_text(package) -> str:
    """``PIPELINE_HEAD`` over the package's own ``compile`` of
    ``PIPELINE_LETTERS`` letters ``100`` on ``demos/branching.nfa``."""
    word = " ".join(["100"] * PIPELINE_LETTERS)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "seed.sys")
        with contextlib.redirect_stdout(io.StringIO()):
            code = package.cli.main(["compile", str(BRANCHING), "--word", word, "--out", str(out)])
        if code:
            raise RuntimeError(f"compile exited with {code}")
        return PIPELINE_HEAD + out.read_text(encoding="utf-8")


def parse_case(package):
    """A case parsing the compiled seed: for a package, a call and its
    result as text."""
    text, sysfile = pipeline_text(package), package.sysfile
    return lambda: sysfile.parse_system(text), sysfile.format_system


def pipeline_case(package):
    """A case folding the compiled seed, parsed once and untimed: for a
    package, a call and its result as text."""
    system = package.sysfile.parse_system(pipeline_text(package))
    return lambda: package.folding.fold_summary(system), result_text


# The benchmark's ops that the command cases run: every 10th member of the
# ``nfa-enum`` and ``nfa-sample`` pools as ``run-nfa`` with ``--report``, and
# of the ``compile`` pool.
RUN_NFA_OPS = [inputs.run_nfa_op(pool, index) for pool in ("nfa-enum", "nfa-sample")
               for index in every_10th(pool)]
COMPILE_OPS = [inputs.compile_op(index) for index in every_10th("compile")]
# The benchmark's ``fold`` ops, each writing its ``--trace`` and ``--svg``
# files: the glider at delay 3 with 6, 8 and 10 periods, plain and
# mirrored, and at delay 4 with 3 periods; and every 20th member of the
# random-fold pool.
GLIDER_FOLD_OPS = [*(inputs.glider_op(3, periods, mirrored) for periods in (6, 8, 10)
                     for mirrored in (False, True)), inputs.glider_op(4, 3, False)]
POOL_FOLD_OPS = [inputs.random_fold_op(index) for index in POOL[::2]]


def command_case(package, ops):
    """A case running ``ops`` through the package's ``cli.main``, each in a
    directory of its own that holds the op's input files, so that its paths
    and stdout read the same on both sides: for a package, a call giving each
    op's exit code, stdout and stderr, and a text adding the bytes of every
    file the op wrote."""
    work = tempfile.TemporaryDirectory()  # removed once the call is dropped
    for op in ops:
        for name in (*op.inputs, *op.outputs):
            Path(work.name, op.key, name).parent.mkdir(parents=True, exist_ok=True)
        for name, text in op.inputs.items():
            Path(work.name, op.key, name).write_text(text, encoding="utf-8")

    def call():
        results = []
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.chdir(Path(work.name, op.key)), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = package.cli.main(op.argv)
            results.append((code, out.getvalue(), err.getvalue()))
        return results

    def text(results) -> str:
        return "\n".join(
            repr((op.key, *result, [Path(work.name, op.key, name).read_bytes() for name in op.outputs]))
            for op, result in zip(ops, results))

    return call, text


def run_nfa_case(package):
    return command_case(package, RUN_NFA_OPS)


def compile_case(package):
    return command_case(package, COMPILE_OPS)


def fold_glider_case(package):
    return command_case(package, GLIDER_FOLD_OPS)


def fold_pool_case(package):
    return command_case(package, POOL_FOLD_OPS)


def demo_catalog(package):
    """The demo ``gspacer`` submodule and its two band environments."""
    harness = package.harness
    demos = ROOT / "demos"
    return (harness.parse_submodules((demos / "gspacer.defs").read_text()),
            harness.parse_environments((demos / "gspacer_bands.cat").read_text()))


def wide_catalog(package):
    """501 two-bead submodules whose b bonds back to the seed, each in a T
    and a B environment: 1,002 environments, every one exiting at T."""
    harness, folding = package.harness, package.folding
    seed = folding.Conformation.build([(0, 0), (1, 0)], ["s", "s"])
    rules = folding.RuleSet([("b", "s")])
    defs = {f"m{k}": harness.SubmoduleDef(f"m{k}", ("a", "b"), rules, 1, 1, deterministic=False)
            for k in range(501)}
    envs = [harness.Environment(f"m{k}{h}", seed, h, "0", f"m{k}") for k in range(501) for h in "TB"]
    return defs, envs


def bricks_case(catalog):
    """A case checking the bricks of ``catalog(package)``: for a package, a
    call giving the ``check-bricks`` report, which is its own text."""

    def build(package):
        defs, envs = catalog(package)
        harness = package.harness
        return lambda: harness.format_automaton(harness.explore_closure(defs, envs)), str

    return build


CASES = {
    f"d{delay}p{periods}{'-mirrored' if mirrored else ''}{'-first' if mode == 'first' else ''}":
        glider_case(delay, periods, mirrored, mode)
    for delay, periods, mode in GLIDERS
    for mirrored in (False, True)
}
CASES["pool"] = pool_case
CASES["free"] = free_case
CASES["parse"] = parse_case
CASES["pipeline"] = pipeline_case
CASES["run-nfa"] = run_nfa_case
CASES["compile"] = compile_case
CASES["fold-glider"] = fold_glider_case
CASES["fold-pool"] = fold_pool_case
CASES["bricks-demo"] = bricks_case(demo_catalog)
CASES["bricks-1002"] = bricks_case(wide_catalog)


def load(name: str, tree: Path):
    """The package ``src/oritatami`` of ``tree``, imported as ``name``,
    with its ``folding``, ``fixtures``, ``harness``, ``sysfile`` and ``cli``
    modules loaded."""
    package = tree / "src" / "oritatami"
    for loaded in [key for key in sys.modules if key.partition(".")[0] == name]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for part in ("folding", "fixtures", "harness", "sysfile", "cli"):
        importlib.import_module(f"{name}.{part}")
    return module


def least_time(call, folds: int) -> float:
    gc.collect()
    best = float("inf")
    for _ in range(folds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def work(package, call) -> tuple[int, int, int]:
    """The searches, pushes and budget units of one call of ``call``,
    counted on the classes of ``package``'s ``folding``."""
    lookahead, fold = package.folding._Lookahead, package.folding._Fold
    counted = ((lookahead, "_search"), (fold, "push"), (lookahead, "_spend"))
    with oracles.counting(Counter(), counted) as made:
        call()
    return tuple(made[f"{cls.__name__}.{name}"] for cls, name in counted)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="a case to time; repeat for more (default: every case)")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--folds", type=int, default=20)
    args = parser.parse_args(argv)
    names = args.case or list(CASES)
    packages = [load(side, tree.resolve()) for side, tree in zip(SIDES, (args.parent, args.change))]
    built = {name: [CASES[name](package) for package in packages] for name in names}
    for name, pair in built.items():
        texts = [text(call()) for call, text in pair]
        if texts[0] != texts[1]:
            lines = zip_longest(*(text.splitlines() for text in texts), fillvalue="")
            parent, change = next(((a, b) for a, b in lines if a != b), texts)
            print(f"{name}: the trees differ\n  parent {parent[:300]}\n  change {change[:300]}")
            return 1
    calls = {name: [call for call, _ in pair] for name, pair in built.items()}
    made = {name: [work(package, call) for package, call in zip(packages, pair)]
            for name, pair in calls.items()}
    times = {name: ([], []) for name in names}
    for round_ in range(args.rounds):
        order = (0, 1) if round_ % 2 == 0 else (1, 0)
        for name, pair in calls.items():
            for side in order:
                times[name][side].append(least_time(pair[side], args.folds))
    print(f"{args.rounds} rounds, least of {args.folds} calls each; times in ms")
    print("case\tparent\tparent median\tchange\tchange median\tratio"
          "\tparent searches\tparent pushes\tparent units\tchange searches\tchange pushes\tchange units")
    for name, (parent, change) in times.items():
        ratio = min(change) / min(parent)
        cells = [min(parent), statistics.median(parent), min(change), statistics.median(change)]
        counts = [str(n) for side in made[name] for n in side]
        print("\t".join([name, *(f"{1000 * t:.2f}" for t in cells), f"{ratio:.3f}", *counts]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
