"""The traced run: per-layer spans and counts, recorded from this file.

Nothing in ``src/`` is instrumented. For each op of the traced subset the
untraced CLI latency is measured first; then the op is replayed here as the
sequence of public calls the CLI makes for it, each call wrapped in a span
named after its layer, under one root span per op. Two further replays
yield per-step and per-stage timings:

- a fold's reported conformation is replayed one ``stabilize_next`` call
  per stabilized bead, which also checks that each bead took an argmin
  choice and counts choices, ties and argmin sizes;
- every period of a sample-mode run is replayed through ``module1`` ...
  ``module4``, which also checks the rows against the run's own trace.

``grid`` runs only inside ``folding`` and ``sysfile`` calls and ``fixtures``
is data, so neither gets a span of its own.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from oritatami import bricks, folding, harness, nfa, seed, sysfile
from oritatami.folding import Conformation
from oritatami.render import render_svg  # the package re-exports a function named render

from checks import CheckFailed
from core import p90
from inputs import Op

NO_SPAN = {
    "grid": "runs only inside folding and sysfile calls",
    "fixtures": "holds data; the benchmark builds inputs from it during set-up",
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name\tstart_s\tend_s\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


COUNTS = (  # deterministic per-layer counts, summed over the traced ops
    "folding.steps", "folding.choices", "folding.tie_steps", "folding.dead_ends",
    "folding.terminals", "render.svg_bytes", "bricks.branches", "bricks.halted_branches",
    "bricks.trace_periods", "bricks.report_bytes", "seed.beads", "harness.environments",
    "harness.failures",
)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _replay_fold(op: Op, tr: Tracer, counts: Counter) -> None:
    path = op.argv[1]
    with tr.span("op.fold"):
        system = tr.call("sysfile.parse_system", sysfile.parse_system_file, path)
        outcomes = tr.call("folding.fold_all", folding.fold_all, system, op.meta["mode"], rng=0)
        first = outcomes[0].conformation
        text = tr.call("sysfile.format_trace", sysfile.format_trace, first, len(system.seed))
        _write("out/fold.tsv", text)
        svg = tr.call("render.svg", render_svg, first)
        _write("out/fold.svg", svg)
    counts["folding.terminals"] += len(outcomes)
    counts["folding.dead_ends"] += sum(not o.completed for o in outcomes)
    counts["render.svg_bytes"] += len(svg.encode())

    seed_len = len(system.seed)
    for i in range(len(first) - seed_len):
        end = seed_len + i
        prefix = Conformation(
            first.path[:end], first.beads[:end], frozenset(b for b in first.bonds if b[1] < end)
        )
        bead = system.transcript[i]
        choices = folding.elongations(prefix, bead, system.rules, system.arity)
        argmin = tr.call("folding.stabilize_next", folding.stabilize_next, system, prefix, i)
        taken = folding.StabilizationChoice(
            first.path[end], tuple(sorted(a for a, b in first.bonds if b == end))
        )
        if taken not in argmin:
            raise CheckFailed(f"{op.key}: bead {end + 1} did not take an argmin choice")
        counts["folding.steps"] += 1
        counts["folding.choices"] += len(choices)
        counts["folding.argmin_total"] += len(argmin)
        counts["folding.tie_steps"] += len(argmin) > 1


def _parse_and_prepare(op: Op, tr: Tracer):
    machine, state_codes, letter_codes = tr.call("nfa.parse", nfa.parse_nfa_file, op.argv[1])
    return tr.call("nfa.prepare", nfa.prepare, machine, state_codes, letter_codes)


def _replay_run_nfa(op: Op, tr: Tracer, counts: Counter) -> None:
    word = list(op.meta["word"])
    mode, rng_seed = op.meta["mode"], op.meta["rng_seed"]
    with tr.span("op.run_nfa"):
        machine, code = _parse_and_prepare(op, tr)
        result = tr.call("bricks.run_word", bricks.run_word, machine, code, word,
                         mode=mode, rng=rng_seed if mode == "sample" else 0)
        report = tr.call("bricks.format_report", bricks.format_report, machine, code, word, result)
        _write("out/run.txt", report)
    tr.call("nfa.oracle", nfa.oracle_accepts, op.meta["machine"], word)
    counts["bricks.branches"] += result.branch_count
    counts["bricks.halted_branches"] += sum(o.halt_period is not None for o in result.outcomes)
    counts["bricks.accepting"] += sum(o.accepted for o in result.outcomes)
    counts["bricks.trace_periods"] += sum(len(o.traces) for o in result.outcomes)
    counts["bricks.report_bytes"] += len(report.encode())
    if mode != "sample":
        return
    rng = random.Random(rng_seed)
    outcome = result.outcomes[0]
    for state, trace in zip(outcome.states, outcome.traces):
        row = bricks.boundary_row(code, state)
        r1 = tr.call("bricks.module1", bricks.module1, row, code, machine)
        r2 = tr.call("bricks.module2", bricks.module2, r1, code, machine, trace.letter)
        tr.call("bricks.module3", bricks.module3, r2, "coin", rng)
        if (r1, r2) != (trace.after_module1, trace.after_module2):
            raise CheckFailed(f"{op.key}: replayed stage rows differ from the run's trace")
        if not trace.halted:
            r4 = tr.call("bricks.module4", bricks.module4, trace.after_module3, code, machine)
            if r4 != trace.after_module4:
                raise CheckFailed(f"{op.key}: replayed module4 row differs from the run's trace")


def _replay_compile(op: Op, tr: Tracer, counts: Counter) -> None:
    word = list(op.meta["word"])
    with tr.span("op.compile"):
        machine, code = _parse_and_prepare(op, tr)
        layout, conformation = tr.call("seed.build_seed", seed.build_seed, machine, code, word)
        stanza = tr.call("sysfile.format_seed_stanza", sysfile.format_seed_stanza, conformation)
        _write("out/seed.sys", stanza)
    counts["seed.beads"] += len(conformation)


def _replay_check_bricks(op: Op, tr: Tracer, counts: Counter) -> None:
    defs_path, catalog_path = op.argv[1:3]
    with tr.span("op.check_bricks"):
        with open(defs_path, encoding="utf-8") as fh:
            defs_text = fh.read()
        with open(catalog_path, encoding="utf-8") as fh:
            catalog_text = fh.read()
        with tr.span("harness.parse"):
            defs = harness.parse_submodules(defs_text)
            envs = harness.parse_environments(catalog_text)
        auto = tr.call("harness.explore_closure", harness.explore_closure, defs, envs)
        tr.call("harness.format_automaton", harness.format_automaton, auto)
    for env in auto.environments.values():
        sub = defs[env.submodule] if env.submodule else next(iter(defs.values()))
        tr.call("harness.fold_in_environment", harness.fold_in_environment, sub, env)
    counts["harness.environments"] += len(auto.environments)
    counts["harness.failures"] += len(auto.failures)


REPLAYS = {
    "fold": _replay_fold,
    "run-nfa": _replay_run_nfa,
    "compile": _replay_compile,
    "check-bricks": _replay_check_bricks,
}

# Per-call timings: metric name -> span name.
TIMINGS = {
    "sysfile.parse_system_ms": "sysfile.parse_system",
    "sysfile.format_trace_ms": "sysfile.format_trace",
    "sysfile.format_seed_stanza_ms": "sysfile.format_seed_stanza",
    "folding.fold_all_ms": "folding.fold_all",
    "render.svg_ms": "render.svg",
    "nfa.parse_ms": "nfa.parse",
    "nfa.prepare_ms": "nfa.prepare",
    "nfa.oracle_ms": "nfa.oracle",
    "bricks.run_word_ms": "bricks.run_word",
    "bricks.format_report_ms": "bricks.format_report",
    "bricks.module1_ms": "bricks.module1",
    "bricks.module2_ms": "bricks.module2",
    "bricks.module3_ms": "bricks.module3",
    "bricks.module4_ms": "bricks.module4",
    "seed.build_seed_ms": "seed.build_seed",
    "harness.parse_ms": "harness.parse",
    "harness.fold_in_environment_ms": "harness.fold_in_environment",
    "harness.explore_closure_ms": "harness.explore_closure",
}


def traced_metrics(untraced: list, tracer: Tracer, counts: Counter) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced replays and the untraced
    latencies (``core.Result``) of the same ops, in the same order."""
    own = tracer.self_times()
    per_name: dict[str, list[float]] = {}
    for (name, *_), seconds in zip(tracer.spans, own):
        per_name.setdefault(name, []).append(seconds * 1000)

    roots = [(i, s) for i, s in enumerate(tracer.spans) if s[0].startswith("op.")]
    layer_sum = {i: 0.0 for i, _ in roots}
    for name, start, end, parent, _ in tracer.spans:
        if parent in layer_sum:
            layer_sum[parent] += end - start
    cli_self = [(r.seconds - layer_sum[i]) * 1000 for (i, _), r in zip(roots, untraced)]
    overhead = sum(s[2] - s[1] for _, s in roots) - sum(r.seconds for r in untraced)

    def median(name: str) -> float:
        return statistics.median(per_name[name]) if name in per_name else 0.0

    steps = counts["folding.steps"]
    metrics = {"cli.self_ms": statistics.median(cli_self)}
    metrics.update({metric: median(span) for metric, span in TIMINGS.items()})
    stabilize = per_name.get("folding.stabilize_next", [0.0])
    metrics["folding.stabilize_next_p50_ms"] = statistics.median(stabilize)
    metrics["folding.stabilize_next_p90_ms"] = p90(stabilize)
    metrics.update({name: counts[name] for name in COUNTS})
    argmin = counts["folding.argmin_total"]
    metrics["folding.argmin_size_mean"] = argmin / steps if steps else 0.0
    choices = counts["folding.choices"]
    metrics["folding.argmin_ratio"] = argmin / choices if choices else 0.0
    branches = counts["bricks.branches"]
    metrics["bricks.accepting_ratio"] = counts["bricks.accepting"] / branches if branches else 0.0
    metrics["trace.overhead_ms"] = overhead * 1000 / len(untraced)
    return metrics


def trace_ops(ops: list[Op], tracer: Tracer, counts: Counter) -> list[str]:
    """Replay each op under spans; return the failures, one line each."""
    failures = []
    for op_id, op in enumerate(ops):
        tracer.op_id = op_id
        try:
            REPLAYS[op.kind](op, tracer, counts)
        except Exception as exc:  # noqa: BLE001 - a failed replay is a failed op
            failures.append(f"{op.key}: replay raised {type(exc).__name__}: {exc}")
    return failures
