"""Self-tests of the benchmark: seeded inputs, output checks, repeatable counts.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import core  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed, check_op  # noqa: E402
from oracles import brute_minimizers, choice_key  # noqa: E402
from oritatami.folding import stabilize_next  # noqa: E402

REFERENCE = inputs.load_reference()
COUNT_METRICS = [
    m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if m["unit"] in ("count", "bytes") or m["name"] in (
        "folding.argmin_size_mean", "folding.argmin_ratio", "bricks.accepting_ratio")
]


def _inputs_of(workload: str, seed: int) -> list[tuple[list[str], dict[str, str]]]:
    rounds = inputs.build_rounds(workload, seed, 2, REFERENCE)
    return [(op.argv, op.inputs) for ops in rounds for op in ops]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_fixes_inputs_and_another_seed_changes_them(workload):
    assert _inputs_of(workload, 7) == _inputs_of(workload, 7)
    assert _inputs_of(workload, 7) != _inputs_of(workload, 8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_op_a_round_can_draw_has_a_reference(workload):
    for ops in inputs.build_rounds(workload, 3, 2, REFERENCE):
        for op in ops:
            assert REFERENCE["ops"][op.key]["input"] == op.input_digest(), op.key


def _cheap_ops(session: core.Session, per_kind: int) -> list[inputs.Op]:
    by_cost = sorted(session.rounds[0], key=lambda op: REFERENCE["ops"][op.key]["ms"])
    picked: dict[str, list[inputs.Op]] = {}
    for op in by_cost:
        if len(picked.setdefault(op.kind, [])) < per_kind:
            picked[op.kind].append(op)
    return [op for ops in picked.values() for op in ops]


def _traced_counts(workload: str, seed: int) -> dict[str, float]:
    session = core.set_up(workload, seed, 1)
    ops = _cheap_ops(session, 3)
    results = [core.run_checked(op, session) for op in ops]
    assert [r.error for r in results if r.error] == []
    tracer, counts = tracing.Tracer(), Counter()
    assert tracing.trace_ops(ops, tracer, counts) == []
    metrics = tracing.traced_metrics(results, tracer, counts)
    return {name: metrics[name] for name in COUNT_METRICS}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_count_metrics_repeat_for_the_same_seed(workload, monkeypatch):
    monkeypatch.chdir(ROOT)
    first = _traced_counts(workload, 11)
    assert first["folding.steps"] > 0 and first["bricks.branches"] > 0
    assert _traced_counts(workload, 11) == first


def test_checks_reject_wrong_outputs(monkeypatch):
    monkeypatch.chdir(ROOT)
    session = core.set_up("glider", 0, 1)
    op = inputs.glider_op(3, 2, False)
    inputs.write_inputs([[op]], session.workdir)
    result = core.run_checked(op, session)
    assert result.error is None and result.work == 24
    with pytest.raises(CheckFailed, match="exit code"):
        check_op(op, 1, result.stdout, session.workdir, REFERENCE)
    trace_path = session.workdir / "out/fold.tsv"
    trace_path.write_text(trace_path.read_text().replace("\t579\t", "\t580\t", 1))
    with pytest.raises(CheckFailed):
        check_op(op, 0, result.stdout, session.workdir, REFERENCE)


def test_first_step_argmin_of_random_systems_matches_brute_force():
    rounds = inputs.build_rounds("random-fold", 0, 1, REFERENCE)
    for op in rounds[0]:
        if op.kind != "fold":
            continue
        system = op.meta["system"]
        engine = {choice_key(c) for c in stabilize_next(system, system.seed, 0)}
        assert engine == brute_minimizers(system, system.seed, 0), op.key
