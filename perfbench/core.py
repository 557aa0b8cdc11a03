"""Set-up and op execution shared by the timed run, the traced run, the
recorder and the self-tests.

An op is one ``oritatami.cli.main(argv)`` call made in this process, with
stdout and stderr captured. Only that call is timed; deleting stale outputs,
the garbage collection between ops, the host-speed calibration and the output
checks happen outside it.

On a shared 2-CPU x86 virtual machine the speed of identical ops drifted by
up to a third over tens of seconds. So a fixed calibration loop runs before
every op, and the end-to-end timings are scaled to the host speed at which
the references were recorded (see ``normalized_seconds``).
"""

from __future__ import annotations

import gc
import io
import math
import os
import resource
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from oritatami import cli

import inputs
from checks import CheckFailed, check_op
from inputs import Op

WORK_ROOT = inputs.BENCH_DIR / "_work"
CALIBRATION_WINDOW = 5  # calibrations on each side of an op that give its host speed
_CALIBRATION_TABLE = {i: i * 7 % 1024 for i in range(1024)}


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def calibrate() -> float:
    """Seconds for a fixed loop of dictionary lookups that creates no object
    the garbage collector tracks: the host's current speed, whatever the
    program under test leaves behind."""
    table = _CALIBRATION_TABLE
    acc = 0
    start = time.perf_counter()
    for i in range(40_000):
        acc = table[(acc + i) & 1023]
    return time.perf_counter() - start


@dataclass
class Result:
    op: Op
    seconds: float
    exit_code: int | None
    stdout: str
    calibration: float  # seconds of ``calibrate()`` just before the op
    error: str | None = None  # why the op failed, None when it passed its checks
    work: int = 0


@dataclass
class Session:
    workload: str
    seed: int
    workdir: Path
    reference: dict
    rounds: list[list[Op]]


def execute(op: Op, workdir: Path) -> tuple[float, int | None, str, str | None]:
    """Run one op; return (seconds, exit code, stdout, error)."""
    for name in op.outputs:
        (workdir / name).unlink(missing_ok=True)
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # noqa: BLE001 - any exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), error


def run_checked(op: Op, session: Session) -> Result:
    calibration = calibrate()
    seconds, code, stdout, error = execute(op, session.workdir)
    result = Result(op, seconds, code, stdout, calibration, error)
    if error is None:
        try:
            result.work = check_op(op, code, stdout, session.workdir, session.reference)
        except CheckFailed as exc:
            result.error = str(exc)
        except Exception as exc:  # noqa: BLE001 - a check that crashes is a failed op
            result.error = f"{op.key}: check raised {type(exc).__name__}: {exc}"
    return result


def round_count(seconds: float, ops: list[Op], reference: dict) -> int:
    """Rounds that take about ``seconds`` at the round's recorded cost. The
    count does not depend on how fast this commit runs, so the parent and a
    change run the same ops."""
    cost = sum(reference["ops"][op.key]["ms"] for op in ops) / 1000
    return max(1, round(seconds / cost))


def set_up(workload: str, seed: int, seconds: float) -> Session:
    """Generate and write the workload's inputs, then warm up on the cheapest
    recorded op of each command. Leaves the process in the work directory."""
    reference = inputs.load_reference()
    rounds = inputs.build_rounds(workload, seed, 1, reference)
    count = round_count(seconds, rounds[0], reference)
    rounds = inputs.build_rounds(workload, seed, count, reference)
    workdir = WORK_ROOT / workload
    shutil.rmtree(workdir, ignore_errors=True)
    inputs.write_inputs(rounds, workdir)
    os.chdir(workdir)
    session = Session(workload, seed, workdir, reference, rounds)
    cheapest: dict[str, Op] = {}
    for op in rounds[0]:
        best = cheapest.get(op.kind)
        if best is None or reference["ops"][op.key]["ms"] < reference["ops"][best.key]["ms"]:
            cheapest[op.kind] = op
    for op in cheapest.values():
        run_checked(op, session)
    return session


def measure(session: Session) -> list[Result]:
    return [run_checked(op, session) for ops in session.rounds for op in ops]


def normalized_seconds(results: list[Result], recorded_calibration: float) -> list[float]:
    """Each op's time at the host speed of the recording: its time times the
    recorded calibration over the median calibration of the ops around it."""
    calibrations = [r.calibration for r in results]
    w = CALIBRATION_WINDOW
    return [
        r.seconds * recorded_calibration / statistics.median(calibrations[max(0, i - w) : i + w + 1])
        for i, r in enumerate(results)
    ]


def end_to_end_metrics(
    results: list[Result], seconds: list[float], setup_times: list[float]
) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics of a timed run, with ``seconds[i]`` as the time
    of ``results[i]``, and the sample count per command.

    A failed op adds its time but none of its work to the throughputs."""
    by_kind: dict[str, list[tuple[Result, float]]] = {}
    for r, t in zip(results, seconds):
        by_kind.setdefault(r.op.kind, []).append((r, t))

    def latencies(kind: str) -> list[float]:
        return [t * 1000 for _, t in by_kind[kind]]

    def per_second(kind: str) -> float:
        done = sum(r.work for r, _ in by_kind[kind] if r.error is None)
        return done / sum(t for _, t in by_kind[kind])

    failed = sum(r.error is not None for r in results)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "fold.beads_per_s": per_second("fold"),
        "fold.latency_p50_ms": statistics.median(latencies("fold")),
        "fold.latency_p90_ms": p90(latencies("fold")),
        "run_nfa.letters_per_s": per_second("run-nfa"),
        "run_nfa.latency_p50_ms": statistics.median(latencies("run-nfa")),
        "run_nfa.latency_p90_ms": p90(latencies("run-nfa")),
        "check_bricks.latency_p50_ms": statistics.median(latencies("check-bricks")),
        "compile.latency_p50_ms": statistics.median(latencies("compile")),
        "ok_ratio": (len(results) - failed) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {kind: len(rs) for kind, rs in sorted(by_kind.items())}
    return metrics, samples
