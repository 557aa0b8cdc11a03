"""Benchmark of the oritatami CLI, driven in-process the way a user drives it.

    python3 perfbench/run.py --workload glider --seed 1 --seconds 15 --trace 0

Run from the repository root. One process per workload calls
``oritatami.cli.main(argv)`` in a closed loop with one client and no threads:
each command starts when the previous one has returned and been checked.
It runs as many whole rounds of ops as take about ``--seconds`` at the
rounds' recorded cost. Every op's output is checked outside its timed region
(see ``checks.py``); a wrong output, an unexpected exit code or any exception
counts as a failed op and the run goes on.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced replay (see ``tracing.py``). The lines above it print every metric by
name, with its unit, and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_RUNS = 5  # fresh interpreters timed for setup_s; the median is reported

SPEC_PATH = ROOT / "BENCHMARK.json"  # names, units and directions of the metrics


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("glider", "random-fold", "nfa"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time setup_s)")
    return parser.parse_args(argv)


def _setup_seconds(args: argparse.Namespace) -> list[float]:
    """Time fresh interpreters from spawn to the end of their warm-up."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            times.append(time.perf_counter() - start)
            probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up run exited {probe.returncode} without getting ready")
    return times


def _report(section: str, metrics: dict[str, float], failures: list[str], attempted: int) -> None:
    """Print every metric by name with its unit and direction, then the JSON line."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = {m["name"]: m for m in json.load(fh)[section]}
    if set(spec) != set(metrics):
        mismatch = sorted(set(spec) ^ set(metrics))
        raise RuntimeError(f"metrics {mismatch} disagree with {SPEC_PATH.name}")
    for name, m in spec.items():
        print(f"{name:34s} {metrics[name]:14.4f} {m['unit']:9s} {m['better']} is better")
    print(f"failed_ratio {len(failures) / attempted:.4f} ({len(failures)} of {attempted} ops)")
    for line in failures[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": m["unit"]} for name, m in spec.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "oritatami" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'oritatami'} not found; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import core
    import tracing

    if args.setup_only:
        core.set_up(args.workload, args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    if args.trace == 0:
        setup_times = _setup_seconds(args)
        session = core.set_up(args.workload, args.seed, args.seconds)
        results = core.measure(session)
        recorded = session.reference["calibration_s"]
        normalized = core.normalized_seconds(results, recorded)
        metrics, samples = core.end_to_end_metrics(results, normalized, setup_times)
        wall, _ = core.end_to_end_metrics(results, [r.seconds for r in results], setup_times)
        print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
              f"{len(results)} ops in {len(session.rounds)} rounds")
        print("samples: " + ", ".join(f"{k} {n}" for k, n in samples.items())
              + f"; setup runs {SETUP_RUNS}")
        host = statistics.median(r.calibration for r in results)
        print(f"host speed: calibration {host * 1000:.3f} ms, recorded {recorded * 1000:.3f} ms; "
              "timings below are scaled to the recorded speed")
        print("wall clock, unscaled: " + ", ".join(
            f"{name} {wall[name]:.4f}" for name in wall if name.endswith(("_ms", "_per_s"))))
        failures = [r.error for r in results if r.error]
        _report("end_to_end", metrics, failures, len(results))
        return 0

    session = core.set_up(args.workload, args.seed, args.seconds)
    ops = session.rounds[0][::2]
    results = [core.run_checked(op, session) for op in ops]
    tracer, counts = tracing.Tracer(), Counter()
    replay_failures = tracing.trace_ops(ops, tracer, counts)
    tracer.write(session.workdir / "spans.tsv")
    metrics = tracing.traced_metrics(results, tracer, counts)
    print(f"workload {args.workload}, seed {args.seed}: traced replay of {len(ops)} ops, "
          f"{len(tracer.spans)} spans written to {session.workdir / 'spans.tsv'}")
    for layer, why in tracing.NO_SPAN.items():
        print(f"{layer}: no span of its own ({why})")
    failures = [r.error for r in results if r.error] + replay_failures
    _report("per_layer", metrics, failures, 2 * len(ops))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
