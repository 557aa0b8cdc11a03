"""Record the reference outputs and the cost strata of the random pools.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/record.py

It runs every op a round can draw once through the CLI, writes the exit
code, the digests of stdout and of each written file, and the op's time to
``perfbench/reference.json``, and then sorts each random pool by that time
into equal strata. The times order the pools and size the runs; they are
not baselines. It also records the median host-speed calibration, the speed
to which the benchmark scales its timings.

Pool members are generated in index order and some are left out, each
with its reason:
- a random system whose enumeration exceeds the CLI's 10,000-branch budget
  exits 2 at this commit (ROADMAP aim 3), and one with more than 2,000
  terminal branches would alone outlast a round;
- a random machine and word with more than 4,000 branches writes a report
  of tens of megabytes and would alone outlast a round.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
from core import WORK_ROOT, calibrate, execute  # noqa: E402
from inputs import COMPILE_STRATA, STRATA, digest  # noqa: E402

POOL_SIZES = {"random-fold": 4 * STRATA, "nfa-enum": 6 * STRATA, "nfa-sample": 3 * STRATA}
MAX_TERMINALS = 2000
MAX_BRANCHES = 4000


def record(op: inputs.Op, workdir: Path, calibrations: list[float]) -> dict:
    for name, text in op.inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    calibrations.append(calibrate())
    seconds, code, stdout, error = execute(op, workdir)
    if error is not None:
        raise RuntimeError(f"{op.key}: {error}")
    files = {name: digest((workdir / name).read_bytes())
             for name in op.outputs if (workdir / name).exists()}
    return {"input": op.input_digest(), "exit": code, "stdout": digest(stdout.encode()),
            "files": files, "ms": round(seconds * 1000, 3), "_stdout": stdout}


def by_cost(members: list[tuple[float, int]], count: int) -> list[list[int]]:
    """Split (ms, index) pairs into ``count`` equal strata, cheapest first,
    each listing its members cheapest first."""
    members = sorted(members)
    per = len(members) // count
    return [[i for _, i in members[s * per : (s + 1) * per]] for s in range(count)]


def left_out_reason(pool: str, entry: dict) -> str | None:
    if pool == "random-fold":
        if entry["exit"] == 2:
            return "exceeds the 10,000-branch budget (exit 2)"
        if int(entry["_stdout"].split(":")[1].split()[0]) > MAX_TERMINALS:
            return f"more than {MAX_TERMINALS} terminal branches"
    if pool == "nfa-enum" and int(entry["_stdout"].split("branches=")[1].split()[0]) > MAX_BRANCHES:
        return f"more than {MAX_BRANCHES} branches"
    return None


def write_reference(reference: dict) -> None:
    """JSON with one line per top-level key and per recorded op."""
    ops = reference["ops"]
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in reference.items()
             if k != "ops"]
    lines.append('"ops": {\n' + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(ops[k], sort_keys=True)}" for k in sorted(ops)) + "\n}")
    with open(inputs.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    workdir = WORK_ROOT / "record"
    for sub in ("in", "out"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    ops: dict[str, dict] = {}
    strata: dict[str, list[list[int]]] = {}
    left_out: dict[str, dict[str, list[int]]] = {}
    calibrations: list[float] = []

    fixed = [inputs.check_bricks_op()]
    for delay, (lo, hi) in inputs.GLIDER_PERIOD_RANGE.items():
        fixed += [inputs.glider_op(delay, p, m) for p in range(lo, hi + 1) for m in (False, True)]
    for op in fixed:
        ops[op.key] = record(op, workdir, calibrations)

    for pool, size in POOL_SIZES.items():
        members: list[tuple[float, int]] = []
        index = 0
        while len(members) < size:
            if pool == "random-fold":
                op = inputs.random_fold_op(index)
            else:
                op = inputs.run_nfa_op(pool, index)
            entry = record(op, workdir, calibrations)
            reason = left_out_reason(pool, entry)
            if reason is None:
                ops[op.key] = entry
                members.append((entry["ms"], index))
            else:
                left_out.setdefault(pool, {}).setdefault(reason, []).append(index)
            index += 1
            if index % 50 == 0:
                print(f"{pool}: {index} generated, {len(members)} kept", file=sys.stderr)
        strata[pool] = by_cost(members, STRATA)

    compiled = []
    for index in (i for stratum in strata["nfa-enum"] for i in stratum):
        op = inputs.compile_op(index)
        ops[op.key] = record(op, workdir, calibrations)
        compiled.append((ops[op.key]["ms"], index))
    strata["compile"] = by_cost(compiled, COMPILE_STRATA)

    for entry in ops.values():
        del entry["_stdout"]
    reference = {
        "calibration_s": statistics.median(calibrations),
        "left_out": left_out,
        "strata": strata,
        "ops": dict(sorted(ops.items())),
    }
    write_reference(reference)
    print(f"recorded {len(ops)} ops; left out {left_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
