"""Output checks, run after each op and outside its timed region.

Every op must reproduce the exit code, stdout and written files recorded in
``reference.json``. On top of that each command's output is checked against
an independent property: the fold trace re-validates against the system's
rules and arity (and a delay-3/4 glider has the glider's energy and
translation), run-nfa agrees with ``oracle_accepts``, a compiled seed decodes
back to the word and the initial state, and check-bricks reports the closure
as closed.
"""

from __future__ import annotations

from pathlib import Path

from oritatami.folding import Conformation, validate_conformation
from oritatami.grid import Point
from oritatami.nfa import oracle_accepts, prepare
from oritatami.seed import BeadWord, decode_input_column, decode_state_row

from inputs import Op, digest

GLIDER_SHIFT = Point(4, 0)


class CheckFailed(Exception):
    """The op ran but its output is wrong."""


def check_op(op: Op, exit_code: int, stdout: str, workdir: Path, reference: dict) -> int:
    """Raise CheckFailed unless the op's outputs are right; return the work it
    did (beads stabilized for fold, letters plus the end marker for run-nfa)."""
    ref = reference["ops"].get(op.key)
    if ref is None:
        raise CheckFailed(f"{op.key}: no recorded reference")
    if op.input_digest() != ref["input"]:
        raise CheckFailed(f"{op.key}: generated input differs from the recorded one")
    if exit_code != ref["exit"]:
        raise CheckFailed(f"{op.key}: exit code {exit_code}, recorded {ref['exit']}")
    if digest(stdout.encode()) != ref["stdout"]:
        raise CheckFailed(f"{op.key}: stdout differs from the recorded output")
    for name, want in ref["files"].items():
        path = workdir / name
        if not path.exists() or digest(path.read_bytes()) != want:
            raise CheckFailed(f"{op.key}: {name} differs from the recorded output")
    return _CHECKS[op.kind](op, exit_code, stdout, workdir)


def trace_conformation(op: Op, trace_text: str) -> Conformation:
    """The reported conformation: the system's seed plus the TSV trace rows."""
    system = op.meta["system"]
    seed = system.seed
    path, beads = list(seed.path), list(seed.beads)
    bonds = set(seed.bonds)
    for line in trace_text.splitlines():
        if line.startswith("#"):
            continue
        index, bead, x, y, partners = line.split("\t")
        if int(index) != len(path) + 1:
            raise CheckFailed(f"{op.key}: trace row {index} out of order")
        if bead != system.transcript[len(path) - len(seed)]:
            raise CheckFailed(f"{op.key}: trace row {index} has bead {bead}")
        for k in filter(None, partners.split(";")):
            i, j = sorted((int(index) - 1, int(k) - 1))
            bonds.add((i, j))
        path.append(Point(int(x), int(y)))
        beads.append(bead)
    return Conformation(tuple(path), tuple(beads), frozenset(bonds))


def _check_fold(op: Op, exit_code: int, stdout: str, workdir: Path) -> int:
    system = op.meta["system"]
    conformation = trace_conformation(op, (workdir / "out/fold.tsv").read_text(encoding="utf-8"))
    try:
        validate_conformation(conformation, system.rules, system.arity)
    except ValueError as exc:
        raise CheckFailed(f"{op.key}: trace does not validate: {exc}") from None
    energy = int(stdout.splitlines()[2].rsplit(":", 1)[1])
    if energy != -len(conformation.bonds):
        raise CheckFailed(
            f"{op.key}: printed energy {energy}, trace has {len(conformation.bonds)} bonds")
    stabilized = len(conformation) - len(system.seed)
    if op.meta["glider"] and system.delay <= 4:
        periods = op.meta["periods"]
        if stabilized != 12 * periods or energy != -(2 + 7 * periods):
            raise CheckFailed(f"{op.key}: not a glider fold (energy {energy}, {stabilized} beads)")
        path = conformation.path
        for j in range(len(system.seed), len(path) - 12):
            if (path[j + 12].x - path[j].x, path[j + 12].y - path[j].y) != GLIDER_SHIFT:
                raise CheckFailed(f"{op.key}: bead {j + 13} is not bead {j + 1} shifted by (4, 0)")
    return stabilized


def _check_run_nfa(op: Op, exit_code: int, stdout: str, workdir: Path) -> int:
    machine, word = op.meta["machine"], op.meta["word"]
    oracle = oracle_accepts(machine, list(word))
    accepted = exit_code == 0
    if op.meta["mode"] == "enumerate" and accepted != oracle:
        raise CheckFailed(f"{op.key}: exit {exit_code} but the oracle says {oracle}")
    if accepted and not oracle:
        raise CheckFailed(f"{op.key}: a sampled branch accepts a word the oracle rejects")
    return len(word) + 1


def _check_compile(op: Op, exit_code: int, stdout: str, workdir: Path) -> int:
    lines = (workdir / "out/seed.sys").read_text(encoding="utf-8").splitlines()
    arms = lines[1].split()  # "# horizontal arm H beads, vertical arm V beads"
    row_len, column_len = int(arms[3]), int(arms[7])
    points, beads = [], []
    for line in lines[2:]:
        tokens = line.split()
        if tokens[0] == "seed":
            points.append(Point(int(tokens[1]), int(tokens[2])))
            beads.append(tokens[3])
        else:
            raise CheckFailed(f"{op.key}: unexpected seed line {line!r}")
    if len(points) != row_len + column_len:
        raise CheckFailed(f"{op.key}: {len(points)} seed beads for arms {row_len}+{column_len}")
    machine, code = prepare(op.meta["machine"])
    column = _bead_word(points[column_len - 1 :: -1], beads[column_len - 1 :: -1])
    row = _bead_word(points[column_len:], beads[column_len:])
    try:
        letters = decode_input_column(column, code.state_bits, code)
        state_bits, flags = decode_state_row(row)
    except (ValueError, KeyError) as exc:
        raise CheckFailed(f"{op.key}: seed does not decode: {exc}") from None
    if letters != tuple(op.meta["word"]) + (machine.dollar,):
        raise CheckFailed(f"{op.key}: seed column spells {''.join(letters)!r}")
    if state_bits != code.state_code[machine.initial] or set(flags) != {"N"}:
        raise CheckFailed(f"{op.key}: seed row is not the initial state with N flags")
    return 0


def _bead_word(points: list[Point], beads: list[str]) -> BeadWord:
    steps = tuple(Point(b.x - a.x, b.y - a.y) for a, b in zip(points, points[1:]))
    return BeadWord(tuple(beads), steps)


def _check_check_bricks(op: Op, exit_code: int, stdout: str, workdir: Path) -> int:
    if exit_code != 0 or not stdout.splitlines()[-1].startswith("closed: "):
        raise CheckFailed(f"{op.key}: closure not reported closed")
    return 0


_CHECKS = {
    "fold": _check_fold,
    "run-nfa": _check_run_nfa,
    "compile": _check_compile,
    "check-bricks": _check_check_bricks,
}
