"""Each demo script runs to completion on its checked-in input files, and
prints what the commands compute from those files.

The demos write their outputs next to themselves, so each runs from a copy
of ``demos/`` in a temporary directory, and the commands run from there too.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from oritatami.nfa import oracle_accepts, parse_nfa_file

REPO = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((REPO / "demos").glob("0*.py"))


def _run(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )


def _command(demos, *args):
    """The stdout of ``oritatami ARGS``, run in ``demos``; it must exit 0."""
    proc = _run(["-m", "oritatami", *args], demos)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fold_claims(out, demos):
    lines = out.splitlines()
    assert "terminal conformations: 1" in lines
    assert "deterministic: True" in lines
    assert any(line.startswith("energy: -30 ") for line in lines)
    fold = _command(demos, "fold", "glider.sys").splitlines()
    assert "terminal conformations: 1" in fold
    assert "energy of first terminal: -30" in fold


def _nfa_claims(out, demos):
    nfa = parse_nfa_file(str(demos / "branching.nfa"))[0]
    verdicts = re.findall(r"^word (.+?) +brick machine: (\w+) +oracle: (\w+)$", out, re.M)
    assert len(verdicts) == 3
    for shown, brick, oracle in verdicts:
        word = [] if shown == "(empty)" else shown.split()
        assert brick == oracle == str(oracle_accepts(nfa, word))
    _command(demos, "run-nfa", "branching.nfa", "--word", "100", "--report", "report.txt")
    report = (demos / "report.txt").read_text()
    assert f"full report for the branching word:\n{report}\n" in out


def _seed_claims(out, demos):
    lines = out.splitlines()
    assert "combined path self-avoiding: True" in lines
    assert any(line.endswith("state bits 1011 with flags NNNN") for line in lines)
    assert any(line.endswith("letters 100 $") for line in lines)
    _command(demos, "compile", "branching.nfa", "--word", "100", "--out", "seed.sys")
    stanza = (demos / "seed.sys").read_text().splitlines(keepends=True)
    assert [line[0] for line in stanza[:2]] == ["#", "#"]
    assert (demos / "compiled_seed.sys").read_text() == "".join(stanza[2:])


def _closure_claims(out, demos):
    closure = _command(demos, "check-bricks", "gspacer.defs", "gspacer_bands.cat")
    automaton, closed = closure.rsplit("closed:", 1)
    assert closed == " 2 environments, 2 transitions\n"
    assert "band_top -T-> band_top\nband_bottom -B-> band_bottom\n" in automaton
    assert automaton in out


CLAIMS = {
    "01_fold_a_glider.py": _fold_claims,
    "02_run_an_nfa.py": _nfa_claims,
    "03_compile_a_seed.py": _seed_claims,
    "04_verify_bricks.py": _closure_claims,
}


@pytest.mark.parametrize("script", SCRIPTS, ids=[s.name for s in SCRIPTS])
def test_demo_runs(tmp_path, script):
    demos = tmp_path / "demos"
    shutil.copytree(REPO / "demos", demos)
    proc = _run([str(demos / script.name)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    CLAIMS[script.name](proc.stdout, demos)
