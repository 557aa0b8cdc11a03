"""Smoke test of ``tests/inprocess_ab.py``, with the working tree on both sides."""

import inprocess_ab


def test_one_case_folds_alike_and_is_timed(capsys):
    argv = [str(inprocess_ab.ROOT), "--case", "d3p1", "--rounds", "1", "--folds", "1"]
    assert inprocess_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split("\t") == ["case", "parent", "parent median", "change", "change median", "ratio"]
    assert len(lines) == 3 and lines[2].split("\t")[0] == "d3p1"
