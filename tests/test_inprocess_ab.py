"""Smoke test of ``tests/inprocess_ab.py``, with the working tree on both sides."""

import inprocess_ab


def run_one_case(capsys, case):
    """The cells of ``case``'s row, after checking the table's shape."""
    argv = [str(inprocess_ab.ROOT), "--case", case, "--rounds", "1", "--folds", "1"]
    assert inprocess_ab.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split("\t") == ["case", "parent", "parent median", "change", "change median", "ratio",
                                    "parent searches", "parent pushes", "parent units",
                                    "change searches", "change pushes", "change units"]
    assert len(lines) == 3 and lines[2].split("\t")[0] == case
    return lines[2].split("\t")


def test_one_case_folds_alike_and_is_timed(capsys):
    # The one-period glider at delay 3 makes 10 searches and 55 pushes, and
    # spends 129 budget units, on each side, the same tree.
    assert run_one_case(capsys, "d3p1")[6:] == ["10", "55", "129", "10", "55", "129"]


def test_brick_check_runs_alike_and_is_timed(capsys):
    run_one_case(capsys, "bricks-demo")


def test_pool_folds_alike_and_is_timed(capsys, monkeypatch):
    monkeypatch.setattr(inprocess_ab, "POOL", inprocess_ab.POOL[:3])
    run_one_case(capsys, "pool")


def test_bond_free_fold_runs_alike_and_is_timed(capsys, monkeypatch):
    monkeypatch.setattr(inprocess_ab, "FREE", (300, 600))
    run_one_case(capsys, "free")


def test_pipeline_runs_alike_and_is_timed(capsys, monkeypatch):
    monkeypatch.setattr(inprocess_ab, "PIPELINE_LETTERS", 20)
    run_one_case(capsys, "pipeline")


def test_parse_runs_alike_and_is_timed(capsys, monkeypatch):
    monkeypatch.setattr(inprocess_ab, "PIPELINE_LETTERS", 20)
    run_one_case(capsys, "parse")


def test_run_nfa_runs_alike_and_is_timed(capsys, monkeypatch):
    # Two enumerate ops and one sample op.
    ops = inprocess_ab.RUN_NFA_OPS
    monkeypatch.setattr(inprocess_ab, "RUN_NFA_OPS", ops[:2] + ops[-1:])
    run_one_case(capsys, "run-nfa")


def test_compile_runs_alike_and_is_timed(capsys, monkeypatch):
    monkeypatch.setattr(inprocess_ab, "COMPILE_OPS", inprocess_ab.COMPILE_OPS[:3])
    run_one_case(capsys, "compile")


def test_fold_command_runs_alike_and_is_timed(capsys, monkeypatch):
    # One glider ``fold`` op with ``--trace`` and ``--svg``; its searches,
    # pushes and budget units are counted through the command.
    monkeypatch.setattr(inprocess_ab, "GLIDER_FOLD_OPS", inprocess_ab.GLIDER_FOLD_OPS[:1])
    cells = run_one_case(capsys, "fold-glider")
    assert cells[6:9] == cells[9:12] and all(int(cell) > 0 for cell in cells[6:9])
