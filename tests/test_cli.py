import tracemalloc
from pathlib import Path

import pytest

from oritatami import bricks, folding
from oritatami.cli import main, _tokenize_word
from oritatami.nfa import parse_nfa_file, prepare

DEMOS = Path(__file__).resolve().parent.parent / "demos"

GLIDER_SYS = """\
delay 3
arity 2
rule 579 584
rule 580 589
rule 581 588
rule 582 587
rule 583 586
rule 585 590
rule 586 590
seed 0 0 585
seed 1 -1 586
seed 1 -2 587
seed 2 -2 588
seed 2 -1 589
seed 1 0 590
seedbond 1 6
seedbond 2 6
repeat 2 579 580 581 582 583 584 585 586 587 588 589 590
"""

BRANCHING_NFA = """\
states: 1011 1000 1111
alphabet: 100
initial: 1011
accept: 1011 1111
trans: 1011 100 1000
trans: 1011 100 1111
statecode: 1011 1011
statecode: 1000 1000
statecode: 1111 1111
statecode: qAcc 0011
lettercode: 100 100
lettercode: $ 101
"""

DENSE_SYS = """\
delay 10
arity 5
rule a a
seed 0 0 a
repeat 11 a
"""

DEFS = """\
submodule gspacer
delay 3
arity 2
rule 579 584
rule 580 589
rule 581 588
rule 582 587
rule 583 586
rule 585 590
rule 586 590
fragment 579 580 581 582 583 584 585 586 587 588 589 590
expect T 1 T 588 587 582 581
expect B 1 B 590 585 584 579
"""

CATALOG = """\
env band_top
seed 0 0 585
seed 1 -1 586
seed 1 -2 587
seed 2 -2 588
seed 2 -1 589
seed 1 0 590
seedbond 1 6
seedbond 2 6
entry T
input 1

env band_bottom
seed 0 0 585
seed 0 1 586
seed -1 2 587
seed 0 2 588
seed 1 1 589
seed 1 0 590
seedbond 1 6
seedbond 2 6
entry B
input 1
"""


# Every letter doubles the branches: t letters give 2**t.
DOUBLING_NFA = """\
states: p q
alphabet: a
initial: p
accept: p
trans: p a p
trans: p a q
trans: q a p
trans: q a q
"""


@pytest.fixture
def glider_file(tmp_path):
    p = tmp_path / "glider.sys"
    p.write_text(GLIDER_SYS)
    return str(p)


@pytest.fixture
def nfa_file(tmp_path):
    p = tmp_path / "branching.nfa"
    p.write_text(BRANCHING_NFA)
    return str(p)


class TestTokenizeWord:
    def test_spaces_and_commas(self):
        assert _tokenize_word("100 100", ("100",)) == ["100", "100"]
        assert _tokenize_word("100,100", ("100",)) == ["100", "100"]

    def test_glued_letters_split_greedily(self):
        assert _tokenize_word("100100", ("100",)) == ["100", "100"]
        assert _tokenize_word("abba", ("a", "b")) == ["a", "b", "b", "a"]

    def test_unsplittable_word(self):
        with pytest.raises(ValueError):
            _tokenize_word("10", ("100",))

    def test_split_needs_backtracking(self):
        # Longest match would take "ab" first and strand the "c".
        assert _tokenize_word("abc", ("a", "ab", "bc")) == ["a", "bc"]

    def test_ambiguous_split_is_rejected(self):
        with pytest.raises(ValueError, match="more than one way"):
            _tokenize_word("001", ("0", "1", "01"))
        assert _tokenize_word("0 01", ("0", "1", "01")) == ["0", "01"]

    def test_ambiguous_word_exits_2(self, tmp_path, capsys):
        p = tmp_path / "glued.nfa"
        p.write_text(
            "states: p\nalphabet: 0 1 01\ninitial: p\naccept: p\n"
            "trans: p 0 p\ntrans: p 1 p\ntrans: p 01 p\n"
        )
        assert main(["run-nfa", str(p), "--word", "0 01"]) == 0
        assert main(["run-nfa", str(p), "--word", "001"]) == 2
        assert "more than one way" in capsys.readouterr().err


class TestFoldCommand:
    def test_fold_writes_trace_and_svg(self, glider_file, tmp_path, capsys):
        trace = tmp_path / "out.tsv"
        svg = tmp_path / "out.svg"
        code = main(["fold", glider_file, "--trace", str(trace), "--svg", str(svg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "terminal conformations: 1" in out
        assert trace.read_text().count("\n") == 25  # header + 24 stabilized beads
        assert "<svg" in svg.read_text()

    def test_fold_modes(self, glider_file):
        assert main(["fold", glider_file, "--mode", "first"]) == 0
        assert main(["fold", glider_file, "--mode", "sample", "--rng-seed", "5"]) == 0

    def test_identical_invocations_give_identical_bytes(self, glider_file, tmp_path):
        outputs = []
        for name in ("a", "b"):
            trace = tmp_path / f"{name}.tsv"
            svg = tmp_path / f"{name}.svg"
            assert main(["fold", glider_file, "--mode", "sample", "--rng-seed", "9",
                         "--trace", str(trace), "--svg", str(svg)]) == 0
            outputs.append((trace.read_bytes(), svg.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_fold_missing_file_is_input_error(self, capsys):
        assert main(["fold", "no_such_file.sys"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fold_garbage_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "bad.sys"
        p.write_text("delay x\n")
        assert main(["fold", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_lookahead_past_node_budget_exits_2(self, tmp_path, capsys):
        # Every bead bonds with every other: the delay-10 search cannot cut
        # enough to stay within its node budget.
        p = tmp_path / "dense.sys"
        p.write_text(DENSE_SYS)
        assert main(["fold", str(p), "--mode", "first"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: lookahead for transcript bead 1 (a) pushes more than "
            f"{folding.LOOKAHEAD_BUDGET} nascent beads\n"
        )

    def test_lookahead_deeper_than_the_stack_exits_2(self, tmp_path, capsys):
        # One bond per level keeps the search within its node budget, but
        # 1,200 levels nest deeper than the interpreter stack.
        p = tmp_path / "deep.sys"
        p.write_text("delay 1200\narity 1\nrule a a\nseed 0 0 a\nrepeat 1200 a\n")
        assert main(["fold", str(p), "--mode", "first"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: lookahead for transcript bead 1 (a) ")


class TestRunNfaCommand:
    def test_accepting_word_exits_zero(self, nfa_file, capsys):
        assert main(["run-nfa", nfa_file, "--word", "100"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ACCEPT")
        assert "branches=2" in out

    def test_rejecting_word_exits_one(self, nfa_file, capsys):
        assert main(["run-nfa", nfa_file, "--word", "100100"]) == 1
        assert capsys.readouterr().out.startswith("REJECT (all branches halted)")

    def test_empty_word_accepts(self, nfa_file, capsys):
        assert main(["run-nfa", nfa_file]) == 0
        assert capsys.readouterr().out.startswith("ACCEPT")

    def test_report_file(self, nfa_file, tmp_path):
        report = tmp_path / "run.txt"
        assert main(["run-nfa", nfa_file, "--word", "100", "--report", str(report)]) == 0
        text = report.read_text()
        # augment() appends the $-moves, so the original transitions hold
        # slots 1-2 here (the in-library worked fixture orders them differently.)
        assert "module1 x=[Y,Y,Y,N] z=[1,0,1,1]" in text
        assert "1011 -> 1111 -> qAcc (accepted)" in text
        assert text.rstrip().endswith("steps=384")

    def test_sample_mode(self, nfa_file):
        assert main(["run-nfa", nfa_file, "--word", "100", "--mode", "sample",
                     "--rng-seed", "11"]) in (0, 1)

    def test_long_sample_word(self, tmp_path, capsys):
        p = tmp_path / "loop.nfa"
        p.write_text("states: p\nalphabet: a\ninitial: p\naccept: p\ntrans: p a p\n")
        word = " ".join(["a"] * 3000)
        assert main(["run-nfa", str(p), "--word", word, "--mode", "sample"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("ACCEPT branches=1")
        assert err == ""

    def test_bad_word_is_input_error(self, nfa_file, capsys):
        assert main(["run-nfa", nfa_file, "--word", "777"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_enumerate_past_branch_budget_exits_2(self, tmp_path, capsys):
        p = tmp_path / "doubling.nfa"
        p.write_text(DOUBLING_NFA)
        assert main(["run-nfa", str(p), "--word", "a" * 14]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: more than 10000 terminal branches\n"

    def test_budget_failure_writes_no_report(self, tmp_path, capsys):
        p = tmp_path / "doubling.nfa"
        p.write_text(DOUBLING_NFA)
        report = tmp_path / "out.txt"
        assert main(["run-nfa", str(p), "--word", "a" * 14, "--report", str(report)]) == 2
        assert not report.exists()

    def test_report_file_is_format_report(self, tmp_path, capsys):
        path = str(DEMOS / "branching.nfa")
        report = tmp_path / "run.txt"
        assert main(["run-nfa", path, "--word", "100", "--report", str(report)]) == 0
        machine, code = prepare(*parse_nfa_file(path))
        result = bricks.run_word(machine, code, ["100"])
        assert result.branch_count == 2
        expected = bricks.format_report(machine, code, ["100"], result)
        assert report.read_text(encoding="utf-8") == expected

    def test_report_is_streamed(self, tmp_path, capsys):
        # 11 doubling letters: 2,048 branches and a report of several MB,
        # which is written piece by piece rather than built whole.
        p = tmp_path / "doubling.nfa"
        p.write_text(DOUBLING_NFA)
        report = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            code = main(["run-nfa", str(p), "--word", "a" * 11, "--report", str(report)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < report.stat().st_size / 2


class TestCompileCommand:
    def test_emits_seed_stanza(self, nfa_file, tmp_path, capsys):
        out = tmp_path / "seed.sys"
        assert main(["compile", nfa_file, "--word", "100", "--out", str(out)]) == 0
        text = out.read_text()
        seed_lines = [l for l in text.splitlines() if l.startswith("seed ")]
        assert len(seed_lines) == 98 + 276
        assert "seedbond" not in text  # the Gamma seed is bond-free
        # The emitted stanza parses back as a system seed.
        from oritatami.sysfile import parse_system

        system = parse_system("delay 3\narity 2\n" + text)
        assert len(system.seed) == 98 + 276


class TestCheckBricksCommand:
    def test_closure_passes(self, tmp_path, capsys):
        defs = tmp_path / "gspacer.defs"
        defs.write_text(DEFS)
        catalog = tmp_path / "bands.cat"
        catalog.write_text(CATALOG)
        assert main(["check-bricks", str(defs), str(catalog)]) == 0
        out = capsys.readouterr().out
        assert "band_top -T-> band_top" in out
        assert "closed: 2 environments, 2 transitions" in out

    def test_broken_rules_fail(self, tmp_path, capsys):
        defs = tmp_path / "gspacer.defs"
        defs.write_text(DEFS.replace("rule 581 588\n", ""))
        catalog = tmp_path / "bands.cat"
        catalog.write_text(CATALOG)
        assert main(["check-bricks", str(defs), str(catalog)]) == 1

    def test_duplicate_submodule_is_input_error(self, tmp_path, capsys):
        defs = tmp_path / "gspacer.defs"
        text = (DEMOS / "gspacer.defs").read_text()
        stanza = text[text.index("submodule gspacer"):]
        defs.write_text(text + "\n" + stanza)
        assert main(["check-bricks", str(defs), str(DEMOS / "gspacer_bands.cat")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: duplicate submodule names: gspacer\n"

    def test_lookahead_past_node_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # A smaller budget keeps the test quick; the fold test above runs the real one.
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", 1000)
        defs = tmp_path / "dense.defs"
        defs.write_text("submodule dense\ndelay 10\narity 5\nrule a a\nrepeat 11 a\n")
        catalog = tmp_path / "dense.cat"
        catalog.write_text("env lone\nseed 0 0 a\nentry T\ninput 1\n")
        assert main(["check-bricks", str(defs), str(catalog)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: dense in lone: lookahead for transcript bead 1 (a) "
            "pushes more than 1000 nascent beads\n"
        )

    def test_unlicensed_seed_bond_names_env(self, tmp_path, capsys):
        # The seed's first bond (seedbond 1 6) pairs 585 with 590.
        defs = tmp_path / "gspacer.defs"
        defs.write_text(DEFS.replace("rule 585 590\n", ""))
        catalog = tmp_path / "bands.cat"
        catalog.write_text(CATALOG)
        assert main(["check-bricks", str(defs), str(catalog)]) == 2
        err = capsys.readouterr().err
        assert "env band_top" in err
        assert "bond (1, 6) pairs 585/590 outside the rule set" in err


class TestStatsCommand:
    def test_stats_output(self, nfa_file, capsys):
        assert main(["stats", nfa_file, "--word-len", "1"]) == 0
        out = capsys.readouterr().out
        assert "transitions (n): 4" in out
        assert "total cells: 384" in out

    def test_negative_word_len_is_input_error(self, nfa_file, capsys):
        assert main(["stats", nfa_file, "--word-len", "-5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: word length must be >= 0")


def test_usage_error_exits_two(capsys):
    assert main(["no-such-command"]) == 2


# One malformed line per row: (file kind, the line, the line number it is
# put at; None appends it).
MALFORMED = [
    ("defs", "delay", None),
    ("defs", "repeat", None),
    ("defs", "repeat -1 579", None),
    ("defs", "deterministic", 2),
    ("defs", "deterministic yess", 2),
    ("sys", "repeat", None),
    ("sys", "seed 0 0", 3),
    ("cat", "entry T B", 2),
    ("cat", "seed 0 0", None),
    ("nfa", "trans: a x", None),
    ("sys", "delay 0", None),
    ("sys", "arity 0", None),
    ("defs", "delay 0", None),
    ("defs", "arity 0", None),
    ("defs", "expect Q 1 T 588", None),
    ("defs", "expect T 7 T 588", None),
    ("defs", "expect T 1 Z 588", None),
    ("cat", "entry X", None),
    ("cat", "input 7", None),
]


@pytest.mark.parametrize("kind, line, at", MALFORMED, ids=[f"{k}:{l}" for k, l, _ in MALFORMED])
def test_malformed_line_is_input_error(tmp_path, capsys, kind, line, at):
    texts = {"sys": GLIDER_SYS, "nfa": BRANCHING_NFA, "defs": DEFS, "cat": CATALOG}
    lines = texts[kind].splitlines()
    at = at or len(lines) + 1
    lines.insert(at - 1, line)
    texts[kind] = "\n".join(lines) + "\n"
    paths = {}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"input.{name}")
        (tmp_path / f"input.{name}").write_text(text)
    argv = {
        "sys": ["fold", paths["sys"]],
        "nfa": ["run-nfa", paths["nfa"], "--word", "100"],
        "defs": ["check-bricks", paths["defs"], paths["cat"]],
        "cat": ["check-bricks", paths["defs"], paths["cat"]],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert f"line {at}:" in err
