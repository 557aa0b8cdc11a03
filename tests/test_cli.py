import hashlib
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from oritatami import bricks, folding
from oritatami.cli import main, _tokenize_word
from oritatami.nfa import parse_nfa_file, prepare
from oritatami.seed import build_seed
from oritatami.sysfile import format_seed_stanza, parse_system

import oracles

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
deterministic yes
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
submodule gspacer
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

    @pytest.mark.parametrize("option", ["--trace", "--svg"])
    def test_unwritable_output_prints_no_summary(self, glider_file, tmp_path, capsys, option):
        target = tmp_path / "missing" / "out"
        assert main(["fold", glider_file, option, str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and str(target) in err

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

    def test_bond_free_long_delay_folds_fast(self, tmp_path, capsys):
        # With no rules no window has headroom, so each step scans its at
        # most six placements and reads no disk of about 3 * delay**2 points.
        p = tmp_path / "free.sys"
        p.write_text("delay 300\narity 1\nseed 0 0 s\nrepeat 600 a\n")
        start = time.perf_counter()
        assert main(["fold", str(p), "--mode", "first"]) == 0
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == (
            "terminal conformations: 1\ncompleted: 1\nenergy of first terminal: 0\n"
        )

    @pytest.mark.parametrize("delay, beads", [(300, 600), (1200, 1200)])
    def test_bond_free_enumerate_stops_at_the_branch_budget(self, tmp_path, capsys, delay, beads):
        # Every way on is a terminal. The count below the first node whose
        # window reaches the transcript end passes 10,000 within a few
        # thousand pushes, and it keeps its own stack, so 1,200 levels below
        # that node do not nest.
        p = tmp_path / "free.sys"
        p.write_text(f"delay {delay}\narity 1\nseed 0 0 s\nrepeat {beads} a\n")
        start = time.perf_counter()
        assert main(["fold", str(p)]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", "error: more than 10000 terminal branches\n")

    def test_deep_lookahead_past_its_push_budget_exits_2(self, tmp_path, capsys):
        # The bound counts a bond at every one of the 1,200 levels, which no
        # path reaches, so the search cannot stop early and pushes past its
        # node budget.
        p = tmp_path / "deep.sys"
        p.write_text("delay 1200\narity 1\nrule a a\nseed 0 0 a\nrepeat 1200 a\n")
        assert main(["fold", str(p), "--mode", "first"]) == 2
        assert capsys.readouterr() == (
            "", "error: lookahead for transcript bead 1 (a) pushes more than 100000 nascent beads\n"
        )


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

    def test_repeated_accepting_state_exits_2(self, tmp_path, capsys):
        # Each accepting state adds one $-transition, so a repeat is an error.
        p = tmp_path / "twice.nfa"
        p.write_text("states: q0 q1\nalphabet: a\ninitial: q0\naccept: q1 q1\ntrans: q0 a q1\n")
        assert main(["run-nfa", str(p), "--word", "a"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: duplicate accepting states\n"

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
        # Only a report lists every branch, so only a report has the budget.
        p = tmp_path / "doubling.nfa"
        p.write_text(oracles.DOUBLING_NFA)
        report = tmp_path / "out.txt"
        assert main(["run-nfa", str(p), "--word", "a" * 14, "--report", str(report)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: more than 10000 terminal branches\n"
        assert not report.exists()

    def test_enumerate_without_report_has_no_budget(self, tmp_path, capsys):
        p = tmp_path / "doubling.nfa"
        p.write_text(oracles.DOUBLING_NFA)
        assert main(["run-nfa", str(p), "--word", "a" * 14]) == 0
        assert capsys.readouterr().out == "ACCEPT branches=16384 steps=3600\n"
        start = time.perf_counter()
        assert main(["run-nfa", str(p), "--word", "a" * 1000]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        count = out.split()[1].removeprefix("branches=")
        assert count == str(2**1000) and len(count) == 302
        assert elapsed < 0.5

    def test_budget_failure_writes_no_report(self, tmp_path, capsys):
        # The branches are counted before the first one is walked, so even
        # 2**1000 of them fail at once.
        p = tmp_path / "doubling.nfa"
        p.write_text(oracles.DOUBLING_NFA)
        report = tmp_path / "out.txt"
        start = time.perf_counter()
        assert main(["run-nfa", str(p), "--word", "a" * 1000, "--report", str(report)]) == 2
        assert time.perf_counter() - start < 0.5
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
        p.write_text(oracles.DOUBLING_NFA)
        report = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            code = main(["run-nfa", str(p), "--word", "a" * 11, "--report", str(report)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < report.stat().st_size / 2

    def test_report_memory_is_flat_in_branches(self, tmp_path, capsys):
        # 512 against 8,192 branches: the peak may not follow the count.
        p = tmp_path / "doubling.nfa"
        p.write_text(oracles.DOUBLING_NFA)
        peaks = []
        for letters in (9, 13):
            tracemalloc.start()
            try:
                argv = ["run-nfa", str(p), "--word", "a" * letters,
                        "--report", str(tmp_path / "out.txt")]
                assert main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_deep_report_is_reference_report(self, tmp_path, capsys):
        # 10 doubling letters: 1,024 branches, each sharing a prefix of
        # up to 9 periods with the branch before it.
        path, report = tmp_path / "doubling.nfa", tmp_path / "run.txt"
        path.write_text(oracles.DOUBLING_NFA)
        machine, code = prepare(*parse_nfa_file(str(path)))
        word = ["a"] * 10
        assert main(["run-nfa", str(path), "--word", "a" * 10, "--report", str(report)]) == 0
        result = bricks.run_word(machine, code, word)
        assert result.branch_count == 1024
        expected = oracles.reference_report(machine, code, word, result)
        assert report.read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("mode", ["enumerate", "sample"])
    def test_report_file_is_reference_report_on_random_machines(self, tmp_path, capsys, mode):
        rng = random.Random(5150)
        path, report = tmp_path / "m.nfa", tmp_path / "run.txt"
        for _ in range(40):
            nfa = oracles.random_nfa(rng)
            path.write_text(oracles.nfa_text(nfa))
            machine, code = prepare(*parse_nfa_file(str(path)))
            word = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 6))]
            seed = rng.randrange(1000)
            argv = ["run-nfa", str(path), "--word", " ".join(word), "--mode", mode,
                    "--rng-seed", str(seed), "--report", str(report)]
            result = bricks.run_word(machine, code, word, mode=mode, rng=seed)
            assert main(argv) == (0 if result.accepted else 1)
            expected = oracles.reference_report(machine, code, word, result)
            assert report.read_bytes() == expected.encode("utf-8")
            assert capsys.readouterr().out == expected.splitlines()[-1] + "\n"


class TestCompileCommand:
    def test_emits_seed_stanza(self, nfa_file, tmp_path, capsys):
        out = tmp_path / "seed.sys"
        assert main(["compile", nfa_file, "--word", "100", "--out", str(out)]) == 0
        text = out.read_text()
        seed_lines = [l for l in text.splitlines() if l.startswith("seed ")]
        assert len(seed_lines) == 98 + 276
        assert "seedbond" not in text  # the Gamma seed is bond-free
        # The emitted stanza parses back as a system seed.
        system = parse_system("delay 3\narity 2\n" + text)
        assert len(system.seed) == 98 + 276

    def test_stanza_is_build_seeds_path_and_beads(self, tmp_path, capsys):
        rng = random.Random(1919)
        path, out = tmp_path / "m.nfa", tmp_path / "seed.sys"
        for k in range(30):
            nfa = oracles.random_nfa(rng)
            path.write_text(oracles.nfa_text(nfa))
            machine, code = prepare(*parse_nfa_file(str(path)))
            word = [rng.choice(nfa.alphabet) for _ in range(0 if k < 3 else rng.randint(1, 5))]
            assert main(["compile", str(path), "--word", " ".join(word), "--out", str(out)]) == 0
            arms, conformation = build_seed(machine, code, word)
            header = (
                f"# seed for {len(machine.transitions)}-slot machine, "
                f"word of {len(word)} letters plus end marker\n"
                f"# horizontal arm {len(arms.horizontal)} beads, "
                f"vertical arm {len(arms.vertical)} beads\n"
            )
            # The arms are written straight; the conformation's stanza is the reference.
            assert out.read_text() == header + format_seed_stanza(conformation)
            system = parse_system("delay 1\narity 1\n" + out.read_text())
            assert system.seed == conformation
            assert capsys.readouterr().out == f"wrote {len(conformation)} seed beads to {out}\n"

    def test_compiled_seed_folds(self, tmp_path, capsys):
        # The paper's pipeline: a Gamma seed for the word, then a fold that
        # starts at the row's east end.
        out, system = tmp_path / "seed.sys", tmp_path / "run.sys"
        assert main(["compile", str(DEMOS / "branching.nfa"), "--word", "100", "--out", str(out)]) == 0
        head = "delay 3\narity 2\nrule a 625\nrule b 624\nrule a 505\nrule c 623\n"
        system.write_text(head + "transcript a b c\n" * 4 + out.read_text())
        capsys.readouterr()
        assert main(["fold", str(system)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "terminal conformations: 4782", "completed: 4706"
        ]
        outcomes = folding.fold_all(parse_system(system.read_text()))
        assert (len(outcomes), sum(o.completed for o in outcomes)) == (4782, 4706)

    def test_bytes_are_pinned(self, tmp_path, capsys):
        out = tmp_path / "seed.sys"
        nfa = Path(__file__).parents[1] / "demos" / "branching.nfa"
        assert main(["compile", str(nfa), "--word", "100 100", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote 512 seed beads to {out}\n"
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "67ec0f1602baf63e5c8490bb1f56ec53c5eeba74fc7e580843ce9ec91fc0b129"


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

    def test_closure_violation_exits_1(self, tmp_path, capsys):
        # The mirrored seed routes the spacer out at the bottom, and the only
        # environment is declared with entry T.
        defs = tmp_path / "gspacer.defs"
        defs.write_text("".join(x for x in DEFS.splitlines(True) if not x.startswith("expect ")))
        catalog = tmp_path / "bottom.cat"
        catalog.write_text(CATALOG[CATALOG.index("env band_bottom"):].replace("entry B", "entry T"))
        assert main(["check-bricks", str(defs), str(catalog)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "closure violation: no declared environment with entry B follows band_bottom\n"

    @pytest.mark.parametrize("fragment, deterministic, seed, message", [
        # With no rules, the first fold runs east from a single bead.
        ("a a", "no", [(0, 0)],
         "UnexpectedFold: loose in here: fragment folded flat; no row band to classify"),
        # The seed ends at the centre of its own ring.
        ("a a", "no", [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (0, 0)],
         "UnexpectedFold: loose in here: every branch dead-ends"),
        # With no rules every placement ties: five beads fold more than 512 ways.
        ("a a a a a", "no", [(0, 0)],
         "UnexpectedFold: loose in here: unresolved ties exceed the branch budget"),
        # The same two beads, declared deterministic, tie in 30 ways.
        ("a a", "yes", [(0, 0)], "NondeterministicBrick: loose in here: 30 distinct folds"),
    ], ids=["flat", "dead-end", "branch-budget", "nondeterministic"])
    def test_unclassified_fold_exits_1(self, tmp_path, capsys, fragment, deterministic, seed, message):
        defs = tmp_path / "loose.defs"
        defs.write_text(
            f"submodule loose\ndelay 1\narity 1\nfragment {fragment}\ndeterministic {deterministic}\n"
        )
        catalog = tmp_path / "loose.cat"
        lines = "".join(f"seed {x} {y} z\n" for x, y in seed)
        catalog.write_text(f"env here\n{lines}entry T\ninput 1\n")
        assert main(["check-bricks", str(defs), str(catalog)]) == 1
        out, err = capsys.readouterr()
        assert out == f"here !! {message}\n\ndigraph bricks {{\n}}\n"
        assert err == ""

    @pytest.mark.parametrize("empty, message", [
        ("catalog", "no 'env' stanza"),
        ("defs", "no 'submodule' stanza"),
    ], ids=["catalog", "defs"])
    def test_empty_file_exits_2(self, tmp_path, capsys, empty, message):
        paths = {"defs": tmp_path / "gspacer.defs", "catalog": tmp_path / "bands.cat"}
        paths["defs"].write_text(DEFS)
        paths["catalog"].write_text(CATALOG)
        paths[empty].write_text("")
        assert main(["check-bricks", str(paths["defs"]), str(paths["catalog"])]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

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
# put at, None appending it, and the message that follows "line N: ").
# A single-valued directive goes in at or before the file's own line, so
# that it is read first and does not hit the second-line check instead.
MALFORMED = [
    ("defs", "delay", 2, "expected 'delay N'"),
    ("defs", "repeat", None, "expected 'repeat COUNT BEAD ...'"),
    ("defs", "repeat -1 579", None, "'repeat' COUNT must be >= 0, got -1"),
    ("defs", "repeat 10000000000000000000 579", None,
     "'repeat' COUNT 10000000000000000000 is too large"),
    ("defs", "deterministic", 2, "expected 'deterministic yes|no'"),
    ("defs", "deterministic yess", 2, "expected 'deterministic yes|no'"),
    ("sys", "repeat", None, "expected 'repeat COUNT BEAD ...'"),
    ("sys", "repeat 4611686018427387904 579", None,
     "'repeat' COUNT 4611686018427387904 is too large"),
    ("sys", "seed 0 0", 3, "expected 'seed X Y BEAD'"),
    ("cat", "entry T B", 2, "expected 'entry T|B'"),
    ("cat", "seed 0 0", None, "expected 'seed X Y BEAD'"),
    ("nfa", "trans: a x", None, "expected 'trans: ORIGIN LETTER TARGET'"),
    ("nfa", "alphabet: a,b", None, "letter 'a,b' holds a comma, which splits words"),
    ("sys", "delay 0", 1, "'delay' must be >= 1, got 0"),
    ("sys", "arity 0", 2, "'arity' must be >= 1, got 0"),
    ("defs", "delay 0", 2, "'delay' must be >= 1, got 0"),
    ("defs", "arity 0", 3, "'arity' must be >= 1, got 0"),
    ("defs", "expect Q 1 T 588", None, "'expect' ENTRY must be T|B, got 'Q'"),
    ("defs", "expect T 7 T 588", None, "'expect' INPUT must be 0|1|N|Y, got '7'"),
    ("defs", "expect T 1 Z 588", None, "'expect' EXIT must be T|B, got 'Z'"),
    ("defs", "expect T 1 T 588 587 582 581", None, "a second 'expect' line for T 1"),
    ("cat", "entry X", 10, "'entry' must be T|B, got 'X'"),
    ("cat", "input 7", 11, "'input' must be 0|1|N|Y, got '7'"),
    # A second single-valued directive.
    ("sys", "delay 1", None, "a second 'delay' line"),
    ("sys", "arity 1", None, "a second 'arity' line"),
    ("defs", "delay 3", None, "a second 'delay' line"),
    ("defs", "arity 2", None, "a second 'arity' line"),
    ("defs", "deterministic no", None, "a second 'deterministic' line"),
    ("nfa", "initial: 1000", None, "a second 'initial:' line"),
    ("nfa", "statecode: 1000 1000", None, "a second 'statecode:' line for 1000"),
    ("nfa", "lettercode: $ 101", None, "a second 'lettercode:' line for $"),
    ("nfa", "trans: 1011 100 1000", None, "a second 'trans: 1011 100 1000' line"),
    ("cat", "entry B", None, "a second 'entry' line"),
    ("cat", "input 1", None, "a second 'input' line"),
    ("cat", "submodule gspacer", None, "a second 'submodule' line"),
    # A second rule or seed bond for one pair, in either order.
    ("sys", "rule 579 584", None, "a second 'rule 579 584' line"),
    ("sys", "rule 584 579", None, "a second 'rule 584 579' line"),
    ("sys", "seedbond 1 6", None, "a second 'seedbond 1 6' line"),
    ("sys", "seedbond 6 1", None, "a second 'seedbond 6 1' line"),
    ("defs", "rule 584 579", None, "a second 'rule 584 579' line"),
    ("cat", "seedbond 6 1", None, "a second 'seedbond 6 1' line"),
    # A list directive with no items.
    ("sys", "transcript", None, "expected 'transcript BEAD ...'"),
    ("defs", "fragment", None, "expected 'fragment BEAD ...'"),
    ("nfa", "states:", None, "expected 'states: NAME ...'"),
    ("nfa", "alphabet:", None, "expected 'alphabet: NAME ...'"),
    ("nfa", "accept:", None, "expected 'accept: NAME ...'"),
    # A key the format does not take.
    ("sys", "bogus 1", None, "unknown directive 'bogus'"),
    ("cat", "bogus 1", None, "unknown directive 'bogus'"),
    ("defs", "bogus 1", None, "unknown directive 'bogus'"),
    ("defs", "seed 0 0 579", None, "unknown directive 'seed'"),
    ("nfa", "bogus: 1", None, "unknown directive 'bogus:'"),
]


@pytest.mark.parametrize(
    "kind, line, at, message", MALFORMED, ids=[f"{k}:{l}" for k, l, _, _ in MALFORMED]
)
def test_malformed_line_is_input_error(tmp_path, capsys, kind, line, at, message):
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
    assert capsys.readouterr().err == f"error: line {at}: {message}\n"
