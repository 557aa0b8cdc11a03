import random
from collections import Counter

import pytest

from oritatami.bricks import (
    HALT,
    BrickRow,
    NoChoiceMarked,
    PeriodTrace,
    boundary_row,
    branches,
    format_report,
    format_row,
    mark_first_valid,
    module1,
    module2,
    module3,
    module4,
    run_verdict,
    run_word,
    step_count,
)
from oritatami.bricks import _period_table
from oritatami.folding import BRANCH_BUDGET, BranchBudgetExceeded
from oritatami.nfa import DOLLAR, LetterNotEncoded, Nfa, assign_codes, augment, oracle_accepts

import oracles


@pytest.fixture(scope="module")
def machine():
    return oracles.branching_machine()


class TestRow:
    def test_boundary_row(self, machine):
        nfa, code = machine
        row = boundary_row(code, "1011")
        assert row.x == ("N",) * 4
        assert row.z == (1, 0, 1, 1)
        assert row.is_boundary()

    def test_rejects_mismatched_slots(self):
        with pytest.raises(ValueError):
            BrickRow(("N",), (0, 1))
        with pytest.raises(ValueError):
            BrickRow(("Q",), (0,))

    @pytest.mark.parametrize(
        "value", ["N", "Y", "Y'", "Q", "", None, 0, 1, 2, True, False, 0.0, [0], {}], ids=repr
    )
    @pytest.mark.parametrize("slot", ["x", "z"])
    def test_slot_values_are_checked_as_in_a_tuple(self, slot, value):
        # A slot value is accepted iff it is ``in`` the tuple of allowed
        # values, and rejected with ValueError, unhashable values included.
        if slot == "x":
            allowed, args = value in ("N", "Y", "Y'"), ((value,), (0,))
        else:
            allowed, args = value in (0, 1, None), (("N",), (value,))
        if allowed:
            assert BrickRow(*args).n == 1
        else:
            with pytest.raises(ValueError, match=f"bad {slot} values"):
                BrickRow(*args)

    def test_format(self):
        row = BrickRow(("N", "Y'", "N", "Y"), (None, None, None, None))
        assert format_row(row) == "x=[N,Y',N,Y] z=[-,-,-,-]"


class TestModule1:
    def test_worked_row(self, machine):
        nfa, code = machine
        row = module1(boundary_row(code, "1011"), code, nfa)
        assert row.x == ("N", "Y", "Y", "Y")
        assert row.z == (1, 0, 1, 1)

    def test_no_origin_matches(self, machine):
        nfa, code = machine
        row = module1(boundary_row(code, "1000"), code, nfa)
        assert row.x == ("N",) * 4

    def test_single_slot_machine(self):
        nfa = Nfa(("q0",), ("a",), "q0", (), (("q0", "a", "q0"),))
        aug = augment(nfa)
        code = assign_codes(aug)
        row = module1(boundary_row(code, "q0"), code, aug)
        assert row.x == ("Y",)

    def test_requires_boundary_row(self, machine):
        nfa, code = machine
        bad = BrickRow(("Y", "N", "N", "N"), (1, 0, 1, 1))
        with pytest.raises(ValueError):
            module1(bad, code, nfa)


class TestModule2:
    def test_worked_row(self, machine):
        nfa, code = machine
        row = module1(boundary_row(code, "1011"), code, nfa)
        out = module2(row, code, nfa, "100")
        assert out.x == ("N", "Y", "N", "Y")
        assert out.z == (None,) * 4

    def test_letter_matching_everything_keeps_row(self, machine):
        nfa, code = machine
        row = BrickRow(("Y", "N", "Y", "N"), (1, 0, 1, 1))
        out = module2(row, code, nfa, DOLLAR)  # slots 1 and 3 read $
        assert out.x == ("Y", "N", "Y", "N")

    def test_all_n_stays_all_n(self, machine):
        nfa, code = machine
        row = BrickRow(("N",) * 4, (0, 0, 1, 1))
        assert module2(row, code, nfa, "100").x == ("N",) * 4

    def test_unknown_letter(self, machine):
        nfa, code = machine
        row = boundary_row(code, "1011")
        with pytest.raises(LetterNotEncoded):
            module2(row, code, nfa, "999")


class TestModule3:
    def test_marks_smallest_survivor(self):
        row = BrickRow(("N", "Y", "N", "Y"), (None,) * 4)
        marked = mark_first_valid(row)
        assert marked.x == ("N", "Y'", "N", "Y")

    def test_enumerate_outcomes_are_one_hot(self):
        row = BrickRow(("N", "Y", "N", "Y"), (None,) * 4)
        outcomes = module3(row)
        assert [o.x for o in outcomes] == [
            ("N", "Y", "N", "N"),
            ("N", "N", "N", "Y"),
        ]
        assert all(o.z == (0, 0, 0, 0) for o in outcomes)

    def test_halts_without_survivors(self):
        row = BrickRow(("N",) * 4, (None,) * 4)
        assert module3(row) == (HALT,)

    def test_unknown_choice_mode_rejected(self):
        row = BrickRow(("N", "Y"), (None,) * 2)
        with pytest.raises(ValueError, match="^unknown choice mode 'flip'$"):
            module3(row, "flip")

    def test_single_survivor_is_forced(self):
        row = BrickRow(("N", "N", "Y", "N"), (None,) * 4)
        outcomes = module3(row)
        assert len(outcomes) == 1
        assert outcomes[0].x == ("N", "N", "Y", "N")
        (coin_outcome,) = module3(row, "coin", rng=5)
        assert coin_outcome == outcomes[0]

    def test_coin_spread_over_two_choices(self):
        row = BrickRow(("N", "Y", "N", "Y"), (None,) * 4)
        rng = random.Random(991)
        counts = Counter(module3(row, "coin", rng)[0].x.index("Y") for _ in range(4000))
        assert set(counts) == {1, 3}
        assert abs(counts[1] / 4000 - 0.5) < 0.03

    def test_outcome_set_soundness_random_rows(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(1, 9)
            x = tuple(rng.choice(("N", "Y")) for _ in range(n))
            row = BrickRow(x, (None,) * n)
            outcomes = module3(row)
            survivors = {k for k, v in enumerate(x) if v == "Y"}
            if not survivors:
                assert outcomes == (HALT,)
            else:
                assert {o.x.index("Y") for o in outcomes} == survivors
                for o in outcomes:
                    assert sum(v == "Y" for v in o.x) == 1  # exactly one chosen
                    assert o.z == (0,) * n


class TestModule4:
    def test_worked_row(self, machine):
        nfa, code = machine
        row = BrickRow(("N", "Y", "N", "N"), (0, 0, 0, 0))
        out = module4(row, code, nfa)
        assert out.z == (1, 0, 0, 0)
        assert out.x == ("N",) * 4
        assert out.is_boundary()

    def test_fourth_slot_targets_1111(self, machine):
        nfa, code = machine
        row = BrickRow(("N", "N", "N", "Y"), (0, 0, 0, 0))
        assert module4(row, code, nfa).z == (1, 1, 1, 1)

    def test_single_slot(self):
        nfa = Nfa(("q0",), ("a",), "q0", (), (("q0", "a", "q0"),))
        aug = augment(nfa)
        code = assign_codes(aug)  # q0 -> "0"
        out = module4(BrickRow(("Y",), (0,)), code, aug)
        assert out.z == (0,)
        assert out.x == ("N",)

    def test_every_slot_restores_its_targets_boundary_row(self, machine):
        nfa, code = machine
        n = len(nfa.transitions)
        for k, t in enumerate(nfa.transitions):
            row = BrickRow(tuple("Y" if j == k else "N" for j in range(n)), (0,) * n)
            assert module4(row, code, nfa) == boundary_row(code, t.target)

    def test_rejects_zero_or_two_choices(self, machine):
        nfa, code = machine
        with pytest.raises(NoChoiceMarked):
            module4(BrickRow(("N",) * 4, (0,) * 4), code, nfa)
        with pytest.raises(NoChoiceMarked):
            module4(BrickRow(("Y", "Y", "N", "N"), (0,) * 4), code, nfa)
        with pytest.raises(NoChoiceMarked):
            module4(BrickRow(("N", "Y", "N", "N"), (0, 1, 0, 0)), code, nfa)


class TestRunWord:
    def test_worked_word(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100"])
        assert result.accepted
        assert result.branch_count == 2
        states = {o.states for o in result.outcomes}
        assert ("1011", "1111", "0011") in states
        assert ("1011", "1000") in states
        surviving = next(o for o in result.outcomes if o.accepted)
        assert surviving.halt_period is None
        halted = next(o for o in result.outcomes if not o.accepted)
        assert halted.halt_period == 2

    def test_empty_word_accepts_through_dollar_period(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, [])
        assert result.accepted
        (outcome,) = result.outcomes
        assert outcome.states == ("1011", "0011")
        assert outcome.traces[0].chosen == 3  # the $-move from the initial state

    def test_rejecting_word_reports_halt_periods(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100", "100"])
        assert not result.accepted
        assert result.branch_count == 2
        assert all(o.halt_period == 2 for o in result.outcomes)

    def test_period_traces_record_rows(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100"])
        surviving = next(o for o in result.outcomes if o.accepted)
        t1 = surviving.traces[0]
        assert t1.after_module1.x == ("N", "Y", "Y", "Y")
        assert t1.after_module2.x == ("N", "Y", "N", "Y")
        assert t1.marked.x == ("N", "Y'", "N", "Y")
        assert t1.after_module4.is_boundary()

    def test_halted_trace_has_no_late_rows(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100", "100"])
        halted = result.outcomes[0]
        last = halted.traces[-1]
        assert last.halted
        assert last.after_module3 is None
        assert last.after_module4 is None
        assert last.chosen is None

    def test_word_outside_alphabet_rejected(self, machine):
        nfa, code = machine
        with pytest.raises(ValueError):
            run_word(nfa, code, ["bogus"])

    def test_sample_mode_follows_one_branch(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100"], mode="sample", rng=3)
        assert result.branch_count == 1
        assert result.outcomes[0].states in {("1011", "1111", "0011"), ("1011", "1000")}

    def test_long_word_in_both_modes(self):
        nfa = augment(Nfa(("p",), ("a",), "p", ("p",), (("p", "a", "p"),)))
        code = assign_codes(nfa)
        for mode in ("enumerate", "sample"):
            result = run_word(nfa, code, ["a"] * 3000, mode=mode)
            (outcome,) = result.outcomes
            assert outcome.accepted
            assert len(outcome.traces) == 3001

    def test_sample_follows_the_stage_replay(self):
        # From q0 three transitions read a, so some periods have three
        # survivors; q2 has no $-move, so branches that end there halt.
        nfa = augment(Nfa(
            ("q0", "q1", "q2"), ("a",), "q0", ("q0", "q1"),
            (("q0", "a", "q0"), ("q0", "a", "q1"), ("q0", "a", "q2"),
             ("q1", "a", "q0"), ("q2", "a", "q2")),
        ))
        code = assign_codes(nfa)
        word = ["a"] * 6
        branches = set()
        for s in range(30):
            (outcome,) = run_word(nfa, code, word, mode="sample", rng=s).outcomes
            # The same branch, period by period, from the four stages.
            rng = random.Random(s)
            states, chosen = [nfa.initial], []
            for letter in word + [nfa.dollar]:
                r1 = module1(boundary_row(code, states[-1]), code, nfa)
                (r3,) = module3(module2(r1, code, nfa, letter), "coin", rng)
                if r3 is HALT:
                    chosen.append(None)
                    break
                k = r3.x.index("Y")
                assert module4(r3, code, nfa) == boundary_row(code, nfa.transitions[k].target)
                states.append(nfa.transitions[k].target)
                chosen.append(k + 1)
            assert outcome.states == tuple(states)
            assert [t.chosen for t in outcome.traces] == chosen
            branches.add(outcome.states)
        assert len(branches) > 5

    def test_language_equivalence_small_corpus(self):
        rng = random.Random(515151)
        for _ in range(40):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            code = assign_codes(aug)
            for word in oracles.all_words(nfa.alphabet, 3):
                assert run_word(aug, code, word).accepted == oracle_accepts(nfa, word)

    def test_row_format_closure_on_random_machines(self):
        # Every completed period ends in a period-boundary row whose z bits
        # spell the state recorded in the branch.
        rng = random.Random(808)
        for _ in range(25):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            code = assign_codes(aug)
            for word in oracles.all_words(nfa.alphabet, 2):
                outcomes = run_word(aug, code, word).outcomes
                assert len(set(outcomes)) == len(outcomes)
                for outcome in outcomes:
                    for trace, state in zip(outcome.traces, outcome.states[1:]):
                        if trace.halted:
                            continue
                        assert trace.after_module4.is_boundary()
                        bits = "".join(str(b) for b in trace.after_module4.z)
                        assert bits == code.state_code[state]


def replayed_period(nfa, code, state, letter):
    """One period run afresh through the stages: what the period table must
    hold for (state, letter)."""
    r1 = module1(boundary_row(code, state), code, nfa)
    r2 = module2(r1, code, nfa, letter)
    marked = mark_first_valid(r2)
    if marked is None:
        assert module3(r2) == (HALT,)
        return [(PeriodTrace(letter, r1, r2, None, None, None, None, True), None)]
    options = []
    for r3 in module3(r2):
        k = r3.x.index("Y")
        trace = PeriodTrace(letter, r1, r2, marked, r3, module4(r3, code, nfa), k + 1, False)
        options.append((trace, nfa.transitions[k].target))
    return options


class TestPeriodTable:
    def test_entries_match_a_fresh_stage_replay_and_own_their_slots(self):
        # Every (state, letter) of random machines, $ included, in a
        # shuffled order: each entry equals the stages run afresh, and each
        # slot is chosen in exactly one entry, the one of its transition's
        # origin and letter, so a per-slot cache of rows could never hit.
        rng = random.Random(2626)
        entries = halts = 0
        for _ in range(60):
            aug = augment(oracles.random_nfa(rng))
            code = assign_codes(aug)
            table = _period_table(aug, code)
            pairs = [(q, a) for q in aug.states for a in (*aug.alphabet, aug.dollar)]
            rng.shuffle(pairs)
            chosen_in = {}
            for state, letter in pairs:
                options = table(state, letter)
                assert options == replayed_period(aug, code, state, letter)
                assert table(state, letter) is options
                for trace, _ in options:
                    if not trace.halted:
                        chosen_in.setdefault(trace.chosen, []).append((state, letter))
                entries += 1
                halts += options[0][0].halted
            assert chosen_in == {k + 1: [(t.origin, t.letter)] for k, t in enumerate(aug.transitions)}
        assert entries > 300 and 0 < halts < entries


def replayed_branches(nfa, code, word):
    """Every terminal branch as (traces, states, accepted), in depth-first
    slot order, with each period run afresh through the stages."""
    letters = [*word, nfa.dollar]

    def grow(traces, states):
        for trace, target in replayed_period(nfa, code, states[-1], letters[len(traces)]):
            if target is None:
                yield [*traces, trace], states, False
            elif len(traces) + 1 == len(letters):
                yield [*traces, trace], [*states, target], True
            else:
                yield from grow([*traces, trace], [*states, target])

    return list(grow([], [nfa.initial]))


class TestBranches:
    def test_walk_order_and_kept_traces(self):
        # The branches come in depth-first slot order, and each one's first
        # ``kept`` traces are the previous branch's objects. The walker
        # reuses the lists it yields, so each is copied at once.
        rng = random.Random(8128)
        pairs = 0
        for _ in range(150):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            code = assign_codes(aug)
            word = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 8))]
            walked = []
            for traces, states, accepted, kept in branches(aug, code, word):
                traces = list(traces)
                if not walked:
                    assert kept == 0
                else:
                    previous = walked[-1][0]
                    assert kept < min(len(previous), len(traces))
                    assert all(a is b for a, b in zip(previous[:kept], traces[:kept]))
                    assert traces[kept] is not previous[kept]
                    pairs += 1
                walked.append((traces, list(states), accepted))
            assert walked == replayed_branches(aug, code, word)
        assert pairs > 500

    def test_unknown_run_mode_rejected(self):
        aug, code = oracles.branching_machine()
        with pytest.raises(ValueError, match="^unknown run mode 'first'$"):
            branches(aug, code, ["100"], "first")


class TestRunVerdict:
    def test_frontier_matches_run_word_and_oracle(self):
        # Words up to 16 letters: some machines pass the branch budget,
        # which only run_word keeps.
        rng = random.Random(90210)
        over = 0
        for _ in range(200):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            code = assign_codes(aug)
            word = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 16))]
            accepted, count = run_verdict(aug, code, word)
            assert accepted == oracle_accepts(nfa, word)
            try:
                result = run_word(aug, code, word)
            except BranchBudgetExceeded:
                assert count > BRANCH_BUDGET
                over += 1
                continue
            assert (result.accepted, result.branch_count) == (accepted, count)
            seed = rng.randrange(1000)
            sample = run_word(aug, code, word, mode="sample", rng=seed)
            assert run_verdict(aug, code, word, "sample", seed) == (sample.accepted, 1)
        assert 0 < over < 200


class TestStepCount:
    def test_worked_formula(self, machine):
        _, code = machine
        assert step_count(code, 1) == 2 * 24 * 8 == 384

    def test_empty_word(self, machine):
        _, code = machine
        assert step_count(code, 0) == 1 * 24 * 8

    def test_linear_in_word_length(self, machine):
        _, code = machine
        assert step_count(code, 9) == 5 * step_count(code, 1)


class TestReport:
    def test_report_shape(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100"])
        report = format_report(nfa, code, ["100"], result)
        lines = report.splitlines()
        assert lines[0] == "word: 100 $"
        assert lines[-1] == "ACCEPT branches=2 steps=384"
        assert any("module3 HALT" in line for line in lines)
        assert any("x=[N,Y',N,Y]" in line for line in lines)

    def test_reject_report(self, machine):
        nfa, code = machine
        result = run_word(nfa, code, ["100", "100"])
        report = format_report(nfa, code, ["100", "100"], result)
        assert report.splitlines()[-1].startswith("REJECT (all branches halted)")

    def test_matches_line_by_line_reference(self):
        # Random machines in both modes, the empty word included; the
        # corpus must reach halted branches and traces shared by branches.
        rng = random.Random(4242)
        halted = shared = 0
        for _ in range(60):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            code = assign_codes(aug)
            for word in oracles.all_words(nfa.alphabet, 3):
                for mode in ("enumerate", "sample"):
                    result = run_word(aug, code, word, mode=mode, rng=rng.randrange(1000))
                    expected = oracles.reference_report(aug, code, word, result)
                    assert format_report(aug, code, word, result) == expected
                    halted += sum(not o.accepted for o in result.outcomes)
                    traces = [t for o in result.outcomes for t in o.traces]
                    shared += len(traces) - len({id(t) for t in traces})
        assert halted > 0
        assert shared > 0
