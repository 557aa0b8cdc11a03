"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they go.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import random
import time
from contextlib import contextmanager

import pytest

from oritatami.bricks import (
    HALT,
    BrickRow,
    boundary_row,
    module1,
    module2,
    module3,
    module4,
    run_word,
    step_count,
)
from oritatami.fixtures import (
    GLIDER_PERIOD,
    GLIDER_RULES,
    glider_seed,
    glider_system,
)
from oritatami.folding import Conformation, DeadEnd, fold_all, fold_summary, stabilize_next
from oritatami.harness import Environment, SubmoduleDef, explore_closure
from oritatami.nfa import DOLLAR, Encoding, Nfa, assign_codes, augment, oracle_accepts
from oritatami.seed import (
    decode_input_column,
    decode_state_row,
    encode_input_column,
    encode_state_row,
)

import oracles


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {num}: {title}")
        raise
    print(f"PASS  criterion {num}: {title}")


def test_criterion_1_glider_reproduction():
    with criterion(1, "glider folds 10 periods deterministically, translating uniformly"):
        t0 = time.perf_counter()
        system = glider_system(periods=10)
        outcomes = fold_all(system, "enumerate")
        assert len(outcomes) == 1 and outcomes[0].completed
        conf = outcomes[0].conformation
        seed_len = len(system.seed)
        first_period = conf.path[seed_len : seed_len + 12]
        shift = (
            conf.path[seed_len + 12].x - first_period[0].x,
            conf.path[seed_len + 12].y - first_period[0].y,
        )
        for p in range(9):
            for i in range(12):
                a = conf.path[seed_len + 12 * p + i]
                b = conf.path[seed_len + 12 * (p + 1) + i]
                assert (b.x - a.x, b.y - a.y) == shift
        assert fold_summary(system)[:2] == (1, 1)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_lookahead_oracle_equivalence():
    with criterion(2, "stabilization argmin matches brute-force search on 500 random systems"):
        t0 = time.perf_counter()
        rng = random.Random(20240817)
        systems = 0
        while systems < 500:
            system = oracles.random_system(rng)
            systems += 1
            conf = system.seed
            for i in range(len(system.transcript)):
                expected = oracles.brute_minimizers(system, conf, i)
                if not expected:
                    with pytest.raises(DeadEnd):
                        stabilize_next(system, conf, i)
                    break
                got = stabilize_next(system, conf, i)
                assert set(map(oracles.choice_key, got)) == expected
                choice = got[0]
                new_idx = len(conf.path)
                conf = Conformation(
                    conf.path + (choice.point,),
                    conf.beads + (system.transcript[i],),
                    conf.bonds | {(p, new_idx) for p in choice.bonds},
                )
        assert time.perf_counter() - t0 < 60.0


def test_criterion_3_nfa_language_equivalence():
    with criterion(3, "brick-machine acceptance equals the NFA oracle on 200 machines"):
        t0 = time.perf_counter()
        rng = random.Random(31337)
        agreements = 0
        for _ in range(200):
            nfa = oracles.random_nfa(rng)
            machine = augment(nfa)
            code = assign_codes(machine)
            for word in oracles.all_words(nfa.alphabet, 5):
                assert run_word(machine, code, word).accepted == oracle_accepts(nfa, word)
                agreements += 1
        assert agreements >= 200 * 6
        assert time.perf_counter() - t0 < 60.0


def test_criterion_4_worked_module_rows():
    with criterion(4, "worked machine reproduces the four hand-traced stage rows"):
        nfa, code = oracles.branching_machine()
        r1 = module1(boundary_row(code, "1011"), code, nfa)
        assert r1.x == ("N", "Y", "Y", "Y")
        r2 = module2(r1, code, nfa, "100")
        assert r2.x == ("N", "Y", "N", "Y")
        outcomes = module3(r2)
        assert {o.x.index("Y") + 1 for o in outcomes} == {2, 4}
        chosen_f2 = next(o for o in outcomes if o.x.index("Y") == 1)
        r4 = module4(chosen_f2, code, nfa)
        assert r4.z == (1, 0, 0, 0)
        assert r4.x == ("N", "N", "N", "N")


def test_criterion_5_halting():
    with criterion(5, "zero valid transitions halt the branch; all-halt runs report REJECT"):
        nfa, code = oracles.branching_machine()
        # Unit level: a survivor-free row halts.
        assert module3(BrickRow(("N",) * 4, (None,) * 4)) == (HALT,)
        # Run level: every branch of the rejecting word halts at period 2.
        result = run_word(nfa, code, ["100", "100"])
        assert not result.accepted
        assert result.branch_count == 2
        assert all(o.halt_period == 2 for o in result.outcomes)
        assert all(o.traces[-1].halted for o in result.outcomes)


def _machine_with_n_transitions(n_transitions):
    # Three letters keep m = ceil(log2(3 + 1)) = 2; no accepting states, so
    # augmentation adds no transitions and n stays exact.
    states = [f"q{i}" for i in range(3)]
    letters = ["a", "b", "c"]
    triples = [(o, a, t) for o in states for a in letters for t in states]
    nfa = Nfa(tuple(states), tuple(letters), "q0", (), tuple(triples[:n_transitions]))
    machine = augment(nfa)
    return machine, assign_codes(machine)


def test_criterion_6_step_count_scaling():
    with criterion(6, "cell count is linear in t and scales by ~4 when n doubles"):
        _, code8 = _machine_with_n_transitions(8)
        _, code16 = _machine_with_n_transitions(16)
        assert code8.state_bits == 8 and code16.state_bits == 16
        assert code8.letter_bits == code16.letter_bits == 2
        # Linearity: counts are proportional to t + 1, exactly.
        for t1, t2 in [(0, 1), (1, 3), (2, 9)]:
            c1 = step_count(code8, t1)
            c2 = step_count(code8, t2)
            assert c2 * (t1 + 1) == c1 * (t2 + 1)
        # Doubling n at fixed m, t.
        for t in (0, 1, 5):
            ratio = step_count(code16, t) / step_count(code8, t)
            assert 3.5 <= ratio <= 4.5


def test_criterion_7_two_choice_fairness():
    with criterion(7, "two valid transitions are sampled 50/50 within 0.02 over 10k runs"):
        nfa, code = oracles.branching_machine()
        rng = random.Random(777)
        counts = {2: 0, 4: 0}
        for _ in range(10_000):
            result = run_word(nfa, code, ["100"], mode="sample", rng=rng)
            counts[result.outcomes[0].traces[0].chosen] += 1
        assert counts[2] + counts[4] == 10_000
        assert abs(counts[2] / 10_000 - 0.5) <= 0.02
        assert abs(counts[4] / 10_000 - 0.5) <= 0.02


def test_criterion_8_codec_round_trips():
    with criterion(8, "row and column codecs round-trip 1000 random cases"):
        rng = random.Random(515)
        for _ in range(500):
            n = rng.randint(1, 8)
            q = "".join(rng.choice("01") for _ in range(n))
            flags = tuple(rng.choice("NY") for _ in range(n))
            assert decode_state_row(encode_state_row(q, flags)) == (q, flags)
        for _ in range(500):
            m = rng.randint(1, 4)
            letters = [f"l{i}" for i in range(rng.randint(1, min(4, 2**m - 1)))]
            codes = rng.sample([format(v, f"0{m}b") for v in range(2**m)], len(letters) + 1)
            encoding = Encoding({}, dict(zip(letters + [DOLLAR], codes)), 0, m)
            n = rng.randint(1, 8)
            word = [rng.choice(letters + [DOLLAR]) for _ in range(rng.randint(1, 4))]
            col = encode_input_column(word, encoding, n)
            assert decode_input_column(col, n, encoding) == tuple(word)


def test_criterion_9_glider_brick_closure():
    with criterion(9, "glider closure yields two self-consistent environments"):
        sub = SubmoduleDef(
            name="gspacer",
            fragment=GLIDER_PERIOD,
            rules=GLIDER_RULES,
            delay=3,
            arity=2,
            expected={
                ("T", "1"): ("T", ("588", "587", "582", "581")),
                ("B", "1"): ("B", ("590", "585", "584", "579")),
            },
        )
        envs = [
            Environment("band_top", glider_seed(), "T", "1"),
            Environment("band_bottom", glider_seed(mirrored=True), "B", "1"),
        ]
        auto = explore_closure({"gspacer": sub}, envs)
        assert auto.failures == []
        assert len(auto.environments) == 2
        assert sorted(auto.transitions) == [
            ("band_bottom", "B", "band_bottom"),
            ("band_top", "T", "band_top"),
        ]
        assert auto.bricks["band_bottom"].exposed == ("590", "585", "584", "579")
        assert auto.bricks["band_top"].exposed == ("588", "587", "582", "581")
