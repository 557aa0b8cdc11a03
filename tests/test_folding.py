import random
from collections import Counter
from pathlib import Path

import pytest

from oritatami.fixtures import GLIDER_RULES, glider_seed, glider_system
from oritatami import folding
from oritatami.folding import (
    BranchBudgetExceeded,
    Conformation,
    DeadEnd,
    FoldOutcome,
    LookaheadBudgetExceeded,
    OritatamiSystem,
    RuleSet,
    StabilizationChoice,
    elongations,
    energy,
    fold_all,
    fold_summary,
    stabilize_next,
    validate_conformation,
)
from oritatami.folding import _Fold, _Lookahead
from oritatami.grid import DIRECTIONS, SYMMETRIES, Point, path_is_valid, transform

import oracles


def extend(conf, choice, bead):
    """``conf`` elongated by one stabilized bead."""
    new_idx = len(conf.path)
    return Conformation(
        conf.path + (choice.point,),
        conf.beads + (bead,),
        conf.bonds | {(p, new_idx) for p in choice.bonds},
    )


def brute_step(system, conf, i):
    """The brute-force argmin set, shaped as ``stabilize_next`` returns it."""
    options = oracles.brute_options(system, conf, i)
    if not options:
        raise DeadEnd(f"no placement for transcript bead {i + 1}")
    return [StabilizationChoice(Point(*point), bonds) for point, bonds in options]


def replay(system, mode, rng=0, step=stabilize_next):
    """``fold_all`` rebuilt from one ``step`` call per bead (by default
    ``stabilize_next``, which keeps no table between steps): the reference
    for ``fold_all``."""
    transcript = system.transcript
    if mode == "enumerate":
        outcomes = []
        seen = set()

        def walk(conf, i):
            if i < len(transcript):
                try:
                    options = step(system, conf, i)
                except DeadEnd:
                    pass
                else:
                    for ch in options:
                        walk(extend(conf, ch, transcript[i]), i + 1)
                    return
            terminal = FoldOutcome(conf, i == len(transcript))
            if terminal not in seen:
                seen.add(terminal)
                outcomes.append(terminal)

        walk(system.seed, 0)
        return tuple(outcomes)
    rng = random.Random(rng)
    conf = system.seed
    for i, bead in enumerate(transcript):
        try:
            options = step(system, conf, i)
        except DeadEnd:
            return (FoldOutcome(conf, False),)
        conf = extend(conf, rng.choice(options) if mode == "sample" else options[0], bead)
    return (FoldOutcome(conf, True),)


def replay_is_deterministic(system, step=stabilize_next):
    """Whether every step of the first-choice replay had exactly one option:
    the reference for ``deterministic``."""
    conf = system.seed
    for i, bead in enumerate(system.transcript):
        try:
            options = step(system, conf, i)
        except DeadEnd:
            return False
        if len(options) != 1:
            return False
        conf = extend(conf, options[0], bead)
    return True


def deterministic(system):
    """Whether enumerate finds one terminal, and it completed: every step
    then had a single minimizer, since a tie puts at least one terminal
    under each tied choice. A second terminal passes the budget of one, so
    ``BranchBudgetExceeded`` reads as not deterministic."""
    try:
        return fold_summary(system, branch_budget=1)[:2] == (1, 1)
    except BranchBudgetExceeded:
        return False


def two_bead_system(delay=1, transcript=("b",)):
    """Seed a-(0,0), c-(1,0) with the single rule (a, b): two tied minimizers."""
    seed = Conformation.build([(0, 0), (1, 0)], ["a", "c"])
    return OritatamiSystem(RuleSet([("a", "b")]), 2, delay, seed, tuple(transcript))


class TestRuleSet:
    def test_symmetric(self):
        rules = RuleSet([("a", "b")])
        assert rules.allows("a", "b")
        assert rules.allows("b", "a")
        assert not rules.allows("a", "a")

    def test_self_pair(self):
        assert RuleSet([("x", "x")]).allows("x", "x")

    def test_without(self):
        rules = GLIDER_RULES.without("580", "589")
        assert len(rules) == len(GLIDER_RULES) - 1
        assert not rules.allows("589", "580")


class TestConformationBasics:
    def test_energy_is_minus_bond_count(self):
        assert energy(glider_seed()) == -2
        bond_free = Conformation.build([(0, 0), (1, 0)], ["a", "b"])
        assert energy(bond_free) == 0

    def test_energy_seven_bonds(self):
        # Hairpin: east along y=0, back west along y=1; (x,1) sits NE of (x,0).
        path = [(i, 0) for i in range(9)] + [(8 - i, 1) for i in range(8)]
        beads = ["t"] * len(path)
        bonds = [(i, 17 - i) for i in range(1, 8)]
        c = Conformation.build(path, beads, bonds)
        validate_conformation(c)
        assert energy(c) == -7

    def test_arity(self):
        base = [(0, 0), (1, 0), (1, 1), (0, 2), (-1, 2)]
        c = Conformation.build(base, list("abcde"))
        assert oracles.arity_of(c) == 0
        c1 = Conformation.build(base, list("abcde"), [(0, 2)])
        assert oracles.arity_of(c1) == 1
        # bead 0 and bead 3 both carry two bonds
        c2 = Conformation.build(base, list("abcde"), [(0, 2), (0, 3), (1, 3)])
        assert oracles.arity_of(c2) == 2

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_conformation(Conformation.build([(0, 0), (5, 5)], ["a", "b"]))
        with pytest.raises(ValueError):
            validate_conformation(Conformation.build([(0, 0), (1, 0)], ["a", "b"], [(0, 1)]))
        c = Conformation.build([(0, 0), (1, 0), (1, 1)], ["a", "b", "c"], [(0, 2)])
        with pytest.raises(ValueError):
            validate_conformation(c, RuleSet([]))

    def test_validation_messages_number_beads_from_one(self):
        with pytest.raises(ValueError, match=r"^2 beads on a 1-point path$"):
            validate_conformation(Conformation((Point(0, 0),), ("a", "b")))
        # 0-based bonds (0, 1) and (0, 5): consecutive beads, and a bead past the path end.
        for bonds, named in (([(0, 1)], "1, 2"), ([(0, 5)], "1, 6")):
            c = Conformation.build([(0, 0), (1, 0), (1, 1)], ["a", "b", "c"], bonds)
            message = rf"^bond \({named}\) out of range or between near-consecutive beads$"
            with pytest.raises(ValueError, match=message):
                validate_conformation(c)

    @pytest.mark.parametrize("arity, delay, message", [(0, 1, "arity"), (1, 0, "delay")])
    def test_system_needs_an_arity_and_a_delay_of_one_or_more(self, arity, delay, message):
        seed = Conformation.build([(0, 0)], ["a"])
        with pytest.raises(ValueError, match=rf"^{message} must be >= 1$"):
            OritatamiSystem(RuleSet([("a", "a")]), arity, delay, seed, ("a",))


class TestElongations:
    def test_two_bead_seed_choices(self):
        sys_ = two_bead_system()
        choices = elongations(sys_.seed, "b", sys_.rules, sys_.arity)
        # 5 free neighbors; (0,1) and (1,-1) also touch the a-bead.
        assert len(choices) == 7
        bonded = {c for c in choices if c.bonds}
        assert bonded == {
            StabilizationChoice(Point(0, 1), (0,)),
            StabilizationChoice(Point(1, -1), (0,)),
        }

    def test_empty_rules_all_bond_free(self):
        seed = Conformation.build([(0, 0), (1, 0)], ["a", "c"])
        choices = elongations(seed, "b", RuleSet([]), 1)
        assert len(choices) == 5
        assert all(c.bonds == () for c in choices)

    def test_arity_cap_excludes_saturated_partner(self):
        # bead 'a' at the hinge already carries two bonds; cap 2 blocks a third.
        path = [(0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (1, 0)]
        beads = ["x", "y", "a", "y", "x", "c"]
        seed = Conformation.build(path, beads, [(0, 2), (2, 4)])
        rules = RuleSet([("a", "b"), ("x", "b")])
        choices = elongations(seed, "b", rules, 2)
        for ch in choices:
            assert 2 not in ch.bonds  # the saturated a-bead
        relaxed = elongations(seed, "b", rules, 3)
        assert any(2 in ch.bonds for ch in relaxed)


class TestStabilizeNext:
    def test_two_minimizers_at_delay_one(self):
        sys_ = two_bead_system()
        got = stabilize_next(sys_, sys_.seed, 0)
        assert set(map(oracles.choice_key, got)) == {
            ((0, 1), frozenset({0})),
            ((1, -1), frozenset({0})),
        }

    def test_glider_first_bead_goes_east_without_bonds(self):
        sys_ = glider_system(periods=1)
        (choice,) = stabilize_next(sys_, sys_.seed, 0)
        assert choice.point == Point(2, 0)
        assert choice.bonds == ()

    def test_glider_second_bead_bonds_the_seed(self):
        sys_ = glider_system(periods=1)
        fold = sys_.seed
        (c1,) = stabilize_next(sys_, fold, 0)
        fold = Conformation(fold.path + (c1.point,), fold.beads + ("579",), fold.bonds)
        (c2,) = stabilize_next(sys_, fold, 1)
        assert c2.point == Point(3, -1)
        assert c2.bonds == (4,)  # the seed's 589-bead

    def test_dead_end_raises(self):
        # Walk the hexagon ring, then step into its center: no free neighbor left.
        path = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (0, 0)]
        beads = ["s"] * len(path)
        seed = Conformation.build(path, beads)
        sys_ = OritatamiSystem(RuleSet([]), 1, 1, seed, ("s",))
        with pytest.raises(DeadEnd):
            stabilize_next(sys_, seed, 0)

    def test_errors_number_beads_in_the_whole_transcript(self, monkeypatch):
        # A step searches only the beads from i on, but its errors name
        # bead i by its 1-based place in the transcript.
        path = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (0, 0)]
        seed = Conformation.build(path, ["s"] * len(path))
        sys_ = OritatamiSystem(RuleSet([]), 1, 1, seed, ("s", "s", "t"))
        with pytest.raises(DeadEnd, match=r"^no placement for transcript bead 3 \(t\)$"):
            stabilize_next(sys_, seed, 2)
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", 1)
        row = Conformation.build([(x, 0) for x in range(4)], ["a"] * 4)
        sys_ = OritatamiSystem(RuleSet([("a", "a")]), 1, 3, row, ("a",) * 5)
        with pytest.raises(LookaheadBudgetExceeded, match=r"^lookahead for transcript bead 4 \(a\) pushes"):
            stabilize_next(sys_, row, 3)

    def test_invalid_conformation_raises_value_error(self):
        sys_ = OritatamiSystem(RuleSet([("a", "a")]), 1, 2, Conformation.build([(0, 0)], ["a"]), ("a",) * 3)
        crossing = Conformation.build([(0, 0), (1, 0), (0, 1), (0, 0)], ["a"] * 4)
        with pytest.raises(ValueError, match="self-avoiding"):
            stabilize_next(sys_, crossing, 0)
        # Bead 2, at (1, 0), bonds beads 4 and 5 of a hairpin: arity 2 > 1.
        hairpin = Conformation.build(
            [(0, 0), (1, 0), (2, 0), (2, -1), (1, -1)], ["a"] * 5, [(1, 3), (1, 4)]
        )
        with pytest.raises(ValueError, match="exceeds cap 1"):
            stabilize_next(sys_, hairpin, 0)
        with pytest.raises(ValueError, match="at least one bead"):
            stabilize_next(sys_, Conformation((), ()), 0)

    def test_lookahead_deeper_than_a_thousand_beads(self):
        # A rail of s beads ends at (0, 0); each a bonds the next s along
        # it. The search for bead 1 nests 1,500 deep but pushes about 3,000
        # beads, within its budget: depth alone does not end a search.
        seed = Conformation.build([(x, 0) for x in range(1509, -1, -1)], ["s"] * 1510)
        sys_ = OritatamiSystem(RuleSet([("a", "s")]), 1, 1500, seed, ("a",) * 1500)
        assert stabilize_next(sys_, seed, 0) == [((0, 1), (1508,)), ((1, -1), (1508,))]

    @pytest.mark.parametrize("i", [12, -1])
    def test_bead_index_outside_the_transcript_raises_value_error(self, i):
        sys_ = glider_system(periods=1)
        with pytest.raises(ValueError, match=rf"^bead index {i} is outside a transcript of 12 beads$"):
            stabilize_next(sys_, sys_.seed, i)


class TestFoldAll:
    def test_empty_transcript_returns_seed(self):
        sys_ = OritatamiSystem(GLIDER_RULES, 2, 3, glider_seed(), ())
        outcomes = fold_all(sys_, "enumerate")
        assert len(outcomes) == 1
        assert outcomes[0].completed
        assert outcomes[0].conformation == glider_seed()

    def test_glider_enumerate_is_singleton(self):
        outcomes = fold_all(glider_system(periods=2), "enumerate")
        assert len(outcomes) == 1
        assert outcomes[0].completed

    def test_two_bead_system_has_two_terminals(self):
        outcomes = fold_all(two_bead_system(), "enumerate")
        assert len(outcomes) == 2
        assert all(o.completed for o in outcomes)

    def test_budget_overflow_is_loud(self):
        free = OritatamiSystem(
            RuleSet([]), 1, 1, Conformation.build([(0, 0)], ["s"]), ("s",) * 6
        )
        with pytest.raises(BranchBudgetExceeded):
            fold_all(free, "enumerate", branch_budget=50)

    def test_modes_agree_on_deterministic_system(self):
        sys_ = glider_system(periods=1)
        by_enum = fold_all(sys_, "enumerate")[0].conformation
        assert fold_all(sys_, "first")[0].conformation == by_enum
        assert fold_all(sys_, "sample", rng=7)[0].conformation == by_enum

    def test_sample_is_reproducible(self):
        sys_ = two_bead_system(transcript=("b", "b", "b"))
        a = fold_all(sys_, "sample", rng=42)
        b = fold_all(sys_, "sample", rng=42)
        assert a == b

    def test_outcomes_are_valid_conformations(self):
        rng = random.Random(2024)
        for _ in range(25):
            sys_ = oracles.random_system(rng)
            try:
                outcomes = fold_all(sys_, "enumerate", branch_budget=300)
            except BranchBudgetExceeded:
                continue
            assert len(set(outcomes)) == len(outcomes)
            for out in outcomes:
                validate_conformation(out.conformation, sys_.rules, sys_.arity)
                assert path_is_valid(out.conformation.path)


class TestDeterminism:
    def test_glider_is_deterministic(self):
        assert fold_summary(glider_system(periods=2))[:2] == (1, 1)

    def test_free_space_ties_are_not(self):
        sys_ = OritatamiSystem(RuleSet([]), 1, 1, Conformation.build([(0, 0)], ["s"]), ("s",))
        assert fold_summary(sys_)[:2] == (6, 6)

    def test_two_bead_system_is_not(self):
        assert fold_summary(two_bead_system())[:2] == (2, 2)


class TestOracleAgreement:
    """The engine's argmin sets against the standalone brute-force recursion."""

    @staticmethod
    def compare_along_first_branch(sys_):
        """Check every step of the canonical-first branch; return the step count."""
        conf = sys_.seed
        for i in range(len(sys_.transcript)):
            expected = oracles.brute_minimizers(sys_, conf, i)
            if not expected:
                with pytest.raises(DeadEnd):
                    stabilize_next(sys_, conf, i)
                return i
            got = stabilize_next(sys_, conf, i)
            assert set(map(oracles.choice_key, got)) == expected
            conf = extend(conf, got[0], sys_.transcript[i])
        return len(sys_.transcript)

    def test_small_corpus(self):
        rng = random.Random(424242)
        compared = sum(self.compare_along_first_branch(oracles.random_system(rng)) for _ in range(120))
        assert compared > 200

    def test_corpus_up_to_delay_four(self):
        rng = random.Random(31337)
        compared = 0
        by_delay = set()
        for _ in range(60):
            sys_ = oracles.random_system(rng, max_delay=4, max_arity=3, max_transcript=6)
            by_delay.add(sys_.delay)
            compared += self.compare_along_first_branch(sys_)
        assert by_delay == {1, 2, 3, 4}
        assert compared > 150

    def test_delay_one_equals_max_bond_greedy(self):
        rng = random.Random(11)
        for _ in range(60):
            sys_ = oracles.random_system(rng)
            sys_ = OritatamiSystem(sys_.rules, sys_.arity, 1, sys_.seed, sys_.transcript)
            options = elongations(sys_.seed, sys_.transcript[0], sys_.rules, sys_.arity)
            if not options:
                continue
            best = max(len(c.bonds) for c in options)
            greedy = {c for c in options if len(c.bonds) == best}
            assert set(stabilize_next(sys_, sys_.seed, 0)) == greedy


class TestGlider:
    def test_translation_invariance_over_ten_periods(self):
        outcomes = fold_all(glider_system(periods=10), "enumerate")
        conf = outcomes[0].conformation
        seed_len = 6
        for p in range(9):
            for i in range(12):
                a = conf.path[seed_len + 12 * p + i]
                b = conf.path[seed_len + 12 * (p + 1) + i]
                assert (b.x - a.x, b.y - a.y) == oracles.GLIDER_PERIOD_SHIFT

    def test_mirrored_fold_is_the_mirror_image(self):
        from oritatami.grid import mirror

        plain = fold_all(glider_system(periods=2), "enumerate")[0].conformation
        flipped = fold_all(glider_system(periods=2, mirrored=True), "enumerate")[0].conformation
        assert tuple(mirror(p) for p in plain.path) == flipped.path
        assert plain.bonds == flipped.bonds

    def test_energy_drops_seven_bonds_per_period(self):
        e1 = energy(fold_all(glider_system(periods=1), "enumerate")[0].conformation)
        e2 = energy(fold_all(glider_system(periods=2), "enumerate")[0].conformation)
        assert e1 == -9  # two seed bonds plus seven new ones
        assert e2 - e1 == -7

    def test_two_hundred_period_enumerate(self):
        sys_ = glider_system(periods=200)
        outcomes = fold_all(sys_, "enumerate")
        assert len(outcomes) == 1 and outcomes[0].completed
        assert energy(outcomes[0].conformation) == -(2 + 7 * 200)
        assert outcomes == fold_all(sys_, "first")


@pytest.fixture
def searched(monkeypatch):
    """The bead index of each ``_Lookahead._search`` call the test makes, in
    order; clear it to count afresh."""
    calls = []
    search = _Lookahead._search
    monkeypatch.setattr(
        _Lookahead, "_search", lambda self, fold, i, *args: calls.append(i) or search(self, fold, i, *args)
    )
    return calls


class TestTableFreeReplay:
    """``fold_all`` (with its per-fold table) against step-by-step ``stabilize_next``."""

    def test_random_periodic_transcripts(self):
        rng = random.Random(909)
        folded = 0
        determinism = set()
        for _ in range(60):
            sys_ = oracles.random_system(rng, max_delay=4, max_arity=3)
            types = sorted(set(sys_.seed.beads) | set(sys_.transcript))
            period = [rng.choice(types) for _ in range(rng.randint(1, 3))]
            transcript = tuple((period * 9)[: rng.randint(5, 9)])
            sys_ = OritatamiSystem(sys_.rules, sys_.arity, sys_.delay, sys_.seed, transcript)
            for mode in ("first", "sample"):
                assert list(fold_all(sys_, mode, rng=5)) == list(replay(sys_, mode, rng=5))
            determinism.add(deterministic(sys_))
            assert deterministic(sys_) == replay_is_deterministic(sys_)
            try:
                outcomes = fold_all(sys_, "enumerate", branch_budget=200)
            except BranchBudgetExceeded:
                continue
            assert list(outcomes) == list(replay(sys_, "enumerate"))
            folded += 1
        assert folded >= 20
        assert determinism == {True, False}

    def test_mirrored_glider(self):
        sys_ = glider_system(periods=3, mirrored=True)
        for mode in ("first", "enumerate"):
            assert list(fold_all(sys_, mode)) == list(replay(sys_, mode))
        assert deterministic(sys_) and replay_is_deterministic(sys_)

    def test_table_hit_restores_canonical_order(self):
        # Two seeds occupy the same cells around the path end (0, 0) with the
        # same bead types, but visit the two a-beads in opposite order. A
        # b-bead at (1, 0) can bond either a-bead, and the next b-bead at
        # (2, 0) the other one, so both one-bond choices tie, and canonical
        # order puts the lower partner index first. At delay 2 the window
        # (b, b) recurs and its second bead has headroom, so it keys the table.
        rules = RuleSet([("a", "b")])
        cells_a = [(1, -1), (2, -1), (3, -1), (3, 0), (2, 1), (1, 1), (0, 1), (0, 0)]
        cells_b = cells_a[-2::-1] + [(0, 0)]
        beads = ["x", "a", "y", "y", "y", "a", "x", "x"]
        first = Conformation.build(cells_a, beads)
        second = Conformation.build(cells_b, beads[-2::-1] + ["x"])
        sys_ = OritatamiSystem(rules, 1, 2, first, ("b", "b", "b"))
        search = _Lookahead(sys_)

        def minimizers(conf):
            # minimizers gives (point key, bonds, line); read them as choices.
            fold = _Fold(rules, 1, conf, len(conf) + 3)
            return [StabilizationChoice(fold.point(k), s) for k, s, _ in search.minimizers(fold, 0)]

        got_first = minimizers(first)
        assert got_first == [
            StabilizationChoice(Point(1, 0), (1,)),  # the a-bead at (2, -1)
            StabilizationChoice(Point(1, 0), (5,)),  # the a-bead at (1, 1)
        ]
        assert len(search.table) == 1
        got_second = minimizers(second)
        assert len(search.table) == 1  # answered from the table
        assert got_second == stabilize_next(sys_, second, 0)
        assert got_second == [
            StabilizationChoice(Point(1, 0), (1,)),  # now the a-bead at (1, 1)
            StabilizationChoice(Point(1, 0), (5,)),
        ]

    def test_repeated_dead_end_is_answered_from_the_table(self, searched):
        # A dead end is an empty argmin set, stored like any other: with the
        # path end boxed in at the center of a hexagon, at a keyed window,
        # the second lookup of the same situation searches nothing.
        path = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1), (0, 0)]
        seed = Conformation.build(path, ["a"] + ["s"] * 6)
        sys_ = OritatamiSystem(RuleSet([("a", "b")]), 1, 2, seed, ("b", "b", "b"))
        lookahead = _Lookahead(sys_)
        assert lookahead.window_ids[0] is not None
        for _ in range(2):
            fold = _Fold(sys_.rules, 1, seed, len(seed) + 3)
            assert lookahead.minimizers(fold, 0) == []
        assert searched == [0] and len(lookahead.table) == 1

    def test_last_occurrence_of_a_window_is_stored(self, searched):
        # Enumeration meets a bead again on each sibling branch, so the
        # search at the last occurrence of the window (b0, b0, b0), bead 3,
        # is stored too, and answers that bead on a later branch: fold_all
        # makes 2,229 searches, where storing only windows that recur later
        # made 2,235.
        seed = Conformation.build([(0, 0), (-1, 1)], ["b0", "b0"])
        sys_ = OritatamiSystem(RuleSet([("b0", "b0")]), 1, 3, seed, ("b0",) * 6)
        outcomes = fold_all(sys_, "enumerate")
        assert (len(outcomes), len(searched)) == (2164, 2229)
        assert outcomes == replay(sys_, "enumerate")

    @staticmethod
    def keyed_searches(searched, far, bonds):
        """For each (far bead, seed bonds) pair, the lookup of bead 0 on a
        seed whose first bead, three steps from the path end, is that far
        bead, all through one lookahead. Gives the argmin sets as choices,
        each checked against ``stabilize_next``, and the number of searches.
        The window (b, c) recurs at delay 2; b partners a and reaches 2
        steps, c partners e and reaches 3, and a bead is placed at most 2
        steps out."""
        rules = RuleSet([("a", "b"), ("c", "e")])
        path = [(-1, 3), (-1, 2), (-1, 1), (-2, 1), (-2, 0), (-1, 0), (0, 0)]
        systems = [
            OritatamiSystem(rules, 1, 2, Conformation.build(path, [bead, "q", "b", "q", "e", "a", "s"], pairs),
                            tuple("bcbc"))
            for bead, pairs in zip(far, bonds)
        ]
        lookahead = _Lookahead(systems[0])
        assert lookahead.window_ids[0] is not None
        found = []
        for sys_ in systems:
            fold = _Fold(rules, 1, sys_.seed, len(path) + 4)
            found.append([StabilizationChoice(fold.point(k), s) for k, s, _ in lookahead.minimizers(fold, 0)])
        searches = len(searched)
        assert found == [stabilize_next(sys_, sys_.seed, 0) for sys_ in systems]
        return found, searches

    def test_key_drops_a_bead_no_window_bead_reaches(self, searched):
        # An a three steps out is past b's reach, and no bead of the window
        # is placed there: the fold with a q in its place shares its entry.
        found, searches = self.keyed_searches(searched, "aq", [(), ()])
        assert searches == 1 and found[0] == found[1]

    def test_key_keeps_the_bond_count_of_a_partner_in_reach(self, searched):
        # The a next to the path end is in b's reach. Bonded to the b of the
        # seed, it is saturated at arity 1, so the two folds do not share an
        # entry, and their argmin sets differ.
        found, searches = self.keyed_searches(searched, "qq", [(), [(2, 5)]])
        assert searches == 2
        assert found == [[StabilizationChoice(Point(0, -1), (5,))], [StabilizationChoice(Point(0, -1), ())]]

    def test_windows_are_keyed_only_while_the_disk_fits_the_rings(self):
        # From delay 7 on the key disk would pass the widest disk of the
        # fold's geometry, so no window is keyed and the windows are not
        # built, though every full window of (a, ..., a) recurs and has
        # headroom. No geometry holds a disk past that cap.
        seed = Conformation.build([(0, 0)], ["a"])
        for delay in (7, 50):
            sys_ = OritatamiSystem(RuleSet([("a", "a")]), 1, delay, seed, ("a",) * (2 * delay))
            search = _Lookahead(sys_)
            geometry = _Fold(sys_.rules, 1, seed, 1 + 2 * delay).geometry
            assert search.window_ids == [None] * (2 * delay)
            assert search.disk_radius > len(geometry.disks) - 1 == folding._REACH
        # At delay 6 the glider's repeated windows still key the table.
        glider = glider_system(periods=2)
        search = _Lookahead(OritatamiSystem(glider.rules, glider.arity, 6, glider.seed, glider.transcript))
        assert any(w is not None for w in search.window_ids)
        fold = _Fold(glider.rules, glider.arity, glider.seed, len(glider.seed) + len(glider.transcript))
        assert len(fold.geometry.disks[search.disk_radius]) == 169  # the points within 7 steps


def moved(conf, g, center=Point(0, 0)):
    """``conf`` moved by the grid symmetry ``g`` about ``center``."""
    return Conformation(tuple(transform(g, p, center) for p in conf.path), conf.beads, conf.bonds)


def reseeded(system, seed):
    return OritatamiSystem(system.rules, system.arity, system.delay, seed, system.transcript)


class TestSymmetricSeeds:
    """Enumerate from seeds that grid symmetries fix. ``fold_all`` searches
    every node, as ``replay`` does; ``fold_summary`` walks one subtree of
    each set of mirror images and weighs its counts by the set's size."""

    @staticmethod
    def agrees_with_replay(sys_):
        """Whether ``sys_`` enumerates within budget; if so, check it, and
        if not, check that ``fold_summary`` fails alike."""
        try:
            outcomes = fold_all(sys_, "enumerate", branch_budget=300)
        except BranchBudgetExceeded as exc:
            with pytest.raises(BranchBudgetExceeded, match=str(exc)):
                fold_summary(sys_, branch_budget=300)
            return False
        assert list(outcomes) == list(replay(sys_, "enumerate"))
        assert fold_summary(sys_, branch_budget=300) == summary_of(sys_)
        return True

    def test_single_bead_seeds(self):
        rng = random.Random(6121)
        compared = 0
        for _ in range(40):
            sys_ = oracles.random_system(rng, max_delay=3, max_arity=3, max_transcript=6)
            seed = Conformation.build([(rng.randint(-3, 3), rng.randint(-3, 3))], sys_.seed.beads[:1])
            compared += self.agrees_with_replay(reseeded(sys_, seed))
        assert compared >= 25

    @pytest.mark.parametrize("axis", DIRECTIONS[:3])
    def test_straight_seeds(self, axis):
        rng = random.Random(f"straight {axis}")
        compared = 0
        for _ in range(30):
            sys_ = oracles.random_system(rng, max_delay=3, max_arity=3, max_transcript=6)
            step = rng.choice((1, -1))
            x, y = rng.randint(-3, 3), rng.randint(-3, 3)
            path = [(x + k * step * axis.x, y + k * step * axis.y) for k in range(rng.randint(2, 4))]
            seed = Conformation.build(path, [rng.choice(sys_.seed.beads) for _ in path])
            compared += self.agrees_with_replay(reseeded(sys_, seed))
        assert compared >= 15

    def test_random_systems(self):
        rng = random.Random(2207)
        compared = symmetric = 0
        for _ in range(100):
            sys_ = oracles.random_system(rng, max_delay=4, max_arity=3)
            if self.agrees_with_replay(sys_):
                compared += 1
                symmetric += any(moved(sys_.seed, g, sys_.seed.path[0]) == sys_.seed for g in SYMMETRIES[1:])
        assert compared >= 60
        assert symmetric >= 15

    def test_budget_stops_at_the_first_weighted_count(self, searched):
        # From a single bead, bead 0's six placements are one set of images
        # and bead 1's two choices mirror each other (beads are 0-based), so
        # each subtree walked stands for 12. Below the three nodes of bead 3
        # the count finds 2, 2 and 6 terminals: 120 in all. Past a budget of
        # 10, the first count, weighed by 12, ends the walk, and the other
        # two nodes of bead 3 are not searched.
        rules = RuleSet([("a", "b"), ("a", "c")])
        sys_ = OritatamiSystem(rules, 2, 3, Conformation.build([(0, 0)], ["a"]), tuple("cbcabc"))
        want = summary_of(sys_)
        searched.clear()
        assert fold_summary(sys_) == want and want[:2] == (120, 120)
        assert searched == [0, 1, 2, 3, 3, 3]
        searched.clear()
        with pytest.raises(BranchBudgetExceeded, match="more than 10 terminal branches"):
            fold_summary(sys_, branch_budget=10)
        assert searched == [0, 1, 2, 3]

    def test_fold_all_searches_every_node(self, monkeypatch, searched):
        def refuse(*args):
            raise AssertionError("fold_all moved a point by a grid symmetry")

        monkeypatch.setattr(folding, "transform", refuse)
        # The horizontal mirror fixes this seed, and all 12 symmetries fix a
        # single bead; fold_all moves no point and searches below every
        # mirror image, as replay does.
        rules = RuleSet([("a", "b"), ("a", "c")])
        for path, terminals, searches in (([(0, 0), (1, 0), (2, 0)], 102, 77), ([(0, 0)], 108, 103)):
            seed = Conformation.build(path, ["a", "a", "b"][: len(path)])
            sys_ = OritatamiSystem(rules, 2, 3, seed, tuple("cbcab"))
            searched.clear()
            outcomes = fold_all(sys_, "enumerate")
            assert (len(outcomes), len(searched)) == (terminals, searches)
            assert outcomes == replay(sys_, "enumerate")
        # No symmetry fixes the glider's hexagonal seed, plain or mirrored.
        for mirrored in (False, True):
            searched.clear()
            fold_all(glider_system(periods=3, mirrored=mirrored), "enumerate")
            assert len(searched) == 20


def periodic_systems(rng, count):
    """``count`` random systems of delay 1 to 4 whose transcripts of 6 to 10
    beads repeat a period of 1 to 3 beads."""
    systems = []
    for _ in range(count):
        sys_ = oracles.random_system(rng, max_delay=4, max_arity=3)
        types = sorted(set(sys_.seed.beads) | set(sys_.transcript))
        period = [rng.choice(types) for _ in range(rng.randint(1, 3))]
        transcript = tuple((period * 9)[: rng.randint(6, 10)])
        systems.append(OritatamiSystem(sys_.rules, sys_.arity, sys_.delay, sys_.seed, transcript))
    return systems


def prefix(conf, n):
    """The first ``n`` beads of ``conf``, with the bonds among them."""
    return Conformation(conf.path[:n], conf.beads[:n], frozenset(b for b in conf.bonds if b[1] < n))


def step_search(system, conf, i, first):
    """The argmin set, as (point key, bonds), of ``stabilize_next``'s search
    at bead ``i`` on ``conf``, or with ``first`` of first mode's search."""
    window = system.transcript[i : i + system.delay]
    step = OritatamiSystem(system.rules, system.arity, system.delay, conf, window)
    fold = _Fold(system.rules, system.arity, conf, len(conf) + len(step.transcript))
    return [(k, s) for k, s, _ in _Lookahead(step, i, first=first)._search(fold, 0)]


def summary_of(system, mode="enumerate", **kwargs):
    """What ``fold_summary`` returns, read off ``fold_all``'s outcomes."""
    outcomes = fold_all(system, mode, **kwargs)
    return len(outcomes), sum(o.completed for o in outcomes), outcomes[0]


class TestFoldSummary:
    """``fold_summary`` counts the enumerate terminals below each node whose
    window reaches the transcript end; ``fold_all`` builds them all."""

    def test_random_systems(self):
        # Single-bead, straight, ring and irregular seeds. A ring's path end
        # sits next to the hole it surrounds: a bead placed there is stuck.
        ring = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
        rng = random.Random(1515)
        seen = Counter()
        for k in range(200):
            sys_ = oracles.random_system(rng, max_delay=4, max_arity=3)
            if k % 4 == 0:
                sys_ = reseeded(sys_, Conformation.build([(0, 0)], sys_.seed.beads[:1]))
            elif k % 4 == 1:
                axis = rng.choice(DIRECTIONS)
                path = [(n * axis.x, n * axis.y) for n in range(len(sys_.seed))]
                sys_ = reseeded(sys_, Conformation.build(path, sys_.seed.beads))
            elif k % 4 == 2:
                types = sorted(set(sys_.seed.beads) | set(sys_.transcript))
                sys_ = reseeded(sys_, Conformation.build(ring, [rng.choice(types) for _ in ring]))
            budget = rng.choice((30, 1_000))
            try:
                outcomes = fold_all(sys_, "enumerate", branch_budget=budget)
            except BranchBudgetExceeded as exc:
                with pytest.raises(BranchBudgetExceeded, match=str(exc)):
                    fold_summary(sys_, branch_budget=budget)
                seen["raised"] += 1
                continue
            want = (len(outcomes), sum(o.completed for o in outcomes), outcomes[0])
            assert fold_summary(sys_, branch_budget=budget) == want
            # The count stops as soon as it passes the budget, and not before.
            with pytest.raises(BranchBudgetExceeded):
                fold_summary(sys_, branch_budget=len(outcomes) - 1)
            seen[f"delay {sys_.delay}"] += 1
            # A dead end past the first node whose window reaches the end.
            tail = len(sys_.seed) + len(sys_.transcript) - sys_.delay
            seen["tail dead end"] += any(
                not o.completed and len(o.conformation) > tail for o in outcomes
            )
        assert seen["raised"] >= 20 and seen["tail dead end"] >= 4
        assert all(seen[f"delay {d}"] >= 20 for d in range(1, 5))

    def test_periodic_transcripts(self):
        # The last full window recurs, so the first node whose window reaches
        # the end could often be answered by the table; it is searched, and
        # its count reads that search's best score and bound.
        for sys_ in periodic_systems(random.Random(9090), 100):
            try:
                want = summary_of(sys_, branch_budget=300)
            except BranchBudgetExceeded:
                continue
            assert fold_summary(sys_, branch_budget=300) == want

    def test_table_is_a_pure_memo(self, monkeypatch, searched):
        # With minimizers replaced by _search no node reads the table, and
        # every result, count and budget error comes out as with it.
        systems = periodic_systems(random.Random(9090), 100)
        for delay in (3, 4, 5, 6):
            for mirrored in (False, True):
                glider = glider_system(periods=2, mirrored=mirrored)
                # 18 beads: window 12 repeats window 0 at every delay.
                transcript = glider.transcript[:18]
                systems.append(OritatamiSystem(glider.rules, glider.arity, delay, glider.seed, transcript))

        def results():
            out = []
            for sys_ in systems:
                for fold, mode in ((fold_summary, "enumerate"), (fold_summary, "first"),
                                   (fold_summary, "sample"), (fold_all, "enumerate")):
                    try:
                        out.append(fold(sys_, mode, rng=5, branch_budget=300))
                    except BranchBudgetExceeded as exc:
                        out.append(str(exc))
            return out

        with_table = results()
        hits = -len(searched)
        searched.clear()
        monkeypatch.setattr(_Lookahead, "minimizers", lambda self, *args: self._search(*args))
        assert results() == with_table
        hits += len(searched)
        # The table answered 755 nodes.
        assert hits >= 500

    def test_table_hit_scans_no_placement(self, monkeypatch):
        # A hit rebuilds its stored choices from the occupied points; only a
        # search lists a bead's placements. The count of the 10-period
        # glider looks up beads 0-116 (0-based), and the table answers 99.
        calls, lookups = [], []
        search, placements, minimizers = _Lookahead._search, _Fold.placements, _Lookahead.minimizers
        monkeypatch.setattr(
            _Lookahead, "_search", lambda self, *args: calls.append("search") or search(self, *args)
        )
        monkeypatch.setattr(
            _Fold, "placements", lambda self, bead: calls.append("placements") or placements(self, bead)
        )

        def lookup(self, *args):
            start = len(calls)
            found = minimizers(self, *args)
            lookups.append(calls[start:])
            return found

        monkeypatch.setattr(_Lookahead, "minimizers", lookup)
        fold_summary(glider_system(periods=10))
        hits = [made for made in lookups if "search" not in made]
        assert len(lookups) == 117 and hits == [[]] * 99

    def test_budget_is_passed_as_in_fold_all(self):
        rules = RuleSet([("a", "b"), ("a", "c")])
        seed = Conformation.build([(0, 0), (1, 0), (2, 0)], ["a", "a", "b"])
        sys_ = OritatamiSystem(rules, 2, 3, seed, tuple("cbcab"))
        assert fold_summary(sys_, branch_budget=102) == summary_of(sys_)
        with pytest.raises(BranchBudgetExceeded, match="more than 101 terminal branches"):
            fold_summary(sys_, branch_budget=101)

    def test_first_terminal_takes_the_first_subset(self):
        # Arity 1: where the last bead first finds partners, it finds two,
        # and the first terminal bonds the one that comes first.
        rules = RuleSet([("b0", "b0"), ("b0", "b1")])
        seed = Conformation.build([(0, 0), (1, -1)], ["b1", "b1"])
        sys_ = OritatamiSystem(rules, 1, 2, seed, ("b1", "b0"))
        assert fold_summary(sys_) == summary_of(sys_)

    def test_one_branch_modes(self):
        rng = random.Random(77)
        for _ in range(20):
            sys_ = oracles.random_system(rng, max_delay=4, max_arity=3)
            assert fold_summary(sys_, "first") == summary_of(sys_, "first")
            assert fold_summary(sys_, "sample", rng=5) == summary_of(sys_, "sample", rng=5)
            # One branch spends no branch budget.
            assert fold_all(sys_, "first", branch_budget=0) == fold_all(sys_, "first")
            assert fold_summary(sys_, "sample", rng=5, branch_budget=0) == summary_of(sys_, "sample", rng=5)
        with pytest.raises(ValueError, match="unknown fold mode"):
            fold_summary(sys_, "all")
        with pytest.raises(ValueError, match="unknown fold mode"):
            fold_all(sys_, "all")

    def test_counts_are_not_searched(self, searched):
        # test_fold_all_searches_every_node's systems: fold_all searches
        # 77 and 103 nodes. Counting searches down to bead 3, the first whose
        # window reaches the transcript end, one node per mirror orbit, and
        # nothing below it.
        rules = RuleSet([("a", "b"), ("a", "c")])
        for path, searches in (([(0, 0), (1, 0), (2, 0)], [0, 1, 2, 2, 2, 2]), ([(0, 0)], [0, 1, 2])):
            seed = Conformation.build(path, ["a", "a", "b"][: len(path)])
            sys_ = OritatamiSystem(rules, 2, 3, seed, tuple("cbcab"))
            want = summary_of(sys_)
            searched.clear()
            assert fold_summary(sys_) == want
            assert searched == searches
        # fold_all searches 20 of the glider's nodes. Counting searches
        # the tail node, bead 33 (0-based), though the table holds its
        # window, and none of the two below it (19).
        want = summary_of(glider_system(periods=3))
        searched.clear()
        assert fold_summary(glider_system(periods=3)) == want
        assert len(searched) == 19

    @pytest.mark.parametrize("delay, terminals, pushed", [(3, 102, 104), (4, 28, 194), (5, 4, 283)])
    def test_every_choice_but_the_last_beads_is_pushed(self, monkeypatch, delay, terminals, pushed):
        # Below the tail node the count pushes each choice it keeps, down to
        # the bead before the last; the last bead's ways are counted by
        # binomials, with no push. The walk, the searches and the count push
        # 104, 194 and 283 beads for 102, 28 and 4 terminals.
        pushes = []
        push = _Fold.push
        monkeypatch.setattr(
            _Fold, "push", lambda self, *args: pushes.append(args) or push(self, *args)
        )
        rules = RuleSet([("a", "b"), ("a", "c")])
        seed = Conformation.build([(0, 0), (1, 0), (2, 0)], ["a", "a", "b"])
        sys_ = OritatamiSystem(rules, 2, delay, seed, tuple("cbcab"))
        want = summary_of(sys_)
        pushes.clear()
        assert fold_summary(sys_) == want and want[0] == terminals
        assert len(pushes) == pushed

    def test_first_mode_takes_the_first_enumerate_terminal(self, monkeypatch):
        # First mode keeps enumeration's first terminal. At each step of
        # that branch, the first-mode search looks for a strictly better
        # root only after the first best: it finds the full search's first
        # choice with no more pushes, and with fewer on some systems.
        pushes = []
        push = _Fold.push
        monkeypatch.setattr(
            _Fold, "push", lambda self, *args: pushes.append(args) or push(self, *args)
        )
        rng = random.Random(2020)
        systems = [oracles.random_system(rng, max_delay=4, max_arity=3) for _ in range(60)]
        for mirrored in (False, True):
            glider = glider_system(periods=2, mirrored=mirrored)
            systems.append(
                OritatamiSystem(glider.rules, glider.arity, 4, glider.seed, glider.transcript)
            )
        compared = fewer = 0
        for sys_ in systems:
            try:
                outcomes = fold_all(sys_, "enumerate", branch_budget=1_000)
            except BranchBudgetExceeded:
                continue
            (reference,) = fold_all(sys_, "first")
            assert reference == outcomes[0]
            assert fold_summary(sys_, "first") == (1, int(reference.completed), reference)
            conf, seed = reference.conformation, len(sys_.seed)
            saved = False
            for i in range(len(conf) - seed):
                made = []
                for first in (False, True):
                    pushes.clear()
                    made.append((step_search(sys_, prefix(conf, seed + i), i, first), len(pushes)))
                (full, before), (strict, after) = made
                assert strict == full[:1] and after <= before
                saved |= after < before
            fewer += saved
            compared += 1
        assert compared >= 50 and fewer >= 20

    def test_count_pushes_spend_the_search_budget(self, monkeypatch):
        # No rules: the search at bead 1 pushes nothing, and the count below
        # it pushes one bead per level until the budget runs out.
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", 50)
        sys_ = OritatamiSystem(RuleSet(), 1, 60, Conformation.build([(0, 0)], ["s"]), ("a",) * 60)
        with pytest.raises(LookaheadBudgetExceeded, match="bead 1 .a. pushes more than 50 nascent"):
            fold_summary(sys_)

    def test_count_below_the_tail_node_spends_its_search_budget(self, monkeypatch):
        # The table holds the window of the tail node at bead 4 (0-based)
        # on later branches, but the node is searched there too, and the
        # count below it spends the budget of 20 that this search starts.
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", 20)
        seed = Conformation.build([(0, 0), (1, 0), (2, 0)], ["b2", "b0", "b1"])
        transcript = ("b0", "b1", "b1", "b2", "b1", "b1", "b2")
        sys_ = OritatamiSystem(RuleSet([("b1", "b1")]), 1, 3, seed, transcript)
        want = summary_of(sys_)
        assert fold_summary(sys_) == want and want[:2] == (4688, 4684)


@pytest.fixture
def work():
    """A function calling ``call(*args)`` and giving its result with the
    numbers of searches (``_Lookahead._search``) and pushes (``_Fold.push``)
    it made."""
    with oracles.counting(Counter(), ((_Lookahead, "_search"), (_Fold, "push"))) as made:

        def measure(call, *args):
            made.clear()
            return call(*args), made["_Lookahead._search"], made["_Fold.push"]

        yield measure


def glider_at(delay, periods, mirrored=False):
    """The glider of ``periods`` periods, folded at ``delay``."""
    glider = glider_system(periods=periods, mirrored=mirrored)
    return OritatamiSystem(glider.rules, glider.arity, delay, glider.seed, glider.transcript)


class TestEngineWork:
    """The work of a fold, pinned: a change that keeps every result but
    searches or pushes more or less moves one of these counts."""

    @pytest.mark.parametrize("delay, periods, searches, pushes", [(3, 10, 19, 201), (4, 3, 22, 444)])
    def test_glider_count(self, work, delay, periods, searches, pushes):
        assert work(fold_summary, glider_at(delay, periods))[1:] == (searches, pushes)

    def test_glider_first_mode(self, work):
        # Both first modes make the same search: 36 searches, 1,767 pushes.
        sys_ = glider_at(5, 3)
        (outcome,), *spent = work(fold_all, sys_, "first")
        assert spent == [36, 1767]
        assert work(fold_summary, sys_, "first") == ((1, 1, outcome), 36, 1767)

    def test_pool_slice_count(self, work, monkeypatch):
        # Members 380-389 of the benchmark's random-fold pool.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.inputs import random_system

        made = [work(fold_summary, random_system(k))[1:] for k in range(380, 390)]
        assert [sum(column) for column in zip(*made)] == [335, 7584]

    def test_first_modes_push_alike(self, work):
        rng = random.Random(3636)
        systems = [glider_at(delay, 2, mirrored) for delay in (3, 4, 5) for mirrored in (False, True)]
        systems += [oracles.random_system(rng, max_delay=4, max_arity=3) for _ in range(20)]
        for sys_ in systems:
            (outcome,), searches, pushes = work(fold_all, sys_, "first")
            summary = (1, int(outcome.completed), outcome)
            assert work(fold_summary, sys_, "first") == (summary, searches, pushes)


class TestSearchOrder:
    """A search tries first the line that its parent node's search found
    below the choice pushed since: the order moves its work, never its
    argmin set."""

    @staticmethod
    def search(system, conf, i, first, line=None):
        """``step_search`` given ``line`` to try first, its argmin set as
        (point key, bonds). With no line, also the options of bead ``i`` and
        the best line below each of them whose later beads can add bonds."""
        window = system.transcript[i : i + system.delay]
        step = OritatamiSystem(system.rules, system.arity, system.delay, conf, window)
        fold = _Fold(system.rules, system.arity, conf, len(conf) + len(window))
        lookahead = _Lookahead(step, i, first=first)
        found = [(k, s) for k, s, _ in lookahead._search(fold, 0, line)]
        if line is not None:
            return found
        options, stop, lines = fold.options(window[0]), len(window), {}
        if lookahead.bound[stop] > lookahead.bound[1]:
            for option in options:
                fold.push(*option, window[0])
                lookahead._value(fold, 1, stop, 0, None)
                lines[option] = lookahead.line
                fold.pop()
        return found, options, lines

    def test_any_first_root_finds_the_same_set(self):
        # Each state of the first fold of gliders at delays 3-6 and of random
        # systems is searched fresh, then once with each option put first,
        # with the best line below it (if a later bead can add bonds).
        rng = random.Random(3838)
        systems = [glider_at(delay, 2, mirrored) for delay in (3, 4, 5, 6) for mirrored in (False, True)]
        systems += [oracles.random_system(rng, max_delay=4, max_arity=3) for _ in range(20)]
        primed = below = 0
        for sys_ in systems:
            (outcome,) = fold_all(sys_, "first")
            conf, seed = outcome.conformation, len(sys_.seed)
            for i in range(len(conf) - seed):
                state = prefix(conf, seed + i)
                for first in (False, True):
                    fresh, options, lines = self.search(sys_, state, i, first)
                    for option in options:
                        line = (option, lines.get(option))
                        assert self.search(sys_, state, i, first, line) == fresh
                        primed += 1
                        below += line[1] is not None
        assert primed >= 2_000 and below >= 1_000

    def test_every_kept_sibling_starts_on_its_line(self, monkeypatch):
        # An enumerate walk hands each search the line that the search of
        # its parent node kept below the choice pushed since: on every kept
        # sibling, not only on the first child. Below a node the table
        # answers, no line is kept.
        kept_at = {}
        seen = Counter()
        search = _Lookahead._search

        def spy(self, fold, i, line=None):
            pushed = fold.bond_count[-1]
            bonds = tuple(p for p, _ in fold.bond_log[len(fold.bond_log) - pushed :])
            parent = kept_at.get((tuple(fold.path[:-1]), tuple(fold.bond_log[: len(fold.bond_log) - pushed])))
            if parent is not None:
                n = [choice[:2] for choice in parent].index((fold.path[-1], bonds))
                assert line == parent[n][2]
                seen["later sibling" if n else "first child"] += line is not None
            else:
                assert line is None
            kept = search(self, fold, i, line)
            kept_at[tuple(fold.path), tuple(fold.bond_log)] = kept
            return kept

        monkeypatch.setattr(_Lookahead, "_search", spy)
        rng = random.Random(3939)
        systems = [glider_at(delay, 2, mirrored) for delay in (3, 4) for mirrored in (False, True)]
        systems += [oracles.random_system(rng, max_delay=4, max_arity=3) for _ in range(40)]
        for sys_ in systems:
            kept_at.clear()
            try:
                fold_all(sys_, "enumerate", branch_budget=300)
            except BranchBudgetExceeded:
                pass
        # 429 first children and 559 later siblings start on a line.
        assert seen["first child"] >= 400 and seen["later sibling"] >= 500


class TestGridSymmetry:
    def test_moved_systems_fold_to_moved_terminals(self):
        # Delays 5 and 6 are past the brute force's reach; the terminal set
        # of a rotated or mirrored seed is the moved terminal set.
        rng = random.Random(5656)
        compared = 0
        for _ in range(40):
            sys_ = oracles.random_system(rng, max_arity=3)
            types = sorted(set(sys_.seed.beads) | set(sys_.transcript))
            transcript = tuple(rng.choice(types) for _ in range(rng.randint(5, 7)))
            sys_ = OritatamiSystem(sys_.rules, sys_.arity, rng.choice((5, 6)), sys_.seed, transcript)
            try:
                plain = fold_all(sys_, "enumerate", branch_budget=200)
            except BranchBudgetExceeded:
                continue
            center = Point(rng.randint(-2, 2), rng.randint(-2, 2))
            # One rotation and one reflection.
            for g in (rng.choice(SYMMETRIES[1:6]), rng.choice(SYMMETRIES[6:])):
                got = fold_all(reseeded(sys_, moved(sys_.seed, g, center)), "enumerate")
                assert set(got) == {
                    FoldOutcome(moved(o.conformation, g, center), o.completed) for o in plain
                }
            compared += 1
        assert compared >= 15


def late_partner_system(rng):
    """A random system whose seed and early transcript use only types e0..e2,
    which bond with nothing but the z-types that join the transcript later:
    so the early beads' lookahead has no headroom until a z-bead is near."""
    early = [f"e{k}" for k in range(rng.randint(1, 3))]
    late = [f"z{k}" for k in range(rng.randint(1, 2))]
    pairs = {(e, z) for e in early for z in late if rng.random() < 0.6}
    pairs |= {(z, w) for z in late for w in late if rng.random() < 0.3}
    pairs.add((rng.choice(early), rng.choice(late)))
    path = [(0, 0)]
    for _ in range(rng.randint(0, 4)):
        x, y = path[-1]
        free = [(x + dx, y + dy) for dx, dy in oracles.OFFSETS if (x + dx, y + dy) not in path]
        path.append(rng.choice(free))
    seed = Conformation.build(path, [rng.choice(early) for _ in path])
    head = [rng.choice(early) for _ in range(rng.randint(1, 3))]
    tail = [rng.choice(early + late) for _ in range(rng.randint(0, 2))] + [rng.choice(late)]
    rng.shuffle(tail)
    return OritatamiSystem(
        RuleSet(pairs), rng.randint(1, 3), rng.randint(2, 4), seed, tuple(head + tail)
    )


def shifted(conf, dx, dy):
    return Conformation(tuple(Point(x + dx, y + dy) for x, y in conf.path), conf.beads, conf.bonds)


def row_to_partner(n):
    """A straight n-bead seed whose first bead, a p, lies n - 1 steps from
    the path end, and a delay-3 window (r, x, z) in which only z bonds, with p."""
    path = [(0, 0)] + [(-k, k + 1) for k in range(n - 1)]
    seed = Conformation.build(path, ["p"] + ["q"] * (n - 1))
    return OritatamiSystem(RuleSet([("z", "p")]), 1, 3, seed, ("r", "x", "z"))


def disk_in_rows(n):
    """The first ``n`` points of a path that fills the radius-4 disk around
    (0, 0) row by row (61 points, ending on the disk's edge at (0, 4))."""
    path = []
    for y in range(-4, 5):
        row = list(range(max(-4, -4 - y), min(4, 4 - y) + 1))
        path += [(x, y) for x in (row if y % 2 == 0 else row[::-1])]
    return path[:n]


class TestLookaheadBounds:
    """The partner-reach headroom, the reach bound of each search, the bound
    checked before each push, and the integer point keys, against
    references that use none of them."""

    @staticmethod
    def search_first_bead(sys_, monkeypatch):
        """``stabilize_next`` at bead 0, checked against brute force, and the
        number of beads its lookahead pushed."""
        pushes = []
        push = _Fold.push
        monkeypatch.setattr(_Fold, "push", lambda self, *args: pushes.append(1) or push(self, *args))
        got = stabilize_next(sys_, sys_.seed, 0)
        assert set(map(oracles.choice_key, got)) == oracles.brute_minimizers(sys_, sys_.seed, 0)
        return got, len(pushes)

    def test_path_end_is_the_only_partner(self, monkeypatch):
        # z bonds only with the p at the path end (0, 0). The seed holds
        # (0, 1) and (-1, 0), so after r steps to (-1, 1) no free point
        # touches both r and the path end; r's three other steps let z bond.
        path = [(-1, 0), (-2, 1), (-2, 2), (-1, 2), (0, 1), (0, 0)]
        seed = Conformation.build(path, ["q"] * 5 + ["p"])
        sys_ = OritatamiSystem(RuleSet([("z", "p")]), 1, 2, seed, ("r", "z"))
        got, _ = self.search_first_bead(sys_, monkeypatch)
        assert got == [StabilizationChoice(p, ()) for p in (Point(1, 0), Point(0, -1), Point(1, -1))]

    def test_partner_at_the_last_beads_reach(self, monkeypatch):
        # z lies at most 3 steps from the path end, so it can bond with a p
        # 4 steps away: only by r stepping towards it.
        got, _ = self.search_first_bead(row_to_partner(5), monkeypatch)
        assert got == [StabilizationChoice(Point(-3, 3), ())]
        # One step further p is out of reach: every step of r ties, and the
        # search pushes nothing below the root.
        got, pushes = self.search_first_bead(row_to_partner(6), monkeypatch)
        assert len(got) == 5
        assert pushes == 0

    def test_saturated_partner_is_not_counted(self, monkeypatch):
        # z bonds only with p, which sits next to the path end and is bonded
        # to it. At arity 1 that bond saturates p: the search pushes nothing.
        path = [(0, 0), (0, 1), (1, 1), (2, 0), (1, 0), (1, -1)]
        seed = Conformation.build(path, ["p", "q", "q", "q", "q", "w"], [(0, 5)])
        rules = RuleSet([("z", "p"), ("p", "w")])
        got, pushes = self.search_first_bead(OritatamiSystem(rules, 1, 2, seed, ("r", "z")), monkeypatch)
        assert len(got) == 4
        assert pushes == 0
        got, pushes = self.search_first_bead(OritatamiSystem(rules, 2, 2, seed, ("r", "z")), monkeypatch)
        assert len(got) == 2
        assert pushes > 0

    def test_last_bead_bonds_no_more_than_its_arity(self, monkeypatch):
        # z bonds only with p. Where r steps to (1, -1), z can sit at (1, 0)
        # between the two p-beads, but at arity 1 it bonds only one of them:
        # the scan of z's free points stops at its reach gain of one bond,
        # which is also its count there. So every step of r that lets z bond
        # ties.
        seed = Conformation.build([(2, 0), (1, 1), (0, 1), (0, 0)], ["p", "p", "q", "q"])
        sys_ = OritatamiSystem(RuleSet([("z", "p")]), 1, 2, seed, ("r", "z"))
        got, _ = self.search_first_bead(sys_, monkeypatch)
        assert got == [StabilizationChoice(Point(1, 0), ()), StabilizationChoice(Point(1, -1), ())]

    def test_leaf_skips_a_partner_its_predecessor_saturates(self, monkeypatch):
        # x and z bond only with p, two steps from the path end; z, the last
        # bead, is scored in place from each choice of x. At arity 1 a bond
        # from x saturates p, so z must not count it: four steps of r tie at
        # one bond. At arity 2 only the two steps that let both bond p win.
        seed = Conformation.build([(0, 0), (1, 0), (2, -1)], ["p", "q", "q"])
        rules = RuleSet([("x", "p"), ("z", "p")])
        got, _ = self.search_first_bead(OritatamiSystem(rules, 1, 3, seed, ("r", "x", "z")), monkeypatch)
        assert len(got) == 4
        got, _ = self.search_first_bead(OritatamiSystem(rules, 2, 3, seed, ("r", "x", "z")), monkeypatch)
        assert got == [StabilizationChoice(Point(1, -1), ()), StabilizationChoice(Point(2, -2), ())]

    def test_last_bead_out_of_reach_is_not_scanned(self, monkeypatch):
        # w bonds only with the f 7 steps from the path end, past its reach
        # of 5, so its reach gain is 0 and z is the last bead that can bond
        # (with the p 3 steps out). Only r is pushed: each choice of x scores
        # z in place, and w is never scanned.
        path = [(0, 0)] + [(-k, k + 1) for k in range(7)]
        seed = Conformation.build(path, ["f", "q", "q", "q", "p", "q", "q", "q"])
        sys_ = OritatamiSystem(RuleSet([("z", "p"), ("w", "f")]), 1, 4, seed, ("r", "x", "z", "w"))
        scanned = []
        most_bonds = _Fold.most_bonds
        monkeypatch.setattr(
            _Fold, "most_bonds", lambda self, bead, *args: scanned.append(bead) or most_bonds(self, bead, *args)
        )
        got, pushes = self.search_first_bead(sys_, monkeypatch)
        assert got == [StabilizationChoice(Point(-5, 7), ()), StabilizationChoice(Point(-6, 6), ())]
        assert pushes == 5
        assert set(scanned) == {"z"}

    def test_bond_free_searches_write_no_bound(self, monkeypatch):
        # A search whose window cannot bond points ``bound`` at the zero
        # list and writes nothing. So a bond-free fold writes nothing, a
        # bond-free tail writes only next to the bonding prefix before it,
        # however long the tail, and the zero list is never written.
        written, zeroed = [], []

        class Counted(list):
            def __init__(self, items, log):
                super().__init__(items)
                self.log = log

            def __setitem__(self, key, value):
                self.log.append(key.stop if isinstance(key, slice) else key + 1)
                super().__setitem__(key, value)

        init = _Lookahead.__init__

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.bound = self.zeros = Counted(self.zeros, zeroed)
            self.reach = Counted(self.reach, written)

        monkeypatch.setattr(_Lookahead, "__init__", counted_init)
        seed = Conformation.build([(0, 0)], ["s"])
        for mode in ("first", "sample"):
            free = OritatamiSystem(RuleSet(), 1, 50, seed, ("a",) * 200)
            assert fold_summary(free, mode, rng=5)[0] == 1
            assert written == []
        tail = OritatamiSystem(RuleSet([("a", "s")]), 1, 3, seed, ("a",) * 4 + ("x",) * 60)
        for mode in ("first", "sample"):
            written.clear()
            fold_summary(tail, mode, rng=5)
            assert written and max(written) <= 4 + 3
        assert zeroed == []

    @pytest.mark.parametrize("size", [61, 60])
    def test_reach_from_the_disk_or_the_placed_beads(self, monkeypatch, size):
        # A delay-3 search reads the partners within 4 steps of the path
        # end: from the 61-point disk when the fold holds 61 beads, from the
        # placed beads when it holds 60. Either way it writes the same bound.
        # Every bead farther out is a p, which no bound may count.
        path = disk_in_rows(size)
        ex, ey = path[-1]
        rng = random.Random(size)
        beads = [
            "p" if max(abs(x - ex), abs(y - ey), abs(x - ex + y - ey)) > 4 else rng.choice("pqqqqqs")
            for x, y in path
        ]
        seed = Conformation.build(path, beads)
        rules = RuleSet([("x", "p"), ("z", "p"), ("z", "s")])
        for arity in (1, 5):
            sys_ = OritatamiSystem(rules, arity, 3, seed, ("r", "x", "z"))
            bounds = []
            # Forced onto the disk, forced onto the placed beads, then as
            # chosen: the fold's geometry with its disk sizes replaced.
            for sizes in ((0,) * 8, (size + 1,) * 8, None):
                fold = _Fold(rules, arity, seed, size + 3)
                if sizes:
                    fold.geometry = fold.geometry._replace(disk_sizes=sizes)
                search = _Lookahead(sys_)
                search._reach_gains(fold, 0, 3)
                bounds.append(search.bound)
            assert bounds[0] == bounds[1] == bounds[2]
            assert bounds[0][3] > bounds[0][2] > 0
            self.search_first_bead(sys_, monkeypatch)

    def test_nascent_partners(self, monkeypatch):
        # No placed bead bonds; z bonds only with p, the bead being placed.
        path = [(0, 0), (-1, 1), (-1, 2), (-2, 3), (-3, 3), (-3, 2)]
        seed = Conformation.build(path, ["q"] * 6)
        sys_ = OritatamiSystem(RuleSet([("z", "p")]), 1, 3, seed, ("p", "x", "z"))
        got, _ = self.search_first_bead(sys_, monkeypatch)
        assert len(got) == 4  # of five placements

    def test_random_systems_at_delays_two_to_six(self):
        rng = random.Random(4)
        compared = 0
        for n in range(60):
            sys_ = oracles.random_system(rng, max_delay=6, max_arity=3, max_transcript=7)
            sys_ = OritatamiSystem(sys_.rules, sys_.arity, 2 + n % 5, sys_.seed, sys_.transcript)
            compared += TestOracleAgreement.compare_along_first_branch(sys_)
            assert fold_all(sys_, "first") == replay(sys_, "first")
        assert compared > 200

    def test_value_below_alpha_is_only_below_alpha(self, monkeypatch):
        # Each node's frame, nested ones included, is checked against a
        # rerun of its node with alpha -1, which makes it exact, made when
        # the frame is created. At or above alpha the frame's score is
        # exact; below it, the score and the exact value are both below
        # alpha, and the score is no bound on the exact value.
        node = _Lookahead._node
        seen = Counter()

        def checked(self, fold, j, stop, alpha, *args):
            if seen["rerunning"]:
                return node(self, fold, j, stop, alpha, *args)
            left = self.nodes_left
            seen["rerunning"] = 1
            exact = self._value(fold, j, stop, -1, *args)
            seen["rerunning"] = 0
            self.nodes_left = left
            return check(self, node(self, fold, j, stop, alpha, *args), exact, alpha)

        def check(search, frame, exact, alpha):
            yield from frame
            got = search.score
            if got >= alpha:
                assert got == exact
            else:
                assert exact < alpha
                seen["below"] += 1
                seen["above the result"] += exact > got

        monkeypatch.setattr(_Lookahead, "_node", checked)
        rng = random.Random(5)
        for _ in range(80):
            sys_ = oracles.random_system(rng, max_delay=5, max_arity=3)
            for mode in ("enumerate", "first"):
                try:
                    fold_summary(sys_, mode, branch_budget=300)
                except BranchBudgetExceeded:
                    pass
        assert seen["below"] >= 1_000 and seen["above the result"] >= 500

    def test_delay_six_glider_within_a_small_budget(self, monkeypatch):
        # The costliest step, at transcript bead 12, pushes 500 beads (514
        # mirrored) in first mode and 1,150 (1,182) in a full search;
        # counting a partner type seen anywhere before as in reach, the full
        # search pushed 2,350.
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", 1500)
        for mirrored in (False, True):
            (outcome,) = fold_all(glider_at(6, 2, mirrored), "first")
            assert outcome.completed

    @pytest.mark.parametrize("mirrored, needed", [(False, 1150), (True, 1182)])
    def test_delay_six_glider_budget_is_exact(self, monkeypatch, mirrored, needed):
        # The full search at transcript bead 12 of the first fold, its
        # costliest, spends exactly ``needed`` of the budget, each choice
        # scored in place counted as a push.
        sys_ = glider_at(6, 2, mirrored)
        (outcome,) = fold_all(sys_, "first")
        conf = prefix(outcome.conformation, len(sys_.seed) + 11)
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", needed - 1)
        with pytest.raises(LookaheadBudgetExceeded, match=f"bead 12 .* more than {needed - 1} nascent"):
            stabilize_next(sys_, conf, 11)
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", needed)
        assert stabilize_next(sys_, conf, 11)

    @pytest.mark.parametrize("mirrored, needed", [(False, 500), (True, 514)])
    def test_delay_six_glider_first_fold_budget_is_exact(self, monkeypatch, mirrored, needed):
        # First mode searches bead 12 for a strictly better root only after
        # the first best, so both of its folds spend exactly ``needed``
        # there, less than the full search.
        sys_ = glider_at(6, 2, mirrored)
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", needed - 1)
        for fold in (fold_all, fold_summary):
            with pytest.raises(LookaheadBudgetExceeded, match=f"bead 12 .* more than {needed - 1} nascent"):
                fold(sys_, "first")
        monkeypatch.setattr(folding, "LOOKAHEAD_BUDGET", needed)
        (outcome,) = fold_all(sys_, "first")
        assert outcome.completed and fold_summary(sys_, "first") == (1, 1, outcome)

    def test_late_partners_match_brute_force(self):
        rng = random.Random(4711)
        cut = compared = 0
        for _ in range(60):
            sys_ = late_partner_system(rng)
            headroom = _Lookahead(sys_).headroom
            gains = [b - a for a, b in zip(headroom, headroom[1:])]
            cut += sum(g == 0 and bool(sys_.rules.partners(t)) for g, t in zip(gains, sys_.transcript))
            for mode in ("first", "sample"):
                got = fold_all(sys_, mode, rng=5)
                assert list(got) == list(replay(sys_, mode, rng=5, step=brute_step))
            assert deterministic(sys_) == replay_is_deterministic(sys_, step=brute_step)
            try:
                outcomes = fold_all(sys_, "enumerate", branch_budget=60)
            except BranchBudgetExceeded:
                continue
            assert list(outcomes) == list(replay(sys_, "enumerate", step=brute_step))
            compared += 1
        assert cut >= 100  # beads whose partner types exist but are not yet present
        assert compared >= 25

    def test_far_translated_seed(self):
        dx, dy = 1 << 40, -(1 << 40)
        rng = random.Random(2718)
        systems = [glider_system(periods=3), glider_system(periods=2, mirrored=True)]
        systems += [oracles.random_system(rng, max_delay=4, max_arity=3) for _ in range(12)]
        for sys_ in systems:
            far = OritatamiSystem(
                sys_.rules, sys_.arity, sys_.delay, shifted(sys_.seed, dx, dy), sys_.transcript
            )
            for mode in ("enumerate", "first", "sample"):
                try:
                    plain = fold_all(sys_, mode, rng=3, branch_budget=200)
                except BranchBudgetExceeded:
                    continue
                expected = tuple(
                    FoldOutcome(shifted(o.conformation, dx, dy), o.completed) for o in plain
                )
                assert fold_all(far, mode, rng=3, branch_budget=200) == expected
            assert deterministic(far) == deterministic(sys_)

    def test_five_bond_hole_beats_four(self):
        # The p-ring around (0, 0) ends at (0, 1); the p-beads around (1, 2)
        # leave (1, 1) and (0, 2) open. If r steps east, z fills (0, 0) with
        # five bonds; every other step of r leaves z four at most. So a bound
        # of four bonds per bead would tie them all.
        path = [(0, 3), (1, 3), (2, 2), (2, 1), (2, 0), (2, -1),
                (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1)]
        seed = Conformation.build(path, ["p"] * len(path))
        sys_ = OritatamiSystem(RuleSet([("z", "p")]), 5, 2, seed, ("r", "z"))
        got = stabilize_next(sys_, seed, 0)
        assert got == [StabilizationChoice(Point(1, 0), ())]
        assert set(map(oracles.choice_key, got)) == oracles.brute_minimizers(sys_, seed, 0)
        (outcome,) = fold_all(sys_, "enumerate")
        assert energy(outcome.conformation) == -5

    def test_unreachable_partners_push_nothing_below_the_root(self, monkeypatch):
        # a bonds only with b, and no b ever occurs: every choice scores 0.
        sys_ = OritatamiSystem(
            RuleSet([("a", "b")]), 2, 8, Conformation.build([(0, 0)], ["s"]), ("a",) * 10
        )
        pushes = []
        push = _Fold.push
        monkeypatch.setattr(_Fold, "push", lambda self, *args: pushes.append(1) or push(self, *args))
        (outcome,) = fold_all(sys_, "first")
        assert len(pushes) == 10  # the ten stabilized beads, nothing in the lookahead
        assert outcome.completed
        assert outcome.conformation.path == tuple(Point(x, 0) for x in range(11))


def straight(d, n):
    """An n-bead seed of s beads, straight along the direction ``d``."""
    return Conformation.build([(3 + j * d.x, -2 + j * d.y) for j in range(n)], ["s"] * n)


class TestPointKeys:
    """The workspace keys points by ints in a stride sized to each fold
    (``folding._stride``): folds come out as under the widest stride, and
    the keys stay single-digit ints."""

    RULES = RuleSet([("a", "s"), ("b", "s")])

    @classmethod
    def folds(cls, seed, transcript, delay):
        """Every fold of ``transcript`` on ``seed`` in each mode, the count
        and the first step's argmin set."""
        sys_ = OritatamiSystem(cls.RULES, 2, delay, seed, transcript)
        runs = [fold_all(sys_, mode, rng=3) for mode in ("enumerate", "first", "sample")]
        return runs, fold_summary(sys_), stabilize_next(sys_, seed, 0)

    @classmethod
    def straight_folds(cls, spans):
        """For each direction and span: two bond-free beads on a straight
        seed, which may go on straight out to the span, three beads that
        bond back onto the seed's end, and the elongations of a seed that
        reach the span."""
        out = []
        for d in DIRECTIONS:
            for span in spans:
                out.append(cls.folds(straight(d, span - 1), ("f", "f"), 2))
                out.append(cls.folds(straight(d, span - 2), ("a", "b", "a"), 3))
                out.append(elongations(straight(d, span), "a", cls.RULES, 2))
        return out

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_folds_alike_across_the_stride_switch(self, monkeypatch, k):
        # A fold of n beads reaches at most n - 1 steps from its first
        # point: the span the stride's half must exceed, reached only by a
        # straight fold. The stride doubles between spans 2**k - 1 and 2**k.
        spans = (2**k - 1, 2**k, 2**k + 1)
        assert len({folding._stride(span + 1) for span in spans}) == 2
        sized = self.straight_folds(spans)
        monkeypatch.setattr(folding, "_stride", lambda beads: 1 << 32)
        assert self.straight_folds(spans) == sized

    def test_small_folds_keep_the_rings_apart(self, monkeypatch):
        # Below a span of 7 the rings set the stride: they reach 7 steps
        # from the path end, and no two of their 169 offsets share an int.
        spans = (3, 4, 5, 6)
        for span in spans:
            geometry = folding._geometry(folding._stride(span + 1))
            assert len(geometry.distance) == len(geometry.disks[-1]) == 169
        sized = self.straight_folds(spans)
        monkeypatch.setattr(folding, "_stride", lambda beads: 1 << 32)
        assert self.straight_folds(spans) == sized

    def test_keys_stay_single_digit_ints(self, monkeypatch):
        # Every point a fold pushes a bead on keys below 2**30 in magnitude,
        # and so does every point probed within _REACH steps of it: each is
        # a single-digit int. Checked on 40-period gliders and on members of
        # the benchmark's random-fold pool.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.inputs import random_system

        widest = []
        push = _Fold.push

        def pushed(self, key, *args):
            widest.append(abs(key) + folding._REACH * (self.geometry.stride + 1))
            push(self, key, *args)

        monkeypatch.setattr(_Fold, "push", pushed)
        systems = [glider_system(periods=40), glider_system(periods=40, mirrored=True)]
        systems += [random_system(k) for k in (0, 1, 3, 4, 5)]
        for sys_ in systems:
            widest.clear()
            fold_summary(sys_, "enumerate")
            assert widest and max(widest) < 1 << 30
