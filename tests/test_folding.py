import random

import pytest

from oritatami.fixtures import (
    GLIDER_PERIOD_SHIFT,
    GLIDER_RULES,
    glider_seed,
    glider_system,
)
from oritatami.folding import (
    BranchBudgetExceeded,
    Conformation,
    DeadEnd,
    FoldOutcome,
    OritatamiSystem,
    RuleSet,
    StabilizationChoice,
    arity_of,
    elongations,
    energy,
    fold_all,
    is_deterministic_run,
    stabilize_next,
    validate_conformation,
)
from oritatami.folding import _Fold, _Lookahead
from oritatami.grid import Point, path_is_valid

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
    the reference for ``is_deterministic_run``."""
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
        assert arity_of(c) == 0
        c1 = Conformation.build(base, list("abcde"), [(0, 2)])
        assert arity_of(c1) == 1
        # bead 0 and bead 3 both carry two bonds
        c2 = Conformation.build(base, list("abcde"), [(0, 2), (0, 3), (1, 3)])
        assert arity_of(c2) == 2

    def test_validation_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_conformation(Conformation.build([(0, 0), (5, 5)], ["a", "b"]))
        with pytest.raises(ValueError):
            validate_conformation(Conformation.build([(0, 0), (1, 0)], ["a", "b"], [(0, 1)]))
        c = Conformation.build([(0, 0), (1, 0), (1, 1)], ["a", "b", "c"], [(0, 2)])
        with pytest.raises(ValueError):
            validate_conformation(c, RuleSet([]))


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
        assert is_deterministic_run(glider_system(periods=2))

    def test_free_space_ties_are_not(self):
        sys_ = OritatamiSystem(RuleSet([]), 1, 1, Conformation.build([(0, 0)], ["s"]), ("s",))
        assert not is_deterministic_run(sys_)

    def test_two_bead_system_is_not(self):
        assert not is_deterministic_run(two_bead_system())


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
                assert (b.x - a.x, b.y - a.y) == tuple(GLIDER_PERIOD_SHIFT)

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
            determinism.add(is_deterministic_run(sys_))
            assert is_deterministic_run(sys_) == replay_is_deterministic(sys_)
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
        assert is_deterministic_run(sys_) and replay_is_deterministic(sys_)

    def test_table_hit_restores_canonical_order(self):
        # Two seeds occupy the same cells around the path end (0, 0) with the
        # same bead types, but visit the two a-beads in opposite order. A
        # b-bead at (1, 0) can bond either a-bead, so both one-bond choices
        # tie, and canonical order puts the lower partner index first.
        rules = RuleSet([("a", "b")])
        cells_a = [(1, -1), (2, -1), (3, -1), (3, 0), (2, 1), (1, 1), (0, 1), (0, 0)]
        cells_b = cells_a[-2::-1] + [(0, 0)]
        beads = ["x", "a", "y", "y", "y", "a", "x", "x"]
        first = Conformation.build(cells_a, beads)
        second = Conformation.build(cells_b, beads[-2::-1] + ["x"])
        sys_ = OritatamiSystem(rules, 1, 1, first, ("b", "b"))
        search = _Lookahead(sys_)

        got_first = search.minimizers(_Fold(rules, 1, first), 0)
        assert got_first == [
            StabilizationChoice(Point(1, 0), (1,)),  # the a-bead at (2, -1)
            StabilizationChoice(Point(1, 0), (5,)),  # the a-bead at (1, 1)
        ]
        assert len(search.table) == 1
        got_second = search.minimizers(_Fold(rules, 1, second), 0)
        assert len(search.table) == 1  # answered from the table
        assert got_second == stabilize_next(sys_, second, 0)
        assert got_second == [
            StabilizationChoice(Point(1, 0), (1,)),  # now the a-bead at (1, 1)
            StabilizationChoice(Point(1, 0), (5,)),
        ]


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


class TestLookaheadBounds:
    """The partner-reach headroom, the bound checked before each push, and
    the integer point keys, against references that use none of them."""

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
            assert is_deterministic_run(sys_) == replay_is_deterministic(sys_, step=brute_step)
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
            assert is_deterministic_run(far) == is_deterministic_run(sys_)

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
