import pytest

from oritatami.fixtures import (
    GLIDER_PERIOD,
    GLIDER_RULES,
    glider_seed,
)
from oritatami.folding import Conformation, RuleSet, validate_conformation
from oritatami.grid import Point
from oritatami.harness import (
    CatalogError,
    ClosureViolation,
    Environment,
    NondeterministicBrick,
    SubmoduleDef,
    UnexpectedFold,
    _classify,
    explore_closure,
    fold_in_environment,
    format_automaton,
    parse_environments,
    parse_submodules,
)

BOTTOM_EXPOSURE = ("590", "585", "584", "579")
TOP_EXPOSURE = ("588", "587", "582", "581")


def gspacer(expected=True):
    declared = {("T", "1"): ("T", TOP_EXPOSURE), ("B", "1"): ("B", BOTTOM_EXPOSURE)} if expected else {}
    return SubmoduleDef(
        name="gspacer",
        fragment=GLIDER_PERIOD,
        rules=GLIDER_RULES,
        delay=3,
        arity=2,
        expected=declared,
    )


def top_env():
    return Environment("band_top", glider_seed(), "T", "1")


def bottom_env():
    return Environment("band_bottom", glider_seed(mirrored=True), "B", "1")


class TestFoldInEnvironment:
    @pytest.mark.parametrize("entry, input_bit, message", [
        ("X", "1", r"^entry must be T or B, got 'X'$"),
        ("T", "2", r"^input must be 0, 1, N or Y, got '2'$"),
    ])
    def test_environment_rejects_an_unknown_entry_or_input(self, entry, input_bit, message):
        with pytest.raises(ValueError, match=message):
            Environment("band", glider_seed(), entry, input_bit)

    def test_top_entry_brick(self):
        brick = fold_in_environment(gspacer(), top_env())
        assert brick.name == "gspacer_-t1"
        assert brick.exit == "T"
        assert brick.exposed == TOP_EXPOSURE

    def test_bottom_entry_brick(self):
        brick = fold_in_environment(gspacer(), bottom_env())
        assert brick.name == "gspacer_-b1"
        assert brick.exit == "B"
        assert brick.exposed == BOTTOM_EXPOSURE

    def test_brick_conformation_stays_valid(self):
        brick = fold_in_environment(gspacer(), top_env())
        validate_conformation(brick.conformation, GLIDER_RULES, max_arity=2)

    def test_spacer_exit_equals_entry(self):
        for env in (top_env(), bottom_env()):
            assert fold_in_environment(gspacer(), env).exit == env.entry

    def test_shape_key_is_translation_invariant(self):
        top = fold_in_environment(gspacer(), top_env())
        shifted_seed = Conformation(
            tuple(Point(p.x + 7, p.y) for p in glider_seed().path),
            glider_seed().beads,
            glider_seed().bonds,
        )
        moved = fold_in_environment(
            gspacer(), Environment("moved", shifted_seed, "T", "1")
        )
        assert (moved.exit, moved.exposed) == (top.exit, top.exposed)
        start = len(glider_seed())
        assert moved.conformation.path[start:] == tuple(
            Point(p.x + 7, p.y) for p in top.conformation.path[start:]
        )

    def test_empty_rules_in_open_space_is_unexpected(self):
        sub = SubmoduleDef("loose", ("a",) * 6, RuleSet([]), 2, 1)
        env = Environment("open", Conformation.build([(0, 0), (1, 0)], ["s", "s"]), "T", "N")
        with pytest.raises(UnexpectedFold):
            fold_in_environment(sub, env)

    def test_fragment_ending_mid_band_is_unexpected(self):
        # A one-bead seed, then a fragment that climbs two rows and steps
        # back down to the middle one.
        fold = Conformation.build([(0, 0), (1, 0), (1, 1), (1, 2), (2, 1)], ["s", "a", "a", "a", "a"])
        with pytest.raises(UnexpectedFold, match=r"^fragment ends mid-band \(y=1, band 0\.\.2\)$"):
            _classify(fold, 1)

    def test_declared_mismatch_is_unexpected(self):
        wrong = SubmoduleDef(
            "gspacer",
            GLIDER_PERIOD,
            GLIDER_RULES,
            3,
            2,
            expected={("T", "1"): ("B", BOTTOM_EXPOSURE)},
        )
        message = (
            "gspacer in band_top: folded to exit=T exposed=588,587,582,581, "
            "declared exit=B exposed=590,585,584,579"
        )
        with pytest.raises(UnexpectedFold, match=f"^{message}$"):
            fold_in_environment(wrong, top_env())

    def test_mutated_rules_fail_verification(self):
        # Dropping one pair must not silently verify; which error fires depends
        # on how the fold degenerates.
        broken = SubmoduleDef(
            "gspacer",
            GLIDER_PERIOD,
            GLIDER_RULES.without("581", "588"),
            3,
            2,
            expected=gspacer().expected,
        )
        with pytest.raises((UnexpectedFold, NondeterministicBrick)):
            fold_in_environment(broken, top_env())


class TestExploreClosure:
    def test_glider_closure_two_environments(self):
        auto = explore_closure({"gspacer": gspacer()}, [top_env(), bottom_env()])
        assert set(auto.environments) == {"band_top", "band_bottom"}
        assert sorted(auto.transitions) == [
            ("band_bottom", "B", "band_bottom"),
            ("band_top", "T", "band_top"),
        ]
        assert auto.failures == []
        assert auto.bricks["band_top"].exposed == TOP_EXPOSURE
        assert auto.bricks["band_bottom"].exposed == BOTTOM_EXPOSURE

    def test_single_environment_single_vertex(self):
        auto = explore_closure({"gspacer": gspacer()}, [top_env()])
        assert len(auto.environments) == 1
        assert auto.transitions == [("band_top", "T", "band_top")]

    def test_mutated_rules_reported_not_raised(self):
        broken = SubmoduleDef(
            "gspacer",
            GLIDER_PERIOD,
            GLIDER_RULES.without("581", "588"),
            3,
            2,
            expected=gspacer().expected,
        )
        auto = explore_closure({"gspacer": broken}, [top_env(), bottom_env()])
        assert auto.failures
        assert any("band_top" == name for name, _ in auto.failures)

    def test_missing_successor_is_a_violation(self):
        # This environment folds a brick exiting at T, but no declared
        # environment has entry T to receive it.
        mislabeled = Environment("mislabeled", glider_seed(), "B", "1")
        with pytest.raises(ClosureViolation):
            explore_closure({"gspacer": gspacer(expected=False)}, [mislabeled])

    def test_ambiguous_successors_are_a_violation(self):
        twin = Environment("band_twin", glider_seed(), "T", "1")
        with pytest.raises(ClosureViolation) as exc:
            explore_closure({"gspacer": gspacer()}, [top_env(), twin])
        assert str(exc.value) == "ambiguous successors of band_top: band_top, band_twin"

    def test_undeclared_submodule_is_a_violation(self):
        stray = Environment("stray", glider_seed(), "T", "1", "nosuch")
        with pytest.raises(ClosureViolation) as exc:
            explore_closure({"gspacer": gspacer()}, [top_env(), stray])
        assert str(exc.value) == "environment stray names undeclared submodule 'nosuch'"

    def test_unnamed_submodule_among_several_is_a_violation(self):
        defs = {"gspacer": gspacer(), "other": gspacer()}
        with pytest.raises(ClosureViolation) as exc:
            explore_closure(defs, [top_env()])
        assert str(exc.value) == (
            "environment band_top must name its submodule (several are declared)"
        )

    def test_missing_successor_comes_before_a_later_unresolved_environment(self):
        # The stray environment has entry T but no resolvable submodule, so
        # it is no successor, and the walk fails before reaching it.
        mislabeled = Environment("mislabeled", glider_seed(), "B", "1")
        stray = Environment("stray", glider_seed(), "T", "1", "nosuch")
        with pytest.raises(ClosureViolation) as exc:
            explore_closure({"gspacer": gspacer(expected=False)}, [mislabeled, stray])
        assert str(exc.value) == "no declared environment with entry T follows mislabeled"

    def test_duplicate_names_name_the_first(self):
        envs = [top_env(), bottom_env(), top_env(), bottom_env()]
        with pytest.raises(CatalogError, match="^duplicate environment names: band_top$"):
            explore_closure({"gspacer": gspacer()}, envs)

    def test_catalog_past_a_thousand_environments_closes(self):
        # Each environment is folded once, however long the catalog: 501
        # two-bead submodules whose b bonds back to the seed, exiting at T.
        seed = Conformation.build([(0, 0), (1, 0)], ["s", "s"])
        defs = {
            f"m{k}": SubmoduleDef(f"m{k}", ("a", "b"), RuleSet([("b", "s")]), 1, 1,
                                  deterministic=False)
            for k in range(501)
        }
        envs = [Environment(f"m{k}{h}", seed, h, "0", f"m{k}") for k in range(501) for h in "TB"]
        auto = explore_closure(defs, envs)
        assert auto.failures == []
        assert len(auto.transitions) == 1002
        assert auto.transitions[:2] == [("m0T", "T", "m0T"), ("m0B", "T", "m0T")]

    def test_format_automaton(self):
        auto = explore_closure({"gspacer": gspacer()}, [top_env(), bottom_env()])
        text = format_automaton(auto)
        assert "band_top -T-> band_top" in text
        assert "digraph bricks {" in text
        assert '"band_bottom" -> "band_bottom" [label="B"];' in text

    def test_format_automaton_escapes_names_inside_dot_strings(self):
        # The edge list keeps each name as it is; inside the DOT listing's
        # quoted strings a quote and a backslash are escaped.
        envs = [
            Environment('band"top', glider_seed(), "T", "1"),
            Environment("band\\bottom", glider_seed(mirrored=True), "B", "1"),
        ]
        text = format_automaton(explore_closure({"gspacer": gspacer()}, envs))
        assert text == (
            'band"top -T-> band"top\n'
            "band\\bottom -B-> band\\bottom\n"
            "\n"
            "digraph bricks {\n"
            '  "band\\"top" [label="band\\"top\\ngspacer_-t1"];\n'
            '  "band\\\\bottom" [label="band\\\\bottom\\ngspacer_-b1"];\n'
            '  "band\\"top" -> "band\\"top" [label="T"];\n'
            '  "band\\\\bottom" -> "band\\\\bottom" [label="B"];\n'
            "}\n"
        )


CATALOG_TEXT = """\
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

DEFS_TEXT = """\
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


class TestCatalogFiles:
    def test_parse_environments(self):
        envs = parse_environments(CATALOG_TEXT)
        assert [e.name for e in envs] == ["band_top", "band_bottom"]
        assert envs[0].conformation == glider_seed()
        assert envs[1].conformation == glider_seed(mirrored=True)

    def test_parse_submodules(self):
        defs = parse_submodules(DEFS_TEXT)
        sub = defs["gspacer"]
        assert sub.fragment == GLIDER_PERIOD
        assert sub.rules == GLIDER_RULES
        assert sub.expected["B", "1"] == ("B", BOTTOM_EXPOSURE)

    def test_files_drive_the_closure(self):
        auto = explore_closure(parse_submodules(DEFS_TEXT), parse_environments(CATALOG_TEXT))
        assert auto.failures == []
        assert len(auto.transitions) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "entry T\n",  # directive before any stanza
            "env a\nentry T\ninput 1\n",  # no seed block
            "env a\nseed 0 0 x\nentry X\ninput 1\n",  # bad entry
            "env a\nseed 0 0 x\nentry T\n",  # missing input
        ],
    )
    def test_bad_catalogs(self, text):
        with pytest.raises(CatalogError):
            parse_environments(text)

    def test_crossing_seed_fails_at_parse_time(self):
        text = "env loop\nseed 0 0 a\nseed 1 0 b\nseed 0 0 c\nentry T\ninput 1\n"
        with pytest.raises(CatalogError) as info:
            parse_environments(text)
        assert str(info.value) == "env loop: path is not a self-avoiding chain of adjacent points"

    @pytest.mark.parametrize(
        "flag, expected",
        [("yes", True), ("TRUE", True), ("1", True), ("no", False), ("false", False), ("0", False)],
    )
    def test_deterministic_flag(self, flag, expected):
        defs = parse_submodules(DEFS_TEXT + f"deterministic {flag}\n")
        assert defs["gspacer"].deterministic is expected

    @pytest.mark.parametrize(
        "text",
        [
            "delay 3\n",
            "submodule s\ndelay 3\narity 2\n",  # no fragment
            "submodule s\ndelay 3\narity 2\nfragment a\nexpect T\n",
        ],
    )
    def test_bad_defs(self, text):
        with pytest.raises(CatalogError):
            parse_submodules(text)
