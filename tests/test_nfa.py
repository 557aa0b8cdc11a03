import random

import pytest

from oritatami.nfa import (
    DOLLAR,
    SINK,
    AugmentedNfa,
    Encoding,
    EncodingClash,
    Nfa,
    NfaFileError,
    Transition,
    assign_codes,
    augment,
    oracle_accepts,
    parse_nfa,
    prepare,
)

import oracles


class TestNfaValidation:
    def test_reserved_names_rejected(self):
        with pytest.raises(ValueError):
            Nfa(("q0",), (DOLLAR,), "q0", (), ())
        with pytest.raises(ValueError):
            Nfa((SINK,), ("a",), SINK, (), ())

    def test_duplicate_transition_rejected(self):
        with pytest.raises(ValueError):
            Nfa(("q0",), ("a",), "q0", (), (("q0", "a", "q0"), ("q0", "a", "q0")))

    def test_duplicate_accepting_state_rejected(self):
        # Each accepting state adds one $-transition to the augmented machine.
        with pytest.raises(ValueError, match="duplicate accepting states"):
            Nfa(("q0", "q1"), ("a",), "q0", ("q1", "q1"), (("q0", "a", "q1"),))

    def test_undeclared_components_rejected(self):
        with pytest.raises(ValueError):
            Nfa(("q0",), ("a",), "q1", (), ())
        with pytest.raises(ValueError):
            Nfa(("q0",), ("a",), "q0", ("q9",), ())

    def test_every_name_is_coerced_to_text(self):
        nfa = Nfa(states=(0, 1), alphabet=("a",), initial=0, accepting=(1,), transitions=((0, "a", 1),))
        assert nfa.initial == "0"
        assert nfa.states == ("0", "1") and nfa.accepting == ("1",)
        assert nfa.transitions == (Transition("0", "a", "1"),)


class TestAugment:
    def test_appends_dollar_moves_in_accepting_order(self):
        aug = augment(oracles.branching_nfa())
        assert aug.states == ("1011", "1000", "1111", SINK)
        assert aug.transitions[:2] == (
            Transition("1011", "100", "1000"),
            Transition("1011", "100", "1111"),
        )
        assert aug.transitions[2:] == (
            Transition("1011", DOLLAR, SINK),
            Transition("1111", DOLLAR, SINK),
        )
        assert aug.accepting == (SINK,)

    def test_no_accepting_states_means_no_dollar_moves(self):
        nfa = Nfa(("q0",), ("a",), "q0", (), (("q0", "a", "q0"),))
        aug = augment(nfa)
        assert len(aug.transitions) == 1
        assert not any(oracle_accepts(aug, list(w) + [DOLLAR]) for w in ("", "a", "aa"))

    def test_all_states_accepting(self):
        nfa = Nfa(("q0", "q1"), ("a",), "q0", ("q0", "q1"), (("q0", "a", "q1"),))
        aug = augment(nfa)
        assert sum(t.letter == DOLLAR for t in aug.transitions) == 2

    def test_double_augmentation_rejected(self):
        aug = augment(oracles.branching_nfa())
        with pytest.raises(ValueError):
            augment(aug)

    def test_degenerate_machine_rejected(self):
        with pytest.raises(ValueError):
            augment(Nfa(("q0",), ("a",), "q0", (), ()))

    def test_sink_must_be_a_state_with_no_outgoing_move(self):
        with pytest.raises(ValueError, match="^sink state must be declared among the states$"):
            AugmentedNfa(("q0",), ("a",), "q0", (("q0", "a", "q0"),))
        moves = (("q0", "a", SINK), (SINK, "a", "q0"))
        with pytest.raises(ValueError, match="^sink state must have no outgoing transitions$"):
            AugmentedNfa(("q0", SINK), ("a",), "q0", moves)

    def test_language_identity_exhaustive(self):
        rng = random.Random(99)
        for _ in range(60):
            nfa = oracles.random_nfa(rng)
            aug = augment(nfa)
            for word in oracles.all_words(nfa.alphabet, 5):
                assert oracle_accepts(nfa, word) == oracle_accepts(aug, word + [DOLLAR])


class TestOracle:
    def test_worked_machine_words(self):
        nfa = oracles.branching_nfa()
        assert oracle_accepts(nfa, [])  # initial state accepts
        assert oracle_accepts(nfa, ["100"])  # branch into 1111
        assert not oracle_accepts(nfa, ["100", "100"])  # propagation dies out


class TestAssignCodes:
    def test_default_counters(self):
        aug = augment(oracles.branching_nfa())  # 4 transitions -> 4-bit state codes
        code = assign_codes(aug)
        assert code.state_bits == 4
        assert code.state_code["1011"] == "0000"
        assert code.state_code[SINK] == "0011"
        assert code.letter_bits == 1
        assert code.letter_code == {"100": "0", DOLLAR: "1"}

    def test_verbatim_overrides(self):
        machine, code = oracles.branching_machine()
        assert code.state_code == {s: s for s in machine.states}
        assert code.letter_code == {"100": "100", DOLLAR: "101"}
        assert code.letter_bits == 3

    def test_single_state_single_letter(self):
        nfa = Nfa(("q0",), ("a",), "q0", ("q0",), (("q0", "a", "q0"),))
        aug = augment(nfa)  # two transitions
        code = assign_codes(aug)
        assert code.state_code["q0"] == "00"
        assert code.letter_bits == 1

    def test_clashing_overrides_rejected(self):
        aug = augment(oracles.branching_nfa())
        with pytest.raises(EncodingClash):
            assign_codes(aug, state_overrides={"1011": "0000", "1000": "0000"})
        with pytest.raises(EncodingClash):
            assign_codes(aug, state_overrides={"1011": "000"})  # wrong width
        with pytest.raises(EncodingClash):
            assign_codes(aug, letter_overrides={"100": "0", DOLLAR: "11"})

    def test_width_overflow_rejected(self):
        # 3 states + sink cannot fit injectively in 1 bit.
        nfa = Nfa(("q0", "q1", "q2"), ("a",), "q0", (), (("q0", "a", "q1"),))
        with pytest.raises(EncodingClash, match="cannot encode"):
            assign_codes(augment(nfa))

    def test_default_letter_width_fits_the_end_marker(self):
        # The narrowest width that holds every letter plus $: ceil(log2(|alphabet| + 1)).
        widths = []
        for size in range(1, 10):
            letters = tuple(f"a{i}" for i in range(size))
            nfa = Nfa(("q0",), letters, "q0", ("q0",), tuple(("q0", a, "q0") for a in letters))
            widths.append(assign_codes(augment(nfa)).letter_bits)
        assert widths == [1, 2, 2, 3, 3, 3, 3, 4, 4]

    def test_default_assignment_is_deterministic(self):
        aug = augment(oracles.branching_nfa())
        assert assign_codes(aug) == assign_codes(aug)


class TestEncoding:
    def test_validates_on_construction(self):
        with pytest.raises(EncodingClash):
            Encoding({"a": "00", "b": "00"}, {}, 2, 1)
        with pytest.raises(EncodingClash):
            Encoding({"a": "0x"}, {}, 2, 1)


FILE_TEXT = """\
# three-state machine with one branching letter
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


class TestNfaFile:
    def test_parse_and_prepare(self):
        nfa, state_codes, letter_codes = parse_nfa(FILE_TEXT)
        assert nfa == oracles.branching_nfa()
        machine, code = prepare(nfa, state_codes, letter_codes)
        assert code.state_code[SINK] == "0011"
        assert code.letter_code[DOLLAR] == "101"
        assert code.letter_bits == 3

    def test_missing_initial_rejected(self):
        with pytest.raises(NfaFileError):
            parse_nfa("states: a\nalphabet: x\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(NfaFileError):
            parse_nfa(FILE_TEXT + "flavor: vanilla\n")

    def test_transition_order_is_file_order(self):
        nfa, _, _ = parse_nfa(FILE_TEXT)
        assert [t.target for t in nfa.transitions] == ["1000", "1111"]
