import random

import pytest

from oritatami.fixtures import branching_machine
from oritatami.folding import validate_conformation
from oritatami.grid import E, NE, SW, Point, path_is_valid
from oritatami.nfa import DOLLAR, Encoding, LetterNotEncoded
from oritatami.seed import (
    COLUMN_SPACER,
    COLUMN_ZERO,
    FLAG_Y,
    ONE_WORD,
    ROW_END,
    ROW_SPACER,
    ZERO_WORD,
    BeadWord,
    WidthMismatch,
    build_seed,
    decode_input_column,
    decode_state_row,
    encode_input_column,
    encode_state_row,
)

VOCABULARY = {
    "79", "84", "85", "90", "91", "92", "93", "94", "95", "96",
    "501", "502", "503", "504", "505", "506", "507", "508",
    "623", "624", "625", "630",
}


def random_encoding(rng, m):
    letters = [f"l{i}" for i in range(rng.randint(1, min(4, 2**m - 1)))] + [DOLLAR]
    codes = rng.sample([format(v, f"0{m}b") for v in range(2**m)], len(letters))
    return Encoding({}, dict(zip(letters, codes)), 0, m), letters[:-1]


class TestStateRow:
    def test_worked_two_slot_row(self):
        word = encode_state_row("01", ("N", "N"))
        expected = (
            ZERO_WORD + ROW_SPACER + ZERO_WORD + ROW_SPACER
            + ZERO_WORD + ROW_SPACER + ONE_WORD + ROW_SPACER
            + ROW_END
        )
        assert word.beads == expected
        assert all(d == E for d in word.directions)

    def test_single_slot_with_flag(self):
        word = encode_state_row("1", ("Y",))
        assert word.beads[:6] == FLAG_Y
        assert word.beads[12:18] == ONE_WORD
        assert word.beads[-2:] == ROW_END

    def test_length_formula(self):
        for n in range(1, 9):
            word = encode_state_row("0" * n, ("N",) * n)
            assert len(word) == 24 * n + 2

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            encode_state_row("01", ("N",))
        with pytest.raises(WidthMismatch):
            encode_state_row("0x", ("N", "N"))
        with pytest.raises(WidthMismatch):
            encode_state_row("01", ("N", "Q"))

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 8)
            q = "".join(rng.choice("01") for _ in range(n))
            flags = tuple(rng.choice("NY") for _ in range(n))
            assert decode_state_row(encode_state_row(q, flags)) == (q, flags)

    def test_decode_rejects_corruption(self):
        word = encode_state_row("01", ("N", "N"))
        beads = list(word.beads)
        beads[0] = "999"
        with pytest.raises(ValueError):
            decode_state_row(BeadWord(tuple(beads), word.directions))
        with pytest.raises(ValueError):
            decode_state_row(BeadWord(word.beads[:-1], word.directions[:-1]))

    def test_vocabulary_is_fixed(self):
        word = encode_state_row("0110", ("N", "Y", "N", "Y"))
        assert set(word.beads) <= VOCABULARY


class TestInputColumn:
    def test_length_formula(self):
        _, code = branching_machine()
        for L in (1, 2, 3):
            word = encode_input_column(["100"] * L, code, 4)
            assert len(word) == L * 6 * (2 * 4 - 1 + 2 * 3 + 2 + 2 * 4)
            assert all(d == SW for d in word.directions)

    def test_bit_words_land_where_the_format_says(self):
        _, code = branching_machine()
        n = 4
        word = encode_input_column(["100"], code, n)
        lead = 6 * (2 * n - 1)
        assert word.beads[:lead] == COLUMN_SPACER * (2 * n - 1)
        assert word.beads[lead : lead + 6] == COLUMN_SPACER  # bit 1 of "100"
        assert word.beads[lead + 12 : lead + 18] == COLUMN_ZERO  # bit 0
        assert word.beads[lead + 24 : lead + 30] == COLUMN_ZERO  # bit 0

    def test_round_trip_random(self):
        rng = random.Random(8)
        for _ in range(500):
            m = rng.randint(1, 4)
            code, letters = random_encoding(rng, m)
            n = rng.randint(1, 8)
            word_letters = [rng.choice(letters + [DOLLAR]) for _ in range(rng.randint(1, 4))]
            col = encode_input_column(word_letters, code, n)
            assert decode_input_column(col, n, code) == tuple(word_letters)

    def test_decode_rejects_corruption(self):
        _, code = branching_machine()
        n = 4
        word = encode_input_column(["100", DOLLAR], code, n)
        block = len(word) // 2
        lead = 6 * (2 * n - 1)
        tail = lead + 6 * 2 * code.letter_bits  # where the trailing spacer run starts

        def substituted(at, new):
            beads = list(word.beads)
            beads[at : at + len(new)] = new
            return BeadWord(tuple(beads), word.directions)

        unassigned = Encoding({}, {"x": "111"}, 0, 3)  # 100 and $ are 100 and 101
        corrupted = [
            substituted(3, ("999",)),  # leading spacer run
            substituted(block + tail + 3, ("999",)),  # trailing spacer run
            substituted(lead, ("501", "502", "503", "504", "507", "506")),  # neither bit word
            BeadWord(word.beads[:-1], word.directions[:-1]),  # one bead short
            BeadWord(word.beads, word.directions[:-1] + (NE,)),  # a NE step
            encode_input_column(["x"], unassigned, n),  # no letter's code
        ]
        for column in corrupted:
            with pytest.raises(ValueError):
                decode_input_column(column, n, code)

    def test_unknown_letter(self):
        _, code = branching_machine()
        with pytest.raises(LetterNotEncoded):
            encode_input_column(["zzz"], code, 4)

    def test_vocabulary_is_fixed(self):
        _, code = branching_machine()
        word = encode_input_column(["100", DOLLAR], code, 4)
        assert set(word.beads) <= VOCABULARY


class TestBeadWord:
    def test_trace_builds_a_path(self):
        word = BeadWord(("a", "b", "c"), (E, SW))
        assert word.trace(Point(0, 0)) == (Point(0, 0), Point(1, 0), Point(1, -1))

    def test_direction_count_enforced(self):
        with pytest.raises(ValueError):
            BeadWord(("a", "b"), ())


class TestBuildSeed:
    def test_worked_machine_layout(self):
        nfa, code = branching_machine()
        layout, conf = build_seed(nfa, code, ["100"])
        assert len(layout.horizontal) == 24 * 4 + 2
        assert len(layout.vertical) == 2 * 6 * (2 * 4 - 1 + 2 * 3 + 2 + 2 * 4)
        assert len(conf) == len(layout.horizontal) + len(layout.vertical)

    def test_row_spells_initial_state_all_flags_n(self):
        nfa, code = branching_machine()
        layout, _ = build_seed(nfa, code, [])
        q, flags = decode_state_row(layout.horizontal)
        assert q == code.state_code["1011"]
        assert flags == ("N",) * 4

    def test_column_spells_word_plus_dollar(self):
        nfa, code = branching_machine()
        layout, _ = build_seed(nfa, code, ["100"])
        assert decode_input_column(layout.vertical, 4, code) == ("100", DOLLAR)

    def test_empty_word_column_is_just_the_dollar(self):
        nfa, code = branching_machine()
        layout, _ = build_seed(nfa, code, [])
        assert decode_input_column(layout.vertical, 4, code) == (DOLLAR,)

    def test_combined_path_is_valid_and_bond_free(self):
        nfa, code = branching_machine()
        _, conf = build_seed(nfa, code, ["100", "100"])
        assert path_is_valid(conf.path)
        assert conf.bonds == frozenset()
        validate_conformation(conf)

    def test_geometry_convention(self):
        nfa, code = branching_machine()
        layout, conf = build_seed(nfa, code, [])
        row_points = [p for p in conf.path if p.y == -1 and p.x >= 1]
        assert len(row_points) == len(layout.horizontal)
        column_points = [p for p in conf.path if p.x == 0]
        assert len(column_points) == len(layout.vertical)
        assert all(p.y <= -1 for p in column_points)
