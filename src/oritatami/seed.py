"""Bead-sequence codecs for the Gamma-shaped seed.

The horizontal arm spells the initial state: per slot k, a six-bead flag
word (N or Y), a spacer, a six-bead state-bit word (0 or 1), a spacer; the
row ends with the two-bead terminator. The vertical arm spells the input
word (end marker included) as six-bead bit words embedded in runs of spacer
words, all heading southwest. Flag words reuse the bit words: N is written
like 0 and Y like 1.

The emitted bead vocabulary is fixed: 79, 84, 85, 90-96, 501-508, 623, 624,
625, 630. Geometry follows a documented convention (the source drawings were
not available): row beads on y = -1 heading east, column beads on x = 0
descending, a single self-avoiding path from the column bottom through the
junction to the row's east end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .folding import Conformation
from .grid import E, SW, Point, translate
from .nfa import AugmentedNfa, Encoding, LetterNotEncoded

ZERO_WORD: tuple[str, ...] = ("96", "91", "90", "85", "84", "79")
ONE_WORD: tuple[str, ...] = ("96", "95", "94", "93", "92", "79")
FLAG_N = ZERO_WORD
FLAG_Y = ONE_WORD
ROW_SPACER: tuple[str, ...] = ("630", "625") * 3
ROW_END: tuple[str, ...] = ("624", "623")
COLUMN_SPACER: tuple[str, ...] = ("501", "502", "503", "504", "505", "506")
COLUMN_ONE = COLUMN_SPACER
COLUMN_ZERO: tuple[str, ...] = ("501", "502", "503", "504", "507", "508")

WORD_LEN = 6
SLOT_LEN = 4 * WORD_LEN  # flag word + spacer + bit word + spacer


class WidthMismatch(ValueError):
    pass


@dataclass(frozen=True)
class BeadWord:
    """A bead sequence plus the step directions between consecutive beads."""

    beads: tuple[str, ...]
    directions: tuple[Point, ...]

    def __post_init__(self):
        if len(self.directions) != max(len(self.beads) - 1, 0):
            raise ValueError("need exactly one direction per consecutive bead pair")

    def __len__(self) -> int:
        return len(self.beads)

    def trace(self, origin: Point) -> tuple[Point, ...]:
        """The grid path obtained by walking the directions from ``origin``."""
        points = [origin]
        for d in self.directions:
            points.append(translate(points[-1], d))
        return tuple(points)


def encode_state_row(q_code: str, f_values: Sequence[str]) -> BeadWord:
    """The horizontal-arm bead sequence for state bits ``q_code`` and flags
    ``f_values`` (entries N or Y), all steps eastward."""
    if len(f_values) != len(q_code):
        raise WidthMismatch(f"{len(f_values)} flags for {len(q_code)} state bits")
    beads: list[str] = []
    for flag, bit in zip(f_values, q_code):
        if flag not in ("N", "Y"):
            raise WidthMismatch(f"flag values must be N or Y, got {flag!r}")
        if bit not in "01":
            raise WidthMismatch(f"state bits must be 0 or 1, got {bit!r}")
        beads += (FLAG_Y if flag == "Y" else FLAG_N) + ROW_SPACER
        beads += (ONE_WORD if bit == "1" else ZERO_WORD) + ROW_SPACER
    beads += ROW_END
    return BeadWord(tuple(beads), (E,) * (len(beads) - 1))


def decode_state_row(word: BeadWord) -> tuple[str, tuple[str, ...]]:
    """Inverse of :func:`encode_state_row`; raises ValueError on malformed rows."""
    beads = word.beads
    if len(beads) < SLOT_LEN + 2 or (len(beads) - 2) % SLOT_LEN:
        raise ValueError(f"row length {len(beads)} does not fit the slot format")
    if any(d != E for d in word.directions):
        raise ValueError("state row must head east")
    if beads[-2:] != ROW_END:
        raise ValueError("missing row terminator")
    n = (len(beads) - 2) // SLOT_LEN
    flags: list[str] = []
    bits: list[str] = []
    for k in range(n):
        base = k * SLOT_LEN
        flag_word = beads[base : base + WORD_LEN]
        bit_word = beads[base + 2 * WORD_LEN : base + 3 * WORD_LEN]
        for off in (WORD_LEN, 3 * WORD_LEN):
            if beads[base + off : base + off + WORD_LEN] != ROW_SPACER:
                raise ValueError(f"slot {k + 1}: bad spacer")
        if flag_word == FLAG_N:
            flags.append("N")
        elif flag_word == FLAG_Y:
            flags.append("Y")
        else:
            raise ValueError(f"slot {k + 1}: unrecognized flag word {flag_word!r}")
        if bit_word == ZERO_WORD:
            bits.append("0")
        elif bit_word == ONE_WORD:
            bits.append("1")
        else:
            raise ValueError(f"slot {k + 1}: unrecognized bit word {bit_word!r}")
    return "".join(bits), tuple(flags)


def _column_block_len(n: int, m: int) -> int:
    return WORD_LEN * (2 * n - 1 + 2 * m + 2 + 2 * n)


def encode_input_column(letters: Sequence[str], code: Encoding, n: int) -> BeadWord:
    """The vertical-arm bead sequence for ``letters``: per letter, 2n-1 spacer
    words, then each code bit interleaved with one spacer word, then 2n+2
    spacer words; all steps southwest."""
    beads: list[str] = []
    for letter in letters:
        bits = code.letter_bits_of(letter)
        beads += COLUMN_SPACER * (2 * n - 1)
        for bit in bits:
            beads += (COLUMN_ONE if bit == "1" else COLUMN_ZERO) + COLUMN_SPACER
        beads += COLUMN_SPACER * (2 * n + 2)
    return BeadWord(tuple(beads), (SW,) * max(len(beads) - 1, 0))


def decode_input_column(word: BeadWord, n: int, code: Encoding) -> tuple[str, ...]:
    """Inverse of :func:`encode_input_column` given the slot count ``n`` and the
    encoding (bit words at a 1-position are indistinguishable from spacers,
    so the geometry alone cannot be decoded)."""
    m = code.letter_bits
    block = _column_block_len(n, m)
    beads = word.beads
    if len(beads) == 0 or len(beads) % block:
        raise ValueError(f"column length {len(beads)} does not fit {block}-bead letter blocks")
    if any(d != SW for d in word.directions):
        raise ValueError("input column must head southwest")
    by_bits = {bits: letter for letter, bits in code.letter_code.items()}
    letters: list[str] = []
    for j in range(len(beads) // block):
        base = j * block
        bits = []
        for ell in range(m):
            start = base + WORD_LEN * (2 * n - 1 + 2 * ell)
            bit_word = beads[start : start + WORD_LEN]
            spacer = beads[start + WORD_LEN : start + 2 * WORD_LEN]
            if spacer != COLUMN_SPACER:
                raise ValueError(f"letter {j + 1}: bad spacer after bit {ell + 1}")
            if bit_word == COLUMN_ONE:
                bits.append("1")
            elif bit_word == COLUMN_ZERO:
                bits.append("0")
            else:
                raise ValueError(f"letter {j + 1}: unrecognized bit word {bit_word!r}")
        for off in range(0, WORD_LEN * (2 * n - 1), WORD_LEN):
            if beads[base + off : base + off + WORD_LEN] != COLUMN_SPACER:
                raise ValueError(f"letter {j + 1}: bad leading spacer run")
        tail = base + WORD_LEN * (2 * n - 1 + 2 * m)
        for off in range(0, WORD_LEN * (2 * n + 2), WORD_LEN):
            if beads[tail + off : tail + off + WORD_LEN] != COLUMN_SPACER:
                raise ValueError(f"letter {j + 1}: bad trailing spacer run")
        key = "".join(bits)
        if key not in by_bits:
            raise LetterNotEncoded(key)
        letters.append(by_bits[key])
    return tuple(letters)


@dataclass(frozen=True)
class SeedLayout:
    """The two arms of the Gamma seed plus the junction where they meet."""

    horizontal: BeadWord
    vertical: BeadWord
    junction: Point


def build_seed(
    nfa: AugmentedNfa, code: Encoding, word: Sequence[str]
) -> tuple[SeedLayout, Conformation]:
    """The Gamma seed for running ``nfa`` on ``word``: the horizontal arm spells
    the initial state with all flags N, the vertical arm spells word + $.

    The returned conformation is bond-free and places the row on y = -1
    (x = 1 east) and the column on x = 0 (descending); its path starts at
    the column bottom and ends at the row's east end.
    """
    n = code.state_bits
    row = encode_state_row(code.state_code[nfa.initial], ("N",) * n)
    column = encode_input_column(list(word) + [nfa.dollar], code, n)

    junction = Point(0, -1)
    row_points = row.trace(Point(1, -1))
    column_points = column.trace(junction)
    path = tuple(reversed(column_points)) + row_points
    beads = tuple(reversed(column.beads)) + row.beads
    layout = SeedLayout(row, column, junction)
    return layout, Conformation(path, beads)
