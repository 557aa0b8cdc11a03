"""Bead-sequence codecs for the Gamma-shaped seed.

The horizontal arm spells the initial state: per slot k, a six-bead flag
word (N or Y), a spacer, a six-bead state-bit word (0 or 1), a spacer; the
row ends with the two-bead terminator. The vertical arm spells the input
word (end marker included) as six-bead bit words embedded in runs of spacer
words, all heading southwest. Flag words reuse the bit words: N is written
like 0 and Y like 1. The encoders are the only statement of this layout: the
decoders look a seed's slots and letter blocks up in the encoders' output.

The emitted bead vocabulary is fixed: 79, 84, 85, 90-96, 501-508, 623, 624,
625, 630. Geometry follows a convention of this package (the source
drawings were not available), stated by ``SeedLayout.column`` and
``SeedLayout.row``: one self-avoiding path up the column, through the
junction, east along the row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .folding import Conformation
from .grid import E, SW, Point
from .nfa import AugmentedNfa, Encoding

ZERO_WORD: tuple[str, ...] = ("96", "91", "90", "85", "84", "79")
ONE_WORD: tuple[str, ...] = ("96", "95", "94", "93", "92", "79")
FLAG_N = ZERO_WORD
FLAG_Y = ONE_WORD
ROW_SPACER: tuple[str, ...] = ("630", "625") * 3
ROW_END: tuple[str, ...] = ("624", "623")
COLUMN_SPACER: tuple[str, ...] = ("501", "502", "503", "504", "505", "506")
COLUMN_ONE = COLUMN_SPACER
COLUMN_ZERO: tuple[str, ...] = ("501", "502", "503", "504", "507", "508")


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
    """Inverse of :func:`encode_state_row`: each slot is looked up among the
    encoder's four one-slot rows, and the decoded row must encode back to
    ``word``; raises ValueError otherwise."""
    end = len(encode_state_row("", ()))
    slots = {encode_state_row(b, (f,)).beads[:-end]: (f, b) for f in "NY" for b in "01"}
    width = len(next(iter(slots)))
    flags: list[str] = []
    bits: list[str] = []
    for k in range((len(word) - end) // width):
        slot = word.beads[k * width : (k + 1) * width]
        if slot not in slots:
            raise ValueError(f"slot {k + 1}: unrecognized slot {slot!r}")
        flags.append(slots[slot][0])
        bits.append(slots[slot][1])
    q = "".join(bits)
    if not q or encode_state_row(q, flags) != word:
        raise ValueError(f"row of {len(word)} beads is not slots and the terminator heading east")
    return q, tuple(flags)


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
    so the geometry alone cannot be decoded): each letter block is looked up
    among the encoder's one-letter columns; raises ValueError otherwise."""
    blocks = {encode_input_column([a], code, n).beads: a for a in code.letter_code}
    # All blocks are equally long; an encoding without letters decodes nothing.
    size = max(map(len, blocks), default=1)
    letters: list[str] = []
    for j in range(0, len(word), size):
        block = word.beads[j : j + size]
        if block not in blocks:
            raise ValueError(f"letter {j // size + 1}: block spells no letter")
        letters.append(blocks[block])
    if not letters or encode_input_column(letters, code, n) != word:
        raise ValueError(f"column of {len(word)} beads is not letter blocks heading southwest")
    return tuple(letters)


@dataclass(frozen=True)
class SeedLayout:
    """The two arms of the bond-free Gamma seed. :meth:`column` and
    :meth:`row` state its geometry, each arm as one fixed coordinate and a
    range of the other, so the seed formats as a stanza
    (``sysfile.format_seed_stanza``) with no point built per bead."""

    horizontal: BeadWord
    vertical: BeadWord

    def column(self) -> tuple[int, range, Iterator[str]]:
        """x, the y values and the beads of the column, in path order: it
        runs up x = 0 from y = -len(vertical) to -1, so it starts the path."""
        return 0, range(-len(self.vertical), 0), reversed(self.vertical.beads)

    def row(self) -> tuple[range, int, tuple[str, ...]]:
        """The x values, y and the beads of the row, in path order: it runs
        east along y = -1 from x = 1, so it ends the path."""
        return range(1, len(self.horizontal) + 1), -1, self.horizontal.beads


def layout(nfa: AugmentedNfa, code: Encoding, word: Sequence[str]) -> SeedLayout:
    """The Gamma seed for running ``nfa`` on ``word``: the horizontal arm spells
    the initial state with all flags N, the vertical arm spells word + $
    (``AugmentedNfa.periods``, which rejects a letter outside the alphabet)."""
    n = code.state_bits
    row = encode_state_row(code.state_code[nfa.initial], ("N",) * n)
    column = encode_input_column(nfa.periods(word), code, n)
    return SeedLayout(row, column)


def build_seed(
    nfa: AugmentedNfa, code: Encoding, word: Sequence[str]
) -> tuple[SeedLayout, Conformation]:
    """:func:`layout`, and its seed as a conformation of ``Point``s."""
    seed = layout(nfa, code, word)
    x, ys, up = seed.column()
    xs, y, east = seed.row()
    path = (*(Point(x, v) for v in ys), *(Point(v, y) for v in xs))
    return seed, Conformation(path, (*up, *east))
