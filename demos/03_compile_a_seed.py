"""Compile a machine and input word into the Gamma-shaped seed.

The horizontal arm spells the initial state below itself: per transition
slot, a six-bead flag word (all N at start) and a six-bead state-bit word,
separated by 630/625 spacers, closed by 624-623. The vertical arm spells
the input word plus $ as six-bead bit words embedded in 501..506 spacer
runs. Both arms decode back to what was encoded.

Run:  python demos/03_compile_a_seed.py
"""

from pathlib import Path

from oritatami import seed
from oritatami.grid import path_is_valid
from oritatami.nfa import parse_nfa_file, prepare
from oritatami.seed import decode_input_column, decode_state_row
from oritatami.sysfile import format_seed_stanza

HERE = Path(__file__).parent

nfa, state_codes, letter_codes = parse_nfa_file(str(HERE / "branching.nfa"))
machine, code = prepare(nfa, state_codes, letter_codes)

word = ["100"]
layout = seed.layout(machine, code, word)
print(f"horizontal arm: {len(layout.horizontal)} beads (24n + 2 with n = {code.state_bits})")
print(f"vertical arm:   {len(layout.vertical)} beads")
# The path runs up the column, then east along the row.
x, ys, _ = layout.column()
xs, y, _ = layout.row()
path = [(x, v) for v in ys] + [(v, y) for v in xs]
print(f"combined path self-avoiding: {path_is_valid(path)}")

q_bits, flags = decode_state_row(layout.horizontal)
print(f"row decodes to state bits {q_bits} with flags {''.join(flags)}")
letters = decode_input_column(layout.vertical, code.state_bits, code)
print(f"column decodes to letters {' '.join(letters)}")

out = HERE / "compiled_seed.sys"
out.write_text(format_seed_stanza(layout))
print(f"wrote the seed stanza to {out.name} ({len(path)} beads)")
