"""Fold the glider and watch the delay-3 lookahead at work.

The transcript cycles through bead types 579..590. At each step the engine
scores every placement (and bond subset) of the next bead by the best energy
reachable with the two beads after it, then keeps the minimizers. For the
glider that argmin is always a single choice, so the fold is deterministic
and the motif translates east forever.

Run:  python demos/01_fold_a_glider.py
"""

from pathlib import Path

from oritatami.folding import energy, fold_summary, stabilize_next
from oritatami.render import render_svg
from oritatami.sysfile import format_trace, parse_system_file

HERE = Path(__file__).parent

system = parse_system_file(str(HERE / "glider.sys"))
print(f"transcript: {len(system.transcript)} beads, delay {system.delay}, arity {system.arity}")

# Step 1 by hand: the first bead's argmin set is a single bond-free placement
# east of the seed's last bead; its score comes from the two nascent beads
# that can bond the seed.
choices = stabilize_next(system, system.seed, 0)
print(f"step 1 minimizers: {[(tuple(c.point), c.bonds) for c in choices]}")

# The whole fold: enumerate mode proves there is exactly one terminal. A tie
# would put a terminal under each tied choice, so one completed terminal
# means every step had a single minimizer.
terminals, completed, outcome = fold_summary(system)
print(f"terminal conformations: {terminals}")
conf = outcome.conformation
print(f"energy: {energy(conf)}  (two seed bonds + seven per period)")
print(f"deterministic: {terminals == completed == 1}")

out_svg = HERE / "glider.svg"
out_svg.write_text(render_svg(conf))
out_tsv = HERE / "glider_trace.tsv"
out_tsv.write_text(format_trace(conf, len(system.seed)))
print(f"wrote {out_svg.name} and {out_tsv.name}")
