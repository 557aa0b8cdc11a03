"""Run a word through the brick-level automaton executor.

One period per input letter (plus the $ end marker): stage 1 keeps the
transitions leaving the current state, stage 2 keeps those reading the
current letter, stage 3 picks one survivor nondeterministically (or halts),
stage 4 writes the target state for the next period. A word is accepted iff
some branch survives every period — which the direct NFA oracle confirms.

Run:  python demos/02_run_an_nfa.py
"""

import sys
from pathlib import Path

from oritatami.bricks import branches, run_verdict, step_count, write_report
from oritatami.nfa import oracle_accepts, parse_nfa_file, prepare

HERE = Path(__file__).parent

nfa, state_codes, letter_codes = parse_nfa_file(str(HERE / "branching.nfa"))
machine, code = prepare(nfa, state_codes, letter_codes)
print(f"machine: {len(machine.transitions)} transitions, "
      f"{code.state_bits}-bit states, {code.letter_bits}-bit letters")

for word in ([], ["100"], ["100", "100"]):
    accepted, _ = run_verdict(machine, code, word)
    oracle = oracle_accepts(nfa, word)
    shown = " ".join(word) or "(empty)"
    print(f"word {shown:12} brick machine: {str(accepted):5}  oracle: {oracle}")
    assert accepted == oracle

print()
print("full report for the branching word:")
# The report is bytes, as run-nfa --report writes it; the text written so
# far goes out first.
sys.stdout.flush()
write_report(sys.stdout.buffer, machine, code, ["100"], branches(machine, code, ["100"]))
print()
print(f"cell count for t=1: {step_count(code, 1)}")
