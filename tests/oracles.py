"""Independent reference implementations used as ground truth by the tests.

The stabilization oracle here is a plain depth-limited tree search over
immutable tuples, written from scratch on purpose: it shares no code with
the engine (its own offset table, its own elongation enumerator, no
workspace, no ordering tricks), so agreement between the two is meaningful.
The hand-traceable branching machine that the NFA, brick and seed tests
share lives here too (``branching_machine``), and so do the glider's
period shift and ``counting``, the call counter that the engine's work pins
and the tools measuring it share.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from collections import Counter

from oritatami.bricks import format_row, step_count
from oritatami.folding import Conformation, OritatamiSystem, RuleSet
from oritatami.nfa import AugmentedNfa, Encoding, Nfa

OFFSETS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))
_OFFSET_SET = frozenset(OFFSETS)

# One glider translates by (2, 0) per six beads, (4, 0) per 12-bead period.
GLIDER_PERIOD_SHIFT = (4, 0)

# One immutable state: (path, beads, bonds) with plain int-pair points and
# bonds as a frozenset of (i, j), i < j.


def _adjacent(p, q):
    return (q[0] - p[0], q[1] - p[1]) in _OFFSET_SET


def _state_of(conf: Conformation):
    path = tuple((p[0], p[1]) for p in conf.path)
    return (path, tuple(conf.beads), frozenset(conf.bonds))


def _bond_counts(path, bonds):
    counts = Counter()
    for i, j in bonds:
        counts[i] += 1
        counts[j] += 1
    return counts


def arity_of(conf: Conformation) -> int:
    """Largest per-bead bond count; 0 for a bond-free conformation."""
    return max(_bond_counts(conf.path, conf.bonds).values(), default=0)


def brute_elongations(state, bead, rule_pairs, arity):
    """Every one-bead elongation, enumerated naively."""
    path, beads, bonds = state
    counts = _bond_counts(path, bonds)
    occupied = set(path)
    last = path[-1]
    new_idx = len(path)
    out = []
    for dx, dy in OFFSETS:
        p = (last[0] + dx, last[1] + dy)
        if p in occupied:
            continue
        partners = [
            i
            for i in range(len(path) - 1)
            if _adjacent(path[i], p)
            and counts[i] < arity
            and (tuple(sorted((beads[i], bead))) in rule_pairs)
        ]
        for r in range(min(len(partners), arity) + 1):
            for combo in itertools.combinations(partners, r):
                new_bonds = bonds | {(i, new_idx) for i in combo}
                out.append((path + (p,), beads + (bead,), frozenset(new_bonds)))
    return out


def _best_energy(state, transcript, i, depth, rule_pairs, arity):
    best = -len(state[2])
    if depth == 0 or i >= len(transcript):
        return best
    for nxt in brute_elongations(state, transcript[i], rule_pairs, arity):
        best = min(best, _best_energy(nxt, transcript, i + 1, depth - 1, rule_pairs, arity))
    return best


def brute_minimizers(system: OritatamiSystem, conf: Conformation, i: int):
    """The argmin set for stabilizing transcript bead i, as a set of
    (point, frozenset-of-partner-indices) pairs. Empty set on a dead end."""
    rule_pairs = frozenset(system.rules.pairs)
    state = _state_of(conf)
    scored = []
    for nxt in brute_elongations(state, system.transcript[i], rule_pairs, system.arity):
        score = _best_energy(
            nxt, system.transcript, i + 1, system.delay - 1, rule_pairs, system.arity
        )
        new_idx = len(state[0])
        new_point = nxt[0][-1]
        new_partners = frozenset(a for a, b in nxt[2] - state[2] if b == new_idx)
        scored.append(((new_point, new_partners), score))
    if not scored:
        return set()
    best = min(s for _, s in scored)
    return {key for key, s in scored if s == best}


def brute_options(system: OritatamiSystem, conf: Conformation, i: int):
    """``brute_minimizers`` as a list of (point, partner indices) in canonical
    order: direction order around the path end, then partner tuples sorted
    lexicographically."""
    last = conf.path[-1]
    rank = {d: k for k, d in enumerate(OFFSETS)}

    def order(option):
        (x, y), partners = option
        return rank[(x - last[0], y - last[1])], tuple(sorted(partners))

    found = sorted(brute_minimizers(system, conf, i), key=order)
    return [(point, tuple(sorted(partners))) for point, partners in found]


def choice_key(choice):
    """Engine StabilizationChoice -> the oracle's comparison key."""
    return ((choice.point[0], choice.point[1]), frozenset(choice.bonds))


def random_system(
    rng: random.Random, max_delay: int = 3, max_arity: int = 4, max_transcript: int = 8
) -> OritatamiSystem:
    """A small random oritatami system within the property-test bounds:
    at most 6 bead types, 8 rule pairs, delay ``max_delay``, arity
    ``max_arity``, 6 seed beads, ``max_transcript`` transcript beads."""
    types = [f"b{i}" for i in range(rng.randint(1, 6))]
    pairs = {
        tuple(sorted((rng.choice(types), rng.choice(types))))
        for _ in range(rng.randint(0, 8))
    }
    rules = RuleSet(pairs)
    arity = rng.randint(1, max_arity)
    delay = rng.randint(1, max_delay)

    path = [(0, 0)]
    occupied = {(0, 0)}
    for _ in range(rng.randint(0, 5)):
        last = path[-1]
        options = [
            (last[0] + dx, last[1] + dy)
            for dx, dy in OFFSETS
            if (last[0] + dx, last[1] + dy) not in occupied
        ]
        if not options:
            break
        nxt = rng.choice(options)
        path.append(nxt)
        occupied.add(nxt)
    beads = [rng.choice(types) for _ in path]

    bonds = set()
    counts = Counter()
    candidates = [
        (i, j)
        for i in range(len(path))
        for j in range(i + 2, len(path))
        if _adjacent(path[i], path[j]) and rules.allows(beads[i], beads[j])
    ]
    rng.shuffle(candidates)
    for i, j in candidates:
        if rng.random() < 0.5 and counts[i] < arity and counts[j] < arity:
            bonds.add((i, j))
            counts[i] += 1
            counts[j] += 1

    transcript = [rng.choice(types) for _ in range(rng.randint(1, max_transcript))]
    seed = Conformation.build(path, beads, bonds)
    return OritatamiSystem(rules, arity, delay, seed, tuple(transcript))


def random_nfa(rng: random.Random) -> Nfa:
    """A random machine with at most 3 states and 2 letters that the
    architecture can encode: the augmented transition count n (state-code
    width) must fit all states plus the sink injectively, i.e. 2^n >= |Q|+1."""
    while True:
        states = [f"q{i}" for i in range(rng.randint(1, 3))]
        alphabet = ["a", "b"][: rng.randint(1, 2)]
        triples = [(o, a, t) for o in states for a in alphabet for t in states]
        rng.shuffle(triples)
        transitions = triples[: rng.randint(0, min(len(triples), 8))]
        accepting = [s for s in states if rng.random() < 0.4]
        n_augmented = len(transitions) + len(accepting)
        if n_augmented == 0 or (1 << n_augmented) < len(states) + 1:
            continue
        return Nfa(
            states=tuple(states),
            alphabet=tuple(alphabet),
            initial=states[0],
            accepting=tuple(accepting),
            transitions=tuple(transitions),
        )


def nfa_text(nfa) -> str:
    """An NFA file for ``nfa``; its codes are left to be assigned."""
    lines = [f"states: {' '.join(nfa.states)}", f"alphabet: {' '.join(nfa.alphabet)}",
             f"initial: {nfa.initial}"]
    if nfa.accepting:
        lines.append(f"accept: {' '.join(nfa.accepting)}")
    lines += [f"trans: {t.origin} {t.letter} {t.target}" for t in nfa.transitions]
    return "\n".join(lines) + "\n"


# Every letter doubles the branches: t letters give 2**t.
DOUBLING_NFA = """\
states: p q
alphabet: a
initial: p
accept: p
trans: p a p
trans: p a q
trans: q a p
trans: q a q
"""


def all_words(alphabet, max_len):
    for length in range(max_len + 1):
        yield from (list(w) for w in itertools.product(alphabet, repeat=length))


def format_verdict(code, word, result) -> str:
    """The run's one-line verdict: the last line of the report."""
    verdict = "ACCEPT" if result.accepted else "REJECT (all branches halted)"
    return f"{verdict} branches={result.branch_count} steps={step_count(code, len(word))}"


def reference_report(nfa, code, word, result) -> str:
    """The run report built line by line: every period of every branch is
    formatted afresh, with no sharing between branches."""
    lines = [f"word: {' '.join(word)} {nfa.dollar}".rstrip()]
    for b, outcome in enumerate(result.outcomes, 1):
        lines.append(f"branch {b}:")
        for p, trace in enumerate(outcome.traces, 1):
            lines.append(f"  period {p} letter={trace.letter}")
            lines.append(f"    module1 {format_row(trace.after_module1)}")
            lines.append(f"    module2 {format_row(trace.after_module2)}")
            if trace.halted:
                lines.append("    module3 HALT")
            else:
                lines.append(f"    module3 mark {format_row(trace.marked)}")
                lines.append(f"    module3 choice f{trace.chosen} {format_row(trace.after_module3)}")
                lines.append(f"    module4 {format_row(trace.after_module4)}")
        tail = "accepted" if outcome.accepted else f"halted at period {outcome.halt_period}"
        lines.append(f"  states: {' -> '.join(outcome.states)} ({tail})")
    lines.append(format_verdict(code, word, result))
    return "\n".join(lines) + "\n"


def reference_stanza(seed: Conformation) -> str:
    """The ``seed``/``seedbond`` lines of ``seed`` built one f-string per
    line: the writer ``sysfile.format_seed_stanza`` replaced."""
    lines = [f"seed {x} {y} {bead}" for (x, y), bead in zip(seed.path, seed.beads)]
    lines += [f"seedbond {i + 1} {j + 1}" for i, j in sorted(seed.bonds)]
    return "\n".join(lines) + "\n"


def branching_nfa() -> Nfa:
    """The 3-state machine underneath :func:`branching_machine`, pre-augmentation."""
    return Nfa(
        states=("1011", "1000", "1111"),
        alphabet=("100",),
        initial="1011",
        accepting=("1011", "1111"),
        transitions=(
            ("1011", "100", "1000"),
            ("1011", "100", "1111"),
        ),
    )


def branching_machine() -> tuple[AugmentedNfa, Encoding]:
    """The worked 4-state, 4-transition augmented machine with its verbatim
    codes: one genuinely nondeterministic step (two transitions leave the
    initial state on the same letter), small enough to trace by hand. Its
    codes make the slot vectors of the brick machine match the hand-worked
    module runs.

    Transition order is fixed so that slot k carries: ($-move from 1111),
    (1011 -100-> 1000), ($-move from 1011), (1011 -100-> 1111). State names
    double as their own 4-bit codes; the letters are coded 100 and 101.
    """
    machine = AugmentedNfa(
        states=("1011", "1000", "1111", "0011"),
        alphabet=("100",),
        initial="1011",
        transitions=(
            ("1111", "$", "0011"),
            ("1011", "100", "1000"),
            ("1011", "$", "0011"),
            ("1011", "100", "1111"),
        ),
        sink="0011",
    )
    encoding = Encoding(
        state_code={s: s for s in machine.states},
        letter_code={"100": "100", "$": "101"},
        state_bits=4,
        letter_bits=3,
    )
    return machine, encoding


@contextlib.contextmanager
def counting(calls: Counter, methods):
    """While the block runs, add one to ``calls["Class.name"]`` at each call
    of each method ``(Class, "name")`` of ``methods``, its arguments passed
    through; then put the methods back."""
    saved = [(cls, name, getattr(cls, name)) for cls, name in methods]
    for cls, name, method in saved:

        def counted(*args, _method=method, _name=f"{cls.__name__}.{name}"):
            calls[_name] += 1
            return _method(*args)

        setattr(cls, name, counted)
    try:
        yield calls
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)
