"""Seeded inputs for the benchmark workloads.

Every input the CLI receives is built here from a key that names it (for
example ``glider-d4-p3-m`` or ``rf-0123``), so the same key always gives
byte-identical files. The reference table (``reference.json``, written by
``record.py``) maps each key to the digests of the CLI's outputs at the
recording commit, and it groups the random pools into cost strata.

A workload seed only chooses keys: which stratum member, which glider size
within a size band, mirrored or not, and the order of the ops. Each round
holds the same mix of ops for every seed, so percentiles stay comparable
from seed to seed while the inputs themselves change.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from oritatami import fixtures
from oritatami.folding import Conformation, OritatamiSystem, RuleSet
from oritatami.nfa import Nfa
from oritatami.sysfile import format_system

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
DEMOS = ROOT / "demos"

STRATA = 100  # strata per random pool; one round draws one member of each

# Glider sizes per round. The glider costs about 16 ms per period at delay 3
# and 70 ms per period at delay 4 on a 2-CPU x86 host, and delay 5 in `first`
# mode about 0.85 s for 3-4 periods; these bands keep 100 fold ops near 17 s.
GLIDER_BANDS = (  # (delay, lowest periods, highest periods, ops per round)
    (3, 6, 10, 56),
    (4, 2, 3, 40),
    (5, 3, 4, 4),
)
SIDE_FOLD_BAND = (3, 1, 3, 100)  # the fold ops that ride along on `nfa`
GLIDER_PERIOD_RANGE = {3: (1, 10), 4: (2, 3), 5: (3, 4)}  # every recorded size

CHECK_BRICKS_PER_ROUND = 20
COMPILE_STRATA = 20  # cost strata of the compile pool; a round takes two of each
# run-nfa ops that ride along on `glider` and `random-fold`: four enumerate ops
# from each of the cheapest strata, and a few sample ops so that the stage
# replays of the traced run have periods to replay.
SIDE_ENUMERATE_STRATA = 48
SIDE_SAMPLE_STRATA = 8

WORKLOADS = ("glider", "random-fold", "nfa")


@dataclass
class Op:
    """One CLI command: its argv, the input files it reads, the files it writes."""

    kind: str  # "fold", "run-nfa", "compile" or "check-bricks"
    key: str
    argv: list[str]
    inputs: dict[str, str]
    outputs: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def input_digest(self) -> str:
        h = hashlib.sha256("\0".join(self.argv).encode())
        for name in sorted(self.inputs):
            h.update(b"\0" + name.encode() + b"\0" + self.inputs[name].encode())
        return h.hexdigest()[:16]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- glider -----------------------------------------------------------------


def glider(delay: int, periods: int, mirrored: bool) -> OritatamiSystem:
    base = fixtures.glider_system(periods, mirrored=mirrored)
    return OritatamiSystem(base.rules, base.arity, delay, base.seed, base.transcript)


def glider_key(delay: int, periods: int, mirrored: bool) -> str:
    return f"glider-d{delay}-p{periods}-{'m' if mirrored else 's'}"


def glider_op(delay: int, periods: int, mirrored: bool) -> Op:
    key = glider_key(delay, periods, mirrored)
    system = glider(delay, periods, mirrored)
    mode = "first" if delay >= 5 else "enumerate"
    return _fold_op(key, system, mode, {"glider": True, "periods": periods})


def _fold_op(key: str, system: OritatamiSystem, mode: str, meta: dict) -> Op:
    path = f"in/{key}.sys"
    argv = ["fold", path, "--mode", mode, "--trace", "out/fold.tsv", "--svg", "out/fold.svg"]
    meta = dict(meta, system=system, mode=mode)
    outputs = ("out/fold.tsv", "out/fold.svg")
    return Op("fold", key, argv, {path: format_system(system)}, outputs, meta)


# --- random systems ---------------------------------------------------------


def _has_short_period(word: list[str]) -> bool:
    n = len(word)
    return any(all(word[i] == word[i + p] for i in range(n - p)) for p in range(1, n // 2 + 1))


def random_system(index: int) -> OritatamiSystem:
    """3-6 bead types, arity 1-3, delay 3 (three in four) or 4, a straight
    3-bead seed and an aperiodic 6-8-bead transcript."""
    rng = random.Random(f"random-fold/{index}")
    types = [f"b{i}" for i in range(rng.randint(3, 6))]
    rules = RuleSet(
        (a, b) for i, a in enumerate(types) for b in types[i:] if rng.random() < 0.3
    )
    arity = rng.randint(1, 3)
    delay = 3 if rng.random() < 0.75 else 4
    seed = Conformation.build([(0, 0), (1, 0), (2, 0)], [rng.choice(types) for _ in range(3)])
    while True:
        transcript = [rng.choice(types) for _ in range(rng.randint(6, 8))]
        if not _has_short_period(transcript):
            break
    return OritatamiSystem(rules, arity, delay, seed, tuple(transcript))


def random_fold_op(index: int) -> Op:
    return _fold_op(f"rf-{index:04d}", random_system(index), "enumerate", {"glider": False})


# --- random machines --------------------------------------------------------


def random_machine(rng: random.Random) -> Nfa:
    """4-5 states over {a, b}; every (state, letter) pair has a target and
    about one pair in four has two."""
    states = [f"q{i}" for i in range(rng.randint(4, 5))]
    transitions = []
    for q in states:
        for letter in ("a", "b"):
            for target in rng.sample(states, 2 if rng.random() < 0.25 else 1):
                transitions.append((q, letter, target))
    accepting = [q for q in states if rng.random() < 0.4] or [rng.choice(states)]
    return Nfa(tuple(states), ("a", "b"), states[0], tuple(accepting), tuple(transitions))


def random_word(rng: random.Random, machine: Nfa, length: int, accepting: bool) -> str:
    """A walk of ``length`` transitions from the initial state. When
    ``accepting``, each step keeps to states from which an accepting state is
    reachable in exactly the steps left, if the initial state is one."""
    out = {q: [t for t in machine.transitions if t.origin == q] for q in machine.states}
    allowed = [frozenset(machine.states)] * (length + 1)
    if accepting:
        back: dict[frozenset, frozenset] = {}  # the sets soon repeat, so cache each step back
        ends = [frozenset(machine.accepting)]
        for _ in range(length):
            later = ends[-1]
            if later not in back:
                back[later] = frozenset(
                    q for q in machine.states if any(t.target in later for t in out[q]))
            ends.append(back[later])
        if machine.initial in ends[-1]:
            allowed = ends[::-1]
    state, letters = machine.initial, []
    for i in range(length):
        t = rng.choice([t for t in out[state] if t.target in allowed[i + 1]])
        letters.append(t.letter)
        state = t.target
    return "".join(letters)


def format_nfa(machine: Nfa) -> str:
    lines = [
        "states: " + " ".join(machine.states),
        "alphabet: " + " ".join(machine.alphabet),
        f"initial: {machine.initial}",
        "accept: " + " ".join(machine.accepting),
    ]
    lines += [f"trans: {t.origin} {t.letter} {t.target}" for t in machine.transitions]
    return "\n".join(lines) + "\n"


def _machine_and_word(pool: str, index: int, lengths: tuple[int, int]) -> tuple[Nfa, str]:
    rng = random.Random(f"{pool}/{index}")
    machine = random_machine(rng)
    return machine, random_word(rng, machine, rng.randint(*lengths), accepting=index % 2 == 0)


def run_nfa_op(pool: str, index: int) -> Op:
    """``nfa-enum``: 10-18 letters, enumerate mode, full report.
    ``nfa-sample``: 200-800 letters, sample mode."""
    enumerate_mode = pool == "nfa-enum"
    machine, word = _machine_and_word(pool, index, (10, 18) if enumerate_mode else (200, 800))
    key = f"{pool}-{index:04d}"
    path = f"in/{key}.nfa"
    argv = ["run-nfa", path, "--word", word, "--report", "out/run.txt"]
    if not enumerate_mode:
        argv += ["--mode", "sample", "--rng-seed", str(index)]
    meta = {"machine": machine, "word": word, "mode": "enumerate" if enumerate_mode else "sample",
            "rng_seed": index}
    return Op("run-nfa", key, argv, {path: format_nfa(machine)}, ("out/run.txt",), meta)


def compile_op(index: int) -> Op:
    """A seed for the machine and word of ``nfa-enum`` op ``index``."""
    machine, word = _machine_and_word("nfa-enum", index, (10, 18))
    key = f"compile-{index:04d}"
    path = f"in/{key}.nfa"
    argv = ["compile", path, "--word", word, "--out", "out/seed.sys"]
    return Op("compile", key, argv, {path: format_nfa(machine)}, ("out/seed.sys",),
              {"machine": machine, "word": word})


def check_bricks_op() -> Op:
    files = {f"in/{name}": (DEMOS / name).read_text(encoding="utf-8")
             for name in ("gspacer.defs", "gspacer_bands.cat")}
    argv = ["check-bricks", "in/gspacer.defs", "in/gspacer_bands.cat"]
    return Op("check-bricks", "check-bricks-gspacer", argv, files)


def op_for_key(key: str) -> Op:
    """Rebuild any recorded op from its key."""
    if key.startswith("glider-"):
        d, p, m = key.split("-")[1:]
        return glider_op(int(d[1:]), int(p[1:]), m == "m")
    if key.startswith("rf-"):
        return random_fold_op(int(key[3:]))
    if key.startswith("nfa-enum-") or key.startswith("nfa-sample-"):
        pool, index = key.rsplit("-", 1)
        return run_nfa_op(pool, int(index))
    if key.startswith("compile-"):
        return compile_op(int(key.split("-")[1]))
    if key == "check-bricks-gspacer":
        return check_bricks_op()
    raise KeyError(key)


# --- rounds -----------------------------------------------------------------


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly over [lo, hi], each jittered within its share."""
    width = hi - lo + 1
    return [lo + int((i + rng.random()) * width / count) for i in range(count)]


def _glider_ops(rng: random.Random, band: tuple[int, int, int, int]) -> list[Op]:
    delay, lo, hi, count = band
    return [glider_op(delay, p, rng.random() < 0.5) for p in _stratified(rng, lo, hi, count)]


def _pick(rng: random.Random, strata: list[list[int]], per: int) -> list[int]:
    return [i for members in strata for i in rng.sample(members, per)]


def _side_ops(rng: random.Random, strata: dict) -> list[Op]:
    """Small run-nfa ops that `glider` and `random-fold` carry, so that each
    workload reports every end-to-end metric."""
    enum = _pick(rng, strata["nfa-enum"][:SIDE_ENUMERATE_STRATA], 4)
    sample = _pick(rng, strata["nfa-sample"][:SIDE_SAMPLE_STRATA], 1)
    return [run_nfa_op("nfa-enum", i) for i in enum] + [run_nfa_op("nfa-sample", i) for i in sample]


def build_round(workload: str, rng: random.Random, reference: dict) -> list[Op]:
    """One round of a workload. It draws one member of each stratum of a random
    pool, but always the costliest member of the pool, which sets the run's
    peak memory and a large share of its time. That op comes first, so the
    peak it sets does not depend on what ran before it; the rest follow in a
    seeded order."""
    strata = reference["strata"]
    first: list[Op] = []
    ops = [check_bricks_op() for _ in range(CHECK_BRICKS_PER_ROUND)]
    ops += [compile_op(i) for i in _pick(rng, strata["compile"], 2)]
    if workload == "glider":
        ops += [op for band in GLIDER_BANDS for op in _glider_ops(rng, band)]
        ops += _side_ops(rng, strata)
    elif workload == "random-fold":
        pool = strata["random-fold"]
        first = [random_fold_op(pool[-1][-1])]
        ops += [random_fold_op(i) for i in _pick(rng, pool[:-1], 1)]
        ops += _side_ops(rng, strata)
    elif workload == "nfa":
        enum, sample = strata["nfa-enum"], strata["nfa-sample"]
        first = [run_nfa_op("nfa-enum", enum[-1][-1]), run_nfa_op("nfa-sample", sample[-1][-1])]
        ops += [run_nfa_op("nfa-enum", i) for i in _pick(rng, enum[:-1], 1)]
        ops += [run_nfa_op("nfa-sample", i) for i in _pick(rng, sample[:-1], 1)]
        ops += _glider_ops(rng, SIDE_FOLD_BAND)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return first + ops


def build_rounds(workload: str, seed: int, count: int, reference: dict) -> list[list[Op]]:
    rng = random.Random(f"{workload}/{seed}")
    return [build_round(workload, rng, reference) for _ in range(count)]


def write_inputs(rounds: list[list[Op]], workdir: Path) -> None:
    for sub in ("in", "out"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    written: set[str] = set()
    for ops in rounds:
        for op in ops:
            for name, text in op.inputs.items():
                if name not in written:
                    (workdir / name).write_text(text, encoding="utf-8")
                    written.add(name)
