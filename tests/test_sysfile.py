import itertools
import random

import pytest

from oritatami import folding
from oritatami.fixtures import glider_system
from oritatami.folding import Conformation, fold_all
from oritatami.grid import Point, are_adjacent
from oritatami.nfa import prepare
from oritatami.seed import build_seed
from oritatami.sysfile import (
    SystemFileError,
    format_seed_stanza,
    format_system,
    format_trace,
    parse_system,
)

import oracles

GLIDER_TEXT = """\
# glider spacer, one period
delay 3
arity 2
rule 579 584
rule 580 589
rule 581 588
rule 582 587
rule 583 586
rule 585 590
rule 586 590
seed 0 0 585
seed 1 -1 586
seed 1 -2 587
seed 2 -2 588
seed 2 -1 589
seed 1 0 590
seedbond 1 6
seedbond 2 6
repeat 1 579 580 581 582 583 584 585 586 587 588 589 590
"""


def test_parse_glider_matches_fixture():
    parsed = parse_system(GLIDER_TEXT)
    fixture = glider_system(periods=1)
    assert parsed == fixture


def test_round_trip_through_format_system():
    system = glider_system(periods=2)
    assert parse_system(format_system(system)) == system


def test_transcript_lines_append():
    text = GLIDER_TEXT + "transcript 579 580\ntranscript 581\n"
    parsed = parse_system(text)
    assert parsed.transcript[-3:] == ("579", "580", "581")


def test_repeat_expands():
    parsed = parse_system(GLIDER_TEXT.replace("repeat 1", "repeat 3"))
    assert len(parsed.transcript) == 36


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("delay 3\n", ""),
        lambda t: t.replace("arity 2\n", ""),
        lambda t: t.replace("seedbond 1 6", "seedbond 1"),
        lambda t: t.replace("seed 0 0 585", "seed zero 0 585"),
        lambda t: t + "wobble 3\n",
        lambda t: t.replace("seedbond 1 6", "seedbond 1 2"),  # not adjacent-compatible
    ],
)
def test_malformed_files_are_rejected(mutation):
    with pytest.raises(SystemFileError):
        parse_system(mutation(GLIDER_TEXT))


@pytest.mark.parametrize(
    "text",
    [
        "seed 0 0\ndelay 1\narity 1\nbogus 1\n",
        "seed 0 0\n",  # no delay or arity either
    ],
    ids=["before-unknown-directive", "before-missing-delay"],
)
def test_first_bad_line_is_reported(text):
    with pytest.raises(SystemFileError, match="^line 1: expected 'seed X Y BEAD'"):
        parse_system(text)


def test_seed_only_system_is_fine():
    text = "delay 1\narity 1\nseed 0 0 a\n"
    parsed = parse_system(text)
    assert parsed.transcript == ()


def test_trace_lists_stabilized_beads_one_based():
    system = glider_system(periods=1)
    conf = fold_all(system, "enumerate")[0].conformation
    trace = format_trace(conf, len(system.seed))
    lines = trace.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [line.split("\t") for line in lines[1:]]
    assert len(rows) == 12
    assert rows[0][:4] == ["7", "579", "2", "0"]
    # 580 is bead 8 and bonds the seed's 589 (bead 5)
    assert rows[1][0] == "8"
    assert rows[1][4] == "5"


def test_seed_stanza_round_trips():
    seed = glider_system(periods=1).seed
    stanza = "delay 3\narity 2\nrule 585 590\nrule 586 590\n" + format_seed_stanza(seed)
    assert parse_system(stanza).seed == seed


# A bead name is any token without whitespace or '#', so it may hold '%'.
PERCENT_BEADS = ("50%", "%d", "%%s", "a", "505")


def random_conformation(rng: random.Random) -> Conformation:
    """A self-avoiding walk of 1-40 beads from a random start, negative
    coordinates included, with about half of its possible bonds."""
    path = [(rng.randint(-50, 50), rng.randint(-50, 50))]
    for _ in range(rng.randint(0, 39)):
        x, y = path[-1]
        free = [(x + dx, y + dy) for dx, dy in oracles.OFFSETS if (x + dx, y + dy) not in path]
        if not free:
            break
        path.append(rng.choice(free))
    pairs = [(i, j) for i in range(len(path)) for j in range(i + 2, len(path))
             if are_adjacent(Point(*path[i]), Point(*path[j]))]
    bonds = [pair for pair in pairs if rng.random() < 0.5]
    return Conformation.build(path, [rng.choice(PERCENT_BEADS) for _ in path], bonds)


def test_seed_stanza_matches_the_reference_writer():
    rng = random.Random(2828)
    rules = "".join(f"rule {a} {b}\n" for a, b in itertools.combinations_with_replacement(PERCENT_BEADS, 2))
    for _ in range(300):
        seed = random_conformation(rng)
        stanza = format_seed_stanza(seed)
        assert stanza == oracles.reference_stanza(seed)
        assert parse_system(f"delay 1\narity 4\n{rules}{stanza}").seed == seed
    empty = Conformation.build([], [])
    assert format_seed_stanza(empty) == oracles.reference_stanza(empty) == "\n"


def test_layout_stanza_matches_the_reference_writer():
    rng = random.Random(2829)
    for _ in range(60):
        nfa = oracles.random_nfa(rng)
        machine, code = prepare(nfa)
        word = [rng.choice(nfa.alphabet) for _ in range(rng.randint(0, 40))]
        arms, conformation = build_seed(machine, code, word)
        assert format_seed_stanza(arms) == oracles.reference_stanza(conformation)


def test_seed_of_percent_beads_round_trips():
    seed = Conformation.build([(0, -1), (1, -1), (1, 0), (0, 0)], ["50%", "%d", "%%s", "50%"], [(0, 3)])
    stanza = "delay 1\narity 1\nrule 50% 50%\n" + format_seed_stanza(seed)
    assert "seed 1 -1 %d\nseed 1 0 %%s\n" in stanza
    assert parse_system(stanza).seed == seed


@pytest.mark.parametrize("bonds", [("1 3", "1 4"), ("1 4", "1 3")])
def test_seed_geometry_error_comes_before_rule_error(bonds):
    # Bond (1, 3) joins adjacent points but pairs a/c outside the (empty)
    # rule set; bond (1, 4) joins points two steps apart. Every bond's
    # geometry is checked before any bond's rule, in either line order.
    text = "delay 1\narity 2\nseed 0 0 a\nseed 1 0 b\nseed 0 1 c\nseed 0 2 d\n"
    text += "".join(f"seedbond {pair}\n" for pair in bonds)
    with pytest.raises(SystemFileError) as info:
        parse_system(text)
    assert str(info.value) == "bond (1, 4) joins non-adjacent points"


def test_seed_path_is_checked_once(monkeypatch):
    calls = []
    real = folding.path_is_valid

    def spy(points):
        calls.append(len(points))
        return real(points)

    monkeypatch.setattr(folding, "path_is_valid", spy)
    parse_system(GLIDER_TEXT)
    assert calls == [6]
