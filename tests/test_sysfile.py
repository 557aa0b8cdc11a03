import pytest

from oritatami import folding
from oritatami.fixtures import glider_system
from oritatami.folding import fold_all
from oritatami.sysfile import (
    SystemFileError,
    format_seed_stanza,
    format_system,
    format_trace,
    parse_system,
)

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
