"""The input contract, checked by property over the four demo inputs.

Exit contract: a seeded mutation fuzz of all five commands, run in process
through ``cli.main``. Each run must exit 0, 1 or 2, with no traceback, and
an exit 2 must print an ``error:`` line, or argparse's ``usage:`` for an
argument error.

No line is ignored: each one-token variant of each line, appended to its
file or inserted after the line, makes the format's parser raise its own
error or return a result that differs from the original's.
"""

import random
from pathlib import Path

import pytest

from oritatami.cli import main
from oritatami.harness import CatalogError, parse_environments, parse_submodules
from oritatami.nfa import NfaFileError, parse_nfa
from oritatami.sysfile import SystemFileError, parse_system

DEMOS = Path(__file__).resolve().parent.parent / "demos"
INPUTS = {
    "sys": "glider.sys",
    "nfa": "branching.nfa",
    "defs": "gspacer.defs",
    "cat": "gspacer_bands.cat",
}
TEXTS = {kind: (DEMOS / name).read_text() for kind, name in INPUTS.items()}

# Each command, with the inputs it reads.
COMMANDS = {
    "fold": ("sys",),
    "run-nfa": ("nfa",),
    "compile": ("nfa",),
    "check-bricks": ("defs", "cat"),
    "stats": ("nfa",),
}
KEYS = sorted({line.split()[0] for text in TEXTS.values() for line in text.splitlines()
               if line.split() and not line.startswith("#")})
JUNK = ("0", "1", "2", "-1", "x", "T", "B", "yes", "100", "qAcc", "$", "#")


def _lines(text):
    return [line.split() for line in text.splitlines() if line.split() and line[0] != "#"]


def _mutate(lines, rng):
    """``lines`` (token lists) with one token or line deleted, duplicated,
    cut short or retyped."""
    lines = [list(tokens) for tokens in lines]
    k = rng.randrange(len(lines))
    tokens = lines[k]
    op = rng.choice(("delete", "duplicate", "cut", "retype"))
    if rng.random() < 0.5:
        if op == "delete":
            del lines[k]
        elif op == "duplicate":
            lines.insert(k, list(tokens))
        elif op == "cut":
            del tokens[rng.randrange(len(tokens)) :]
        else:
            tokens[0] = rng.choice(KEYS)
    else:
        t = rng.randrange(len(tokens))
        if op == "delete":
            del tokens[t]
        elif op == "duplicate":
            tokens.insert(t, tokens[t])
        elif op == "cut":
            # An earlier cut may have left the token empty: it stays so.
            if tokens[t]:
                tokens[t] = tokens[t][: rng.randrange(len(tokens[t]))]
        else:
            pool = [tok for line in lines for tok in line] + list(JUNK)
            tokens[t] = rng.choice(pool)
    return [tokens for tokens in lines if tokens] or [["#"]]


def _argv(command, paths, rng):
    word = rng.choice(("100", "100 100", "", "101", "100x", "$"))
    return {
        "fold": ["fold", paths["sys"], "--mode", rng.choice(("enumerate", "first", "sample"))],
        "run-nfa": ["run-nfa", paths["nfa"], "--word", word],
        "compile": ["compile", paths["nfa"], "--word", word, "--out", paths["out"]],
        "check-bricks": ["check-bricks", paths["defs"], paths["cat"]],
        "stats": ["stats", paths["nfa"], "--word-len", rng.choice(("0", "3", "-2", "x"))],
    }[command]


def test_mutated_inputs_keep_the_exit_contract(tmp_path, capsys, monkeypatch):
    # A mutated argv can name a relative --out path: it lands in tmp_path.
    monkeypatch.chdir(tmp_path)
    rng = random.Random(11)
    paths = {kind: str(tmp_path / name) for kind, name in INPUTS.items()}
    paths["out"] = str(tmp_path / "seed.sys")
    bad = []
    for run in range(150):
        lines = {kind: _lines(text) for kind, text in TEXTS.items()}
        command = rng.choice(sorted(COMMANDS))
        argv_error = rng.random() < 0.2
        for _ in range(0 if argv_error else rng.randint(1, 3)):
            kind = rng.choice(COMMANDS[command])
            lines[kind] = _mutate(lines[kind], rng)
        for kind, name in INPUTS.items():
            (tmp_path / name).write_text("".join(" ".join(t) + "\n" for t in lines[kind]))
        argv = _argv(command, paths, rng)
        if argv_error:
            argv = _mutate([argv], rng)[0]
        try:
            code = main(argv)
        except Exception as exc:  # a traceback
            bad.append((run, argv, f"raised {type(exc).__name__}: {exc}"))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or "Traceback" in err:
            bad.append((run, argv, code, err))
        elif code == 2 and not (err.startswith("error: ") or "usage:" in err):
            bad.append((run, argv, code, err))
    assert bad == []


PARSERS = {
    "sys": (parse_system, SystemFileError),
    "nfa": (parse_nfa, NfaFileError),
    "defs": (parse_submodules, CatalogError),
    "cat": (parse_environments, CatalogError),
}


def _variants(tokens):
    """The one-token variants of a line: itself, each argument changed or
    dropped, and its last argument repeated."""
    key, args = tokens[0], tokens[1:]
    out = [tokens]
    for a in range(len(args)):
        changed = list(args)
        changed[a] = "1" if args[a] == "0" else "0"
        out.append([key, *changed])
        out.append([key, *args[:a], *args[a + 1 :]])
    out.append([*tokens, args[-1]])
    return out


@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_no_line_is_ignored(kind):
    parse, error = PARSERS[kind]
    lines = TEXTS[kind].splitlines()
    original = parse(TEXTS[kind])
    ignored = []
    for at, line in enumerate(lines):
        if not line.split() or line.startswith("#"):
            continue
        for variant in _variants(line.split()):
            # Repeating nothing adds nothing.
            if variant[:2] == ["repeat", "0"]:
                continue
            text = " ".join(variant)
            for edited in (lines + [text], lines[: at + 1] + [text] + lines[at + 1 :]):
                try:
                    parsed = parse("\n".join(edited) + "\n")
                except error:
                    continue
                if parsed == original:
                    ignored.append((at + 1, text))
    assert ignored == []
