"""Line-oriented text formats for folding systems and fold traces, and the
directive reader that the system, NFA, submodule-def and environment-catalog
formats share: one tokenizer, one argument check, one at-most-once check,
one stanza splitter and one set of handlers for the directives two formats
have in common. A malformed line raises the format's own ``ValueError``
subclass with a ``line N:`` message.

System file directives (one per line, ``#`` starts a comment):

    delay <int>
    arity <int>
    rule <beadA> <beadB>
    seed <x> <y> <bead>            # path order
    seedbond <i> <j>               # 1-based conformation indices
    transcript <bead> <bead> ...
    repeat <count> <bead> ... <bead>    # count >= 0

The fold trace is TSV, one line per stabilized transcript bead:
index (1-based over the whole conformation, seed included), bead type,
x, y, and the bond partner indices joined by ``;``.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Iterator

from .folding import Conformation, OritatamiSystem, RuleSet

if TYPE_CHECKING:
    from .seed import SeedLayout


class SystemFileError(ValueError):
    pass


SEED_KEYS = ("seed", "seedbond")
Line = tuple[int, str, list[str]]  # (lineno, key, args)


def tokenize(lines: Iterable[str]) -> Iterator[Line]:
    """``(lineno, key, args)`` for each directive line. ``#`` starts a
    comment; blank lines are skipped but still counted."""
    for lineno, raw in enumerate(lines, 1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield lineno, tokens[0], tokens[1:]


def check_args(
    error: type[ValueError], lineno: int, key: str, args: list[str], usage: str, ints: int = 0
) -> list:
    """``args`` checked against ``usage``, one space-separated name per
    argument (a trailing ``...`` takes any number more), with the first
    ``ints`` converted to int."""
    need, more = _shape(usage)
    if len(args) != need and (len(args) < need or not more):
        raise error(f"line {lineno}: expected '{key} {usage}'")
    try:
        return [*map(int, args[:ints]), *args[ints:]]
    except ValueError:
        names = " ".join(usage.split()[:ints])
        raise error(f"line {lineno}: expected '{key} {usage}' with integer {names}") from None


@cache
def _shape(usage: str) -> tuple[int, bool]:
    """The count of names in ``usage`` and whether a trailing ``...`` takes
    more, worked out once per usage string."""
    more = usage.endswith("...")
    return usage.count(" ") + 1 - more, more


def once(seen: set, error: type[ValueError], lineno: int, item, what: str) -> None:
    """Record ``item`` in ``seen``, or raise ``error`` if it is there already:
    the check of every directive a format takes at most once (per stanza, or
    per argument). ``what`` names the line, as in ``"'delay' line"``."""
    if item in seen:
        raise error(f"line {lineno}: a second {what}")
    seen.add(item)


def split_stanzas(text: str, head: str, error: type[ValueError]) -> list[tuple[str, list[Line]]]:
    """The ``<head> NAME`` stanzas of ``text`` as (NAME, its tokenized lines)."""
    stanzas: list[tuple[str, list[Line]]] = []
    for lineno, key, args in tokenize(text.splitlines()):
        if key == head:
            (name,) = check_args(error, lineno, key, args, "NAME")
            stanzas.append((name, []))
        elif not stanzas:
            raise error(f"line {lineno}: {key!r} before any {head!r} stanza")
        else:
            stanzas[-1][1].append((lineno, key, args))
    if not stanzas:
        raise error(f"no {head!r} stanza")
    return stanzas


class Directives:
    """The values set by the directives that two formats share: ``delay``,
    ``arity``, ``rule``, ``seed``, ``seedbond``, and the transcript from
    ``transcript`` (``fragment`` in submodule defs) and ``repeat`` lines.
    ``read`` takes only the ``keys`` a format accepts and raises ``error``
    on any other key, on a malformed line, a second ``delay`` or ``arity``
    line, or a second ``rule`` or ``seedbond`` line for one pair in either
    order, included.
    ``seen`` holds what ``once`` has recorded for the stanza; a format's own
    at-most-once directives record theirs there too."""

    def __init__(self, error: type[ValueError], keys: Iterable[str]):
        self.error, self.keys = error, frozenset(keys)
        self.delay: int | None = None
        self.arity: int | None = None
        self.rules: list[tuple[str, str]] = []
        self.points: list[tuple[int, int]] = []
        self.beads: list[str] = []
        self.bonds: list[tuple[int, int]] = []
        self.transcript: list[str] = []
        self.seen: set = set()

    def read(self, lineno: int, key: str, args: list[str]) -> None:
        """Apply one directive line: the one place that rejects a ``key``
        outside ``keys``, as ``line N: unknown directive 'KEY'``."""
        if key not in self.keys:
            raise self.error(f"line {lineno}: unknown directive {key!r}")
        if key in ("delay", "arity"):
            once(self.seen, self.error, lineno, key, f"'{key}' line")
            (value,) = check_args(self.error, lineno, key, args, "N", ints=1)
            if value < 1:
                raise self.error(f"line {lineno}: '{key}' must be >= 1, got {value}")
            setattr(self, key, value)
        elif key == "rule":
            a, b = check_args(self.error, lineno, key, args, "BEAD BEAD")
            once(self.seen, self.error, lineno, (key, frozenset((a, b))), f"'{key} {a} {b}' line")
            self.rules.append((a, b))
        elif key == "seed":
            x, y, bead = check_args(self.error, lineno, key, args, "X Y BEAD", ints=2)
            self.points.append((x, y))
            self.beads.append(bead)
        elif key == "seedbond":
            i, j = check_args(self.error, lineno, key, args, "I J", ints=2)
            once(self.seen, self.error, lineno, (key, frozenset((i, j))), f"'{key} {i} {j}' line")
            self.bonds.append((i - 1, j - 1))
        elif key == "repeat":
            count, *beads = check_args(self.error, lineno, key, args, "COUNT BEAD ...", ints=1)
            if count < 0:
                raise self.error(f"line {lineno}: 'repeat' COUNT must be >= 0, got {count}")
            try:
                self.transcript.extend(beads * count)
            except (MemoryError, OverflowError):
                raise self.error(f"line {lineno}: 'repeat' COUNT {count} is too large") from None
        else:  # "transcript" or "fragment"
            self.transcript.extend(check_args(self.error, lineno, key, args, "BEAD ..."))

    def seed(self) -> Conformation:
        """The conformation of the ``seed``/``seedbond`` lines read, not yet
        checked: ``OritatamiSystem`` checks a system file's seed, and
        ``harness.parse_environments`` a catalog's."""
        if not self.points:
            raise self.error("no 'seed' lines")
        return Conformation.build(self.points, self.beads, self.bonds)


def parse_system(text: str) -> OritatamiSystem:
    found = Directives(
        SystemFileError, ("delay", "arity", "rule", "transcript", "repeat", *SEED_KEYS)
    )
    for lineno, key, args in tokenize(text.splitlines()):
        found.read(lineno, key, args)
    if found.delay is None or found.arity is None:
        raise SystemFileError("system file must set both 'delay' and 'arity'")
    try:
        return OritatamiSystem(
            RuleSet(found.rules), found.arity, found.delay, found.seed(), tuple(found.transcript)
        )
    except ValueError as exc:
        raise SystemFileError(str(exc)) from None


def parse_system_file(path: str) -> OritatamiSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def format_system(system: OritatamiSystem) -> str:
    """Serialize a system back to the file syntax (inverse of parse_system)."""
    lines = [f"delay {system.delay}", f"arity {system.arity}"]
    lines += [f"rule {a} {b}" for a, b in system.rules.pairs]
    lines += format_seed_stanza(system.seed).splitlines()
    if system.transcript:
        lines.append("transcript " + " ".join(system.transcript))
    return "\n".join(lines) + "\n"


def format_seed_stanza(seed: Conformation | SeedLayout) -> str:
    """The ``seed``/``seedbond`` lines describing a seed, path order. A
    ``seed.SeedLayout`` is written arm by arm, the column then the row, from
    each arm's fixed coordinate and range."""
    if isinstance(seed, Conformation):
        text = _seed_lines("seed %d %d ", seed.beads, tuple(chain.from_iterable(seed.path)))
        bonds = sorted(seed.bonds)
        text += "seedbond %d %d\n" * len(bonds) % tuple(k + 1 for bond in bonds for k in bond)
        return text or "\n"
    x, ys, beads = seed.column()
    text = _seed_lines(f"seed {x} %d ", beads, tuple(ys))
    xs, y, beads = seed.row()
    return text + _seed_lines(f"seed %d {y} ", beads, tuple(xs))


def _seed_lines(head: str, beads: Iterable[str], values: tuple[int, ...]) -> str:
    """One line per bead, ``head`` then the bead, path order, with the
    ``%d`` fields of all the lines filled from ``values`` by one ``%``."""
    return "".join(map(_LineTemplates(head).__getitem__, beads)) % values


class _LineTemplates(dict):
    """Each bead type's line, ``head`` then the bead with its ``%`` escaped,
    formatted the first time the bead is looked up."""

    def __init__(self, head: str):
        self.head = head

    def __missing__(self, bead: str) -> str:
        line = self[bead] = f"{self.head}{bead.replace('%', '%%')}\n"
        return line


def format_trace(conformation: Conformation, seed_len: int) -> str:
    """TSV trace of the beads stabilized past the seed (1-based indices)."""
    partners: dict[int, list[int]] = {}
    for i, j in conformation.bonds:
        partners.setdefault(i, []).append(j)
        partners.setdefault(j, []).append(i)
    lines = ["# index\tbead\tx\ty\tbonds"]
    for idx in range(seed_len, len(conformation.path)):
        p = conformation.path[idx]
        linked = ";".join(str(k + 1) for k in sorted(partners.get(idx, [])))
        lines.append(f"{idx + 1}\t{conformation.beads[idx]}\t{p.x}\t{p.y}\t{linked}")
    return "\n".join(lines) + "\n"
