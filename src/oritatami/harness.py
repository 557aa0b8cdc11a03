"""Submodule verification harness: fold a transcript fragment inside each
declared environment, classify the result as a brick, and check that the
induced environment graph closes.

An environment is a surrounding conformation plus the height at which the
fragment enters the row band (T for top, B for bottom) and the 1-bit input
it exposes. A brick is the classified fold: where it exits the band and
which bead sequence it leaves exposed along the band's bottom row (read in
reverse path order, matching how the next row scans it). The environment
catalog is user-declared; the glider spacer ships as the worked example in
``demos/gspacer.defs`` and ``demos/gspacer_bands.cat``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .folding import (
    BranchBudgetExceeded,
    Conformation,
    LookaheadBudgetExceeded,
    OritatamiSystem,
    RuleSet,
    fold_all,
    validate_conformation,
)
from .sysfile import SEED_KEYS, Directives, check_args, once, split_stanzas


class UnexpectedFold(Exception):
    """The fragment's fold does not resolve to a declared brick."""


class NondeterministicBrick(Exception):
    """Several distinct terminal folds where a single brick was declared."""


class ClosureViolation(Exception):
    """Exploration reached an environment outside the declared catalog."""


class CatalogError(ValueError):
    pass


_HEIGHTS = ("T", "B")
_INPUTS = ("0", "1", "N", "Y")


@dataclass(frozen=True)
class Environment:
    name: str
    conformation: Conformation
    entry: str  # "T" or "B"
    input_bit: str  # "0", "1", "N", or "Y"
    submodule: str | None = None

    def __post_init__(self):
        if self.entry not in _HEIGHTS:
            raise ValueError(f"entry must be T or B, got {self.entry!r}")
        if self.input_bit not in _INPUTS:
            raise ValueError(f"input must be 0, 1, N or Y, got {self.input_bit!r}")


@dataclass(frozen=True)
class SubmoduleDef:
    """A transcript fragment with the rules, delay and arity it folds by.
    ``expected`` maps an (entry, input) pair to the brick declared for it,
    as (exit, exposed bead tuple); a fold in an environment with that entry
    and input must give exactly that brick."""

    name: str
    fragment: tuple[str, ...]
    rules: RuleSet
    delay: int
    arity: int
    deterministic: bool = True
    expected: Mapping[tuple[str, str], tuple[str, tuple[str, ...]]] = field(default_factory=dict)


@dataclass(frozen=True)
class Brick:
    """What a fragment's fold in one environment decided: the brick's name,
    ``<submodule>_-<h><y>`` after the environment's entry height and input
    bit; the whole fold, seed included; and its exit height and exposed
    bottom-row beads, as ``_classify`` reads them. The environment's name is
    the key the brick is stored under in ``BrickAutomaton.bricks``."""

    name: str
    conformation: Conformation
    exit: str
    exposed: tuple[str, ...]


def _classify(conformation: Conformation, fragment_start: int) -> tuple[str, tuple[str, ...]]:
    """Exit height and exposed bottom-row bead sequence of the folded fragment."""
    points = conformation.path[fragment_start:]
    beads = conformation.beads[fragment_start:]
    ys = [p.y for p in points]
    top, bottom = max(ys), min(ys)
    if top == bottom:
        raise UnexpectedFold("fragment folded flat; no row band to classify")
    last = points[-1].y
    if last == top:
        exit_height = "T"
    elif last == bottom:
        exit_height = "B"
    else:
        raise UnexpectedFold(f"fragment ends mid-band (y={last}, band {bottom}..{top})")
    exposed = tuple(b for p, b in zip(reversed(points), reversed(beads)) if p.y == bottom)
    return exit_height, exposed


def fold_in_environment(submodule: SubmoduleDef, env: Environment) -> Brick:
    """Fold the fragment after the environment's conformation and classify it.

    Raises UnexpectedFold when the fold dead-ends, cannot be classified, has
    more than 512 terminal folds (unresolved ties past the branch budget),
    or contradicts the submodule's declared brick for this (entry, input);
    NondeterministicBrick when a declared-deterministic fragment resolves to
    several distinct folds; LookaheadBudgetExceeded when one lookahead
    search exceeds its node budget. Each of these messages begins
    ``<submodule> in <env>: ``. Raises CatalogError (``env <env>: ``) when
    the environment's seed breaks the submodule's rules or arity.
    """
    try:
        return _fold_brick(submodule, env)
    except (UnexpectedFold, NondeterministicBrick, LookaheadBudgetExceeded) as exc:
        raise type(exc)(f"{submodule.name} in {env.name}: {exc}") from None


def _fold_brick(submodule: SubmoduleDef, env: Environment) -> Brick:
    """``fold_in_environment``, its fold errors not yet naming the submodule
    and environment."""
    try:
        system = OritatamiSystem(
            submodule.rules, submodule.arity, submodule.delay, env.conformation, submodule.fragment
        )
    except ValueError as exc:
        raise CatalogError(f"env {env.name}: {exc}") from None
    try:
        outcomes = fold_all(system, "enumerate", branch_budget=512)
    except BranchBudgetExceeded:
        raise UnexpectedFold("unresolved ties exceed the branch budget") from None
    completed = [o.conformation for o in outcomes if o.completed]
    if not completed:
        raise UnexpectedFold("every branch dead-ends")
    if len(completed) > 1 and submodule.deterministic:
        raise NondeterministicBrick(f"{len(completed)} distinct folds")
    conformation = completed[0]
    exit_height, exposed = _classify(conformation, len(env.conformation))
    expected = submodule.expected.get((env.entry, env.input_bit))
    if expected is not None and expected != (exit_height, exposed):
        raise UnexpectedFold(
            f"folded to exit={exit_height} exposed={','.join(exposed)}, "
            f"declared exit={expected[0]} exposed={','.join(expected[1])}"
        )
    name = f"{submodule.name}_-{env.entry.lower()}{env.input_bit}"
    return Brick(name, conformation, exit_height, exposed)


@dataclass
class BrickAutomaton:
    """Environments as vertices, T/B-labeled brick transitions as edges."""

    environments: dict[str, Environment] = field(default_factory=dict)
    bricks: dict[str, Brick] = field(default_factory=dict)
    transitions: list[tuple[str, str, str]] = field(default_factory=list)
    failures: list[tuple[str, str]] = field(default_factory=list)


def _resolve_submodule(
    defs: Mapping[str, SubmoduleDef], env: Environment
) -> SubmoduleDef:
    if env.submodule is not None:
        try:
            return defs[env.submodule]
        except KeyError:
            raise ClosureViolation(
                f"environment {env.name} names undeclared submodule {env.submodule!r}"
            ) from None
    if len(defs) != 1:
        raise ClosureViolation(
            f"environment {env.name} must name its submodule (several are declared)"
        )
    return next(iter(defs.values()))


def explore_closure(
    defs: Mapping[str, SubmoduleDef], envs: Sequence[Environment]
) -> BrickAutomaton:
    """Closure check over the declared environment catalog, in catalog order.

    Every environment is folded once; the successor is the unique declared
    environment (for the same submodule) whose entry height matches the
    brick's exit, looked up in an index built once from the catalog.
    Environments whose fold fails classification are recorded in
    ``failures`` rather than aborting the walk. Raises ClosureViolation
    when a successor is missing or ambiguous, or when the walk reaches an
    environment whose submodule cannot be resolved.
    """
    auto = BrickAutomaton()
    # (submodule name, entry height) -> environments, in catalog order.
    index: dict[tuple[str, str], list[Environment]] = {}
    for env in envs:
        if env.name in auto.environments:
            raise CatalogError(f"duplicate environment names: {env.name}")
        auto.environments[env.name] = env
        try:
            key = (_resolve_submodule(defs, env).name, env.entry)
        except ClosureViolation:
            continue  # raised again when the walk reaches it
        index.setdefault(key, []).append(env)
    for env in envs:
        sub = _resolve_submodule(defs, env)
        try:
            brick = fold_in_environment(sub, env)
        except (UnexpectedFold, NondeterministicBrick) as exc:
            auto.failures.append((env.name, f"{type(exc).__name__}: {exc}"))
            continue
        auto.bricks[env.name] = brick
        successors = index.get((sub.name, brick.exit), [])
        if not successors:
            raise ClosureViolation(
                f"no declared environment with entry {brick.exit} follows {env.name}"
            )
        if len(successors) > 1:
            names = ", ".join(e.name for e in successors)
            raise ClosureViolation(f"ambiguous successors of {env.name}: {names}")
        auto.transitions.append((env.name, brick.exit, successors[0].name))
    return auto


def _dot(text: str) -> str:
    """``text`` as the inside of a quoted DOT string: ``\\`` and ``"`` escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def format_automaton(auto: BrickAutomaton) -> str:
    """Text edge list plus a dot-style listing, ready for graph tooling."""
    lines = [f"{src} -{label}-> {dst}" for src, label, dst in auto.transitions]
    for env_name, message in auto.failures:
        lines.append(f"{env_name} !! {message}")
    lines.append("")
    lines.append("digraph bricks {")
    for name, brick in sorted(auto.bricks.items()):
        lines.append(f'  "{_dot(name)}" [label="{_dot(name)}\\n{_dot(brick.name)}"];')
    for src, label, dst in auto.transitions:
        lines.append(f'  "{_dot(src)}" -> "{_dot(dst)}" [label="{_dot(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_ENV_FIELDS = {"entry": _HEIGHTS, "input": _INPUTS, "submodule": ()}


def _one_of(lineno: int, what: str, value: str, allowed: tuple[str, ...]) -> str:
    """``value``, checked against ``allowed`` unless that is empty."""
    if allowed and value not in allowed:
        raise CatalogError(f"line {lineno}: {what} must be {'|'.join(allowed)}, got {value!r}")
    return value


def parse_environments(text: str) -> list[Environment]:
    """Parse an environment catalog: ``env <name>`` stanzas holding seed lines
    (system-file syntax), ``entry T|B``, ``input 0|1|N|Y``, and an optional
    ``submodule <name>``, each of these three at most once per stanza. Each
    seed's geometry is checked here; its rules and arity, only against the
    submodule that folds in it."""
    envs: list[Environment] = []
    for name, directives in split_stanzas(text, "env", CatalogError):
        found = Directives(CatalogError, SEED_KEYS)
        fields: dict[str, str] = {}
        for lineno, key, args in directives:
            if key in _ENV_FIELDS:
                once(found.seen, CatalogError, lineno, key, f"'{key}' line")
                allowed = _ENV_FIELDS[key]
                (value,) = check_args(CatalogError, lineno, key, args, "|".join(allowed) or "NAME")
                fields[key] = _one_of(lineno, repr(key), value, allowed)
            else:
                found.read(lineno, key, args)
        if "entry" not in fields or "input" not in fields:
            raise CatalogError(f"env {name}: needs both 'entry' and 'input'")
        try:
            seed = found.seed()
            validate_conformation(seed)
            envs.append(Environment(name, seed, fields["entry"], fields["input"],
                                    fields.get("submodule")))
        except ValueError as exc:
            raise CatalogError(f"env {name}: {exc}") from None
    return envs


_FLAGS = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}


def parse_submodules(text: str) -> dict[str, SubmoduleDef]:
    """Parse submodule definitions: ``submodule <name>`` stanzas with ``delay``,
    ``arity``, ``rule`` lines, a ``fragment`` (or ``repeat``) transcript, an
    optional ``deterministic yes|no``, and optional declared bricks as
    ``expect <entry> <input> <exit> <bead> <bead> ...``, which fill
    ``SubmoduleDef.expected``. A repeated name, a second ``delay``,
    ``arity`` or ``deterministic`` line in a stanza, or a second ``expect``
    line for one entry and input, is a CatalogError."""
    defs: dict[str, SubmoduleDef] = {}
    for name, directives in split_stanzas(text, "submodule", CatalogError):
        if name in defs:
            raise CatalogError(f"duplicate submodule names: {name}")
        found = Directives(CatalogError, ("delay", "arity", "rule", "fragment", "repeat"))
        deterministic = True
        expected: dict[tuple[str, str], tuple[str, tuple[str, ...]]] = {}
        for lineno, key, args in directives:
            if key == "deterministic":
                once(found.seen, CatalogError, lineno, key, f"'{key}' line")
                (flag,) = check_args(CatalogError, lineno, key, args, "yes|no")
                if flag.lower() not in _FLAGS:
                    raise CatalogError(f"line {lineno}: expected 'deterministic yes|no'")
                deterministic = _FLAGS[flag.lower()]
            elif key == "expect":
                entry, input_bit, exit_height, *beads = check_args(
                    CatalogError, lineno, key, args, "ENTRY INPUT EXIT ..."
                )
                _one_of(lineno, "'expect' ENTRY", entry, _HEIGHTS)
                _one_of(lineno, "'expect' INPUT", input_bit, _INPUTS)
                _one_of(lineno, "'expect' EXIT", exit_height, _HEIGHTS)
                what = f"'{key}' line for {entry} {input_bit}"
                once(found.seen, CatalogError, lineno, (key, entry, input_bit), what)
                expected[entry, input_bit] = (exit_height, tuple(beads))
            else:
                found.read(lineno, key, args)
        if found.delay is None or found.arity is None or not found.transcript:
            raise CatalogError(f"submodule {name}: needs delay, arity and a fragment")
        defs[name] = SubmoduleDef(
            name, tuple(found.transcript), RuleSet(found.rules), found.delay, found.arity,
            deterministic, expected,
        )
    return defs
