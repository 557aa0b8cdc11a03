"""NFA representation, end-marker augmentation, binary encodings, and a
direct membership oracle used as ground truth in equivalence tests.

The augmented machine gains a sink state reachable on the reserved letter
``$`` from every accepting state; a word is accepted by the original machine
iff the word followed by ``$`` is accepted by the augmented one. State codes
are as wide as the transition list (the row width of the brick machine),
letter codes default to the narrowest width that also fits ``$``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Sequence

from .sysfile import check_args, once, tokenize

DOLLAR = "$"
SINK = "qAcc"


class EncodingClash(ValueError):
    """Code override maps are not injective or have the wrong width."""


class LetterNotEncoded(KeyError):
    """A letter has no code in the encoding at hand."""


class NfaFileError(ValueError):
    pass


@dataclass(frozen=True)
class Transition:
    origin: str
    letter: str
    target: str


def _as_transitions(items: Sequence) -> tuple[Transition, ...]:
    out = []
    for t in items:
        if isinstance(t, Transition):
            out.append(t)
        else:
            o, a, tgt = t
            out.append(Transition(str(o), str(a), str(tgt)))
    return tuple(out)


@dataclass(frozen=True)
class Nfa:
    """States, alphabet, initial state, accepting states, ordered transition list.

    Declaration order of every tuple is significant: default code assignment
    and $-transition appending both follow it.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    accepting: tuple[str, ...]
    transitions: tuple[Transition, ...]

    def __post_init__(self):
        for name in ("states", "alphabet", "accepting"):
            object.__setattr__(self, name, tuple(map(str, getattr(self, name))))
        object.__setattr__(self, "initial", str(self.initial))
        object.__setattr__(self, "transitions", _as_transitions(self.transitions))
        states = set(self.states)
        letters = set(self.alphabet)
        if len(states) != len(self.states) or len(letters) != len(self.alphabet):
            raise ValueError("duplicate state or letter declarations")
        if DOLLAR in letters:
            raise ValueError(f"letter {DOLLAR!r} is reserved for augmentation")
        if SINK in states:
            raise ValueError(f"state name {SINK!r} is reserved for augmentation")
        if self.initial not in states:
            raise ValueError(f"initial state {self.initial!r} not declared")
        for s in self.accepting:
            if s not in states:
                raise ValueError(f"accepting state {s!r} not declared")
        if len(set(self.accepting)) != len(self.accepting):
            raise ValueError("duplicate accepting states")
        seen = set()
        for t in self.transitions:
            if t.origin not in states or t.target not in states:
                raise ValueError(f"transition {t} uses undeclared states")
            if t.letter not in letters:
                raise ValueError(f"transition {t} uses undeclared letter")
            if t in seen:
                raise ValueError(f"duplicate transition {t}")
            seen.add(t)


@dataclass(frozen=True)
class AugmentedNfa:
    """An NFA with the $-sink construction applied.

    ``alphabet`` stays the original input alphabet; ``transitions`` include
    the appended $-moves; the only accepting state is the sink.
    """

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial: str
    transitions: tuple[Transition, ...]
    sink: str = SINK
    dollar: ClassVar[str] = DOLLAR

    def __post_init__(self):
        object.__setattr__(self, "transitions", _as_transitions(self.transitions))
        if self.sink not in self.states:
            raise ValueError("sink state must be declared among the states")
        if any(t.origin == self.sink for t in self.transitions):
            raise ValueError("sink state must have no outgoing transitions")
        if len(self.transitions) == 0:
            raise ValueError("degenerate machine: zero transitions after augmentation")

    @property
    def accepting(self) -> tuple[str, ...]:
        return (self.sink,)

    def periods(self, word: Sequence[str]) -> list[str]:
        """The letter of each period of a run on ``word``: ``word``, every
        letter of it in ``alphabet``, then the end marker."""
        for letter in word:
            if letter not in self.alphabet:
                raise ValueError(f"letter {letter!r} is not in the input alphabet")
        return [*word, self.dollar]


def augment(a: Nfa) -> AugmentedNfa:
    """The $-sink construction: original transitions keep their indices and one
    (q, $, sink) transition is appended per accepting state, in declaration order."""
    if isinstance(a, AugmentedNfa):
        raise ValueError("machine is already augmented; the $ letter is reserved")
    dollar_moves = tuple(Transition(q, DOLLAR, SINK) for q in a.accepting)
    return AugmentedNfa(
        states=a.states + (SINK,),
        alphabet=a.alphabet,
        initial=a.initial,
        transitions=a.transitions + dollar_moves,
    )


def oracle_accepts(a: Nfa | AugmentedNfa, word: Sequence[str]) -> bool:
    """Standard membership check by breadth-first state-set propagation."""
    current = {a.initial}
    for letter in word:
        current = {t.target for t in a.transitions if t.origin in current and t.letter == letter}
        if not current:
            return False
    return bool(current & set(a.accepting))


@dataclass(frozen=True)
class Encoding:
    """Injective binary codes for states (width = transition count) and letters."""

    state_code: Mapping[str, str]
    letter_code: Mapping[str, str]
    state_bits: int
    letter_bits: int

    def __post_init__(self):
        object.__setattr__(self, "state_code", dict(self.state_code))
        object.__setattr__(self, "letter_code", dict(self.letter_code))
        _check_codes(self.state_code, self.state_bits, "state")
        _check_codes(self.letter_code, self.letter_bits, "letter")

    def letter_bits_of(self, letter: str) -> str:
        try:
            return self.letter_code[letter]
        except KeyError:
            raise LetterNotEncoded(letter) from None


def _check_codes(codes: Mapping[str, str], width: int, what: str) -> None:
    values = list(codes.values())
    for v in values:
        if len(v) != width or any(ch not in "01" for ch in v):
            raise EncodingClash(f"{what} code {v!r} is not a {width}-bit binary string")
    if len(set(values)) != len(values):
        raise EncodingClash(f"{what} codes are not injective")


def _fill_codes(
    names: Sequence[str], width: int, overrides: Mapping[str, str], what: str
) -> dict[str, str]:
    out: dict[str, str] = {}
    for name, code in overrides.items():
        if name not in names:
            raise EncodingClash(f"override for undeclared {what} {name!r}")
        out[name] = str(code)
    _check_codes(out, width, what)
    used = set(out.values())
    codes = (format(k, f"0{width}b") for k in range(1 << width))
    free = (code for code in codes if code not in used)
    for name in names:
        if name not in out:
            code = next(free, None)
            if code is None:
                raise EncodingClash(f"cannot encode {len(names)} {what}s injectively in {width} bits")
            out[name] = code
    return out


def assign_codes(
    a: AugmentedNfa,
    state_overrides: Mapping[str, str] | None = None,
    letter_overrides: Mapping[str, str] | None = None,
) -> Encoding:
    """Codes for every state (sink included) and letter ($ included).

    Defaults enumerate names in declaration order as binary counters; explicit
    overrides are honored verbatim. State width is pinned to the transition
    count; letter width defaults to ceil(log2(|alphabet| + 1)) and follows the
    overrides when they are wider.
    """
    n = len(a.transitions)
    letters = a.alphabet + (a.dollar,)
    m = max(1, (len(letters) - 1).bit_length())
    if letter_overrides:
        widths = {len(v) for v in letter_overrides.values()}
        if len(widths) != 1:
            raise EncodingClash("letter overrides disagree on width")
        m = max(m, widths.pop())

    state_code = _fill_codes(a.states, n, state_overrides or {}, "state")
    letter_code = _fill_codes(letters, m, letter_overrides or {}, "letter")
    return Encoding(state_code, letter_code, n, m)


def parse_nfa(text: str) -> tuple[Nfa, dict[str, str], dict[str, str]]:
    """Parse the NFA file format; returns the machine plus code overrides.

    Directives: ``states:``, ``alphabet:``, ``initial:``, ``accept:``,
    ``trans: <origin> <letter> <target>`` (order = transition index order),
    ``statecode: <state> <bits>``, ``lettercode: <letter> <bits>``.
    Code lines may name the future sink ``qAcc`` and the letter ``$``. A
    second ``initial:``, a second code line for one name, or a second
    ``trans:`` line for one transition is an error, and so is an alphabet
    letter holding a comma, since words split on commas.
    """
    lists: dict[str, list[str]] = {"states:": [], "alphabet:": [], "accept:": []}
    codes: dict[str, dict[str, str]] = {"statecode:": {}, "lettercode:": {}}
    initial: str | None = None
    transitions: list[tuple[str, ...]] = []
    seen: set = set()
    for lineno, key, args in tokenize(text.splitlines()):
        if key in lists:
            names = check_args(NfaFileError, lineno, key, args, "NAME ...")
            if key == "alphabet:":
                for name in names:
                    if "," in name:
                        raise NfaFileError(f"line {lineno}: letter {name!r} holds a comma, which splits words")
            lists[key].extend(names)
        elif key == "initial:":
            once(seen, NfaFileError, lineno, key, f"'{key}' line")
            (initial,) = check_args(NfaFileError, lineno, key, args, "STATE")
        elif key == "trans:":
            usage = "ORIGIN LETTER TARGET"
            transition = tuple(check_args(NfaFileError, lineno, key, args, usage))
            once(seen, NfaFileError, lineno, transition, f"'{key} {' '.join(transition)}' line")
            transitions.append(transition)
        elif key in codes:
            name, bits = check_args(NfaFileError, lineno, key, args, "NAME BITS")
            once(seen, NfaFileError, lineno, (key, name), f"'{key}' line for {name}")
            codes[key][name] = bits
        else:
            raise NfaFileError(f"line {lineno}: unknown directive {key!r}")

    if initial is None:
        raise NfaFileError("missing 'initial:' line")
    try:
        nfa = Nfa(lists["states:"], lists["alphabet:"], initial, lists["accept:"], tuple(transitions))
    except ValueError as exc:
        raise NfaFileError(str(exc)) from None
    return nfa, codes["statecode:"], codes["lettercode:"]


def parse_nfa_file(path: str) -> tuple[Nfa, dict[str, str], dict[str, str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_nfa(fh.read())


def prepare(
    nfa: Nfa,
    state_overrides: Mapping[str, str] | None = None,
    letter_overrides: Mapping[str, str] | None = None,
) -> tuple[AugmentedNfa, Encoding]:
    """Augment and encode in one step (what the CLI does after parsing a file)."""
    aug = augment(nfa)
    return aug, assign_codes(aug, state_overrides, letter_overrides)
