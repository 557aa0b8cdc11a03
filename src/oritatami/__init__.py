"""Oritatami: a cotranscriptional-folding simulator with a brick-level
automaton executor, seed codecs, and a submodule verification harness."""

from .folding import (
    BranchBudgetExceeded,
    Conformation,
    DeadEnd,
    FoldOutcome,
    OritatamiSystem,
    RuleSet,
    StabilizationChoice,
    arity_of,
    elongations,
    energy,
    fold_all,
    is_deterministic_run,
    stabilize_next,
)
from .grid import DIRECTIONS, Point, path_is_valid, to_cartesian
from .nfa import (
    AugmentedNfa,
    Encoding,
    EncodingClash,
    LetterNotEncoded,
    Nfa,
    Transition,
    assign_codes,
    augment,
    oracle_accepts,
)
from .bricks import (
    HALT,
    BrickRow,
    NoChoiceMarked,
    PeriodTrace,
    RunOutcome,
    RunResult,
    module1,
    module2,
    module3,
    module4,
    run_word,
    step_count,
)
from .seed import BeadWord, SeedLayout, WidthMismatch, build_seed
from .harness import (
    Brick,
    BrickAutomaton,
    ClosureViolation,
    Environment,
    NondeterministicBrick,
    SubmoduleDef,
    UnexpectedFold,
    explore_closure,
    fold_in_environment,
)

__version__ = "0.1.0"
