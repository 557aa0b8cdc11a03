"""Oritatami: a cotranscriptional-folding simulator with a brick-level
automaton executor, seed codecs, and a submodule verification harness."""

from .folding import energy, fold_all, stabilize_next
from .grid import path_is_valid
from .nfa import oracle_accepts
from .bricks import run_word
from .seed import build_seed

__version__ = "0.1.0"
