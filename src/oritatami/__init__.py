"""Oritatami: a cotranscriptional-folding simulator with a brick-level
automaton executor, seed codecs, and a submodule verification harness.

The ``oritatami`` command (``oritatami.cli``) is the interface; each module
documents its own functions."""

__version__ = "0.1.0"
