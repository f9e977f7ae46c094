"""Interpreter for a lambda calculus with finite and transfinite arrays.

Arrays may have ordinal shapes below w^w; they are built lazily with `imap`,
recursively with `letrec`, and reshaped by a small standard library.  The
embedding surface is `evaluate` (run a program, get a `Result`) and `probe`
(select a scalar out of a possibly infinite value).
"""

import sys

if sys.version_info < (3, 11):
    # evaluation nests up to RECURSION_LIMIT Python frames, which is safe only
    # where Python-to-Python calls do not use the C stack (3.11 and later)
    raise ImportError("heh needs Python 3.11 or later: deep evaluation can "
                      "overflow the C stack of older interpreters")

from .eval import EvalConfig, EvalError, Result, Session, evaluate, probe
from .ordinal import OMEGA, ZERO, Ordinal, UndefinedOrdinalOp, omega_power
from .prelude import (examples_suite, load_prelude, prelude_source,
                      program_names, program_source)
from .syntax import LexError, ParseError, parse_expr, parse_program, render

__version__ = "0.1.0"

__all__ = [
    "EvalConfig", "EvalError", "Result", "Session", "evaluate", "probe",
    "OMEGA", "ZERO", "Ordinal", "UndefinedOrdinalOp", "omega_power",
    "examples_suite", "load_prelude", "prelude_source", "program_names",
    "program_source",
    "LexError", "ParseError", "parse_expr", "parse_program", "render",
    "__version__",
]
