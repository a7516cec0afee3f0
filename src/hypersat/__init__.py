"""HyperLTL satisfiability checking via first-order logic encodings."""

from .fol import Verdict
from .formula import HyperFormula, Quantifier, parse, pretty

__version__ = "0.1.0"

__all__ = [
    "HyperFormula", "Quantifier", "parse", "pretty",
    "LassoTrace", "LassoTraceSet", "bounded_find_model", "eval_hyperltl",
    "Verdict", "__version__",
]

_ORACLE_NAMES = ("LassoTrace", "LassoTraceSet", "bounded_find_model",
                 "eval_hyperltl")


def __getattr__(name: str):
    # the oracle (with numpy) loads on first use
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
