"""HyperLTL satisfiability checking via first-order logic encodings."""

from .formula import HyperFormula, Quantifier, parse, pretty
from .oracle import LassoTrace, LassoTraceSet, bounded_find_model, eval_hyperltl

__version__ = "0.1.0"

__all__ = [
    "HyperFormula", "Quantifier", "parse", "pretty",
    "LassoTrace", "LassoTraceSet", "bounded_find_model", "eval_hyperltl",
    "Verdict", "__version__",
]


def __getattr__(name: str):
    # Verdict lives with the solver machinery, imported on first use only
    if name == "Verdict":
        from .solvers import Verdict
        return Verdict
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
