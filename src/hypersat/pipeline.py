"""Formula-to-problem pipeline shared by the CLI and the benchmark harness."""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import formula as F
from . import solvers as S
from .automaton import (SymbolicAutomaton, is_syntactically_safe,
                        ltl_to_nba, to_safety_automaton)
from .emit import FILE_EXTENSIONS, OutputFormat, emit
from .encoder import (EncodedProblem, EncodingKind, encode_func, encode_lia,
                      encode_pred)


def choose_encoding(phi: F.HyperFormula, requested: str,
                    assume_safe: bool = False) -> EncodingKind:
    """Resolve an encoding name; 'auto' picks func for safe bodies, else lia."""
    if requested != "auto":
        return EncodingKind(requested)
    nnf = F.to_nnf(phi.body)
    if assume_safe or is_syntactically_safe(nnf):
        return EncodingKind.FUNC_SAFETY
    return EncodingKind.LIA


def over_approximates(phi: F.HyperFormula, kind: EncodingKind,
                      assume_safe: bool) -> bool:
    """Whether body_automaton(phi, kind, assume_safe) accepts more words
    than the body, as it does for func and pred assumed safe on a body that
    is not syntactically safe: then the problem's UNSAT holds for phi, but
    its SAT does not."""
    return (assume_safe and kind is not EncodingKind.LIA
            and not is_syntactically_safe(F.to_nnf(phi.body)))


def body_automaton(phi: F.HyperFormula, kind: EncodingKind,
                   assume_safe: bool = False) -> SymbolicAutomaton:
    """The body's safety automaton for func and pred, its Buchi automaton
    for lia.  With assume_safe, func and pred take an unsafe body as its
    Buchi automaton without acceptance sets, which accepts more words than
    the body (sound for UNSAT only; see over_approximates)."""
    nnf = F.to_nnf(phi.body)
    atoms = F.atoms_of(nnf)
    if kind is EncodingKind.LIA:
        return ltl_to_nba(nnf, atoms)
    if assume_safe and not is_syntactically_safe(nnf):
        return replace(ltl_to_nba(nnf, atoms), accepting=())
    return to_safety_automaton(nnf, atoms)  # raises NotSyntacticallySafe


def build_problem(phi: F.HyperFormula, kind: EncodingKind,
                  assume_safe: bool = False) -> EncodedProblem:
    aut = body_automaton(phi, kind, assume_safe)
    if kind is EncodingKind.FUNC_SAFETY:
        return encode_func(phi, aut)
    if kind is EncodingKind.PRED_SAFETY:
        return encode_pred(phi, aut)
    return encode_lia(phi, aut)


def solve_problem(problem: EncodedProblem, cfgs,
                  over_approximate: bool = False) -> S.SolverResult:
    """Emit the problem once per configured format; run one portfolio.
    The SAT of a problem that over-approximates the body is reported as
    UNKNOWN, with a warning on stderr."""
    with tempfile.TemporaryDirectory(prefix="hypersat_") as tmp:
        files = {}
        for name in sorted({cfg.format for cfg in cfgs}):
            fmt = OutputFormat(name)
            files[name] = Path(tmp) / f"problem{FILE_EXTENSIONS[fmt]}"
            files[name].write_text(emit(problem, fmt))
        result = S.run_portfolio(cfgs, files)
    if over_approximate and result.verdict is S.Verdict.SAT:
        # one write, so that lines of concurrent bench cases do not mix
        sys.stderr.write("warning: SAT on a body assumed safe but not "
                         "syntactically safe is reported as UNKNOWN\n")
        return replace(result, verdict=S.Verdict.UNKNOWN)
    return result
