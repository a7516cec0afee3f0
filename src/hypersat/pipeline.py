"""Formula-to-verdict pipeline shared by the CLI and the benchmark harness."""

from __future__ import annotations

import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from . import formula as F
from .automaton import (NotSyntacticallySafeError, SymbolicAutomaton,
                        is_syntactically_safe, ltl_to_nba,
                        to_safety_automaton)
from .emit import FILE_EXTENSIONS, OutputFormat, emit
from .encoder import (EncodedProblem, EncodingKind, encode_func, encode_lia,
                      encode_pred)


def choose_encoding(phi: F.HyperFormula, requested: str) -> EncodingKind:
    """Resolve an encoding name; 'auto' picks func for safe bodies, else lia."""
    if requested != "auto":
        return EncodingKind(requested)
    if is_syntactically_safe(phi.nnf):
        return EncodingKind.FUNC_SAFETY
    return EncodingKind.LIA


def over_approximates(phi: F.HyperFormula, kind: EncodingKind) -> bool:
    """Whether body_automaton(phi, kind) accepts more words than the body,
    as it does for func and pred on a body that is not syntactically safe:
    then the problem's UNSAT holds for phi, but its SAT does not."""
    return (kind is not EncodingKind.LIA
            and not is_syntactically_safe(phi.nnf))


def body_automaton(phi: F.HyperFormula,
                   kind: EncodingKind) -> SymbolicAutomaton:
    """The Buchi automaton of the body's rewritten NNF for lia (see
    formula.rewrite), over all the atoms of the body, some of which the
    rewrite may drop.  For func and pred, the safety automaton of a
    syntactically safe body, and of any other body its Buchi automaton
    without acceptance sets, which accepts more words than the body (sound
    for UNSAT only; see over_approximates); both from the NNF as it is, so
    that choose_encoding and over_approximates hold of what they build."""
    nnf, atoms = phi.nnf, phi.atoms
    if kind is EncodingKind.LIA:
        return ltl_to_nba(F.rewrite(nnf), atoms)
    try:
        return to_safety_automaton(nnf, atoms)
    except NotSyntacticallySafeError:
        return replace(ltl_to_nba(nnf, atoms), accepting=())


def build_problem(phi: F.HyperFormula, kind: EncodingKind) -> EncodedProblem:
    aut = body_automaton(phi, kind)
    if kind is EncodingKind.FUNC_SAFETY:
        return encode_func(phi, aut)
    if kind is EncodingKind.PRED_SAFETY:
        return encode_pred(phi, aut)
    return encode_lia(phi, aut)


def solve(phi: F.HyperFormula, kind: EncodingKind, cfgs):
    """Build phi's problem, emit it once per configured format and run one
    portfolio: its solvers.SolverResult.  A SAT of a problem that
    over-approximates the body is reported as UNKNOWN, with a warning on
    stderr.  The solver machinery is imported here, where it runs."""
    from . import solvers as S
    problem = build_problem(phi, kind)
    with tempfile.TemporaryDirectory(prefix="hypersat_") as tmp:
        files = {}
        for name in sorted({cfg.format for cfg in cfgs}):
            fmt = OutputFormat(name)
            files[name] = Path(tmp) / f"problem{FILE_EXTENSIONS[fmt]}"
            files[name].write_text(emit(problem, fmt))
        result = S.run_portfolio(cfgs, files)
    if result.verdict is S.Verdict.SAT and over_approximates(phi, kind):
        # one write, so that lines of concurrent bench cases do not mix
        sys.stderr.write(f"warning: SAT of the {kind.value} encoding of a "
                         "body that is not syntactically safe is reported "
                         "as UNKNOWN\n")
        return replace(result, verdict=S.Verdict.UNKNOWN)
    return result
