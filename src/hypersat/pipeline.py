"""Formula-to-problem pipeline shared by the CLI and the benchmark harness."""

from __future__ import annotations

import tempfile
from pathlib import Path

from . import formula as F
from . import solvers as S
from .automaton import (Safety, SymbolicAutomaton, expand_cubes,
                        is_syntactically_safe, ltl_to_nba,
                        to_safety_automaton)
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


def body_automaton(phi: F.HyperFormula, kind: EncodingKind,
                   assume_safe: bool = False,
                   explicit_alphabet: bool = False) -> SymbolicAutomaton:
    nnf = F.to_nnf(phi.body)
    atoms = F.atoms_of(nnf)
    if kind in (EncodingKind.FUNC_SAFETY, EncodingKind.PRED_SAFETY):
        if is_syntactically_safe(nnf):
            aut = to_safety_automaton(nnf, atoms)
        elif assume_safe:
            # user-asserted safety: reuse the Buchi tableau and treat every
            # infinite run as accepting (unsound if the body is not safe)
            nba = ltl_to_nba(nnf, atoms)
            aut = SymbolicAutomaton(
                num_states=nba.num_states, initial=nba.initial,
                edges=nba.edges, acceptance=Safety(frozenset()),
                atoms=nba.atoms, state_labels=nba.state_labels)
        else:
            aut = to_safety_automaton(nnf, atoms)  # raises NotSyntacticallySafe
    else:
        aut = ltl_to_nba(nnf, atoms)
    if explicit_alphabet:
        aut = expand_cubes(aut)
    return aut


def build_problem(phi: F.HyperFormula, kind: EncodingKind,
                  assume_safe: bool = False,
                  explicit_alphabet: bool = False) -> EncodedProblem:
    aut = body_automaton(phi, kind, assume_safe, explicit_alphabet)
    if kind is EncodingKind.FUNC_SAFETY:
        return encode_func(phi, aut)
    if kind is EncodingKind.PRED_SAFETY:
        return encode_pred(phi, aut)
    return encode_lia(phi, aut)


def solve_problem(problem: EncodedProblem, cfgs) -> S.SolverResult:
    """Emit the problem in each configured format and run the portfolio."""
    by_format: dict = {}
    for cfg in cfgs:
        by_format.setdefault(cfg.format, []).append(cfg)
    results = []
    not_found = 0
    with tempfile.TemporaryDirectory(prefix="hypersat_") as tmp:
        for fmt_name, members in sorted(by_format.items()):
            fmt = OutputFormat.SMTLIB2 if fmt_name == "smtlib" else OutputFormat.TPTP_TFF
            path = Path(tmp) / f"problem{FILE_EXTENSIONS[fmt]}"
            path.write_text(emit(problem, fmt))
            try:
                result = S.run_portfolio(members, path)
            except S.SolverNotFoundError:
                not_found += 1
                continue
            if result.verdict is not S.Verdict.UNKNOWN:
                return result
            results.append(result)
    if not results and not_found:
        raise S.SolverNotFoundError("no configured solver is installed")
    return results[0] if results else S.SolverResult(S.Verdict.UNKNOWN,
                                                     "portfolio", 0.0)
