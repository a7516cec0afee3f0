"""Formula-to-problem pipeline shared by the CLI and the benchmark harness."""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from . import formula as F
from . import solvers as S
from .automaton import (SymbolicAutomaton, expand_cubes,
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
    """The body's safety automaton for func and pred, its Buchi automaton
    for lia.  With assume_safe, func and pred take an unsafe body as its
    Buchi automaton without acceptance sets (unsound if it is not safe)."""
    nnf = F.to_nnf(phi.body)
    atoms = F.atoms_of(nnf)
    if kind in (EncodingKind.FUNC_SAFETY, EncodingKind.PRED_SAFETY):
        if assume_safe and not is_syntactically_safe(nnf):
            aut = replace(ltl_to_nba(nnf, atoms), accepting=())
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
    """Emit the problem once per configured format; run one portfolio."""
    with tempfile.TemporaryDirectory(prefix="hypersat_") as tmp:
        files = {}
        for name in sorted({cfg.format for cfg in cfgs}):
            fmt = OutputFormat(name)
            files[name] = Path(tmp) / f"problem{FILE_EXTENSIONS[fmt]}"
            files[name].write_text(emit(problem, fmt))
        return S.run_portfolio(cfgs, files)
