"""Output checks against references that are not the code under test.

Run after each case's timed region.  Each check returns a list of error
strings; an empty list means the case's outputs passed.

The LTL reference is ``naive_eval`` from the repository's test helpers: a
global-fixpoint evaluator that shares no code with the package's kernel or
automata.  Oracle models are checked with a HyperLTL evaluator built here
on top of it, and against the ``func`` encoding through the package's
build_finite_interpretation and first-order evaluator.
"""

from __future__ import annotations

import math
import random

from helpers import naive_eval, random_lasso

LASSO_STEM = 3
LASSO_LOOP = 3


def balanced(text: str) -> bool:
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def check_emitted(smtlib: str, tptp: str, lia: bool) -> list:
    errors = []
    if not balanced(smtlib):
        errors.append("SMT-LIB parentheses are unbalanced")
    if not smtlib.endswith("(check-sat)\n"):
        errors.append("SMT-LIB does not end in (check-sat)")
    logic = "(set-logic UFLIA)" if lia else "(set-logic UF)"
    if not smtlib.startswith(logic + "\n"):
        errors.append(f"SMT-LIB does not start with {logic}")
    if not balanced(tptp) or not tptp.endswith(").\n"):
        errors.append("TPTP text is malformed")
    return errors


def check_automaton(pkg, body, aut, rng: random.Random, lassos: int) -> list:
    """The automaton and the kernel agree with naive_eval on random lassos."""
    atoms = sorted(pkg.formula.atoms_of(body))
    errors = []
    for _ in range(lassos):
        word, stem_len, loop_len = random_lasso(rng, atoms, LASSO_STEM,
                                                LASSO_LOOP)
        stem, loop = word[:stem_len], word[stem_len:]
        want = naive_eval(body, word, stem_len, loop_len)
        if pkg.automaton.accepts_lasso(aut, stem, loop) != want:
            errors.append(f"automaton disagrees with naive_eval on "
                          f"{_show(stem)} | {_show(loop)}")
        if pkg.kernel.eval_body_on_lasso(body, stem, loop) != want:
            errors.append(f"kernel disagrees with naive_eval on "
                          f"{_show(stem)} | {_show(loop)}")
        if len(errors) >= 2:
            break
    return errors


def _show(letters) -> str:
    return " ".join("{" + ",".join(f"{a}_{v}" for a, v in sorted(x)) + "}"
                    for x in letters)


def _letter_at(trace, k: int):
    if k < len(trace.stem):
        return trace.stem[k]
    return trace.loop[(k - len(trace.stem)) % len(trace.loop)]


def holds(phi, traces) -> bool:
    """HyperLTL semantics over a finite lasso-trace set, via naive_eval."""
    variables = phi.variables
    memo: dict = {}

    def body_value(assignment) -> bool:
        if assignment not in memo:
            stem_len = max(len(t.stem) for t in assignment)
            loop_len = 1
            for t in assignment:
                loop_len = math.lcm(loop_len, len(t.loop))
            word = [{(ap, var) for t, var in zip(assignment, variables)
                     for ap in _letter_at(t, k)}
                    for k in range(stem_len + loop_len)]
            memo[assignment] = naive_eval(phi.body, word, stem_len, loop_len)
        return memo[assignment]

    def rec(k: int, chosen: tuple) -> bool:
        if k == len(phi.prefix):
            return body_value(chosen)
        if phi.prefix[k][0].value == "forall":
            return all(rec(k + 1, chosen + (t,)) for t in traces)
        return any(rec(k + 1, chosen + (t,)) for t in traces)

    return rec(0, ())


def check_oracle(pkg, phi, outcome, expected: str, bounds) -> list:
    """Outcome class, and every Found model against two references."""
    oracle = pkg.oracle
    if isinstance(outcome, oracle.NoModelUpTo):
        if expected != "no-model":
            return ["expected a model, got NoModelUpTo"]
        got = (outcome.max_traces, outcome.max_stem, outcome.max_loop)
        if got != tuple(bounds):
            return [f"NoModelUpTo reports bounds {got}, asked {tuple(bounds)}"]
        return []
    if not isinstance(outcome, oracle.Found):
        return [f"unexpected outcome type {type(outcome).__name__}"]
    if expected != "found":
        return ["Found a model for a family-UNSAT case"]
    traces = outcome.model.traces
    errors = []
    max_traces, max_stem, max_loop = bounds
    if not 1 <= len(traces) <= max_traces or any(
            len(t.stem) > max_stem or len(t.loop) > max_loop for t in traces):
        errors.append("model exceeds the requested bounds")
    if not holds(phi, traces):
        errors.append("model does not satisfy the formula under naive_eval")
    nsa = pkg.pipeline.body_automaton(phi, pkg.encoder.EncodingKind.FUNC_SAFETY)
    problem = pkg.encoder.encode_func(phi, nsa)
    try:
        interp = pkg.encoder.build_finite_interpretation(phi, nsa,
                                                          outcome.model)
    except pkg.encoder.EncoderError as exc:
        errors.append(f"no finite interpretation for the model: {exc}")
    else:
        if not pkg.fol.eval_finite(problem.formula, interp):
            errors.append("model's interpretation violates the func encoding")
    return errors
