"""Equisatisfiable first-order encodings of HyperLTL formulas.

The quantifier prefix is mirrored onto trace-sorted variables x1..xn; an
automaton for the body is encoded by one predicate per automaton state
tracking where a run can be at each time point.  Three variants:

* func: pure FOL over sorts Trace/Time with a successor *function*;
  requires a safety automaton, whose bad states are asserted unreachable.
* pred: like func but with a successor *predicate* plus a seriality axiom;
  every succ application becomes an existentially quantified time point.
* lia: FOL modulo linear integer arithmetic over sorts Trace/Int; works
  for any Buchi automaton, with acceptance expressed as "beyond every time
  point there is one where no non-accepting state is possible".

Cubes on automaton edges are encoded by instantiating only the literals
they mention, which is logically equivalent to the letter-exact expansion
(expand the automaton's cubes first if letter-exact output is wanted).

build_finite_interpretation realizes the constructive finite-model
direction: from a finite lasso-trace model it builds a finite
interpretation with cyclic time that satisfies the func encoding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import formula as F
from . import fol
from .automaton import Buchi, Safety, SymbolicAutomaton
from .oracle import (POSITION_CAP, Evaluator, LassoTraceSet)

TRACE_SORT = "Trace"
TIME_SORT = "Time"


class EncoderError(Exception):
    pass


class KindMismatchError(EncoderError):
    pass


class NotAModelError(EncoderError):
    """The given trace set does not satisfy the formula."""


class LcmOverflowError(EncoderError):
    pass


class EncodingKind(Enum):
    FUNC_SAFETY = "func"
    PRED_SAFETY = "pred"
    LIA = "lia"


@dataclass(frozen=True)
class EncodedProblem:
    signature: fol.Signature
    formula: fol.FolFormula
    kind: EncodingKind
    provenance: dict


def escape_ap(ap: str) -> str:
    """Injective mapping of arbitrary AP names into [A-Za-z0-9_]+."""
    out = []
    for ch in ap:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        elif ch == "_":
            out.append("__")
        else:
            out.append(f"_x{ord(ch):02x}")
    return "".join(out)


def ap_pred_name(ap: str) -> str:
    return "P_" + escape_ap(ap)


def state_pred_name(index: int) -> str:
    return f"S_{index}"


def _trace_vars(phi: F.HyperFormula):
    return [f"x{j + 1}" for j in range(len(phi.prefix))]


def _wrap_prefix(phi: F.HyperFormula, matrix: fol.FolFormula) -> fol.FolFormula:
    names = _trace_vars(phi)
    out = matrix
    for (quant, _), x in zip(reversed(phi.prefix), reversed(names)):
        cls = fol.Forall if quant is F.Quantifier.FORALL else fol.Exists
        out = cls(x, TRACE_SORT, out)
    return out


def _aps(phi: F.HyperFormula):
    return sorted({ap for ap, _ in F.atoms_of(phi.body)})


def _cube_literals(cube, var_index, xvars, time_term, ap_preds):
    lits = []
    for ap, var in sorted(cube.positives):
        lits.append(fol.PredApp(ap_preds[ap],
                                (fol.Var(xvars[var_index[var]], TRACE_SORT),
                                 time_term)))
    for ap, var in sorted(cube.negatives):
        lits.append(fol.Not(fol.PredApp(ap_preds[ap],
                                        (fol.Var(xvars[var_index[var]], TRACE_SORT),
                                         time_term))))
    return lits


def _edges_by_source(aut: SymbolicAutomaton):
    grouped: dict = {q: [] for q in aut.states}
    for src, cube, dst in aut.edges:
        grouped[src].append((cube, dst))
    for src in grouped:
        grouped[src].sort(key=lambda cd: (cd[0].key(), cd[1]))
    return grouped


def _safety_signature(phi: F.HyperFormula, nsa: SymbolicAutomaton,
                      successor_as_predicate: bool):
    n = len(phi.prefix)
    aps = _aps(phi)
    ap_preds = {ap: ap_pred_name(ap) for ap in aps}
    state_preds = {q: state_pred_name(q) for q in nsa.states}

    sorts = (fol.Sort(TRACE_SORT), fol.Sort(TIME_SORT))
    functions = [fol.FunDecl("i0", (), TIME_SORT),
                 fol.FunDecl("t0", (), TRACE_SORT)]
    predicates = []
    if successor_as_predicate:
        predicates.append(fol.PredDecl("succ", (TIME_SORT, TIME_SORT)))
    else:
        functions.append(fol.FunDecl("succ", (TIME_SORT,), TIME_SORT))
    for ap in aps:
        predicates.append(fol.PredDecl(ap_preds[ap], (TRACE_SORT, TIME_SORT)))
    for q in nsa.states:
        predicates.append(fol.PredDecl(state_preds[q],
                                       tuple([TRACE_SORT] * n) + (TIME_SORT,)))

    provenance = {
        TRACE_SORT: ("sort", "traces"),
        TIME_SORT: ("sort", "time points"),
        "i0": ("constant", "initial time point"),
        "t0": ("constant", "trace-sort witness"),
        "succ": ("successor", "predicate" if successor_as_predicate else "function"),
    }
    for ap in aps:
        provenance[ap_preds[ap]] = ("ap", ap)
    for q in nsa.states:
        provenance[state_preds[q]] = ("state", q)

    sig = fol.Signature(sorts, tuple(functions), tuple(predicates))
    return sig, ap_preds, state_preds, provenance


def _check_nsa(phi: F.HyperFormula, aut: SymbolicAutomaton):
    if not isinstance(aut.acceptance, Safety):
        raise KindMismatchError("this encoding needs a safety automaton")
    var_names = set(phi.variables)
    if not {v for _, v in aut.atoms} <= var_names:
        raise EncoderError("automaton atoms mention unbound trace variables")


def encode_func(phi: F.HyperFormula, nsa: SymbolicAutomaton) -> EncodedProblem:
    """Pure-FOL encoding with a successor function over the Time sort."""
    _check_nsa(phi, nsa)
    sig, ap_preds, state_preds, provenance = _safety_signature(phi, nsa, False)
    xvars = _trace_vars(phi)
    var_index = {v: j for j, v in enumerate(phi.variables)}
    xs = tuple(fol.Var(x, TRACE_SORT) for x in xvars)
    i = fol.Var("i", TIME_SORT)
    i0 = fol.FunApp("i0")

    def state_at(q: int, time_term) -> fol.FolFormula:
        return fol.PredApp(state_preds[q], xs + (time_term,))

    init = fol.Or(tuple(state_at(q, i0) for q in sorted(nsa.initial)))

    grouped = _edges_by_source(nsa)
    step_conjuncts = []
    for q in nsa.states:
        disjuncts = []
        for cube, dst in grouped[q]:
            parts = [state_at(dst, fol.FunApp("succ", (i,)))]
            parts += _cube_literals(cube, var_index, xvars, i, ap_preds)
            disjuncts.append(fol.And(tuple(parts)))
        step_conjuncts.append(fol.Implies(state_at(q, i),
                                          fol.Or(tuple(disjuncts))))
    trans = fol.Forall("i", TIME_SORT, fol.And(tuple(step_conjuncts)))

    matrix = [init, trans]
    bad = sorted(nsa.acceptance.bad)
    if bad:
        matrix.append(fol.Forall("i", TIME_SORT, fol.And(
            tuple(fol.Not(state_at(q, i)) for q in bad))))

    formula = _wrap_prefix(phi, fol.And(tuple(matrix)))
    return EncodedProblem(sig, formula, EncodingKind.FUNC_SAFETY, provenance)


def encode_pred(phi: F.HyperFormula, nsa: SymbolicAutomaton) -> EncodedProblem:
    """Successor-predicate variant: seriality axiom plus existential steps."""
    _check_nsa(phi, nsa)
    sig, ap_preds, state_preds, provenance = _safety_signature(phi, nsa, True)
    xvars = _trace_vars(phi)
    var_index = {v: j for j, v in enumerate(phi.variables)}
    xs = tuple(fol.Var(x, TRACE_SORT) for x in xvars)
    i = fol.Var("i", TIME_SORT)
    i2 = fol.Var("i2", TIME_SORT)
    i0 = fol.FunApp("i0")

    def state_at(q: int, time_term) -> fol.FolFormula:
        return fol.PredApp(state_preds[q], xs + (time_term,))

    seriality = fol.Forall("i", TIME_SORT, fol.Exists(
        "i2", TIME_SORT, fol.PredApp("succ", (i, i2))))

    init = fol.Or(tuple(state_at(q, i0) for q in sorted(nsa.initial)))

    grouped = _edges_by_source(nsa)
    step_conjuncts = []
    for q in nsa.states:
        disjuncts = []
        for cube, dst in grouped[q]:
            step = fol.Exists("i2", TIME_SORT, fol.And(
                (fol.PredApp("succ", (i, i2)), state_at(dst, i2))))
            parts = [step] + _cube_literals(cube, var_index, xvars, i, ap_preds)
            disjuncts.append(fol.And(tuple(parts)))
        step_conjuncts.append(fol.Implies(state_at(q, i),
                                          fol.Or(tuple(disjuncts))))
    trans = fol.Forall("i", TIME_SORT, fol.And(tuple(step_conjuncts)))

    matrix = [seriality, init, trans]
    bad = sorted(nsa.acceptance.bad)
    if bad:
        matrix.append(fol.Forall("i", TIME_SORT, fol.And(
            tuple(fol.Not(state_at(q, i)) for q in bad))))

    formula = _wrap_prefix(phi, fol.And(tuple(matrix)))
    return EncodedProblem(sig, formula, EncodingKind.PRED_SAFETY, provenance)


def _as_buchi(aut: SymbolicAutomaton):
    """States, initial set, edges, and accepting set in Buchi terms.

    A safety automaton is converted by dropping its bad states and taking
    all remaining states as accepting; state indices are preserved.
    """
    if isinstance(aut.acceptance, Buchi):
        return (list(aut.states), set(aut.initial), list(aut.edges),
                set(aut.acceptance.accepting))
    bad = aut.acceptance.bad
    states = [q for q in aut.states if q not in bad]
    initial = set(aut.initial) - bad
    edges = [(s, c, d) for s, c, d in aut.edges if s not in bad and d not in bad]
    return states, initial, edges, set(states)


def encode_lia(phi: F.HyperFormula, aut: SymbolicAutomaton) -> EncodedProblem:
    """Encoding modulo linear integer arithmetic; time is the Int sort."""
    states, initial, edges, accepting = _as_buchi(aut)
    n = len(phi.prefix)
    aps = _aps(phi)
    ap_preds = {ap: ap_pred_name(ap) for ap in aps}
    state_preds = {q: state_pred_name(q) for q in states}

    sorts = (fol.Sort(TRACE_SORT), fol.Sort(fol.INT_SORT, builtin_int=True))
    functions = (fol.FunDecl("t0", (), TRACE_SORT),)
    predicates = [fol.PredDecl(ap_preds[ap], (TRACE_SORT, fol.INT_SORT))
                  for ap in aps]
    predicates += [fol.PredDecl(state_preds[q],
                                tuple([TRACE_SORT] * n) + (fol.INT_SORT,))
                   for q in states]
    provenance = {
        TRACE_SORT: ("sort", "traces"),
        fol.INT_SORT: ("sort", "integer time"),
        "t0": ("constant", "trace-sort witness"),
    }
    for ap in aps:
        provenance[ap_preds[ap]] = ("ap", ap)
    for q in states:
        provenance[state_preds[q]] = ("state", q)
    sig = fol.Signature(sorts, functions, tuple(predicates))

    xvars = _trace_vars(phi)
    var_index = {v: j for j, v in enumerate(phi.variables)}
    xs = tuple(fol.Var(x, TRACE_SORT) for x in xvars)
    i = fol.Var("i", fol.INT_SORT)
    i2 = fol.Var("i2", fol.INT_SORT)

    def state_at(q: int, time_term) -> fol.FolFormula:
        return fol.PredApp(state_preds[q], xs + (time_term,))

    init = fol.Or(tuple(state_at(q, fol.IntConst(0)) for q in sorted(initial)))

    grouped: dict = {q: [] for q in states}
    for src, cube, dst in edges:
        grouped[src].append((cube, dst))
    step_conjuncts = []
    for q in states:
        disjuncts = []
        for cube, dst in sorted(grouped[q], key=lambda cd: (cd[0].key(), cd[1])):
            parts = _cube_literals(cube, var_index, xvars, i, ap_preds)
            parts.append(state_at(dst, fol.IntAdd(i, 1)))
            disjuncts.append(fol.And(tuple(parts)))
        step_conjuncts.append(fol.Implies(state_at(q, i),
                                          fol.Or(tuple(disjuncts))))
    trans = fol.Forall("i", fol.INT_SORT, fol.And(tuple(step_conjuncts)))

    rejecting = [q for q in states if q not in accepting]
    acceptance = fol.Forall("i", fol.INT_SORT, fol.Exists(
        "i2", fol.INT_SORT,
        fol.And(tuple([fol.IntLess(i, i2)] +
                      [fol.Not(state_at(q, i2)) for q in sorted(rejecting)]))))

    formula = _wrap_prefix(phi, fol.And((init, trans, acceptance)))
    return EncodedProblem(sig, formula, EncodingKind.LIA, provenance)


# ---------------------------------------------------------------------------
# Constructive finite interpretation
# ---------------------------------------------------------------------------

def build_finite_interpretation(phi: F.HyperFormula, nsa: SymbolicAutomaton,
                                model: LassoTraceSet) -> fol.FiniteInterpretation:
    """Finite interpretation of the func encoding built from a trace model.

    Time is interpreted cyclically: positions 0..M_stem+M_loop-1 where
    M_stem is the longest stem among the model's traces and the chosen
    automaton runs (at least 1), M_loop the least common multiple of all
    their loop lengths, and succ wraps the last position back to M_stem.
    State predicates follow one fixed accepting lasso run per satisfying
    trace tuple.  Raises NotAModelError if the model does not satisfy the
    formula.
    """
    _check_nsa(phi, nsa)
    if not model.traces:
        raise NotAModelError("empty trace set")
    evaluator = Evaluator(phi, model.traces)
    if not evaluator.satisfied_by_all():
        raise NotAModelError("trace set does not satisfy the formula")

    n = len(phi.prefix)
    aps = _aps(phi)
    traces = model.traces

    # fixed accepting lasso runs for every satisfying trace tuple
    tuples = list(itertools.product(range(len(traces)), repeat=n))
    holds = evaluator.body_value(np.array(tuples, dtype=np.intp))
    runs = {}
    for index, value in zip(tuples, holds):
        if value:
            assignment = tuple(traces[i] for i in index)
            runs[assignment] = _accepting_lasso_run(nsa, phi, assignment, aps)

    stems = [len(t.stem) for t in traces] + [len(r[0]) for r in runs.values()]
    loops = [len(t.loop) for t in traces] + [len(r[1]) for r in runs.values()]
    m_stem = max(1, max(stems))
    m_loop = 1
    for l in loops:
        m_loop = math.lcm(m_loop, l)
        if m_stem + m_loop > POSITION_CAP:
            raise LcmOverflowError("cyclic time domain exceeds the position cap")
    size = m_stem + m_loop

    _, ap_preds, state_preds, _ = _safety_signature(phi, nsa, False)

    domains = {TRACE_SORT: tuple(traces), TIME_SORT: tuple(range(size))}
    functions = {
        "i0": {(): 0},
        "t0": {(): traces[0]},
        "succ": {(k,): (k + 1 if k + 1 < size else m_stem) for k in range(size)},
    }
    predicates: dict = {name: set() for name in ap_preds.values()}
    predicates.update({name: set() for name in state_preds.values()})
    for t in traces:
        for k in range(size):
            letter = t.at(k)
            for ap in aps:
                if ap in letter:
                    predicates[ap_preds[ap]].add((t, k))
    for assignment, (run_stem, run_loop) in runs.items():
        for k in range(size):
            if k < len(run_stem):
                q = run_stem[k]
            else:
                q = run_loop[(k - len(run_stem)) % len(run_loop)]
            predicates[state_preds[q]].add(assignment + (k,))

    return fol.FiniteInterpretation(domains, functions, predicates)


def _accepting_lasso_run(nsa: SymbolicAutomaton, phi: F.HyperFormula,
                         assignment, aps):
    """A lasso-shaped run avoiding bad states on the combined word."""
    stem_len = max((len(t.stem) for t in assignment), default=0)
    loop_len = 1
    for t in assignment:
        loop_len = math.lcm(loop_len, len(t.loop))
    n_pos = stem_len + loop_len

    letters = []
    for k in range(n_pos):
        letter = set()
        for t, var in zip(assignment, phi.variables):
            for ap in t.at(k):
                letter.add((ap, var))
        letters.append(frozenset(letter))

    bad = nsa.acceptance.bad
    succs: dict = {}
    for src, cube, dst in nsa.edges:
        if src not in bad and dst not in bad:
            succs.setdefault(src, []).append((cube, dst))

    def advance(p):
        return p + 1 if p + 1 < n_pos else stem_len

    def bfs(start_nodes, target=None):
        parents = {node: None for node in start_nodes}
        queue = list(start_nodes)
        while queue:
            node = queue.pop(0)
            q, p = node
            sigma = letters[p]
            for cube, dst in sorted(succs.get(q, ()),
                                    key=lambda cd: (cd[1], cd[0].key())):
                if not cube.matches(sigma):
                    continue
                nxt = (dst, advance(p))
                if nxt == target:
                    path = [nxt, node]
                    while parents[node] is not None:
                        node = parents[node]
                        path.append(node)
                    return list(reversed(path))
                if nxt not in parents:
                    parents[nxt] = node
                    queue.append(nxt)
        return None

    starts = [(q, 0) for q in sorted(nsa.initial) if q not in bad]
    reachable = set(starts)
    queue = list(starts)
    while queue:
        q, p = queue.pop(0)
        sigma = letters[p]
        for cube, dst in succs.get(q, ()):
            if cube.matches(sigma) and (dst, advance(p)) not in reachable:
                reachable.add((dst, advance(p)))
                queue.append((dst, advance(p)))

    for node in sorted(reachable):
        q, p = node
        if p < stem_len:
            continue
        cycle = bfs([node], target=node)
        if cycle is None:
            continue
        path = bfs(starts, target=node) if node not in starts else [node]
        if path is None:
            continue
        run_stem = [q for q, _ in path[:-1]]
        run_loop = [q for q, _ in cycle[:-1]]
        return run_stem, run_loop
    raise EncoderError("no accepting lasso run found on a satisfying tuple")
