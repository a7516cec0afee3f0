"""Equisatisfiable first-order encodings of HyperLTL formulas.

One construction: the quantifier prefix is mirrored onto trace-sorted
variables x1..xn, and one predicate per automaton state, over the traces
and a time point, follows a run of the body's automaton along time.  The
initial states hold at the first time point, and a state at time i
implies one of its edges: the edge's literals at i and its target at the
successor of i.  The three encodings differ only in how time and its
successor are written and in how acceptance is asserted:

* func: sort Time with a constant i0 and a successor *function* succ;
  needs a safety automaton, on which every infinite run is accepting, so
  the initial states and the steps assert all of acceptance.  The
  automaton has no bad state: asserting that one never holds would make
  every step into it false, and a model without it extends to one with
  it by leaving it empty, so both encodings are equisatisfiable.
* pred: like func with a successor *predicate* and a seriality axiom; each
  step to a successor is an existentially quantified time point.
* lia: builtin Int time from 0 with successor i + 1, modulo linear integer
  arithmetic; works for any automaton, with one acceptance conjunct per
  acceptance set: "beyond every time point there is one where no state
  outside the set holds".  A safety automaton has no set and no conjunct.

An edge's label is encoded by instantiating only the literals it holds:
the positive literals of its even bits, then the negative literals of its
odd bits, each in the order of the automaton's sorted atoms.  A state's
steps are written in the order of its edges in the automaton.  The
problem is a DAG: each node is built once and shared by its occurrences,
one edge step per (label, target state) pair.  Each time term (i, its
successor, i2 and the first point) has one argument tuple x1..xn, t,
which all state atoms at it hold, and one list of those atoms indexed by
state: every state at i and at the successor, the states that some
acceptance set rejects at i2, the initial states at the first point.

build_finite_interpretation realizes the constructive finite-model
direction: from a finite lasso-trace model it builds a finite
interpretation with cyclic time that satisfies the func encoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import formula as F
from . import fol
from .automaton import SymbolicAutomaton, lasso_run

TRACE_SORT = "Trace"
TIME_SORT = "Time"
# positions of a cyclic time domain, and of a lasso word in the oracle
POSITION_CAP = 1 << 20


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


def escape_ap(ap: str) -> str:
    """Injective map of AP names into [A-Za-z0-9_]+, by fixed-width escapes."""
    out = []
    for ch in ap:
        if ch.isascii() and ch.isalnum():
            out.append(ch)
        elif ch == "_":
            out.append("__")
        elif ord(ch) <= 0xFF:
            out.append(f"_x{ord(ch):02x}")
        else:
            out.append(f"_u{ord(ch):06x}")
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


def _aps(atoms) -> list:
    return sorted({ap for ap, _ in atoms})


def _check_nsa(phi: F.HyperFormula, aut: SymbolicAutomaton):
    if aut.accepting:
        raise KindMismatchError("this encoding needs a safety automaton")
    var_names = set(phi.variables)
    if not {v for _, v in aut.atoms} <= var_names:
        raise EncoderError("automaton atoms mention unbound trace variables")


def encode_func(phi: F.HyperFormula, nsa: SymbolicAutomaton) -> EncodedProblem:
    """Pure-FOL encoding with a successor function over the Time sort."""
    return _encode(phi, nsa, EncodingKind.FUNC_SAFETY)


def encode_pred(phi: F.HyperFormula, nsa: SymbolicAutomaton) -> EncodedProblem:
    """Successor-predicate variant: seriality axiom plus existential steps."""
    return _encode(phi, nsa, EncodingKind.PRED_SAFETY)


def encode_lia(phi: F.HyperFormula, aut: SymbolicAutomaton) -> EncodedProblem:
    """Encoding modulo linear integer arithmetic; time is the Int sort."""
    return _encode(phi, aut, EncodingKind.LIA)


def _encode(phi: F.HyperFormula, aut: SymbolicAutomaton,
            kind: EncodingKind) -> EncodedProblem:
    """State predicates follow the automaton along the time sort of kind."""
    lia = kind is EncodingKind.LIA
    if not lia:
        _check_nsa(phi, aut)
    n = len(phi.prefix)
    aps = _aps(phi.atoms)
    ap_preds = {ap: ap_pred_name(ap) for ap in aps}
    state_preds = [state_pred_name(q) for q in aut.states]

    # the time sort, its first point and its successor declarations
    witness = fol.FunDecl("t0", (), TRACE_SORT)
    predicates = []
    if lia:
        time = fol.INT_SORT
        sorts = (fol.Sort(TRACE_SORT), fol.Sort(time, builtin_int=True))
        functions = [witness]
        start = fol.IntConst(0)
    else:
        time = TIME_SORT
        sorts = (fol.Sort(TRACE_SORT), fol.Sort(time))
        functions = [fol.FunDecl("i0", (), time), witness]
        if kind is EncodingKind.FUNC_SAFETY:
            functions.append(fol.FunDecl("succ", (time,), time))
        else:
            predicates.append(fol.PredDecl("succ", (time, time)))
        start = fol.FunApp("i0")
    for ap in aps:
        predicates.append(fol.PredDecl(ap_preds[ap], (TRACE_SORT, time)))
    for name in state_preds:
        predicates.append(fol.PredDecl(name,
                                       tuple([TRACE_SORT] * n) + (time,)))
    sig = fol.Signature(sorts, tuple(functions), tuple(predicates))

    xvars = _trace_vars(phi)
    var_index = {v: j for j, v in enumerate(phi.variables)}
    xs = tuple(fol.Var(x, TRACE_SORT) for x in xvars)
    i = fol.Var("i", time)
    i2 = fol.Var("i2", time)

    # every node below is built once and shared by all its occurrences, so
    # the problem is a DAG whose distinct objects are its distinct nodes
    # and the emitters format each of them once
    def atoms_at(time_term, states) -> list:
        """The state atoms at time_term, indexed by state: one for each of
        states, all holding one argument tuple, and None for the others."""
        args = xs + (time_term,)
        return [fol.PredApp(name, args) if q in states else None
                for q, name in enumerate(state_preds)]

    # succ is the successor term of i (func, lia) or atom (pred); targets
    # holds the successor state of an edge step, indexed by target state
    if kind is EncodingKind.FUNC_SAFETY:
        succ = fol.FunApp("succ", (i,))
        targets = atoms_at(succ, aut.states)
    elif kind is EncodingKind.PRED_SAFETY:
        succ = fol.PredApp("succ", (i, i2))
        targets = [fol.Exists("i2", time, fol.And((succ, later)))
                   for later in atoms_at(i2, aut.states)]
    else:
        succ = fol.IntAdd(i, 1)
        targets = atoms_at(succ, aut.states)

    # each atom's literals at i, by its position in the automaton's atoms
    positive = [fol.PredApp(ap_preds[ap], (xs[var_index[var]], i))
                for ap, var in aut.atoms]
    negative = [fol.Not(lit) for lit in positive]
    evens = (1 << 2 * len(positive)) // 3  # the positive bit of every atom

    # the edge step, per (label, target state) pair: the successor state,
    # then or before the label's literals
    steps: dict = {}

    def step(label: int, dst: int) -> fol.FolFormula:
        found = steps.get((label, dst))
        if found is None:
            parts = [] if lia else [targets[dst]]
            for literals, bits in ((positive, label & evens),
                                   (negative, label >> 1 & evens)):
                while bits:
                    low = bits & -bits  # bit 2k, of atom k
                    parts.append(literals[low.bit_length() >> 1])
                    bits ^= low
            if lia:
                parts.append(targets[dst])
            found = steps[label, dst] = fol.And(tuple(parts))
        return found

    first = atoms_at(start, aut.initial)
    init = fol.Or(tuple(first[q] for q in sorted(aut.initial)))

    now = atoms_at(i, aut.states)
    steps_of = [[] for _ in aut.states]
    for src, label, dst in aut.edges:
        steps_of[src].append(step(label, dst))
    trans = fol.Forall("i", time, fol.And(tuple(
        [fol.Implies(now[q], fol.Or(tuple(found)))
         for q, found in enumerate(steps_of)])))

    matrix = [init, trans]
    if kind is EncodingKind.PRED_SAFETY:
        matrix.insert(0, fol.Forall("i", time, fol.Exists("i2", time, succ)))
    later = atoms_at(i2, {q for accepting in aut.accepting
                          for q in aut.states if q not in accepting})
    for accepting in aut.accepting:  # func and pred have no sets
        matrix.append(fol.Forall("i", time, fol.Exists("i2", time, fol.And(
            tuple([fol.IntLess(i, i2)]
                  + [fol.Not(later[q]) for q in aut.states
                     if q not in accepting])))))

    formula = _wrap_prefix(phi, fol.And(tuple(matrix)))
    return EncodedProblem(sig, formula, kind)


# ---------------------------------------------------------------------------
# Constructive finite interpretation
# ---------------------------------------------------------------------------

def build_finite_interpretation(phi: F.HyperFormula, nsa: SymbolicAutomaton,
                                model) -> fol.FiniteInterpretation:
    """Finite interpretation of the func encoding built from a trace model,
    an oracle.LassoTraceSet.

    Time is interpreted cyclically: positions 0..M_stem+M_loop-1 where
    M_stem is the longest stem among the model's traces and the chosen
    automaton runs (at least 1), M_loop the least common multiple of all
    their loop lengths, and succ wraps the last position back to M_stem.
    State predicates follow one fixed accepting lasso run per satisfying
    trace tuple.  Raises NotAModelError if the model does not satisfy the
    formula.
    """
    # numpy and the evaluator load here, not on the paths that emit
    import numpy as np

    from .oracle import Evaluator, render_traces

    _check_nsa(phi, nsa)
    if not model.traces:
        raise NotAModelError("empty trace set")
    aps = _aps(phi.atoms)
    traces = model.traces
    evaluator = Evaluator(phi, render_traces(traces, aps))
    if not evaluator.satisfied_by_all():
        raise NotAModelError("trace set does not satisfy the formula")

    n = len(phi.prefix)

    # fixed accepting lasso runs for every satisfying trace tuple
    k = len(traces)
    holds = evaluator.body_value(
        *(np.arange(k).reshape((k,) + (1,) * (n - 1 - v)) for v in range(n)))
    runs = {}
    for index in np.argwhere(holds):  # in itertools.product order
        assignment = tuple(traces[i] for i in index)
        runs[assignment] = _accepting_lasso_run(nsa, phi, assignment)

    stems = [len(t.stem) for t in traces] + [len(r[0]) for r in runs.values()]
    loops = [len(t.loop) for t in traces] + [len(r[1]) for r in runs.values()]
    m_stem = max(1, max(stems))
    m_loop = 1
    for l in loops:
        m_loop = math.lcm(m_loop, l)
        if m_stem + m_loop > POSITION_CAP:
            raise LcmOverflowError("cyclic time domain exceeds the position cap")
    size = m_stem + m_loop

    ap_preds = {ap: ap_pred_name(ap) for ap in aps}
    state_preds = {q: state_pred_name(q) for q in nsa.states}

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
                         assignment):
    """An accepting lasso-shaped run on the combined word."""
    stem_len = max((len(t.stem) for t in assignment), default=0)
    loop_len = math.lcm(*(len(t.loop) for t in assignment))
    letters = [frozenset((ap, var) for t, var in zip(assignment, phi.variables)
                         for ap in t.at(k))
               for k in range(stem_len + loop_len)]
    run = lasso_run(nsa, letters[:stem_len], letters[stem_len:])
    if run is None:
        raise EncoderError("no accepting lasso run found on a satisfying tuple")
    return run
