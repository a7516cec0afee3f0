"""Benchmark formula families and a verdict-table harness.

Families: quantitative noninterference implications, model-size-enforcing
formulas, a parameterized unsatisfiable family, bounded GNI/NI implication
queries, hand-crafted information-flow instances, and seeded random
formulas.  Implication checks phi_A -> phi_B are reduced to satisfiability
of phi_A && !phi_B; negation flips the quantifier prefix, and conjunction
prenexes with fresh trace variables.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass

from . import formula as F
from .fol import Verdict
from .formula import (And, Atom, Globally, HyperFormula, Iff, Implies, Next,
                      Not, Or, Quantifier, TrueConst, bounded_eventually,
                      bounded_globally, make_hyper, nnext)
from . import pipeline as P


@dataclass(frozen=True)
class BenchCase:
    id: str
    family: str
    formula: HyperFormula
    expected: object  # Verdict or None when open
    source: str


# ---------------------------------------------------------------------------
# HyperLTL-level combinators
# ---------------------------------------------------------------------------

def negate(phi: HyperFormula) -> HyperFormula:
    """Negation: flip every quantifier and negate the body."""
    flipped = tuple(
        (Quantifier.EXISTS if q is Quantifier.FORALL else Quantifier.FORALL, v)
        for q, v in phi.prefix)
    return HyperFormula(flipped, Not(phi.body))


def _rename_body(body: F.LtlBody, mapping: dict) -> F.LtlBody:
    renamed = {}  # node -> the node renamed
    for node in F.postorder(body):
        cls = node.__class__
        if cls in F._BINARY:
            new = cls(renamed[node.left], renamed[node.right])
        elif cls in F._UNARY:
            new = cls(renamed[node.arg])
        else:
            new = Atom(node.ap, mapping[node.var]) if cls is Atom else node
        renamed[node] = new
    return renamed[body]


def conjoin(*phis: HyperFormula) -> HyperFormula:
    """Prenex conjunction with fresh trace variables p1, p2, ...

    Sound because the bodies are quantifier-free and the renamed variable
    sets are disjoint, so quantifiers commute with the conjunction.
    """
    prefix = []
    bodies = []
    counter = 0
    for phi in phis:
        mapping = {}
        for quant, var in phi.prefix:
            counter += 1
            mapping[var] = f"p{counter}"
            prefix.append((quant, mapping[var]))
        bodies.append(_rename_body(phi.body, mapping))
    body = bodies[0]
    for extra in bodies[1:]:
        body = And(body, extra)
    return make_hyper(prefix, body)


def implication_query(phi_a: HyperFormula, phi_b: HyperFormula) -> HyperFormula:
    """Satisfiable iff phi_a does not imply phi_b."""
    return conjoin(phi_a, negate(phi_b))


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def gen_qn(c: int, inputs, outputs) -> HyperFormula:
    """At most c distinct outputs per input, with c+1 universal quantifiers."""
    if c < 1:
        raise ValueError("qn needs c >= 1")
    if not inputs or not outputs:
        raise ValueError("qn needs nonempty input and output AP sets")
    vars_ = [f"p{i}" for i in range(c + 1)]
    same_inputs = None
    for i in range(1, c + 1):
        for a in inputs:
            eq = Iff(Atom(a, vars_[i]), Atom(a, vars_[0]))
            same_inputs = eq if same_inputs is None else And(same_inputs, eq)
    distinct_outputs = None
    for i in range(c + 1):
        for j in range(i + 1, c + 1):
            diff = None
            for a in outputs:
                d = Not(Iff(Atom(a, vars_[i]), Atom(a, vars_[j])))
                diff = d if diff is None else Or(diff, d)
            distinct_outputs = (diff if distinct_outputs is None
                                else And(distinct_outputs, diff))
    body = Not(And(same_inputs, distinct_outputs))
    return make_hyper([(Quantifier.FORALL, v) for v in vars_], body)


def gen_enforce_model(n: int, b: int) -> HyperFormula:
    """n existential traces that pairwise differ on "a" within b steps.

    Satisfiable iff n <= 2^b: the first b positions give only 2^b distinct
    on/off patterns to tell traces apart.
    """
    if n < 1 or b < 1:
        raise ValueError("enforce_model needs n, b >= 1")
    vars_ = [f"p{i + 1}" for i in range(n)]
    body = None
    for i in range(n):
        for j in range(i + 1, n):
            diff = bounded_eventually(
                b, Not(Iff(Atom("a", vars_[i]), Atom("a", vars_[j]))))
            body = diff if body is None else And(body, diff)
    if body is None:
        body = TrueConst()
    return make_hyper([(Quantifier.EXISTS, v) for v in vars_], body)


def gen_unsat(n: int) -> HyperFormula:
    """Unsatisfiable for every n >= 0: "a" holds initially on some trace and
    must keep reappearing one step later, yet is forbidden from step n on."""
    if n < 0:
        raise ValueError("unsat needs n >= 0")
    body = And(And(Atom("a", "p3"),
                   Globally(Implies(Atom("a", "p1"), Next(Atom("a", "p2"))))),
               nnext(n, Globally(Not(Atom("a", "p1")))))
    return make_hyper([(Quantifier.FORALL, "p1"), (Quantifier.EXISTS, "p2"),
                       (Quantifier.EXISTS, "p3")], body)


def _low_obs_equal(b: int, var_a: str, var_b: str) -> F.LtlBody:
    return bounded_globally(b, And(Iff(Atom("l", var_a), Atom("l", var_b)),
                                   Iff(Atom("o", var_a), Atom("o", var_b))))


def gen_gni(b: int) -> HyperFormula:
    """Bounded generalized noninterference over APs l, o, h."""
    body = And(_low_obs_equal(b, "p1", "p3"),
               bounded_globally(b, Iff(Atom("h", "p2"), Atom("h", "p3"))))
    return make_hyper([(Quantifier.FORALL, "p1"), (Quantifier.FORALL, "p2"),
                       (Quantifier.EXISTS, "p3")], body)


def gen_ni(b: int) -> HyperFormula:
    """Bounded non-inference: a low-equivalent witness with h never set."""
    body = And(_low_obs_equal(b, "p1", "p2"),
               bounded_globally(b, Not(Atom("h", "p2"))))
    return make_hyper([(Quantifier.FORALL, "p1"), (Quantifier.EXISTS, "p2")],
                      body)


def gen_gni_ni(b: int):
    """(gni, ni, gni->ni query, ni->gni query), all bounded by b."""
    if b < 1:
        raise ValueError("bound must be >= 1")
    gni = gen_gni(b)
    ni = gen_ni(b)
    return gni, ni, implication_query(gni, ni), implication_query(ni, gni)


def _leak(b: int) -> HyperFormula:
    # the high input flows directly to the output
    return make_hyper([(Quantifier.FORALL, "p1")],
                      bounded_globally(b, Iff(Atom("h", "p1"), Atom("o", "p1"))))


def _two_high_inputs(b: int) -> HyperFormula:
    return make_hyper(
        [(Quantifier.EXISTS, "p1"), (Quantifier.EXISTS, "p2")],
        bounded_eventually(b, Not(Iff(Atom("h", "p1"), Atom("h", "p2")))))


def _anonymity(b: int) -> HyperFormula:
    """2-anonymity: every trace's low observation is also produced by two
    witnesses whose high inputs differ somewhere within the bound."""
    body = And(And(_low_obs_equal(b, "pw1", "p"), _low_obs_equal(b, "pw2", "p")),
               bounded_eventually(b, Not(Iff(Atom("h", "pw1"),
                                             Atom("h", "pw2")))))
    return make_hyper([(Quantifier.FORALL, "p"), (Quantifier.EXISTS, "pw1"),
                       (Quantifier.EXISTS, "pw2")], body)


def _observational_determinism(b: int) -> HyperFormula:
    """All traces look alike: equal valuation of every AP, pointwise.

    The weaker readings (equal o only, or equal o and l) leave the high
    input unconstrained and are satisfiable together with 2-anonymity, so
    they cannot reproduce the intended incompatibility; see the anon_od
    case's source note.
    """
    eq = And(And(Iff(Atom("o", "p1"), Atom("o", "p2")),
                 Iff(Atom("l", "p1"), Atom("l", "p2"))),
             Iff(Atom("h", "p1"), Atom("h", "p2")))
    return make_hyper([(Quantifier.FORALL, "p1"), (Quantifier.FORALL, "p2")],
                      bounded_globally(b, eq))


def gen_handcrafted(b: int = 1):
    """Six hand-crafted information-flow instances, bounded uniformly by b."""
    gni = gen_gni(b)
    ni = gen_ni(b)
    no_high = make_hyper([(Quantifier.EXISTS, "p1")],
                         bounded_globally(b, Not(Atom("h", "p1"))))
    cases = [
        BenchCase(
            "gni_to_ni_plus", "handcrafted",
            conjoin(gni, no_high, negate(ni)), Verdict.UNSAT,
            "GNI implies NI once some trace has no high input: instantiate "
            "GNI with that trace as the high-donor"),
        BenchCase(
            "gni_leak", "handcrafted",
            conjoin(gni, _leak(b)), Verdict.SAT,
            "GNI tolerates a direct h-to-o flow, e.g. every h sequence "
            "present with matching o and constant l"),
        BenchCase(
            "gni_leak2", "handcrafted",
            conjoin(gni, _leak(b), _two_high_inputs(b)), Verdict.UNSAT,
            "with the leak, matching one trace's o while copying a "
            "different trace's h is contradictory"),
        BenchCase(
            "ni_leak2", "handcrafted",
            conjoin(ni, _leak(b), _two_high_inputs(b)), Verdict.UNSAT,
            "some trace has h set somewhere, so its o is set there; its "
            "NI witness must match o with h never set, against the leak"),
        BenchCase(
            "anon_od", "handcrafted",
            conjoin(_anonymity(b), _observational_determinism(b)),
            Verdict.UNSAT,
            "2-anonymity needs two witnesses with differing h; "
            "determinism as trace-uniformity forces all valuations equal. "
            "Formalization note: determinism must constrain h (not only "
            "o/l), otherwise the conjunction is satisfiable"),
        BenchCase(
            "anon_leak", "handcrafted",
            conjoin(_anonymity(b), _leak(b)), Verdict.UNSAT,
            "anonymity witnesses share the observed o, hence share h "
            "under the leak, but must differ in h"),
    ]
    return cases


def gen_random(prefix_shape, body_size: int, atom_count: int,
               safe_only: bool, seed: int) -> HyperFormula:
    """Seeded random formula; with safe_only the body is drawn from the
    syntactically safe NNF fragment (no until/eventually)."""
    if body_size < 1:
        raise ValueError("body_size must be >= 1")
    if atom_count < 1:
        raise ValueError("atom_count must be >= 1")
    if not prefix_shape:
        raise ValueError("prefix_shape must name at least one quantifier")
    rng = random.Random(seed)
    quants = [Quantifier(q) if not isinstance(q, Quantifier) else q
              for q in prefix_shape]
    vars_ = [f"p{i + 1}" for i in range(len(quants))]
    aps = [chr(ord("a") + i) for i in range(atom_count)]

    def literal():
        atom = Atom(rng.choice(aps), rng.choice(vars_))
        return Not(atom) if rng.random() < 0.5 else atom

    unary = [Next, Globally]
    binary = [And, Or, F.WeakUntil, F.Release]
    if not safe_only:
        unary = unary + [F.Eventually]
        binary = binary + [F.Until]

    def gen(size: int) -> F.LtlBody:
        if size <= 1:
            return literal()
        if size == 2 or rng.random() < 0.4:
            return rng.choice(unary)(gen(size - 1))
        left = rng.randint(1, size - 2)
        return rng.choice(binary)(gen(left), gen(size - 1 - left))

    return make_hyper(list(zip(quants, vars_)), gen(body_size))


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def qn_suite(limit: int = 4, inputs=("i",), outputs=("o1", "o2")):
    cases = []
    for n in range(1, limit + 1):
        for m in range(1, limit + 1):
            query = implication_query(gen_qn(n, inputs, outputs),
                                      gen_qn(m, inputs, outputs))
            expected = Verdict.UNSAT if n <= m else Verdict.SAT
            cases.append(BenchCase(
                f"qn_{n}_implies_{m}", "qn", query, expected,
                "allowing at most n outputs implies allowing at most m "
                "iff n <= m"))
    return cases


def enforce_model_suite(ns=(1, 2, 3, 4, 5), bs=(1, 2)):
    return [BenchCase(
        f"enforce_model_{n}_{b}", "enforce_model", gen_enforce_model(n, b),
        Verdict.SAT if n <= 2 ** b else Verdict.UNSAT,
        "satisfiable iff n <= 2^b")
        for b in bs for n in ns]


def unsat_suite(ns=(0, 1, 2, 3, 4, 5)):
    return [BenchCase(f"unsat_{n}", "unsat", gen_unsat(n), Verdict.UNSAT,
                      "unsatisfiable for every n")
            for n in ns]


def gni_ni_suite(bs=(1, 2, 3)):
    cases = []
    for b in bs:
        _, _, gni_to_ni, ni_to_gni = gen_gni_ni(b)
        cases.append(BenchCase(
            f"gni_implies_ni_{b}", "gni_ni", gni_to_ni, Verdict.SAT,
            "refutable with a model where no trace avoids high input"))
        cases.append(BenchCase(
            f"ni_implies_gni_{b}", "gni_ni", ni_to_gni, Verdict.SAT,
            "refutable with two traces carrying distinct high inputs"))
    return cases


FAMILIES = {
    "qn": qn_suite,
    "enforce_model": enforce_model_suite,
    "unsat": unsat_suite,
    "gni_ni": gni_ni_suite,
    "handcrafted": gen_handcrafted,
}

CSV_COLUMNS = ["id", "family", "expected", "verdict", "solver", "encoding",
               "time_sec", "status"]


def run_table(cases, encoding: str, cfgs, max_workers: int = 4):
    """Solve every case and tabulate verdicts against expectations.

    Returns (csv_text, ok); ok is False when any solver verdict conflicts
    with the case's expected verdict, or when portfolio members disagree
    on a case (a conflict row).  Missing solvers yield skipped rows.  The
    solver machinery and the thread pool are imported here, where they run.
    """
    from concurrent.futures import ThreadPoolExecutor

    from . import solvers as S

    def solve(case: BenchCase):
        start = time.monotonic()
        kind = P.choose_encoding(case.formula, encoding)
        try:
            result = P.solve(case.formula, kind, cfgs)
        except S.SolverNotFoundError:
            return (case, None, "", "skip", time.monotonic() - start,
                    kind.value)
        except S.SoundnessConflictError:
            return (case, None, "portfolio", "conflict",
                    time.monotonic() - start, kind.value)
        verdict, solver = result.verdict, result.solver
        elapsed = time.monotonic() - start
        if case.expected is None or verdict is Verdict.UNKNOWN:
            status = "ok" if case.expected is None else "undecided"
        else:
            status = "ok" if verdict == case.expected else "mismatch"
        return case, verdict, solver, status, elapsed, kind.value

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        rows = list(pool.map(solve, cases))

    rows.sort(key=lambda r: r[0].id)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    ok = True
    for case, verdict, solver, status, elapsed, enc in rows:
        if status in ("mismatch", "conflict"):
            ok = False
        writer.writerow([
            case.id, case.family,
            case.expected.value if case.expected is not None else "open",
            verdict.value if verdict is not None else "",
            solver, enc, f"{elapsed:.3f}", status,
        ])
    return buffer.getvalue(), ok
