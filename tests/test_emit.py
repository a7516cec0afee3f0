import dataclasses
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from hypersat import bench, fol
from hypersat import emit as E
from hypersat import formula as F
from hypersat.automaton import accepts_lasso
from hypersat.emit import OutputFormat, emit, emit_smtlib, emit_tptp
from hypersat.encoder import EncodedProblem, EncodingKind
from hypersat.formula import to_nnf
from hypersat.pipeline import body_automaton, build_problem, choose_encoding

from helpers import (buchi_bodies, naive_eval, random_lasso,
                     safety_emit_style_cases)

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of the SMT-LIB and TPTP text per (case, encoding).  The func and
# pred cases have forms that break over lines, and three cases sit at the
# 96-column width (test_golden_cases_meet_the_width checks this):
# qn_1_implies_4 has an SMT-LIB line of exactly 96 columns and TPTP lines
# up to 94, qn_3_implies_3 under lia a step conjunct that fits in exactly
# 96 columns, and enforce_model_4_1 under pred a form of 97 that breaks.
# qn_1_implies_4 and enforce_model_4_1 have a dead initial state, so their
# init is false.  The pred cases carry the seriality axiom and the
# existential successor steps; the lia cases reach the UFLIA logic and the
# integer terms.  Their bodies are safe, so their automata have no
# acceptance set and the lia problems no acceptance conjunct.
GOLDEN = {
    ("qn_1_implies_1", "auto"): (
        "93f36d7ffab7a2e95a845ce4e44d69050d6fffb540013277cd24c3831b79fb66",
        "d900ce9bbb0dd18d105728b3d5f1777a9e5ebb898dcbc00ab5e50a7202458938"),
    ("gni_implies_ni_2", "auto"): (
        "b121614e65e03c3352cc5ed22a1fe710750826920095f72e83856b9363233cb7",
        "1eafee323763f5f6bbbcddf95917c5a776d789b832a07b668bd008cc56a4f61f"),
    ("enforce_model_3_2", "auto"): (
        "74544e65d07186f551804766edfc002ab790c349def3390fa331609c07b2f84e",
        "811753adf6ecf87135a601af1ba2b550e748b8ae73ff49575f85a13a76c33957"),
    ("gni_implies_ni_2", "pred"): (
        "dceffbf68da8b1819e90040ead4d629eef0b15bf11214df536e2be5dfa23be07",
        "d4f28313a8906fd9e02ad9ec0d840e8a25ccb250bbb55f676eb0c50b2d8e4468"),
    ("enforce_model_3_2", "pred"): (
        "7dd6876c61f83e36c75939066d3302f47c51eeccd65e6d7f36195bcedfcb2316",
        "6ed191b30e8862997042456a8bab53da0aaee7ac5d52c5f4fc745c4ced437c5b"),
    ("qn_1_implies_4", "auto"): (
        "807dd0dcbaa9756c8598d02fc706f5961ca4813d65091db4c6531291b4d0c3ab",
        "c3115176f5fabfb53b9ffc215dcd419a1d8c49d5aa246c18a4ccf699dfd459f0"),
    ("unsat_5", "pred"): (
        "0cbc94bc0e83a5d0b2bd1f9346e48e8b9f2b895e4863a0ccd6a99fad06fcc991",
        "c3237490377fc9d7195f8dd2b40ec04e9883c7e243ed00ec70be8ffc1d8c6d78"),
    ("enforce_model_4_1", "pred"): (
        "413211f3417a677d3ba00364a66d75fe63a7df1733a448d7128f3df791088210",
        "3e5c16a75c38e2a1ec319f7b6ec20df12a2191f763a40b1169248b747cebd2cf"),
    ("unsat_2", "auto"): (
        "a7a80ae8635b345056380665b671ef232c3ebd81a7f716e0fb0e644e580372bc",
        "cb4ca7ffe4fce8a8bedc74aa584ed3739bec0a9041264a5bae1a81e8f6f4eafe"),
    ("gni_leak", "lia"): (
        "139279dce8f603abd097bf4f1e8c38c66058c9fda138e50ba2e4949de9c0a19d",
        "c278f395c2f55ad975c1c8882e43122d0dcde437a83dd11f5be8baa7e72afddd"),
    ("unsat_1", "lia"): (
        "5622daa8956aded7ec95ecfdd247fc1ae46872a34c1adde46ba3f7c2dc97de58",
        "fbccaba2dce0e843361adc5fbbcc264e4d5b8d0b262f72f582326650f3db7205"),
    ("qn_3_implies_3", "lia"): (
        "4d1448ae2f34318dd11e613356dee202912d977c3847e0eeec95628613e8b02e",
        "320ff3e1f19a35b47320a6375c1b052e189252e2f51958739bad37c8061424a0"),
}

CASES = {c.id: c for family in bench.FAMILIES.values() for c in family()}


def problem_for(case_id: str, encoding: str):
    phi = CASES[case_id].formula
    return build_problem(phi, choose_encoding(phi, encoding))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module", params=sorted(GOLDEN), ids="/".join)
def emitted(request):
    problem = problem_for(*request.param)
    return request.param, emit_smtlib(problem), emit_tptp(problem)


def test_golden_bytes(emitted):
    key, smt, tptp = emitted
    assert (sha256(smt), sha256(tptp)) == GOLDEN[key]


# sha256 over the SMT-LIB and TPTP of every run of a group, in order:
# the 35 safety-emit-style built-in cases under auto (func) and pred, and
# the handcrafted, unsat and gni_ni cases under lia.  In func/pred,
# enforce_model_5_2 has no state: its one tableau state with a cover leads
# only to states without one, so it has no infinite run.  The lia bodies
# are safe, so their problems have no acceptance conjunct.
AGGREGATE_GOLDEN = {
    "func/pred":
        "b97887b2027f114ede0dba6c219fcffe64a95b81fc39b2e99acf530f5e9f7fb0",
    "lia":
        "1d0fe86fe7ff48b7cc51ae0295e82d9ea16d0a04f4232885e628ca32a16d3440",
}


def test_aggregate_golden_bytes():
    groups = {
        "func/pred": [(case, encoding) for encoding in ("auto", "pred")
                      for case in safety_emit_style_cases()],
        "lia": [(case, "lia")
                for family in ("handcrafted", "unsat", "gni_ni")
                for case in bench.FAMILIES[family]()],
    }
    assert {group: len(runs) for group, runs in groups.items()} \
        == {"func/pred": 70, "lia": 18}
    digests = {}
    for group, runs in groups.items():
        digest = hashlib.sha256()
        for case, encoding in runs:
            problem = build_problem(case.formula,
                                    choose_encoding(case.formula, encoding))
            for text in (case.id, encoding, emit_smtlib(problem),
                         emit_tptp(problem)):
                digest.update(text.encode() + b"\0")
        digests[group] = digest.hexdigest()
    assert digests == AGGREGATE_GOLDEN


# sha256 over the lia SMT-LIB and TPTP of random bodies with at least one
# until/eventually (helpers.buchi_bodies), which the built-in cases never
# have: their states carry postponed obligations, their edge order comes
# from them, and each acceptance set gives one acceptance conjunct.  One of
# them (the 78th) has tableau states with no infinite run, which its
# automaton leaves out.  The automata are those of the rewritten bodies
# (formula.rewrite), which 22 of the 80 change, and which
# test_buchi_automata_accept_the_body_language checks against the bodies
# themselves.
BUCHI_GOLDEN = \
    "0a5aa46b9dc51801bcdf07e2710e8ccec3adacfbe139c44eb35cd2d7579417c3"


def liveness_nodes(node) -> set:
    """The distinct until/eventually subformulas of an NNF body."""
    found = {node} if isinstance(node, (F.Until, F.Eventually)) else set()
    for child in ("arg", "left", "right"):
        if hasattr(node, child):
            found |= liveness_nodes(getattr(node, child))
    return found


def test_buchi_golden_bytes():
    bodies = buchi_bodies()
    live = [len(liveness_nodes(to_nnf(phi.body))) for phi in bodies]
    assert min(live) >= 1 and sum(m >= 2 for m in live) >= 30
    digest = hashlib.sha256()
    for phi in bodies:
        problem = build_problem(phi, choose_encoding(phi, "lia"))
        for text in (F.pretty(phi), emit_smtlib(problem), emit_tptp(problem)):
            digest.update(text.encode() + b"\0")
    assert digest.hexdigest() == BUCHI_GOLDEN


def test_buchi_automata_accept_the_body_language():
    rng = random.Random(80)
    for phi in buchi_bodies():
        aut = body_automaton(phi, EncodingKind.LIA)
        atoms = sorted(phi.atoms)
        for _ in range(30):
            word, s, l = random_lasso(rng, atoms, 3, 3)
            assert accepts_lasso(aut, word[:s], word[s:]) \
                == naive_eval(phi.body, word, s, l), F.pretty(phi)


# The states, edges and acceptance sets of each built-in case's automaton,
# under auto (func) and under lia, as recorded before the tableau took its
# order from its construction: these do not depend on how the states are
# numbered, the acceptance sets ordered or the steps of a state ordered.
AUTOMATON_SIZES = {
    "qn_1_implies_1": (2, 49, 0),
    "qn_1_implies_2": (2, 289, 0),
    "qn_1_implies_3": (2, 289, 0),
    "qn_1_implies_4": (0, 0, 0),
    "qn_2_implies_1": (2, 129, 0),
    "qn_2_implies_2": (2, 769, 0),
    "qn_2_implies_3": (2, 769, 0),
    "qn_2_implies_4": (0, 0, 0),
    "qn_3_implies_1": (2, 241, 0),
    "qn_3_implies_2": (2, 1441, 0),
    "qn_3_implies_3": (2, 1441, 0),
    "qn_3_implies_4": (0, 0, 0),
    "qn_4_implies_1": (2, 385, 0),
    "qn_4_implies_2": (2, 2305, 0),
    "qn_4_implies_3": (2, 2305, 0),
    "qn_4_implies_4": (0, 0, 0),
    "enforce_model_1_1": (1, 1, 0),
    "enforce_model_2_1": (2, 3, 0),
    "enforce_model_3_1": (0, 0, 0),
    "enforce_model_4_1": (0, 0, 0),
    "enforce_model_5_1": (0, 0, 0),
    "enforce_model_1_2": (1, 1, 0),
    "enforce_model_2_2": (3, 6, 0),
    "enforce_model_3_2": (8, 25, 0),
    "enforce_model_4_2": (5, 19, 0),
    "enforce_model_5_2": (0, 0, 0),
    "unsat_0": (2, 2, 0),
    "unsat_1": (3, 4, 0),
    "unsat_2": (5, 8, 0),
    "unsat_3": (7, 12, 0),
    "unsat_4": (9, 16, 0),
    "unsat_5": (11, 20, 0),
    "gni_implies_ni_1": (2, 41, 0),
    "ni_implies_gni_1": (2, 25, 0),
    "gni_implies_ni_2": (5, 105, 0),
    "ni_implies_gni_2": (5, 61, 0),
    "gni_implies_ni_3": (10, 185, 0),
    "ni_implies_gni_3": (10, 105, 0),
    "gni_to_ni_plus": (2, 41, 0),
    "gni_leak": (2, 17, 0),
    "gni_leak2": (2, 33, 0),
    "ni_leak2": (2, 17, 0),
    "anon_od": (2, 65, 0),
    "anon_leak": (2, 17, 0),
}

# per Buchi body (buchi_bodies) under lia: states, edges, then the sizes
# of its acceptance sets, sorted
BUCHI_SIZES = [
    (2, 2, 2), (4, 9, 3), (9, 28, 6), (8, 35, 5), (6, 9, 5, 6),
    (12, 46, 7, 8, 11), (4, 9, 3), (7, 21, 4), (5, 13, 4, 4), (4, 8, 3),
    (6, 10, 5), (6, 15, 5, 5), (9, 28, 6, 6), (3, 7, 2), (4, 10, 2),
    (5, 14, 4, 4), (6, 10, 4), (2, 2, 1), (7, 19, 5, 5), (7, 22, 5, 6, 6),
    (4, 9, 3, 3), (9, 26, 6, 7), (8, 11, 6), (7, 13, 6), (8, 28, 5, 6, 6),
    (6, 13, 4), (4, 9, 3, 3), (3, 5, 2), (4, 6, 3), (7, 13, 5), (5, 8, 4, 4),
    (3, 6, 2), (7, 19, 6), (8, 17, 7, 7), (5, 13, 3, 3), (7, 21, 4, 5, 5),
    (3, 8, 2), (9, 31, 7, 7, 8, 8), (5, 10, 4), (26, 59, 18, 22),
    (6, 10, 5, 5), (5, 13, 3), (2, 2, 1), (3, 3, 3), (5, 13, 4, 4),
    (6, 14, 5, 5), (10, 24, 7), (13, 54, 9, 9, 11), (3, 5, 2), (7, 21, 5, 5),
    (5, 15, 3), (6, 18, 4), (9, 25, 6, 6, 7), (7, 13, 6), (7, 21, 6, 6, 6),
    (4, 9, 3), (6, 21, 4, 5), (4, 10, 3), (5, 14, 2, 4), (4, 9, 3),
    (10, 36, 5, 8), (13, 43, 9, 12), (4, 10, 2), (5, 7, 4), (8, 33, 4),
    (6, 17, 5, 5, 5), (9, 24, 7, 8, 8), (5, 7, 4), (6, 8, 5), (7, 14, 6, 6),
    (4, 6, 3), (5, 14, 3), (3, 7, 2), (5, 9, 4), (10, 35, 7, 7, 9),
    (5, 9, 4, 5, 5), (4, 6, 3), (3, 4, 2), (5, 10, 4, 4), (6, 15, 4),
]


def test_automaton_sizes_do_not_depend_on_the_order():
    for case_id, case in CASES.items():
        phi = case.formula
        for kind in (choose_encoding(phi, "auto"), EncodingKind.LIA):
            aut = body_automaton(phi, kind)
            assert (aut.num_states, len(aut.edges), len(aut.accepting)) \
                == AUTOMATON_SIZES[case_id], (case_id, kind)
    assert len(AUTOMATON_SIZES) == len(CASES) == 44
    sizes = []
    for phi in buchi_bodies():
        aut = body_automaton(phi, EncodingKind.LIA)
        sizes.append((aut.num_states, len(aut.edges))
                     + tuple(sorted(map(len, aut.accepting))))
    assert sizes == BUCHI_SIZES


# sha256 over the func and pred SMT-LIB and TPTP of the first 40 of those
# bodies, none of them syntactically safe: each is its Buchi automaton with
# the acceptance sets dropped, which no other golden reaches.
ASSUMED_SAFE_GOLDEN = \
    "1925d5e76c9e731ea1ac7949db678b3eed230de6ae73bea57b77fc70db9fff4b"


def assumed_safe_digest(bodies) -> str:
    digest = hashlib.sha256()
    for phi in bodies:
        for encoding in ("func", "pred"):
            problem = build_problem(phi, EncodingKind(encoding))
            for text in (F.pretty(phi), encoding, emit_smtlib(problem),
                         emit_tptp(problem)):
                digest.update(text.encode() + b"\0")
    return digest.hexdigest()


def test_assumed_safe_golden_bytes():
    assert assumed_safe_digest(buchi_bodies()[:40]) == ASSUMED_SAFE_GOLDEN


# the same digest over the first 160 of those bodies, recorded when func
# and pred still explored a non-safe body's tableau twice
ASSUMED_SAFE_160_GOLDEN = \
    "1e2f4f2aa039636020b3541d4773990b8916e8abb0181b52224f18ef5d9c0f93"


def test_assumed_safe_golden_bytes_of_160_bodies():
    assert assumed_safe_digest(buchi_bodies(160)) == ASSUMED_SAFE_160_GOLDEN


def test_smtlib_parentheses_balance(emitted):
    _, smt, _ = emitted
    depth = 0
    for ch in smt:
        depth += {"(": 1, ")": -1}.get(ch, 0)
        assert depth >= 0
    assert depth == 0
    assert smt.endswith("\n(check-sat)\n")


def test_long_forms_break_within_width():
    smt = emit_smtlib(problem_for("gni_implies_ni_2", "auto"))
    lines = smt.splitlines()
    assert len(lines) > 100
    assert max(len(line) for line in lines) <= 96


def test_golden_cases_meet_the_width():
    smt = emit_smtlib(problem_for("qn_1_implies_4", "auto")).splitlines()
    tptp = emit_tptp(problem_for("qn_1_implies_4", "auto")).splitlines()
    assert E._WIDTH in map(len, smt)
    assert max(map(len, tptp)) == 94
    fits = " " * 22 + ("(=> (S_1 x1 x2 x3 x4 x5 x6 x7 x8 i) "
                       "(S_1 x1 x2 x3 x4 x5 x6 x7 x8 (+ i 1)))")
    assert len(fits) == E._WIDTH
    assert "\n" + fits + ")" in emit_smtlib(problem_for("qn_3_implies_3",
                                                        "lia"))
    parts = ["(forall ((i Time)) (exists ((i2 Time)) (succ i i2)))", "false",
             "(forall ((i Time)) true)"]
    assert len(" " * 8 + "(and " + " ".join(parts) + ")") == E._WIDTH + 1
    broken = "\n        (and" + "".join("\n          " + p for p in parts)
    assert broken in emit_smtlib(problem_for("enforce_model_4_1", "pred"))


def test_tptp_declares_each_signature_type():
    # declarations that share argument sorts but differ in their result
    sig = fol.Signature(
        (fol.Sort("Trace"), fol.Sort(fol.INT_SORT, builtin_int=True)),
        (fol.FunDecl("t0", (), "Trace"),
         fol.FunDecl("Succ", ("Trace",), "Trace"),
         fol.FunDecl("Len", ("Trace",), fol.INT_SORT)),
        (fol.PredDecl("Q", ()), fol.PredDecl("P_a", ("Trace",)),
         fol.PredDecl("S_0", ("Trace", "Trace", fol.INT_SORT)),
         fol.PredDecl("S_1", ("Trace", "Trace", fol.INT_SORT))))
    text = emit_tptp(EncodedProblem(sig, fol.And(()), EncodingKind.LIA))
    assert text.splitlines()[:8] == [
        "tff(trace_type, type, trace: $tType).",
        "tff(t0_decl, type, t0: trace).",
        "tff(succ_decl, type, succ: trace > trace).",
        "tff(len_decl, type, len: trace > $int).",
        "tff(q_decl, type, q: $o).",
        "tff(p_a_decl, type, p_a: trace > $o).",
        "tff(s_0_decl, type, s_0: (trace * trace * $int) > $o).",
        "tff(s_1_decl, type, s_1: (trace * trace * $int) > $o)."]


def test_emit_dispatches_on_format():
    problem = problem_for("unsat_1", "lia")
    assert emit(problem, OutputFormat.SMTLIB2) == emit_smtlib(problem)
    assert emit(problem, OutputFormat.TPTP_TFF) == emit_tptp(problem)


def reference_render(node, width, prefix="", suffix="", indent=0):
    """The direct layout rule: re-flatten every form at every depth."""
    def flat(n):
        return n if isinstance(n, str) else "(" + " ".join(map(flat, n)) + ")"

    text = flat(node)
    if isinstance(node, str) or \
            indent + len(prefix) + len(text) + len(suffix) <= width:
        return " " * indent + prefix + text + suffix
    head, *rest = node
    out = [" " * indent + prefix + "(" + flat(head)]
    for child in rest:
        if isinstance(child, list):
            out.append(reference_render(child, width, indent=indent + 2))
        else:
            out.append(" " * (indent + 2) + child)
    out[-1] += ")" + suffix
    return "\n".join(out)


def random_term(rng, depth):
    """A random term of up to four arguments per function."""
    if depth == 0 or rng.random() < 0.25:
        k = rng.randint(1, 12)
        return rng.choice([fol.Var("x" * k, "T"), fol.IntConst(-k)])
    if rng.random() < 0.2:
        return fol.IntAdd(random_term(rng, depth - 1), rng.randint(1, 9))
    return fol.FunApp("f" * rng.randint(1, 6), tuple(
        random_term(rng, depth - 1) for _ in range(rng.randint(0, 4))))


def random_formula(rng, depth):
    """A random formula shaped like an s-expression of depth up to depth:
    up to four parts per form, and names of one to twelve letters."""
    if depth == 0 or rng.random() < 0.25:
        return fol.PredApp("x" * rng.randint(1, 12))
    kind = rng.choice(["and", "or", "not", "P", "=>", "forall"])
    if kind in ("and", "or"):
        cls = fol.And if kind == "and" else fol.Or
        return cls(tuple(random_formula(rng, depth - 1)
                         for _ in range(rng.randint(0, 4))))
    if kind == "not":
        return fol.Not(random_formula(rng, depth - 1))
    if kind == "=>":
        return fol.Implies(random_formula(rng, depth - 1),
                           random_formula(rng, depth - 1))
    if kind == "forall":
        return fol.Forall("x" * rng.randint(1, 12), "T",
                          random_formula(rng, depth - 1))
    return fol.PredApp("P", tuple(random_term(rng, depth - 1)
                                  for _ in range(rng.randint(0, 4))))


def test_layout_agrees_with_reference_rule(monkeypatch):
    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randint(4, 60)
        monkeypatch.setattr(E, "_WIDTH", width)
        formula = random_formula(rng, rng.randint(1, 6))
        prefix, suffix = rng.choice([("", ""), ("(assert ", ")")])
        memo, out = {}, [prefix]
        E._flat(formula, memo, E._SMT)
        E._smt_write(formula, "\n", width - len(prefix) - len(suffix), memo,
                     out)
        out.append(suffix)
        assert "".join(out) == \
            reference_render(smt_sexpr(formula), width, prefix, suffix)
        # the shared flat pass and term printer lay out TPTP at the same
        # narrow widths, over negative constants, sums and nested functions
        _, body = emit_tptp(problem_of(formula)).split(
            "tff(problem, axiom,\n  ")
        assert body == tptp_reference(formula, width) + ").\n"


# a func case, and a lia body with four until/eventually operators, whose
# edge order follows the order of their postponed slots
_EMIT_SCRIPT = """
import sys
from hypersat import bench
from hypersat.emit import emit_smtlib, emit_tptp
from hypersat.formula import parse
from hypersat.pipeline import build_problem, choose_encoding
case = {c.id: c for c in bench.gni_ni_suite()}["gni_implies_ni_1"]
live = parse('forall p. exists q. ("a"_p U ("b"_q & F "a"_q)) '
             '& G (F ! "b"_p | ("a"_q U X "b"_p))')
for phi, encoding in ((case.formula, "auto"), (live, "lia")):
    problem = build_problem(phi, choose_encoding(phi, encoding))
    sys.stdout.write(emit_smtlib(problem) + emit_tptp(problem))
"""


def atoms_and_terms(node) -> set:
    """The distinct atom and term node objects of a formula, by id."""
    found = {}
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (fol.PredApp, fol.IntLess, fol.Term)):
            found[id(node)] = node
        for value in vars(node).values():
            values = value if isinstance(value, tuple) else (value,)
            stack += [v for v in values
                      if isinstance(v, (fol.FolFormula, fol.Term))]
    return set(found)


@pytest.mark.parametrize("phi, encoding", [
    (F.parse('forall p. exists q. ("a"_p U ("b"_q & F "a"_q)) '
             '& G (F ! "b"_p | ("a"_q U X "b"_p))'), "lia"),
    (CASES["qn_3_implies_1"].formula, "func")])
def test_atom_and_term_texts_are_built_once_per_emit_call(monkeypatch, phi,
                                                          encoding):
    problem = build_problem(phi, choose_encoding(phi, encoding))
    nodes = atoms_and_terms(problem.formula)
    real = E._term
    for emitter in (emit_smtlib, emit_tptp):
        built = []

        def counted(node, memo, syntax):
            if id(node) not in memo:  # its text is built now
                built.append(id(node))
            return real(node, memo, syntax)

        monkeypatch.setattr(E, "_term", counted)
        for _ in range(2):
            built.clear()
            emitter(problem)
            assert sorted(built) == sorted(nodes)


def test_a_thread_pool_emits_the_bytes_of_a_sequential_run():
    def smtlib(case):
        phi = F.parse(F.pretty(case.formula))
        return emit_smtlib(build_problem(phi, choose_encoding(phi, "auto")))

    cases = list(CASES.values())
    assert len(cases) == 44
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(smtlib, cases))
    assert threaded == [smtlib(case) for case in cases]


def test_bytes_do_not_depend_on_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", _EMIT_SCRIPT], env=env,
                             capture_output=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"(check-sat)") == 2
    assert b"(set-logic UFLIA)" in outputs[0]


def unshared(node):
    """A deep copy of a formula in which no node object occurs twice."""
    if isinstance(node, tuple):
        return tuple(unshared(n) for n in node)
    if isinstance(node, (fol.FolFormula, fol.Term)):
        return type(node)(*(unshared(getattr(node, f.name))
                            for f in dataclasses.fields(node)))
    return node


def random_dag(rng):
    """A random formula over long predicate names in which one shared node
    object occurs at several depths, so that it fits on one line at some
    of them and breaks over lines at others.  Its atoms share their terms,
    and the longest atoms and terms fit at some depths and break at
    others too."""
    x, i = fol.Var("x", "T"), fol.Var("i", fol.INT_SORT)
    fx, step = fol.FunApp("f", (x,)), fol.IntAdd(i, 1)
    long = fol.FunApp("g" + "h" * rng.randint(10, 60),
                      (fx, step, fol.IntConst(-2)))
    tower = fol.IntConst(-12)  # which breaks only at a large column
    for _ in range(rng.randint(0, 40)):
        tower = fol.FunApp("f", (tower,))
    terms = [x, fol.FunApp("c"), fx, fol.IntConst(3), step, long,
             fol.IntAdd(long, 7), tower]

    def atom():
        if rng.random() < 0.15:
            return fol.IntLess(rng.choice(terms), rng.choice(terms))
        name = "P" + "q" * rng.randint(0, 30)
        return fol.PredApp(name, tuple(rng.choice(terms)
                                       for _ in range(rng.randint(0, 3))))

    def gen(depth, pool):
        if pool and rng.random() < 0.3:
            return rng.choice(pool)
        if depth == 0 or rng.random() < 0.2:
            return atom()
        kind = rng.randrange(8)
        if kind < 3:
            cls = fol.And if kind < 2 else fol.Or
            return cls(tuple(gen(depth - 1, pool)
                             for _ in range(rng.choice([0, 1, 2, 2, 3, 4]))))
        if kind == 3:
            return fol.Not(gen(depth - 1, pool))
        if kind == 4:
            return fol.Implies(gen(depth - 1, pool), gen(depth - 1, pool))
        cls = fol.Forall if kind == 5 else fol.Exists
        return cls("x", "T", gen(depth - 1, pool))

    shared = gen(3, [])
    pool = [shared, fol.Not(shared), atom()]
    # the shared node at two fixed depths, and wherever gen picks it
    deep = shared
    for _ in range(rng.randint(2, 12)):
        deep = fol.And((atom(), deep))
    return fol.Or((shared, deep, gen(5, pool)))


def flat_top(rng):
    """A top-level conjunction of 88 to 96 columns: it fits the width at
    indent 0 only while the columns of "(assert " and ")" do not count."""
    while True:
        names = ["Q" + "r" * rng.randint(5, 15) for _ in range(6)]
        if 88 <= len("(and)") + sum(len(n) + 1 for n in names) <= 96:
            return fol.And(tuple(fol.PredApp(n) for n in names))


def problem_of(formula):
    # the emitters print the declarations of the signature, not the
    # formula's symbols, so one sort is enough here
    sig = fol.Signature((fol.Sort("T"),), (), ())
    return EncodedProblem(sig, formula, EncodingKind.FUNC_SAFETY)


def smt_sexpr(node):
    """A formula, atom or term as the nested lists of its SMT-LIB
    s-expression, for reference_render."""
    if isinstance(node, fol.Var):
        return node.name
    if isinstance(node, fol.IntConst):
        return str(node.value) if node.value >= 0 else ["-", str(-node.value)]
    if isinstance(node, fol.IntAdd):
        return ["+", smt_sexpr(node.arg), str(node.offset)]
    if isinstance(node, (fol.FunApp, fol.PredApp)):
        return [node.name, *map(smt_sexpr, node.args)] if node.args \
            else node.name
    if isinstance(node, fol.IntLess):
        return ["<", smt_sexpr(node.left), smt_sexpr(node.right)]
    if isinstance(node, fol.Not):
        return ["not", smt_sexpr(node.arg)]
    if isinstance(node, (fol.And, fol.Or)):
        if len(node.args) == 1:
            return smt_sexpr(node.args[0])
        head = "and" if isinstance(node, fol.And) else "or"
        return [head, *map(smt_sexpr, node.args)] if node.args \
            else {"and": "true", "or": "false"}[head]
    if isinstance(node, fol.Implies):
        return ["=>", smt_sexpr(node.left), smt_sexpr(node.right)]
    head = "forall" if isinstance(node, fol.Forall) else "exists"
    # the binding list is one string, which never breaks
    return [head, f"(({node.var} {node.sort}))", smt_sexpr(node.body)]


def smt_atoms_and_terms(text: str) -> tuple:
    """The heads of the SMT-LIB atoms and terms that text prints on one
    line, and of those it breaks over lines."""
    heads = re.compile(r"\((P\w*|<|f|g\w*|\+|-) ")
    one_line = set(heads.findall(text))
    broken = set(re.findall(r"^ *\((P\w*|<|f|g\w*|\+|-)$", text, re.M))
    return one_line, broken


def test_shared_nodes_emit_like_their_unshared_copy(monkeypatch):
    # a node's one-line text is made once per emit call and written at
    # every indent where the node occurs, at every width
    rng = random.Random(11)
    at_width, longest = set(), 0
    one_line, broken = set(), set()
    for _ in range(200):
        formula = random_dag(rng)
        dag, tree = problem_of(formula), problem_of(unshared(formula))
        for width in (20, 40, 60, 80, 96):
            monkeypatch.setattr(E, "_WIDTH", width)
            for emitter in (emit_smtlib, emit_tptp):
                text = emitter(dag)
                assert text == emitter(tree)
                lengths = set(map(len, text.splitlines()))
                at_width |= {width} & lengths
                if width == 96:
                    longest = max(longest, *lengths)
            smt = emit_smtlib(dag)
            assert smt.endswith(reference_render(
                smt_sexpr(formula), width, "(assert ", ")")
                + "\n(check-sat)\n")
        # smt is the text at width 96, the last width
        for heads, found in zip((one_line, broken), smt_atoms_and_terms(smt)):
            heads |= {h[0] for h in found}
    monkeypatch.undo()
    # at every width some lines end exactly there, and at 96 deep TPTP
    # atoms, which never break, run past it
    assert at_width == {20, 40, 60, 80, 96} and longest > E._WIDTH
    # predicate and comparison atoms, and function, sum and negative
    # integer terms, are printed both on one line and broken
    assert one_line == broken == set("P<fg+-")
    for _ in range(10):
        formula = flat_top(rng)
        smt = emit_smtlib(problem_of(formula))
        assert smt == emit_smtlib(problem_of(unshared(formula)))
        assert "\n(assert (and\n" in smt
    # a top-level atom fits only while "(assert " and ")" fit around it
    for length in range(85, 90):
        atom = fol.PredApp("Q" * (length - 4), (fol.Var("x", "T"),))
        smt = emit_smtlib(problem_of(atom))
        assert (len("(assert )") + length <= E._WIDTH) == \
            (f"\n(assert {E._term(atom, {}, E._SMT)})\n" in smt)
        assert smt.endswith(reference_render(smt_sexpr(atom), E._WIDTH,
                                             "(assert ", ")")
                            + "\n(check-sat)\n")


def shared_argument_atoms(rng):
    """A random formula whose atoms and terms, of many predicate and
    function names, hold a few shared argument tuples.  Its sums, negative
    constants and comparisons, over many different arguments, are the
    terms and atoms whose SMT-LIB arguments the emitter puts in fresh
    tuples."""
    i = fol.Var("i", fol.INT_SORT)
    ints = [i, fol.IntConst(-rng.randint(1, 99))] + [
        fol.IntAdd(i, k) for k in rng.sample(range(1, 99), 3)]
    shared = [tuple(rng.choice(ints + [fol.Var("x", "T")])
                    for _ in range(rng.randint(1, 3))) for _ in range(3)]
    terms = [fol.FunApp("f" + "g" * rng.randint(0, 20), args)
             for args in shared for _ in range(2)]
    ints += [fol.IntAdd(t, rng.randint(1, 99)) for t in terms[::2]]
    shared += [tuple(rng.choice(ints + terms)
                     for _ in range(rng.randint(1, 4))) for _ in range(2)]

    def gen(depth):
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.3:
                return fol.IntLess(rng.choice(ints), rng.choice(ints))
            return fol.PredApp("P" + "q" * rng.randint(0, 30),
                               rng.choice(shared))
        kind = rng.randrange(4)
        if kind < 2:
            cls = fol.And if kind == 0 else fol.Or
            return cls(tuple(gen(depth - 1)
                             for _ in range(rng.randint(2, 4))))
        if kind == 2:
            return fol.Not(gen(depth - 1))
        return fol.Forall("x", "T", gen(depth - 1))

    return gen(4)


def test_shared_argument_tuples_emit_like_their_unshared_copy(monkeypatch):
    # the text of an argument tuple is made once per emit call and printed
    # after the head of every atom or term that holds it, at every width
    rng = random.Random(17)
    both = 0  # formulas with a tuple held by a predicate and a function
    for _ in range(200):
        formula = shared_argument_atoms(rng)
        dag, tree = problem_of(formula), problem_of(unshared(formula))
        for width in (20, 40, 60, 80, 96):
            monkeypatch.setattr(E, "_WIDTH", width)
            for emitter in (emit_smtlib, emit_tptp):
                assert emitter(dag) == emitter(tree)
            assert emit_smtlib(dag).endswith(reference_render(
                smt_sexpr(formula), width, "(assert ", ")")
                + "\n(check-sat)\n")
            _, body = emit_tptp(dag).split("tff(problem, axiom,\n  ")
            assert body == tptp_reference(formula, width) + ").\n"
        heads = {}  # the first letters of the names that hold a tuple
        stack = [formula]
        while stack:
            node = stack.pop()
            if isinstance(node, (fol.PredApp, fol.FunApp)):
                heads.setdefault(id(node.args), set()).add(node.name[0])
            for value in vars(node).values():
                values = value if isinstance(value, tuple) else (value,)
                stack += [v for v in values
                          if isinstance(v, (fol.FolFormula, fol.Term))]
        both += any(len(names) == 2 for names in heads.values())
    assert both >= 20


def tptp_flat(f) -> str:
    """The one-line TPTP text of a formula."""
    if isinstance(f, fol.Not):
        return "~ " + tptp_flat(f.arg)
    if isinstance(f, (fol.And, fol.Or)):
        if not f.args:
            return "$true" if isinstance(f, fol.And) else "$false"
        if len(f.args) == 1:
            return tptp_flat(f.args[0])
        op = " & " if isinstance(f, fol.And) else " | "
        return "(" + op.join(map(tptp_flat, f.args)) + ")"
    if isinstance(f, fol.Implies):
        return f"({tptp_flat(f.left)} => {tptp_flat(f.right)})"
    if isinstance(f, (fol.Forall, fol.Exists)):
        return tptp_head(f) + " " + tptp_flat(f.body)
    return tptp_term(f)  # an atom, which never breaks


def tptp_term(t) -> str:
    """The TPTP text of an atom or term."""
    if isinstance(t, fol.Var):
        return t.name[0].upper() + t.name[1:]
    if isinstance(t, fol.IntConst):
        return str(t.value)
    if isinstance(t, fol.IntAdd):
        return f"$sum({tptp_term(t.arg)}, {t.offset})"
    if isinstance(t, fol.IntLess):
        return f"$less({tptp_term(t.left)}, {tptp_term(t.right)})"
    name = t.name[0].lower() + t.name[1:]
    if not t.args:
        return name
    return name + "(" + ", ".join(map(tptp_term, t.args)) + ")"


def tptp_head(f) -> str:
    quant = "!" if isinstance(f, fol.Forall) else "?"
    var, sort = f.var[0].upper() + f.var[1:], f.sort[0].lower() + f.sort[1:]
    return f"{quant}[{var}: {sort}]:"


def tptp_reference(f, width, indent=1):
    """The direct TPTP layout rule at indent (in steps of two columns):
    re-flatten every form at every depth."""
    if isinstance(f, fol.Not):
        return "~ " + tptp_reference(f.arg, width, indent)
    if isinstance(f, (fol.And, fol.Or)) and len(f.args) == 1:
        return tptp_reference(f.args[0], width, indent)
    text = tptp_flat(f)
    pad = "  " * indent
    if 2 * indent + len(text) <= width:
        return text
    if isinstance(f, (fol.And, fol.Or)) and f.args:
        op = "&" if isinstance(f, fol.And) else "|"
        return "( " + f"\n{pad}{op} ".join(
            tptp_reference(g, width, indent + 1) for g in f.args) + " )"
    if isinstance(f, fol.Implies):
        return (f"({tptp_reference(f.left, width, indent + 1)}\n{pad} => "
                f"{tptp_reference(f.right, width, indent + 1)})")
    if isinstance(f, (fol.Forall, fol.Exists)):
        return (tptp_head(f) + f"\n{pad}  "
                + tptp_reference(f.body, width, indent + 1))
    return text  # an atom, $true or $false, which never breaks


def test_tptp_layout_agrees_with_reference_rule(monkeypatch):
    rng = random.Random(13)
    at_width = set()
    for _ in range(200):
        formula = unshared(random_dag(rng))
        for width in (20, 40, 60, 80, 96):
            monkeypatch.setattr(E, "_WIDTH", width)
            text = emit_tptp(problem_of(formula))
            _, body = text.split("tff(problem, axiom,\n  ")
            assert body == tptp_reference(formula, width) + ").\n"
            # the first line of the body starts after two columns
            if width in map(len, ("  " + body).splitlines()):
                at_width.add(width)
    # at every width some line ends exactly there
    assert at_width == {20, 40, 60, 80, 96}


@pytest.mark.parametrize("emitter", [emit_smtlib, emit_tptp])
def test_emit_memory_stays_linear_in_the_text(emitter):
    # the memo keeps one-line texts of at most _WIDTH columns for
    # formulas, not the text of every level
    problem = problem_for("qn_2_implies_3", "func")
    tracemalloc.start()
    try:
        text = emitter(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 6 * len(text)


# sha256 of the SMT-LIB and TPTP text of the 600-variable prefix
DEEP_PREFIX_GOLDEN = {
    emit_smtlib:
        "d446b1f9c3c96c0a4d172fb43140cc812670ab20a7b9c985a0deac7781f04300",
    emit_tptp:
        "916a0d82b24c0ea81344b9c58ff8f5159b653ea36e95d405b7d53afb9d1565cf",
}


@pytest.mark.parametrize("emitter", [emit_smtlib, emit_tptp])
def test_a_deep_prefix_emits_in_linear_memory(emitter):
    # the flat pass and the writer walk step through the run of
    # quantifiers in a loop, and the width cap keeps the one-line texts of
    # the outer levels from growing with the depth
    phi = F.parse(" ".join(f"forall p{i}." for i in range(600)) + ' "a"_p0')
    problem = build_problem(phi, choose_encoding(phi, "auto"))
    tracemalloc.start()
    try:
        text = emitter(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 600 trace variables and one time variable
    assert text.count("forall" if emitter is emit_smtlib else "![") == 601
    assert peak <= 6 * len(text)
    assert sha256(text) == DEEP_PREFIX_GOLDEN[emitter]
