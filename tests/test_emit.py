import dataclasses
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hypersat import bench, fol
from hypersat import emit as E
from hypersat.emit import OutputFormat, emit, emit_smtlib, emit_tptp
from hypersat.encoder import EncodedProblem, EncodingKind
from hypersat.pipeline import build_problem, choose_encoding

from helpers import safety_emit_style_cases

SRC = Path(__file__).resolve().parents[1] / "src"

# sha256 of the SMT-LIB and TPTP text per (case, encoding).  The func cases
# have forms that break over lines (gni_implies_ni_2 up to 94 columns,
# enforce_model_3_2 with a line of exactly the 96-column width); the pred
# cases carry the seriality axiom and the existential successor steps; the
# lia cases reach the UFLIA logic and the integer terms.
GOLDEN = {
    ("qn_1_implies_1", "auto"): (
        "86952f886bb49b69c674435eb6cc9a76b9c6b0cfb612d1454a1af4be1435c69d",
        "0079fda13a74f9e604b66bb0e0468cf467c569555d31833525fd44e7b67f4910"),
    ("gni_implies_ni_2", "auto"): (
        "671faeea02782ce59ba87648b4b02913d200044ff849178f0c4a957039bfbac5",
        "0952b43a16bde314e1202f194673f1dcb6ef83bc9139f79e4eaa16750dc7a591"),
    ("enforce_model_3_2", "auto"): (
        "5634172529c3c0bcff1bc24f039b8f3c5908bf6c79f1f14843d9e49a135b74e5",
        "d47f66bcdf1182536b1c3d3cd90ae4070932f500695f2eda91cf0304944a9b9a"),
    ("gni_implies_ni_2", "pred"): (
        "bdec198125aa236da1b8aed169f8559b3196ee659dc97fcee7c4048ad4fc7368",
        "bf242ead086d727b66fa11740c027d2500711e506b466b7ecf75cfac02262ef4"),
    ("enforce_model_3_2", "pred"): (
        "341b93f9f0e1ac72ef95a5bc779cd1c993512f59fc91f1eb8b5d0063af8789f0",
        "8f10e07108cebf0815b239eab9ccc2c45d63ca0e62e72b1d522d3d91724bfb63"),
    ("unsat_2", "auto"): (
        "e555d63e339b635a9a3c8b1db6520fa2680221c49d4c2b8491907630eb33bde1",
        "5678f043740da06c9a137f5359523bd8707bba9cf5606a6ccca8fa1853bbd9eb"),
    ("gni_leak", "lia"): (
        "c70c434e053a16be92e93bc7e694a64f6b928236d5ab3f1bf0b181a7a70ac2ab",
        "8f504df7f607d9fc2a4d341d9d12981d7168ad53a9d982f30f98590619e77320"),
    ("unsat_1", "lia"): (
        "ce9f83b8bf7d3f0856a8f21ce5112ca9102074538d6ac02d6832caace5c4b11e",
        "39292574837a549b2325253aabae5000640c159eee01b976e78191eb01fdf97f"),
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


# sha256 over the SMT-LIB and TPTP of every case below, in order: the 35
# safety-emit-style built-in cases under auto (func) and pred, and the
# handcrafted, unsat and gni_ni cases under lia
AGGREGATE_GOLDEN = \
    "82add5ede0bce2e0d36049406595f810d228607589268d7f542d108626677b8b"


def test_aggregate_golden_bytes():
    runs = [(case, encoding) for encoding in ("auto", "pred")
            for case in safety_emit_style_cases()]
    runs += [(case, "lia") for family in ("handcrafted", "unsat", "gni_ni")
             for case in bench.FAMILIES[family]()]
    digest = hashlib.sha256()
    for case, encoding in runs:
        problem = build_problem(case.formula,
                                choose_encoding(case.formula, encoding))
        for text in (case.id, encoding, emit_smtlib(problem),
                     emit_tptp(problem)):
            digest.update(text.encode() + b"\0")
    assert len(runs) == 88
    assert digest.hexdigest() == AGGREGATE_GOLDEN


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


def random_sexpr(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return "x" * rng.randint(1, 12)
    head = rng.choice(["and", "or", "not", "P"])
    return [head, *(random_sexpr(rng, depth - 1)
                    for _ in range(rng.randint(0, 4)))]


def measure(node, indent, extra=0):
    """Measure a nested-list form the way the SMT-LIB emitter does."""
    if isinstance(node, str):
        return node
    children = [measure(c, indent + 2) for c in node[1:]]
    return E._form(node[0], children, indent, extra)


def test_layout_agrees_with_reference_rule(monkeypatch):
    rng = random.Random(7)
    for _ in range(3000):
        width = rng.randint(4, 60)
        monkeypatch.setattr(E, "_WIDTH", width)
        node = random_sexpr(rng, rng.randint(1, 6))
        if isinstance(node, str):
            continue
        prefix, suffix = rng.choice([("", ""), ("(assert ", ")")])
        out = [prefix]
        E._lay_out(measure(node, 0, len(prefix) + len(suffix)), 0, out)
        out.append(suffix)
        assert "".join(out) == reference_render(node, width, prefix, suffix)


_EMIT_SCRIPT = """
import sys
from hypersat import bench
from hypersat.emit import emit_smtlib, emit_tptp
from hypersat.pipeline import build_problem, choose_encoding
case = {c.id: c for c in bench.gni_ni_suite()}["gni_implies_ni_1"]
problem = build_problem(case.formula, choose_encoding(case.formula, "auto"))
sys.stdout.write(emit_smtlib(problem) + emit_tptp(problem))
"""


def test_bytes_do_not_depend_on_hash_seed():
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        run = subprocess.run([sys.executable, "-c", _EMIT_SCRIPT], env=env,
                             capture_output=True, check=True)
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert b"(check-sat)" in outputs[0]


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
    of them and breaks over lines at others."""
    x = fol.Var("x", "T")
    terms = [x, fol.FunApp("c"), fol.FunApp("f", (x,))]

    def atom():
        name = "P" + "q" * rng.randint(0, 30)
        return fol.PredApp(name, tuple(rng.choice(terms)
                                       for _ in range(rng.randint(0, 2))))

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
    return EncodedProblem(sig, formula, EncodingKind.FUNC_SAFETY, {})


def test_shared_nodes_emit_like_their_unshared_copy():
    rng = random.Random(11)
    widths = set()
    for _ in range(200):
        formula = random_dag(rng)
        dag, tree = problem_of(formula), problem_of(unshared(formula))
        for emitter in (emit_smtlib, emit_tptp):
            text = emitter(dag)
            assert text == emitter(tree)
            widths.add(max(map(len, text.splitlines())))
    # some lines end exactly at the width, and deep atoms, which never
    # break, run past it
    assert E._WIDTH in widths and max(widths) > E._WIDTH
    for _ in range(10):
        formula = flat_top(rng)
        smt = emit_smtlib(problem_of(formula))
        assert smt == emit_smtlib(problem_of(unshared(formula)))
        assert "\n(assert (and\n" in smt


@pytest.mark.parametrize("emitter", [emit_smtlib, emit_tptp])
def test_emit_memory_stays_linear_in_the_text(emitter):
    # the memos keep measures, not the multi-line text of every level
    problem = problem_for("qn_3_implies_1", "func")
    tracemalloc.start()
    try:
        text = emitter(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 500_000
    assert peak <= 6 * len(text)
