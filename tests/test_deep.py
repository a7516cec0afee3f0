"""Bodies far deeper than Python's recursion limit.

Every pass over an LTL body walks it on an explicit stack, so the depth of
a body costs no Python frames: parsing, NNF, the rewrite, printing, the
safety check, the kernel's compile walk and the oracle at depth 5,000, and
the tableau, the encodings, the sort check and both emitters at depth
1,200 (5,000 in the slow run).  Nothing here raises the recursion limit or
the stack size.
"""

import os
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersat import automaton, bench, cli, fol, kernel, oracle, pipeline
from hypersat import formula as F
from hypersat.emit import emit_smtlib, emit_tptp
from hypersat.encoder import EncodingKind

DEPTH = 5000
A = '"a"_p'


def deep_text(shape: str, n: int) -> str:
    """A formula whose body nests n levels of one shape."""
    if shape == "parens":
        body = "(" * n + A + ")" * n
    elif shape == "and":
        body = " & ".join([A] * n)
    else:
        body = f"{shape} " * n + A
    return "forall p. " + body


def printed_body(shape: str, n: int) -> str:
    """pretty_body of the parsed deep_text(shape, n), and of its NNF."""
    if shape == "parens":
        return A
    if shape == "and":
        return "(" * (n - 1) + A + f" & {A})" * (n - 1)
    return f"{shape} " * n + A


SHAPES = ["parens", "!", "X", "G", "and"]
# the distinct subformulas of each NNF body, which compile_body emits once
PROGRAM_SIZE = {"parens": 1, "!": 1, "X": DEPTH + 1, "G": DEPTH + 1,
                "and": DEPTH}
# the printed rewrite of each NNF body: G G a is G a, and a & a is a
REWRITTEN = {"parens": A, "!": A, "X": printed_body("X", DEPTH),
             "G": f"G {A}", "and": A}


def test_the_depth_is_past_the_recursion_limit():
    assert DEPTH > 4 * sys.getrecursionlimit()


@pytest.mark.parametrize("shape", SHAPES)
def test_front_end_and_oracle(shape):
    text = deep_text(shape, DEPTH)
    phi = F.parse(text)
    assert F.pretty(phi) == "forall p. " + printed_body(shape, DEPTH)
    # the printed text parses back to a body that prints the same
    assert F.pretty(F.parse(F.pretty(phi))) == F.pretty(phi)
    nnf = F.to_nnf(phi.body)
    # an even number of ! cancels out
    assert F.pretty_body(nnf) == (A if shape == "!"
                                  else printed_body(shape, DEPTH))
    assert automaton.is_syntactically_safe(nnf)
    assert not automaton.is_syntactically_safe(F.Eventually(nnf))
    prog = kernel.compile_body(nnf, sorted(phi.atoms))
    assert len(prog.ops) == PROGRAM_SIZE[shape]
    assert F.pretty_body(F.rewrite(nnf)) == REWRITTEN[shape]
    # "a" at every position satisfies each of them
    found = oracle.bounded_find_model(phi, 1, 0, 1)
    assert isinstance(found, oracle.Found)


def deep_automaton_and_problems(shape: str, n: int):
    phi = F.parse(deep_text(shape, n))
    # func builds the automaton of the NNF, lia that of its rewrite
    for kind, body in ((EncodingKind.FUNC_SAFETY, phi.nnf),
                       (EncodingKind.LIA, F.rewrite(phi.nnf))):
        aut = automaton.ltl_to_nba(body, phi.atoms)
        # X^n visits one state per step and then stays in the true state;
        # G^n keeps all n obligations in one state after the first, and
        # its rewrite G a is one state
        assert aut.num_states == (n + 2 if shape == "X" else
                                  2 if body is phi.nnf else 1)
        assert aut.accepting == ()
        problem = pipeline.build_problem(phi, kind)
        fol.check_sorts(problem.formula, problem.signature)
        # one state predicate per state in each format
        assert emit_smtlib(problem).count("(declare-fun S_") \
            == aut.num_states
        assert emit_tptp(problem).count("_decl, type, s_") == aut.num_states


@pytest.mark.parametrize("shape", ["X", "G"])
def test_tableau_encodings_and_emitters(shape):
    deep_automaton_and_problems(shape, 1200)


@pytest.mark.slow
@pytest.mark.parametrize("shape", ["X", "G"])
def test_tableau_encodings_and_emitters_at_full_depth(shape):
    deep_automaton_and_problems(shape, DEPTH)


@pytest.mark.parametrize("shape", ["F", "G"])
def test_a_chain_under_lia_is_one_operator(shape):
    # F^1,000 took 23.6 s in the tableau, with n + 2 states; its rewrite
    # F a has the automaton of one eventually
    phi = F.parse(deep_text(shape, 1200))
    start = time.perf_counter()
    problem = pipeline.build_problem(phi, EncodingKind.LIA)
    smtlib, tptp = emit_smtlib(problem), emit_tptp(problem)
    assert time.perf_counter() - start < 1
    assert F.pretty_body(F.rewrite(phi.nnf)) == f"{shape} {A}"
    one = F.parse(deep_text(shape, 1))
    assert pipeline.body_automaton(phi, EncodingKind.LIA) \
        == automaton.ltl_to_nba(one.nnf, one.atoms)
    assert (smtlib, tptp) == (emit_smtlib(pipeline.build_problem(
        one, EncodingKind.LIA)), emit_tptp(pipeline.build_problem(
            one, EncodingKind.LIA)))


def test_emit_of_nested_parentheses(tmp_path, capsys):
    # 200 levels raised RecursionError in the parser: exit 11
    out = tmp_path / "deep.smt2"
    assert cli.main(["emit", "-f", deep_text("parens", 200),
                     "-o", str(out)]) == cli.EXIT_SAT
    assert "(check-sat)" in out.read_text()


@pytest.mark.parametrize("fmt, quantifier", [("smtlib", "(forall"),
                                             ("tptp", "![")],
                         ids=["smtlib", "tptp"])
def test_emit_of_a_deep_prefix(tmp_path, capsys, fmt, quantifier):
    # the emitters step through a run of quantifiers in a loop: 1,100
    # variables raised RecursionError in their flat pass, exit 11
    out = tmp_path / "deep"
    text = " ".join(f"forall p{i}." for i in range(1100)) + ' "a"_p0'
    assert cli.main(["emit", "-f", text, "--format", fmt,
                     "-o", str(out)]) == cli.EXIT_SAT
    # the 1,100 trace variables and the time variable
    assert out.read_text().count(quantifier) == 1101


@pytest.mark.parametrize("encoding", ["auto", "lia"])
def test_sort_check_of_a_deep_prefix(encoding):
    # check_sorts and mentions_integers step through a run of quantifiers
    # in a loop: 1,100 variables raised RecursionError in both
    phi = F.parse(" ".join(f"forall p{i}." for i in range(1100)) + ' "a"_p0')
    problem = pipeline.build_problem(
        phi, pipeline.choose_encoding(phi, encoding))
    fol.check_sorts(problem.formula, problem.signature)
    assert fol.mentions_integers(problem.formula) == (encoding == "lia")


def test_hash_and_equality_of_a_deep_prefix():
    # the quantifier nodes' hash and == step through a run of quantifiers
    # in a loop: 1,100 variables raised RecursionError in both
    phi = F.parse(" ".join(f"forall p{i}." for i in range(1100)) + ' "a"_p0')
    kind = pipeline.choose_encoding(phi, "func")
    problem, again = (pipeline.build_problem(phi, kind) for _ in range(2))
    assert problem.formula is not again.formula
    assert hash(problem.formula) == hash(again.formula)
    assert problem.formula == again.formula


TOKENS = ['"a"_p', '"b"_q', "1", "0", "!", "X", "G", "F", "U", "W", "R",
          "&", "|", "->", "<->", "(", ")"]
# depths around the recursion limit and up to DEPTH, which the integer
# strategy seldom draws
DEEP = [999, 1000, 1001, 2500, DEPTH]
# (opening, closing) text of each level of nesting
WRAPPERS = {"(": ("(", ")"), "!": ("! ", ""), "X": ("X ", ""),
            "G": ("G ", "")}


def random_case(draw: tuple) -> tuple:
    """(prefix, body) texts of a random formula of the bench family."""
    seed, size, safe = draw
    text = F.pretty(bench.gen_random(["forall", "exists"], size, 2, safe,
                                     seed))
    prefix, body = text.rsplit(". ", 1)
    return prefix + ".", body


# (prefix, body) texts: token strings, which rarely parse, and formulas
CORES = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=10).map(
        lambda tokens: ("forall p. exists q.", " ".join(tokens))),
    st.tuples(st.integers(0, 10**6), st.integers(1, 8), st.booleans()).map(
        random_case))


def deepest(test):
    """Each wrapper at DEPTH around one until, under both commands."""
    for wrapper in WRAPPERS:
        for command in ("emit", "oracle"):
            test = example(("forall p. exists q.", '"a"_p U "b"_q'), wrapper,
                           DEPTH, command)(test)
    return test


@settings(max_examples=40, deadline=None)
@deepest
@given(CORES, st.sampled_from(sorted(WRAPPERS)),
       st.one_of(st.integers(0, 50), st.sampled_from(DEEP), st.integers(0, DEPTH)),
       st.sampled_from(["emit", "oracle"]))
def test_no_internal_error_at_any_depth(core, wrapper, depth, command):
    prefix, body = core
    opening, closing = WRAPPERS[wrapper]
    text = f"{prefix} {opening * depth}({body}){closing * depth}"
    if command == "emit":
        argv = ["emit", "-f", text, "-o", os.devnull]
    else:
        argv = ["oracle", "-f", text, "--max-traces", "1", "--max-stem",
                "0", "--max-loop", "1"]
    assert cli.main(argv) != cli.EXIT_INTERNAL, text[:200]
