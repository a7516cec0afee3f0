import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from hypersat import fol, kernel
from hypersat.bench import FAMILIES, gen_gni_ni, gen_random
from hypersat.emit import OutputFormat, emit
from hypersat.encoder import (EncodingKind, KindMismatchError, LcmOverflowError,
                              NotAModelError, build_finite_interpretation,
                              encode_func, encode_lia, encode_pred, escape_ap)
from hypersat.formula import parse
from hypersat.oracle import LassoTrace, LassoTraceSet, bounded_find_model, Found
from hypersat.pipeline import body_automaton, build_problem, choose_encoding


def nsa_for(phi):
    return body_automaton(phi, EncodingKind.FUNC_SAFETY)


def nba_for(phi):
    return body_automaton(phi, EncodingKind.LIA)


def lasso(stem, loop):
    return LassoTrace(tuple(frozenset(p) for p in stem),
                      tuple(frozenset(p) for p in loop))


PHI_G = parse('exists p. G "a"_p')


class TestFuncEncoding:
    def test_structure_for_exists_globally(self):
        nsa = nsa_for(PHI_G)
        problem = encode_func(PHI_G, nsa)
        assert isinstance(problem.formula, fol.Exists)
        matrix = problem.formula.body
        # the initial states and the steps; no conjunct for a bad state
        assert isinstance(matrix, fol.And) and len(matrix.args) == 2
        init, trans = matrix.args
        assert isinstance(init, fol.Or) and len(init.args) == 1
        assert isinstance(trans, fol.Forall)
        assert len(trans.body.args) == nsa.num_states == 1
        step = trans.body.args[0]  # S_0(i) => S_0(succ(i)) & P_a(x1, i)
        assert isinstance(step, fol.Implies)
        assert [a.name for a in _walk(step) if isinstance(a, fol.PredApp)] \
            == ["S_0", "S_0", "P_a"]

    def test_prefix_mirrored_in_order(self):
        gni = gen_gni_ni(1)[0]
        problem = encode_func(gni, nsa_for(gni))
        f = problem.formula
        quants = []
        while isinstance(f, (fol.Forall, fol.Exists)) and f.sort == "Trace":
            quants.append((type(f), f.var))
            f = f.body
        assert quants == [(fol.Forall, "x1"), (fol.Forall, "x2"),
                          (fol.Exists, "x3")]

    def test_gni_signature_shapes(self):
        gni = gen_gni_ni(1)[0]
        nsa = nsa_for(gni)
        problem = encode_func(gni, nsa)
        preds = {p.name: p.arg_sorts for p in problem.signature.predicates}
        for ap in ("l", "o", "h"):
            assert preds[f"P_{ap}"] == ("Trace", "Time")
        state_preds = [n for n in preds if n.startswith("S_")]
        assert len(state_preds) == nsa.num_states
        for name in state_preds:
            assert preds[name] == ("Trace", "Trace", "Trace", "Time")

    def test_rejects_buchi_automaton(self):
        phi = parse('exists p. F "a"_p')
        nba = nba_for(phi)
        with pytest.raises(KindMismatchError):
            encode_func(phi, nba)

    def test_well_sorted(self):
        rng = random.Random(500)
        for seed in range(200):
            nq = rng.randint(1, 3)
            prefix = [rng.choice(["forall", "exists"]) for _ in range(nq)]
            phi = gen_random(prefix, rng.randint(1, 9), rng.randint(1, 2),
                             rng.random() < 0.6, seed)
            kind = choose_encoding(phi, "auto")
            problem = build_problem(phi, kind)
            fol.check_sorts(problem.formula, problem.signature)


class TestPredEncoding:
    def test_single_seriality_axiom(self):
        problem = encode_pred(PHI_G, nsa_for(PHI_G))
        matrix = problem.formula.body
        seriality = [c for c in matrix.args
                     if isinstance(c, fol.Forall)
                     and isinstance(c.body, fol.Exists)
                     and isinstance(c.body.body, fol.PredApp)
                     and c.body.body.name == "succ"]
        assert len(seriality) == 1
        assert matrix.args[0] == seriality[0]

    def test_succ_is_a_predicate_not_a_function(self):
        problem = encode_pred(PHI_G, nsa_for(PHI_G))
        assert "succ" not in {f.name for f in problem.signature.functions}
        assert problem.signature.predicate("succ").arg_sorts == ("Time", "Time")
        fol.check_sorts(problem.formula, problem.signature)

    def test_every_step_existentially_quantified(self):
        func = encode_func(PHI_G, nsa_for(PHI_G))
        pred = encode_pred(PHI_G, nsa_for(PHI_G))
        assert _count_succ_funapps(func.formula) == 1  # one per edge
        assert _count_succ_funapps(pred.formula) == 0
        assert _count_succ_wrappers(pred.formula) == 1


def _count_succ_funapps(node) -> int:
    count = 0
    for child in _walk(node):
        if isinstance(child, fol.FunApp) and child.name == "succ":
            count += 1
    return count


def _count_succ_wrappers(node) -> int:
    # Exists i2. succ(i, i2) & S(..., i2), ignoring the seriality axiom
    count = 0
    for child in _walk(node):
        if (isinstance(child, fol.Exists)
                and isinstance(child.body, fol.And)
                and child.body.args
                and isinstance(child.body.args[0], fol.PredApp)
                and child.body.args[0].name == "succ"):
            count += 1
    return count


def _walk(node):
    yield node
    if isinstance(node, (fol.Forall, fol.Exists)):
        yield from _walk(node.body)
    elif isinstance(node, fol.Not):
        yield from _walk(node.arg)
    elif isinstance(node, (fol.And, fol.Or)):
        for child in node.args:
            yield from _walk(child)
    elif isinstance(node, fol.Implies):
        yield from _walk(node.left)
        yield from _walk(node.right)
    elif isinstance(node, fol.PredApp):
        for term in node.args:
            yield from _walk_term(term)


def _walk_term(term):
    yield term
    if isinstance(term, fol.FunApp):
        for arg in term.args:
            yield from _walk_term(arg)
    elif isinstance(term, fol.IntAdd):
        yield from _walk_term(term.arg)


def _by_structure(nodes) -> dict:
    """Distinct object ids per distinct structure among the occurrences."""
    ids: dict = {}
    for node in nodes:
        ids.setdefault(node, set()).add(id(node))
    return ids


@pytest.mark.parametrize("case_id, kind", [
    ("enforce_model_4_2", EncodingKind.FUNC_SAFETY),
    ("enforce_model_2_2", EncodingKind.PRED_SAFETY),
    ("unsat_3", EncodingKind.LIA)])
def test_state_atoms_and_steps_are_shared(case_id, kind):
    # the emitters format each distinct node object once, so every
    # occurrence of a state atom or of an edge step is one object
    case = {c.id: c for family in FAMILIES.values() for c in family()}[case_id]
    problem = build_problem(case.formula, kind)
    nodes = list(_walk(problem.formula))
    atoms = [n for n in nodes
             if isinstance(n, fol.PredApp) and n.name.startswith("S_")]
    steps = [step for n in nodes
             if isinstance(n, fol.Implies) and isinstance(n.right, fol.Or)
             for step in n.right.args]
    for group in (atoms, steps):
        ids = _by_structure(group)
        assert len(group) > len(ids) > 1
        assert all(len(same) == 1 for same in ids.values())
    fol.check_sorts(problem.formula, problem.signature)


def _state_atoms(formula) -> list:
    """The distinct state atom objects of a problem's formula."""
    seen, found = set(), []
    stack = [formula]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, fol.PredApp):
            if node.name.startswith("S_"):
                found.append(node)
            continue
        for value in vars(node).values():
            values = value if isinstance(value, tuple) else (value,)
            stack += [v for v in values if isinstance(v, fol.FolFormula)]
    return found


def test_state_atoms_share_one_argument_tuple_per_time_term():
    # the state atoms at i, at its successor, at i2 and at the start are
    # built once per state from one argument tuple per time term
    problems = [build_problem(case.formula, kind)
                for family in FAMILIES.values() for case in family()
                for kind in EncodingKind]
    problems += [build_problem(gen_random(["forall", "exists"], 10, 2, False,
                                          seed), EncodingKind.LIA)
                 for seed in range(50)]
    times = set()
    for problem in problems:
        tuples, objects = {}, {}
        for atom in _state_atoms(problem.formula):
            time = atom.args[-1]
            tuples.setdefault(time, set()).add(id(atom.args))
            objects.setdefault((atom.name, time), set()).add(id(atom))
        assert all(len(ids) == 1 for ids in tuples.values())
        assert all(len(ids) == 1 for ids in objects.values())
        times |= {str(time) for time in tuples}
    assert len(problems) == 3 * 44 + 50
    # i0, i, succ(i) and i2 over Time (func, pred), and 0, i, i + 1 and
    # the i2 of the acceptance conjuncts over Int (lia)
    assert len(times) == 8


DEAD_START = [parse("exists p. 0")] + [
    case.formula for case in FAMILIES["qn"]() if case.id.endswith("_4")]


@pytest.mark.parametrize("phi", DEAD_START,
                         ids=["false"] + [f"qn_{n}_implies_4"
                                          for n in range(1, 5)])
def test_dead_initial_state_gives_a_false_init(phi):
    # no run starts, so the automaton has no states and the safety
    # encodings hold no initial state: their init is the empty "or"
    nsa = nsa_for(phi)
    assert (nsa.num_states, nsa.initial, nsa.edges) == (0, set(), ())
    for kind in (EncodingKind.FUNC_SAFETY, EncodingKind.PRED_SAFETY):
        problem = build_problem(phi, kind)
        fol.check_sorts(problem.formula, problem.signature)
        matrix = problem.formula
        while isinstance(matrix, (fol.Forall, fol.Exists)):
            matrix = matrix.body
        init, trans = matrix.args[-2:]
        assert init == fol.Or(())
        assert trans == fol.Forall("i", "Time", fol.And(()))
        assert not any(p.name.startswith("S_")
                       for p in problem.signature.predicates)


class TestLiaEncoding:
    def test_acceptance_clause_lists_rejecting_states(self):
        # after init and the steps, clause j says that beyond every time
        # point some later one holds no state outside acceptance set j
        for text, m in (('exists p. F "a"_p', 1),
                        ('exists p. G F "a"_p & G F "b"_p', 2),
                        ('exists p. G "a"_p', 0)):
            phi = parse(text)
            nba = nba_for(phi)
            assert len(nba.accepting) == m
            problem = encode_lia(phi, nba)
            init, trans, *acceptance = problem.formula.body.args
            assert len(acceptance) == m
            i, i2 = fol.Var("i", "Int"), fol.Var("i2", "Int")
            for clause, accepting in zip(acceptance, nba.accepting):
                assert isinstance(clause, fol.Forall)
                assert isinstance(clause.body, fol.Exists)
                assert clause.body.body.args[0] == fol.IntLess(i, i2)
                negated = [c.arg for c in clause.body.body.args[1:]]
                outside = [q for q in nba.states if q not in accepting]
                assert negated == [
                    fol.PredApp(f"S_{q}", (fol.Var("x1", "Trace"), i2))
                    for q in outside]
                assert 0 < len(outside) < nba.num_states

    def test_initial_states_at_zero(self):
        phi = parse('exists p. F "a"_p')
        problem = encode_lia(phi, nba_for(phi))
        init = problem.formula.body.args[0]
        assert all(c.args[-1] == fol.IntConst(0) for c in init.args)

    def test_accepts_safety_automaton_by_conversion(self):
        # a safety automaton has no acceptance set, so it needs no
        # conversion and there is no acceptance clause after the steps
        nsa = nsa_for(PHI_G)
        assert nsa.accepting == ()
        problem = encode_lia(PHI_G, nsa)
        fol.check_sorts(problem.formula, problem.signature)
        names = {p.name for p in problem.signature.predicates}
        assert {n for n in names if n.startswith("S_")} \
            == {f"S_{q}" for q in nsa.states}
        init, trans = problem.formula.body.args
        assert init == fol.Or((fol.PredApp(
            "S_0", (fol.Var("x1", "Trace"), fol.IntConst(0))),))
        assert isinstance(trans, fol.Forall)

    def test_no_time_sort_declared(self):
        phi = parse('exists p. F "a"_p')
        problem = encode_lia(phi, nba_for(phi))
        sort_names = {s.name for s in problem.signature.sorts}
        assert sort_names == {"Trace", "Int"}
        assert problem.signature.sort("Int").builtin_int


class TestEscape:
    def test_alnum_preserved(self):
        assert escape_ap("out1") == "out1"

    def test_punctuation_escaped_injectively(self):
        assert escape_ap("out-1") == "out_x2d1"
        assert escape_ap("out_x2d1") == "out__x2d1"
        assert escape_ap("out-1") != escape_ap("out_x2d1")

    def test_underscore_doubled(self):
        assert escape_ap("a_b") == "a__b"

    def test_escapes_have_a_fixed_width(self):
        # U+0100 once escaped like "\x10" followed by "0"
        assert escape_ap("\u0100") == "_u000100"
        assert escape_ap("\x100") == "_x100"

    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_escape_is_injective(self, ap):
        # escape_ap has a left inverse, so no two names share an escape
        name = escape_ap(ap)
        assert re.fullmatch(r"[A-Za-z0-9_]*", name)
        assert _unescape(name) == ap

    def test_distinct_aps_declare_distinct_predicates(self):
        phi = parse('exists p. "\u0100"_p & ! "\x100"_p')
        text = emit(build_problem(phi, EncodingKind.FUNC_SAFETY),
                    OutputFormat.SMTLIB2)
        declared = re.findall(r"\(declare-fun (P_\w+) ", text)
        assert sorted(declared) == ["P__u000100", "P__x100"]


def _unescape(name: str) -> str:
    """The inverse of escape_ap, read left to right."""
    out, i = [], 0
    while i < len(name):
        if name[i] != "_":
            out.append(name[i])
            i += 1
        elif name[i + 1] == "_":
            out.append("_")
            i += 2
        else:
            width = {"x": 2, "u": 6}[name[i + 1]]
            out.append(chr(int(name[i + 2:i + 2 + width], 16)))
            i += 2 + width
    return "".join(out)


class TestFiniteInterpretation:
    def test_minimal_globally_model(self):
        nsa = nsa_for(PHI_G)
        model = LassoTraceSet((lasso([], [{"a"}]),))
        interp = build_finite_interpretation(PHI_G, nsa, model)
        assert interp.domains["Time"] == (0, 1)
        assert interp.functions["succ"] == {(0,): 1, (1,): 1}
        theta = encode_func(PHI_G, nsa)
        assert fol.eval_finite(theta.formula, interp)

    def test_loop_lengths_lcm(self):
        phi = parse('forall p. G ("a"_p | ! "a"_p)')
        nsa = nsa_for(phi)
        model = LassoTraceSet(
            (lasso([], [{"a"}, set()]), lasso([], [{"a"}, set(), set()])))
        interp = build_finite_interpretation(phi, nsa, model)
        assert len(interp.domains["Time"]) >= 1 + 6  # stem 1, lcm(2,3) = 6
        assert fol.eval_finite(encode_func(phi, nsa).formula, interp)

    def test_time_domain_over_the_position_cap(self, monkeypatch):
        # the oracle evaluates a^omega at 0 + 2 * 1 positions, within the
        # lowered cap, but the automaton's run on it has a stem of 3
        # states, so the time domain needs 3 + 1 points
        phi = parse('forall p. X X X G "a"_p')
        model = LassoTraceSet((lasso([], [{"a"}]),))
        monkeypatch.setattr(kernel, "POSITION_CAP", 3)
        with pytest.raises(LcmOverflowError, match="position cap"):
            build_finite_interpretation(phi, nsa_for(phi), model)
        monkeypatch.setattr(kernel, "POSITION_CAP", 4)
        interp = build_finite_interpretation(phi, nsa_for(phi), model)
        assert interp.domains["Time"] == (0, 1, 2, 3)

    def test_not_a_model_rejected(self):
        nsa = nsa_for(PHI_G)
        model = LassoTraceSet((lasso([], [set()]),))
        with pytest.raises(NotAModelError):
            build_finite_interpretation(PHI_G, nsa, model)

    def test_found_models_yield_satisfying_interpretations(self):
        # the func and pred problems on the models of at least 150 safe
        # random formulas at (2, 1, 2)
        rng = random.Random(321)
        hits = 0
        for seed in range(170):
            nq = rng.randint(1, 2)
            prefix = [rng.choice(["forall", "exists"]) for _ in range(nq)]
            phi = gen_random(prefix, rng.randint(1, 8), 2, True, seed)
            hits += _found_model_satisfies_the_problems(phi, (2, 1, 2))
        assert hits >= 150

    def test_found_built_in_models_yield_satisfying_interpretations(self):
        # (2, 0, 1) finds the 11 built-ins that (2, 1, 2) finds, in a
        # fraction of the time the exhaustive searches take there
        hits = sum(_found_model_satisfies_the_problems(case.formula, (2, 0, 1))
                   for family in FAMILIES.values() for case in family())
        assert hits >= 11


def pred_interpretation(interp):
    """The interpretation of the func problem with succ read as the graph
    of its cyclic successor: an interpretation of the pred problem."""
    functions = dict(interp.functions)
    graph = {(k, after) for (k,), after in functions.pop("succ").items()}
    return fol.FiniteInterpretation(interp.domains, functions,
                                    {**interp.predicates, "succ": graph})


def _found_model_satisfies_the_problems(phi, bounds) -> bool:
    """Whether the oracle finds a model of phi within bounds; if it does,
    the model's finite interpretation must satisfy phi's func and pred
    problems."""
    result = bounded_find_model(phi, *bounds)
    if not isinstance(result, Found):
        return False
    nsa = nsa_for(phi)
    interp = build_finite_interpretation(phi, nsa, result.model)
    assert fol.eval_finite(encode_func(phi, nsa).formula, interp)
    assert fol.eval_finite(encode_pred(phi, nsa).formula,
                           pred_interpretation(interp))
    return True
