import random

import pytest

from hypersat.fol import (And, DomainEmptyError, Exists, FiniteInterpretation,
                          Forall, FunApp, FunDecl, IntAdd, IntConst,
                          IntegerSortPresentError, IntLess, Not, Or, PredApp,
                          PredDecl, Signature, Sort, SortError,
                          UnboundFolVariableError, Var, check_sorts,
                          eval_finite)

SIG = Signature(
    sorts=(Sort("Trace"), Sort("Time")),
    functions=(FunDecl("i0", (), "Time"), FunDecl("succ", ("Time",), "Time")),
    predicates=(PredDecl("P_a", ("Trace", "Time")),
                PredDecl("S_q", ("Trace", "Trace", "Time"))),
)


def forall_trace(var, body):
    return Forall(var, "Trace", body)


class TestCheckSorts:
    def test_well_sorted_application(self):
        f = forall_trace("x", Forall("i", "Time",
                                     PredApp("P_a", (Var("x", "Trace"),
                                                     Var("i", "Time")))))
        check_sorts(f, SIG)

    def test_wrong_argument_sort(self):
        f = forall_trace("x", PredApp("P_a", (
            Var("x", "Trace"),
            FunApp("succ", (Var("x", "Trace"),)))))
        with pytest.raises(SortError):
            check_sorts(f, SIG)

    def test_wrong_arity(self):
        f = forall_trace("x", Forall("i", "Time", PredApp(
            "S_q", (Var("x", "Trace"), Var("i", "Time")))))
        with pytest.raises(SortError):
            check_sorts(f, SIG)

    def test_unbound_variable(self):
        f = PredApp("P_a", (Var("x", "Trace"), FunApp("i0")))
        with pytest.raises(UnboundFolVariableError):
            check_sorts(f, SIG)

    def test_integer_fragment(self):
        sig = Signature((Sort("Trace"), Sort("Int", builtin_int=True)),
                        (),
                        (PredDecl("P_a", ("Trace", "Int")),))
        f = forall_trace("x", Forall("i", "Int", And((
            PredApp("P_a", (Var("x", "Trace"), IntAdd(Var("i", "Int"), 1))),
            IntLess(IntConst(0), Var("i", "Int"))))))
        check_sorts(f, sig)


class TestQuantifierNodes:
    def test_equality_and_hash_follow_the_fields(self):
        def build(kinds, names, sort="S"):
            f = PredApp("P", (Var("x0", sort),))
            for kind, name in zip(reversed(kinds), reversed(names)):
                f = kind(name, sort, f)
            return f
        base = build([Forall, Exists, Forall], ["x0", "x1", "x2"])
        same = build([Forall, Exists, Forall], ["x0", "x1", "x2"])
        assert base == same and hash(base) == hash(same)
        assert base != build([Forall, Forall, Forall], ["x0", "x1", "x2"])
        assert base != build([Forall, Exists, Forall], ["x0", "x1", "x3"])
        assert base != build([Forall, Exists, Forall], ["x0", "x1", "x2"], "T")
        assert base != build([Forall, Exists], ["x0", "x1"])
        assert base != Exists("x0", "S", base.body)
        assert base != base.body and base.body != base
        assert len({base, same, base.body}) == 2


class TestEvalFinite:
    def test_forall_over_singleton(self):
        interp = FiniteInterpretation(
            domains={"S": ("d",)}, predicates={"P": {("d",)}})
        assert eval_finite(Forall("x", "S", PredApp("P", (Var("x", "S"),))),
                           interp)

    def test_exists_negated(self):
        interp = FiniteInterpretation(
            domains={"S": ("d",)}, predicates={"P": {("d",)}})
        assert not eval_finite(
            Exists("x", "S", Not(PredApp("P", (Var("x", "S"),)))), interp)

    def test_function_tables(self):
        interp = FiniteInterpretation(
            domains={"Time": (0, 1)},
            functions={"succ": {(0,): 1, (1,): 1}, "i0": {(): 0}},
            predicates={"P": {(1,)}})
        f = PredApp("P", (FunApp("succ", (FunApp("i0"),)),))
        assert eval_finite(f, interp)

    def test_bound_variable_renaming_invariance(self):
        interp = FiniteInterpretation(
            domains={"S": ("d", "e")}, predicates={"P": {("d",)}})
        f1 = Exists("x", "S", PredApp("P", (Var("x", "S"),)))
        f2 = Exists("fresh", "S", PredApp("P", (Var("fresh", "S"),)))
        assert eval_finite(f1, interp) == eval_finite(f2, interp)

    def test_forall_equals_explicit_conjunction(self):
        domain = ("a", "b", "c", "d")
        rel = {("a",), ("c",)}
        interp = FiniteInterpretation(domains={"S": domain},
                                      predicates={"P": rel})
        quantified = Forall("x", "S", PredApp("P", (Var("x", "S"),)))
        expanded = all((d,) in rel for d in domain)
        assert eval_finite(quantified, interp) == expanded
        interp2 = FiniteInterpretation(domains={"S": domain},
                                       predicates={"P": {(d,) for d in domain}})
        assert eval_finite(quantified, interp2)

    def test_integer_formulas_rejected(self):
        interp = FiniteInterpretation(domains={"S": ("d",)})
        with pytest.raises(IntegerSortPresentError):
            eval_finite(IntLess(IntConst(0), IntConst(1)), interp)

    def test_empty_domain_rejected(self):
        interp = FiniteInterpretation(domains={"S": ()})
        with pytest.raises(DomainEmptyError):
            eval_finite(Forall("x", "S", Or(())), interp)

    def test_empty_connectives(self):
        interp = FiniteInterpretation(domains={"S": ("d",)})
        assert eval_finite(And(()), interp)
        assert not eval_finite(Or(()), interp)

    def test_a_deep_alternating_prefix(self):
        # a run of quantifiers is evaluated in a loop: 1,100 alternating
        # variables raised RecursionError when each took its own frames
        f = PredApp("P", (Var("x0", "S"),))
        for k in reversed(range(1100)):
            f = (Forall, Exists)[k % 2](f"x{k}", "S", f)
        interp = FiniteInterpretation(domains={"S": ("d",)},
                                      predicates={"P": {("d",)}})
        assert eval_finite(f, interp)
        assert not eval_finite(Not(f), interp)

    def test_quantifiers_stop_where_all_and_any_stop(self):
        # the same value and the same predicate lookups, in the same order,
        # as the recursive reading by all() and any(), on random formulas
        # whose variables shadow each other
        rng = random.Random(9)
        looked = 0
        for _ in range(400):
            domain = tuple(range(rng.randint(1, 3)))
            lookups = []
            table = {(rng.choice(domain), rng.choice(domain))
                     for _ in range(rng.randint(0, 6))}
            interp = FiniteInterpretation(
                domains={"S": domain},
                predicates={"P": LoggedSet(table, lookups)})
            f = random_closed(rng, 4, [])
            got = eval_finite(f, interp)
            seen = lookups[:]
            lookups.clear()
            assert (got, seen) == (recursive_eval(f, interp, {}), lookups)
            looked += len(seen) > 1
        assert looked >= 200


class LoggedSet(set):
    """A set that logs each element asked for."""

    def __init__(self, items, log: list):
        super().__init__(items)
        self.log = log

    def __contains__(self, item):
        self.log.append(item)
        return super().__contains__(item)


def random_closed(rng, depth: int, bound: list):
    """A random formula over P/2 and variables that shadow each other."""
    if bound and (depth == 0 or rng.random() < 0.25):
        return PredApp("P", (Var(rng.choice(bound), "S"),
                             Var(rng.choice(bound), "S")))
    if not bound or rng.random() < 0.5:
        var = rng.choice("xyz")
        return rng.choice((Forall, Exists))(
            var, "S", random_closed(rng, max(depth - 1, 0), bound + [var]))
    if rng.random() < 0.2:
        return Not(random_closed(rng, depth - 1, bound))
    return rng.choice((And, Or))(tuple(
        random_closed(rng, depth - 1, bound)
        for _ in range(rng.randint(1, 3))))


def recursive_eval(f, interp, env) -> bool:
    """The reading by recursion, with the early exit of all() and any()."""
    if isinstance(f, PredApp):
        return tuple(env[t.name] for t in f.args) in interp.predicates[f.name]
    if isinstance(f, Not):
        return not recursive_eval(f.arg, interp, env)
    if isinstance(f, (And, Or)):
        pick = all if isinstance(f, And) else any
        return pick(recursive_eval(g, interp, env) for g in f.args)
    pick = all if isinstance(f, Forall) else any
    return pick(recursive_eval(f.body, interp, {**env, f.var: d})
                for d in interp.domains[f.sort])
