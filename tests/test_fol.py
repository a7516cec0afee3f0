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
