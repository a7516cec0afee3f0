"""Many-sorted first-order logic: terms, formulas, signatures, and a
finite-domain evaluator.

Conjunction and disjunction are n-ary (an empty conjunction is true, an
empty disjunction false).  Integer arithmetic is restricted to the exact
fragment the encodings emit: the constants 0 and 1, term + constant, and
the comparisons < and =.  Formulas over the integer sort are not finitely
evaluable here; eval_finite rejects them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Verdict(Enum):
    """A solver's answer on a problem, and a bench case's expected one."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class FolError(Exception):
    pass


class SortError(FolError):
    def __init__(self, path: str, expected, found):
        super().__init__(f"at {path}: expected {expected}, found {found}")
        self.path = path
        self.expected = expected
        self.found = found


class UnboundFolVariableError(FolError):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name}")
        self.name = name


class IntegerSortPresentError(FolError):
    pass


class DomainEmptyError(FolError):
    pass


INT_SORT = "Int"


@dataclass(frozen=True)
class Sort:
    name: str
    builtin_int: bool = False


@dataclass(frozen=True)
class FunDecl:
    name: str
    arg_sorts: tuple
    result_sort: str


@dataclass(frozen=True)
class PredDecl:
    name: str
    arg_sorts: tuple


@dataclass(frozen=True)
class Signature:
    """Declaration order is meaningful: emitters print in this order."""

    sorts: tuple
    functions: tuple
    predicates: tuple

    def sort(self, name: str) -> Sort:
        return _declared(self.sorts, "sort", name)

    def function(self, name: str) -> FunDecl:
        return _declared(self.functions, "function", name)

    def predicate(self, name: str) -> PredDecl:
        return _declared(self.predicates, "predicate", name)


def _declared(decls: tuple, kind: str, name: str):
    for decl in decls:
        if decl.name == name:
            return decl
    raise FolError(f"undeclared {kind} {name}")


# Terms -----------------------------------------------------------------

class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: str


@dataclass(frozen=True)
class FunApp(Term):
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class IntConst(Term):
    value: int


@dataclass(frozen=True)
class IntAdd(Term):
    arg: Term
    offset: int


# Formulas --------------------------------------------------------------

class FolFormula:
    pass


@dataclass(frozen=True)
class PredApp(FolFormula):
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Not(FolFormula):
    arg: FolFormula


# And and Or share one shape, as Forall and Exists do
@dataclass(frozen=True)
class _Junction(FolFormula):
    args: tuple


class And(_Junction):
    pass


class Or(_Junction):
    pass


@dataclass(frozen=True)
class Implies(FolFormula):
    left: FolFormula
    right: FolFormula


@dataclass(frozen=True)
class _Quantified(FolFormula):
    var: str
    sort: str
    body: FolFormula

    # a run of quantifiers in a loop, as in _check_formula, so that a deep
    # prefix takes no frame per quantifier
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        while isinstance(self, _Quantified):
            if self is other:
                return True
            if (other.__class__ is not self.__class__ or other.var != self.var
                    or other.sort != self.sort):
                return False
            self, other = self.body, other.body
        return self == other

    def __hash__(self):
        run = []
        while isinstance(self, _Quantified):
            run.append(self)
            self = self.body
        value = hash(self)
        for q in reversed(run):
            value = hash((q.__class__, q.var, q.sort, value))
        return value


class Forall(_Quantified):
    pass


class Exists(_Quantified):
    pass


@dataclass(frozen=True)
class IntLess(FolFormula):
    left: Term
    right: Term


# Sort checking ---------------------------------------------------------

def check_sorts(formula: FolFormula, sig: Signature) -> None:
    """Raise SortError/UnboundFolVariableError unless well-sorted and closed."""
    _check_formula(formula, sig, {}, "root")


def _check_formula(f: FolFormula, sig: Signature, env: dict, path: str) -> None:
    if isinstance(f, PredApp):
        _check_args(f, sig.predicate(f.name), sig, env, path)
    elif isinstance(f, Not):
        _check_formula(f.arg, sig, env, path + ".not")
    elif isinstance(f, (And, Or)):
        for i, g in enumerate(f.args):
            _check_formula(g, sig, env, f"{path}[{i}]")
    elif isinstance(f, Implies):
        _check_formula(f.left, sig, env, path + ".lhs")
        _check_formula(f.right, sig, env, path + ".rhs")
    elif isinstance(f, (Forall, Exists)):
        # a run of quantifiers in a loop, with one copy of env, so that a
        # deep prefix takes no frame per quantifier
        env = dict(env)
        while isinstance(f, (Forall, Exists)):
            sig.sort(f.sort)
            env[f.var] = f.sort
            path = f"{path}.{f.var}"
            f = f.body
        _check_formula(f, sig, env, path)
    elif isinstance(f, IntLess):
        for side, term in (("lhs", f.left), ("rhs", f.right)):
            got = _term_sort(term, sig, env, f"{path}.{side}")
            if got != INT_SORT:
                raise SortError(f"{path}.{side}", INT_SORT, got)
    else:
        raise FolError(f"not a formula node: {f!r}")


def _term_sort(t: Term, sig: Signature, env: dict, path: str) -> str:
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundFolVariableError(t.name)
        if env[t.name] != t.sort:
            raise SortError(path, env[t.name], t.sort)
        return t.sort
    if isinstance(t, FunApp):
        decl = sig.function(t.name)
        _check_args(t, decl, sig, env, path)
        return decl.result_sort
    if isinstance(t, IntConst):
        return INT_SORT
    if isinstance(t, IntAdd):
        got = _term_sort(t.arg, sig, env, path + ".add")
        if got != INT_SORT:
            raise SortError(path + ".add", INT_SORT, got)
        return INT_SORT
    raise FolError(f"not a term node: {t!r}")


def _check_args(app, decl, sig: Signature, env: dict, path: str) -> None:
    """Check the arguments of a predicate or function application against
    its declaration."""
    if len(decl.arg_sorts) != len(app.args):
        raise SortError(path, f"{app.name}/{len(decl.arg_sorts)} args",
                        f"{len(app.args)} args")
    for i, (term, want) in enumerate(zip(app.args, decl.arg_sorts)):
        where = f"{path}.{app.name}[{i}]"
        got = _term_sort(term, sig, env, where)
        if got != want:
            raise SortError(where, want, got)


def mentions_integers(f: FolFormula) -> bool:
    """Whether f has an integer comparison, constant or sum, or a
    quantifier or variable of the integer sort: one walk over its formulas
    and terms on an explicit stack, so that depth costs no frames."""
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, (IntLess, IntConst, IntAdd)) or isinstance(
                node, (Var, _Quantified)) and node.sort == INT_SORT:
            return True
        if isinstance(node, (PredApp, FunApp, _Junction)):
            stack += node.args
        elif isinstance(node, _Quantified):
            stack.append(node.body)
        elif isinstance(node, Not):
            stack.append(node.arg)
        elif isinstance(node, Implies):
            stack += (node.left, node.right)
    return False


# Finite interpretations ------------------------------------------------

@dataclass
class FiniteInterpretation:
    """Finite domains and total tables for every declared symbol.

    domains maps sort name -> tuple of elements; functions maps name ->
    {arg tuple: value} (constants use the empty tuple); predicates maps
    name -> set of argument tuples.
    """

    domains: dict
    functions: dict = field(default_factory=dict)
    predicates: dict = field(default_factory=dict)


def eval_finite(formula: FolFormula, interp: FiniteInterpretation) -> bool:
    """Tarskian evaluation; quantifiers enumerate the finite domains."""
    if mentions_integers(formula):
        raise IntegerSortPresentError(
            "formulas over the integer sort have no finite evaluation")
    for sort, dom in interp.domains.items():
        if len(dom) == 0:
            raise DomainEmptyError(sort)
    return _eval(formula, interp, {})


def _eval(f: FolFormula, interp: FiniteInterpretation, env: dict) -> bool:
    if isinstance(f, PredApp):
        args = tuple(_eval_term(t, interp, env) for t in f.args)
        return args in interp.predicates.get(f.name, ())
    if isinstance(f, Not):
        return not _eval(f.arg, interp, env)
    if isinstance(f, And):
        return all(_eval(g, interp, env) for g in f.args)
    if isinstance(f, Or):
        return any(_eval(g, interp, env) for g in f.args)
    if isinstance(f, Implies):
        return (not _eval(f.left, interp, env)) or _eval(f.right, interp, env)
    if not isinstance(f, (Forall, Exists)):
        raise FolError(f"cannot evaluate {f!r}")
    # a run of quantifiers in a loop, as in _check_formula, with one
    # iterator over its domain per quantifier entered: a forall stops at
    # its first false instance and an exists at its first true one, as
    # all() and any() do, and that value, or the last one, passes up
    run = []
    while isinstance(f, (Forall, Exists)):
        run.append(f)
        f = f.body
    env, end = dict(env), object()
    stack, value = [], None  # None: enter quantifier len(stack) of the run
    while True:
        if value is None:
            q = run[len(stack)]
            stack.append(iter(interp.domains[q.sort]))
            value = isinstance(q, Forall)  # the value of no instance
        q = run[len(stack) - 1]
        d = end if value == isinstance(q, Exists) else next(stack[-1], end)
        if d is end:
            stack.pop()
            if not stack:
                return value
        else:
            env[q.var] = d
            value = None if len(stack) < len(run) else _eval(f, interp, env)


def _eval_term(t: Term, interp: FiniteInterpretation, env: dict):
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundFolVariableError(t.name)
        return env[t.name]
    if isinstance(t, FunApp):
        table = interp.functions[t.name]
        args = tuple(_eval_term(a, interp, env) for a in t.args)
        return table[args]
    raise FolError(f"cannot evaluate term {t!r}")
