"""Serialize encoded problems to SMT-LIB 2 or TPTP TFF text.

Emission is a pure function of the problem: declaration order follows the
signature, and layout decisions depend only on the rendered text, so
identical problems produce identical bytes.

SMT-LIB: uninterpreted sorts are declared with arity 0, predicates as
Bool-valued functions; integer-time problems use the builtin Int sort under
the UFLIA logic.  TPTP: typed first-order form with one axiom block; the
expected solver answers are the SZS statuses Satisfiable/Unsatisfiable.
TPTP requires functors to start with a lowercase letter and variables with
an uppercase one, so the first character of every symbol is lowercased and
the first character of every bound variable is uppercased (injective for
the generated name scheme, which never relies on case alone).
"""

from __future__ import annotations

from enum import Enum

from . import fol
from .encoder import EncodedProblem, EncodingKind


class OutputFormat(Enum):
    SMTLIB2 = "smtlib"
    TPTP_TFF = "tptp"


FILE_EXTENSIONS = {OutputFormat.SMTLIB2: ".smt2", OutputFormat.TPTP_TFF: ".p"}

_WIDTH = 96


def emit(problem: EncodedProblem, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.SMTLIB2:
        return emit_smtlib(problem)
    return emit_tptp(problem)


# ---------------------------------------------------------------------------
# SMT-LIB 2
# ---------------------------------------------------------------------------

def emit_smtlib(problem: EncodedProblem) -> str:
    sig = problem.signature
    lines = []
    logic = "UFLIA" if problem.kind is EncodingKind.LIA else "UF"
    lines.append(f"(set-logic {logic})")
    for sort in sig.sorts:
        if not sort.builtin_int:
            lines.append(f"(declare-sort {sort.name} 0)")
    for fn in sig.functions:
        args = " ".join(fn.arg_sorts)
        lines.append(f"(declare-fun {fn.name} ({args}) {fn.result_sort})")
    for pred in sig.predicates:
        args = " ".join(pred.arg_sorts)
        lines.append(f"(declare-fun {pred.name} ({args}) Bool)")
    out = ["(assert "]
    _lay_out(_smt_formula(problem.formula, 0, len("(assert )")), 0, out)
    out.append(")")
    lines.append("".join(out))
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# Each form is measured as it is built: the text of a form that fits on one
# line at its indent, else a list of its head and its children's measures,
# which _lay_out breaks over lines.  A form that fits has children that fit
# two columns further in, so this one bottom-up pass decides every break.

def _form(head: str, children: list, indent: int, extra: int = 0):
    """Measure of a form whose children were measured at indent + 2; extra
    counts the columns of a prefix and suffix on the form's own line."""
    length = len(head) + len(children) + 2
    for child in children:
        if not isinstance(child, str):
            return [head, *children]
        length += len(child)
    if indent + extra + length > _WIDTH:
        return [head, *children]
    return "(" + " ".join([head, *children]) + ")"


def _smt_term(t: fol.Term, indent: int):
    inner = indent + 2
    if isinstance(t, fol.Var):
        return t.name
    if isinstance(t, fol.FunApp):
        if not t.args:
            return t.name
        return _form(t.name, [_smt_term(a, inner) for a in t.args], indent)
    if isinstance(t, fol.IntConst):
        if t.value >= 0:
            return str(t.value)
        return _form("-", [str(-t.value)], indent)
    if isinstance(t, fol.IntAdd):
        return _form("+", [_smt_term(t.arg, inner), str(t.offset)], indent)
    raise fol.FolError(f"cannot emit term {t!r}")


def _smt_formula(f: fol.FolFormula, indent: int, extra: int = 0):
    inner = indent + 2
    if isinstance(f, fol.PredApp):
        if not f.args:
            return f.name
        return _form(f.name, [_smt_term(a, inner) for a in f.args], indent,
                     extra)
    if isinstance(f, fol.Not):
        return _form("not", [_smt_formula(f.arg, inner)], indent, extra)
    if isinstance(f, (fol.And, fol.Or)):
        conj = isinstance(f, fol.And)
        if not f.args:
            return "true" if conj else "false"
        if len(f.args) == 1:
            return _smt_formula(f.args[0], indent, extra)
        return _form("and" if conj else "or",
                     [_smt_formula(g, inner) for g in f.args], indent, extra)
    if isinstance(f, fol.Implies):
        return _form("=>", [_smt_formula(f.left, inner),
                            _smt_formula(f.right, inner)], indent, extra)
    if isinstance(f, (fol.Forall, fol.Exists)):
        head = "forall" if isinstance(f, fol.Forall) else "exists"
        # the binding list prints on one line even when it does not fit
        binding = f"(({f.var} {f.sort}))"
        return _form(head, [binding, _smt_formula(f.body, inner)], indent,
                     extra)
    if isinstance(f, fol.IntLess):
        return _form("<", [_smt_term(f.left, inner),
                           _smt_term(f.right, inner)], indent, extra)
    raise fol.FolError(f"cannot emit formula {f!r}")


def _lay_out(measure, indent: int, out: list) -> None:
    """Append the text of a measured form whose first line starts at indent."""
    if isinstance(measure, str):
        out.append(measure)
        return
    head, *children = measure
    out += ("(", head)
    newline = "\n" + " " * (indent + 2)
    for child in children:
        out.append(newline)
        _lay_out(child, indent + 2, out)
    out.append(")")


# ---------------------------------------------------------------------------
# TPTP TFF
# ---------------------------------------------------------------------------

def _tptp_symbol(name: str) -> str:
    if name == fol.INT_SORT:
        return "$int"
    return name[0].lower() + name[1:]


def _tptp_var(name: str) -> str:
    return name[0].upper() + name[1:]


def emit_tptp(problem: EncodedProblem) -> str:
    sig = problem.signature
    lines = []
    for sort in sig.sorts:
        if not sort.builtin_int:
            s = _tptp_symbol(sort.name)
            lines.append(f"tff({s}_type, type, {s}: $tType).")
    for fn in sig.functions:
        lines.append(_tptp_decl(fn.name, fn.arg_sorts, fn.result_sort))
    for pred in sig.predicates:
        lines.append(_tptp_decl(pred.name, pred.arg_sorts, "$o"))
    body = _tptp_formula(problem.formula, indent=1)
    lines.append(f"tff(problem, axiom,\n{body}).")
    return "\n".join(lines) + "\n"


def _tptp_decl(name: str, arg_sorts, result: str) -> str:
    s = _tptp_symbol(name)
    args = [_tptp_symbol(a) for a in arg_sorts]
    result = _tptp_symbol(result) if result not in ("$o",) else result
    if not args:
        typ = result
    elif len(args) == 1:
        typ = f"{args[0]} > {result}"
    else:
        typ = "(" + " * ".join(args) + f") > {result}"
    return f"tff({s}_decl, type, {s}: {typ})."


def _tptp_term(t: fol.Term) -> str:
    if isinstance(t, fol.Var):
        return _tptp_var(t.name)
    if isinstance(t, fol.FunApp):
        name = _tptp_symbol(t.name)
        if not t.args:
            return name
        return name + "(" + ", ".join(_tptp_term(a) for a in t.args) + ")"
    if isinstance(t, fol.IntConst):
        return str(t.value)
    if isinstance(t, fol.IntAdd):
        return f"$sum({_tptp_term(t.arg)}, {t.offset})"
    raise fol.FolError(f"cannot emit term {t!r}")


def _tptp_formula(f: fol.FolFormula, indent: int) -> str:
    pad = "  " * indent
    if isinstance(f, fol.PredApp):
        name = _tptp_symbol(f.name)
        if not f.args:
            return pad + name
        return pad + name + "(" + ", ".join(_tptp_term(a) for a in f.args) + ")"
    if isinstance(f, fol.Not):
        inner = _tptp_formula(f.arg, indent).lstrip()
        return pad + "~ " + inner
    if isinstance(f, (fol.And, fol.Or)):
        if not f.args:
            return pad + ("$true" if isinstance(f, fol.And) else "$false")
        if len(f.args) == 1:
            return _tptp_formula(f.args[0], indent)
        op = "&" if isinstance(f, fol.And) else "|"
        parts = [_tptp_formula(g, indent + 1).lstrip() for g in f.args]
        if sum(map(len, parts)) + len(pad) + 3 * len(parts) - 1 <= _WIDTH:
            return pad + "(" + f" {op} ".join(parts) + ")"
        sep = f"\n{pad}{op} "
        return pad + "( " + sep.join(parts) + " )"
    if isinstance(f, fol.Implies):
        left = _tptp_formula(f.left, indent + 1).lstrip()
        right = _tptp_formula(f.right, indent + 1).lstrip()
        if len(left) + len(right) + 6 + len(pad) <= _WIDTH:
            return pad + f"({left} => {right})"
        return pad + "(" + left + f"\n{pad} => " + right + ")"
    if isinstance(f, (fol.Forall, fol.Exists)):
        quant = "!" if isinstance(f, fol.Forall) else "?"
        head = f"{quant}[{_tptp_var(f.var)}: {_tptp_symbol(f.sort)}]:"
        body = _tptp_formula(f.body, indent + 1)
        flat_body = body.lstrip()
        if len(head) + 1 + len(flat_body) + len(pad) <= _WIDTH:
            return pad + head + " " + flat_body
        return pad + head + "\n" + body
    if isinstance(f, fol.IntLess):
        return pad + f"$less({_tptp_term(f.left)}, {_tptp_term(f.right)})"
    raise fol.FolError(f"cannot emit formula {f!r}")
