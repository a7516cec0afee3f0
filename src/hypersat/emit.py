"""Serialize encoded problems to SMT-LIB 2 or TPTP TFF text.

Emission is a pure function of the problem: declaration order follows the
signature, and layout decisions depend only on the rendered text, so
identical problems produce identical bytes.

Both formats are laid out measure-first.  One bottom-up pass measures
every form at its indent: a form that stays on one line becomes its text,
any other form a structure of its parts, and one more pass writes the
structures out.  The encoder shares repeated subformulas, so a problem is
a DAG; within one emit call each shared node is measured once per
(node, indent), and a structure holds its parts' measures rather than
copies of their text, so the emitted text is built only once.  A TPTP
atom prints the same at every indent, so its text is made once per node.

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
    out = ["\n".join(lines), "\n(assert "]
    _lay_out(_smt_formula(problem.formula, 0, {}, len("(assert )")), 0, out)
    out.append(")\n(check-sat)\n")
    return "".join(out)


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


def _smt_formula(f: fol.FolFormula, indent: int, memo: dict, extra: int = 0):
    """Measure of f at indent; memo maps (id(node), indent, extra) to the
    measures of one emit call, whose problem keeps every node alive."""
    key = (id(f), indent, extra)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _smt_measure(f, indent, memo, extra)
    return found


def _smt_measure(f: fol.FolFormula, indent: int, memo: dict, extra: int):
    inner = indent + 2
    if isinstance(f, fol.PredApp):
        if not f.args:
            return f.name
        return _form(f.name, [_smt_term(a, inner) for a in f.args], indent,
                     extra)
    if isinstance(f, fol.Not):
        return _form("not", [_smt_formula(f.arg, inner, memo)], indent,
                     extra)
    if isinstance(f, (fol.And, fol.Or)):
        conj = isinstance(f, fol.And)
        if not f.args:
            return "true" if conj else "false"
        if len(f.args) == 1:
            return _smt_formula(f.args[0], indent, memo, extra)
        return _form("and" if conj else "or",
                     [_smt_formula(g, inner, memo) for g in f.args], indent,
                     extra)
    if isinstance(f, fol.Implies):
        return _form("=>", [_smt_formula(f.left, inner, memo),
                            _smt_formula(f.right, inner, memo)], indent,
                     extra)
    if isinstance(f, (fol.Forall, fol.Exists)):
        head = "forall" if isinstance(f, fol.Forall) else "exists"
        # the binding list prints on one line even when it does not fit
        binding = f"(({f.var} {f.sort}))"
        return _form(head, [binding, _smt_formula(f.body, inner, memo)],
                     indent, extra)
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
    lines.append("tff(problem, axiom,\n  ")
    out = ["\n".join(lines)]
    _tptp_lay_out(_tptp_formula(problem.formula, 1, {}), out)
    out.append(").\n")
    return "".join(out)


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


# A form's measure is its text without the indent of its first line: a
# string when the form and all its parts stay on one line, else a
# (length, parts) structure that _tptp_lay_out writes out.  Line-break
# decisions read only lengths, which count a broken form's newlines and
# indents as its text would.

def _tptp_length(measure) -> int:
    return len(measure) if isinstance(measure, str) else measure[0]


def _tptp_join(parts: list, flat: bool = True):
    """Measure of a form made of parts; one that breaks over lines is never
    joined, so only one-line text is ever kept."""
    if flat and all(isinstance(part, str) for part in parts):
        return "".join(parts)
    return (sum(map(_tptp_length, parts)), parts)


def _tptp_formula(f: fol.FolFormula, indent: int, memo: dict):
    """Measure of f at indent (in steps of two columns); memo maps
    (id(node), indent) to the measures of one emit call, and the id(node)
    of an atom, whose one-line text no indent changes, to that text."""
    key = id(f) if isinstance(f, _TPTP_ATOMS) else (id(f), indent)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _tptp_measure(f, indent, memo)
    return found


_TPTP_ATOMS = (fol.PredApp, fol.IntLess)


def _tptp_measure(f: fol.FolFormula, indent: int, memo: dict):
    pad = "  " * indent
    if isinstance(f, fol.PredApp):
        name = _tptp_symbol(f.name)
        if not f.args:
            return name
        return name + "(" + ", ".join(_tptp_term(a) for a in f.args) + ")"
    if isinstance(f, fol.Not):
        return _tptp_join(["~ ", _tptp_formula(f.arg, indent, memo)])
    if isinstance(f, (fol.And, fol.Or)):
        if not f.args:
            return "$true" if isinstance(f, fol.And) else "$false"
        if len(f.args) == 1:
            return _tptp_formula(f.args[0], indent, memo)
        op = "&" if isinstance(f, fol.And) else "|"
        parts = [_tptp_formula(g, indent + 1, memo) for g in f.args]
        flat = (sum(map(_tptp_length, parts)) + len(pad) + 3 * len(parts)
                - 1 <= _WIDTH)
        sep = f" {op} " if flat else f"\n{pad}{op} "
        out = ["(" if flat else "( "]
        for part in parts:
            out += (part, sep)
        out[-1] = ")" if flat else " )"
        return _tptp_join(out, flat)
    if isinstance(f, fol.Implies):
        left = _tptp_formula(f.left, indent + 1, memo)
        right = _tptp_formula(f.right, indent + 1, memo)
        if _tptp_length(left) + _tptp_length(right) + 6 + len(pad) <= _WIDTH:
            return _tptp_join(["(", left, " => ", right, ")"])
        return _tptp_join(["(", left, f"\n{pad} => ", right, ")"], False)
    if isinstance(f, (fol.Forall, fol.Exists)):
        quant = "!" if isinstance(f, fol.Forall) else "?"
        head = f"{quant}[{_tptp_var(f.var)}: {_tptp_symbol(f.sort)}]:"
        body = _tptp_formula(f.body, indent + 1, memo)
        if len(head) + 1 + _tptp_length(body) + len(pad) <= _WIDTH:
            return _tptp_join([head, " ", body])
        return _tptp_join([head, f"\n{pad}  ", body], False)
    if isinstance(f, fol.IntLess):
        return f"$less({_tptp_term(f.left)}, {_tptp_term(f.right)})"
    raise fol.FolError(f"cannot emit formula {f!r}")


def _tptp_lay_out(measure, out: list) -> None:
    """Append the text of a measured form."""
    if isinstance(measure, str):
        out.append(measure)
        return
    for part in measure[1]:
        if isinstance(part, str):
            out.append(part)
        else:
            _tptp_lay_out(part, out)
