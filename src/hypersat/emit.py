"""Serialize encoded problems to SMT-LIB 2 or TPTP TFF text.

Emission is a pure function of the problem: declaration order follows the
signature, and layout decisions depend only on the rendered text, so
identical problems produce identical bytes.

Both formats are laid out measure-first, with one measure shape.  One
bottom-up pass measures every form at its indent: a form that fits on one
line is measured as its text, any other form as the list of its parts'
measures with the line-break strings between them, and _lay_out writes any
measure out.  The encoder shares repeated subformulas, so a problem is a
DAG; within one emit call each shared node is measured once per (node,
indent), and a list holds its parts' measures rather than copies of their
text, so the emitted text is built only once.  In both formats the
one-line text of an atom or term is made once per node, from its
arguments' texts; it is the measure wherever it fits (a TPTP atom never
breaks), and only an SMT-LIB atom or term that does not fit is measured
as an s-expression.  A TPTP type is printed once per declared signature.

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
from functools import cache

from . import fol
from .encoder import EncodedProblem, EncodingKind


class OutputFormat(Enum):
    SMTLIB2 = "smtlib"
    TPTP_TFF = "tptp"


FILE_EXTENSIONS = {OutputFormat.SMTLIB2: ".smt2", OutputFormat.TPTP_TFF: ".p"}

_WIDTH = 96
# atoms, and atoms and terms, by class: cheaper than isinstance on a miss
_ATOMS = frozenset({fol.PredApp, fol.IntLess})
_TERMS = _ATOMS | {fol.Var, fol.FunApp, fol.IntConst, fol.IntAdd}


def emit(problem: EncodedProblem, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.SMTLIB2:
        return emit_smtlib(problem)
    return emit_tptp(problem)


def _form(parts: list, column: int, flat: tuple, broken: tuple):
    """Measure of a form whose first line starts at column: its one-line
    text when every part is one line and the text ends by _WIDTH, else its
    parts with the line-break strings between them.  flat and broken are
    the (open, separator, close) strings of each layout.  A form that fits
    has parts that fit further in, so one bottom-up pass decides every
    break."""
    opening, separator, closing = flat
    length = (column + len(opening) + len(closing)
              + len(separator) * (len(parts) - 1))
    for part in parts:
        if not isinstance(part, str):
            break
        length += len(part)
    else:
        if length <= _WIDTH:
            return opening + separator.join(parts) + closing
    opening, separator, closing = broken
    out = [separator] * (2 * len(parts) + 1)
    out[1::2] = parts
    out[0], out[-1] = opening, closing
    return out


@cache
def _newline(columns: int, text: str = "") -> str:
    """A line break, the indent of the next line, and text after it; made
    once per (columns, text), since every broken form at a depth uses it."""
    return "\n" + " " * columns + text


def _lay_out(measure, out: list) -> None:
    """Append the text of a measure."""
    if isinstance(measure, str):
        out.append(measure)
        return
    for part in measure:
        if isinstance(part, str):
            out.append(part)
        else:
            _lay_out(part, out)


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
    _lay_out(_smt_formula(problem.formula, 0, {}, len("(assert )")), out)
    out.append(")\n(check-sat)\n")
    return "".join(out)


def _sexpr(head: str, children: list, indent: int, extra: int = 0):
    """Measure of an s-expression whose children were measured at indent +
    2; extra counts the columns of a prefix and suffix on its own line."""
    return _form([head, *children], indent + extra, ("(", " ", ")"),
                 ("(", _newline(indent + 2), ")"))


def _smt_parts(t) -> tuple:
    """Head and arguments of an atom or term; an argument is a node or, for
    an integer, its text."""
    if isinstance(t, (fol.PredApp, fol.FunApp)):
        return t.name, t.args
    if isinstance(t, fol.Var):
        return t.name, ()
    if isinstance(t, fol.IntConst):
        return (str(t.value), ()) if t.value >= 0 else ("-", (str(-t.value),))
    if isinstance(t, fol.IntAdd):
        return "+", (t.arg, str(t.offset))
    if isinstance(t, fol.IntLess):
        return "<", (t.left, t.right)
    raise fol.FolError(f"cannot emit {t!r}")


def _smt_term(t, memo: dict) -> str:
    """One-line text of an atom or term not yet in memo, which maps id(node)
    to it: made from its arguments' one-line texts, and kept there."""
    head, args = _smt_parts(t)
    if args:
        parts = [head]
        for a in args:
            parts.append(a if isinstance(a, str) else
                         memo.get(id(a)) or _smt_term(a, memo))
        head = "(" + " ".join(parts) + ")"
    memo[id(t)] = head
    return head


def _smt_formula(f, indent: int, memo: dict, extra: int = 0):
    """Measure of a formula, atom or term at indent.  memo maps (id(node),
    indent, extra) to the measures of one emit call, whose problem keeps
    every node alive, and the id(node) of an atom or term to its one-line
    text, which is its measure wherever it fits."""
    key = (id(f), indent, extra)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _smt_measure(f, indent, memo, extra)
    return found


def _smt_measure(f, indent: int, memo: dict, extra: int):
    inner = indent + 2
    if f.__class__ in _TERMS:
        text = memo.get(id(f)) or _smt_term(f, memo)
        if indent + extra + len(text) <= _WIDTH:
            return text
        head, args = _smt_parts(f)
        return _sexpr(head, [a if isinstance(a, str) else _smt_formula(
            a, inner, memo) for a in args], indent, extra) if args else text
    if isinstance(f, fol.Not):
        return _sexpr("not", [_smt_formula(f.arg, inner, memo)], indent,
                      extra)
    if isinstance(f, (fol.And, fol.Or)):
        conj = isinstance(f, fol.And)
        if not f.args:
            return "true" if conj else "false"
        if len(f.args) == 1:
            return _smt_formula(f.args[0], indent, memo, extra)
        return _sexpr("and" if conj else "or",
                      [_smt_formula(g, inner, memo) for g in f.args], indent,
                      extra)
    if isinstance(f, fol.Implies):
        return _sexpr("=>", [_smt_formula(f.left, inner, memo),
                             _smt_formula(f.right, inner, memo)], indent,
                      extra)
    if isinstance(f, (fol.Forall, fol.Exists)):
        head = "forall" if isinstance(f, fol.Forall) else "exists"
        # the binding list prints on one line even when it does not fit
        binding = f"(({f.var} {f.sort}))"
        return _sexpr(head, [binding, _smt_formula(f.body, inner, memo)],
                      indent, extra)
    raise fol.FolError(f"cannot emit formula {f!r}")


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
    types = {}
    for fn in sig.functions:
        lines.append(_tptp_decl(fn.name, fn.arg_sorts, fn.result_sort, types))
    for pred in sig.predicates:
        lines.append(_tptp_decl(pred.name, pred.arg_sorts, "$o", types))
    lines.append("tff(problem, axiom,\n  ")
    out = ["\n".join(lines)]
    _lay_out(_tptp_formula(problem.formula, 1, {}), out)
    out.append(").\n")
    return "".join(out)


def _tptp_decl(name: str, arg_sorts: tuple, result: str, types: dict) -> str:
    """A declaration; types maps (arg_sorts, result) to the type text of
    one emit call."""
    typ = types.get((arg_sorts, result))
    if typ is None:
        args = [_tptp_symbol(a) for a in arg_sorts]
        typ = _tptp_symbol(result)
        if len(args) == 1:
            typ = f"{args[0]} > {typ}"
        elif args:
            typ = "(" + " * ".join(args) + f") > {typ}"
        types[arg_sorts, result] = typ
    s = _tptp_symbol(name)
    return f"tff({s}_decl, type, {s}: {typ})."


def _tptp_term(t, memo: dict) -> str:
    """Text of an atom or term, made once per node from its arguments'
    texts; memo maps id(node) to it."""
    text = memo.get(id(t))
    if text is None:
        if isinstance(t, (fol.PredApp, fol.FunApp)):
            text = _tptp_symbol(t.name)
            if t.args:
                text += "(" + ", ".join([memo.get(id(a)) or _tptp_term(
                    a, memo) for a in t.args]) + ")"
        elif isinstance(t, fol.Var):
            text = _tptp_var(t.name)
        elif isinstance(t, fol.IntConst):
            text = str(t.value)
        elif isinstance(t, fol.IntAdd):
            text = f"$sum({_tptp_term(t.arg, memo)}, {t.offset})"
        elif isinstance(t, fol.IntLess):
            text = (f"$less({_tptp_term(t.left, memo)}, "
                    f"{_tptp_term(t.right, memo)})")
        else:
            raise fol.FolError(f"cannot emit {t!r}")
        memo[id(t)] = text
    return text


def _tptp_formula(f: fol.FolFormula, indent: int, memo: dict):
    """Measure of f at indent (in steps of two columns); memo maps
    (id(node), indent) to the measures of one emit call, and the id(node)
    of an atom or term, whose text no indent changes, to that text."""
    if f.__class__ in _ATOMS:
        return memo.get(id(f)) or _tptp_term(f, memo)
    key = (id(f), indent)
    found = memo.get(key)
    if found is None:
        found = memo[key] = _tptp_measure(f, indent, memo)
    return found


def _tptp_measure(f: fol.FolFormula, indent: int, memo: dict):
    column = 2 * indent
    if isinstance(f, fol.Not):  # a prefix that never breaks by itself
        body = _tptp_formula(f.arg, indent, memo)
        return "~ " + body if isinstance(body, str) else ["~ ", body]
    if isinstance(f, (fol.And, fol.Or)):
        if not f.args:
            return "$true" if isinstance(f, fol.And) else "$false"
        if len(f.args) == 1:
            return _tptp_formula(f.args[0], indent, memo)
        op = "& " if isinstance(f, fol.And) else "| "
        return _form([_tptp_formula(g, indent + 1, memo) for g in f.args],
                     column, ("(", " " + op, ")"),
                     ("( ", _newline(column, op), " )"))
    if isinstance(f, fol.Implies):
        return _form([_tptp_formula(f.left, indent + 1, memo),
                      _tptp_formula(f.right, indent + 1, memo)], column,
                     ("(", " => ", ")"), ("(", _newline(column, " => "), ")"))
    if isinstance(f, (fol.Forall, fol.Exists)):
        quant = "!" if isinstance(f, fol.Forall) else "?"
        head = f"{quant}[{_tptp_var(f.var)}: {_tptp_symbol(f.sort)}]:"
        return _form([head, _tptp_formula(f.body, indent + 1, memo)], column,
                     ("", " ", ""), ("", _newline(column + 2), ""))
    raise fol.FolError(f"cannot emit formula {f!r}")
