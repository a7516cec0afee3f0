"""Serialize encoded problems to SMT-LIB 2 or TPTP TFF text.

Emission is a pure function of the problem: declaration order follows the
signature, and layout decisions depend only on the rendered text, so
identical problems produce identical bytes.

Both formats are laid out in two steps: by one flat pass (_flat) and one
atom and term printer (_term), which take the strings that a format puts
around a node's parts from its _Syntax table, then by its writer walk.
The encoder shares repeated subformulas, so a problem is a DAG.  First the
flat pass, bottom-up, gives each distinct node its one-line text, made from
its parts' texts and kept in a memo keyed by id(node) alone: a formula
keeps its text only while that is at most _WIDTH columns, and the empty
text otherwise, since it fits at no indent; an atom or term keeps its text
at any length.  Then the writer walk, top-down, appends a node's one-line
text where it ends by _WIDTH, and otherwise writes the node's broken form,
whose parts are measured two columns further in, and walks into them.  A
form that fits has parts that fit further in, so this breaks exactly the
forms whose one-line text does not fit where they start.  The width cap
keeps every memo text of a formula short, so the whole problem is never
built as one line.  Both passes step through a run of quantifiers in a
loop, so a deep quantifier prefix takes no frame per quantifier; every
other form takes one call per level.  The text of an application's
arguments, " x1 x2 i)" in SMT-LIB and "(X1, X2, I)" in TPTP, is made once
per emit call per argument tuple, and kept in the memo under the id of the
tuple that the nodes hold; a tuple made during the call is never keyed, as
a later one may reuse its id.  The encoder's state atoms at one time point
share one tuple, so each of them costs the concatenation of its name and
that text.  The writers differ where a form breaks: in SMT-LIB an atom or
term that does not fit breaks into its arguments; a TPTP atom never
breaks, and a TPTP negation is a prefix that never breaks by itself.  A
TPTP type is printed once per declared signature.

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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import fol
from .encoder import EncodedProblem, EncodingKind


class OutputFormat(Enum):
    SMTLIB2 = "smtlib"
    TPTP_TFF = "tptp"


FILE_EXTENSIONS = {OutputFormat.SMTLIB2: ".smt2", OutputFormat.TPTP_TFF: ".p"}

_WIDTH = 96
_AND, _OR, _NOT, _IMPLIES = fol.And, fol.Or, fol.Not, fol.Implies
_FORALL, _EXISTS = fol.Forall, fol.Exists
_PRED, _FUN = fol.PredApp, fol.FunApp


@dataclass(frozen=True, slots=True)
class _Syntax:
    """The strings that one format puts around a node's parts."""

    # each connective's opening, separator, closing, and text of no part
    and_: tuple
    or_: tuple
    not_: tuple
    implies: tuple
    quantifier: tuple  # its head, then " " and its body, and its closing
    application: tuple  # before its head, before its arguments, between them
    symbol: object  # the head of a predicate or function application
    parts: object  # the head and arguments of any other atom or term


def emit(problem: EncodedProblem, fmt: OutputFormat) -> str:
    if fmt is OutputFormat.SMTLIB2:
        return emit_smtlib(problem)
    return emit_tptp(problem)


def _flat(f, memo: dict, syntax: _Syntax) -> str:
    """One-line text of a node not yet in memo, which maps id(node) to the
    texts of one emit call, whose problem keeps every node alive; the empty
    text for a formula wider than _WIDTH."""
    cls = f.__class__
    if cls is _AND:
        parts, shape = f.args, syntax.and_
    elif cls is _OR:
        parts, shape = f.args, syntax.or_
    elif cls is _NOT:
        parts, shape = (f.arg,), syntax.not_
    elif cls is _IMPLIES:
        parts, shape = (f.left, f.right), syntax.implies
    elif cls is _FORALL or cls is _EXISTS:
        # a run of quantifiers in a loop, innermost last, so that a deep
        # prefix takes no frame per quantifier
        run = []
        while (cls is _FORALL or cls is _EXISTS) and id(f) not in memo:
            run.append(f)
            f = f.body
            cls = f.__class__
        text = memo.get(id(f))
        if text is None:
            text = _flat(f, memo, syntax)
        head, closing = syntax.quantifier
        for f in reversed(run):
            if text:
                text = f"{head(f)} {text}{closing}"
                if len(text) > _WIDTH:
                    text = ""
            memo[id(f)] = text
        return text
    else:
        return _term(f, memo, syntax)
    texts = []
    for g in parts:
        text = memo.get(id(g))
        texts.append(_flat(g, memo, syntax) if text is None else text)
    opening, separator, closing, empty = shape
    if len(parts) > 1 or cls is _NOT:
        text = "" if "" in texts else \
            f"{opening}{separator.join(texts)}{closing}"
        if len(text) > _WIDTH:
            text = ""
    else:  # an And or Or of one part, which prints as that part, or none
        text = texts[0] if parts else empty
    memo[id(f)] = text
    return text


def _term(t, memo: dict, syntax: _Syntax) -> str:
    """One-line text of an atom or term not yet in memo, as for _flat.  The
    text after the head of an application is kept there too, under the id
    of the argument tuple that the node holds."""
    cls = t.__class__
    if cls is _PRED or cls is _FUN:  # the most frequent, read without parts
        text, args = syntax.symbol(t.name), t.args
        after = memo.get(id(args))
    else:
        text, args = syntax.parts(t)
        after = None
    if args:
        lead, before, separator = syntax.application
        if after is None:
            after = before + separator.join([
                a if a.__class__ is str else
                memo.get(id(a)) or _term(a, memo, syntax) for a in args]) + ")"
            # parts makes fresh argument tuples for the other classes, which
            # a later one may reuse the id of, so their text is not kept
            if cls is _PRED or cls is _FUN:
                memo[id(args)] = after
        text = f"{lead}{text}{after}"
    memo[id(t)] = text
    return text


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
    memo = {}
    _flat(problem.formula, memo, _SMT)
    _smt_write(problem.formula, "\n", _WIDTH - len("(assert )"), memo, out)
    out.append(")\n(check-sat)\n")
    return "".join(out)


def _smt_parts(t) -> tuple:
    """Head and arguments of an atom or term; an argument is a node or, for
    an integer, its text."""
    cls = t.__class__
    if cls is fol.PredApp or cls is fol.FunApp:
        return t.name, t.args
    if cls is fol.Var:
        return t.name, ()
    if cls is fol.IntLess:
        return "<", (t.left, t.right)
    if cls is fol.IntAdd:
        return "+", (t.arg, str(t.offset))
    if cls is fol.IntConst:
        return (str(t.value), ()) if t.value >= 0 else ("-", (str(-t.value),))
    raise fol.FolError(f"cannot emit {t!r}")


def _smt_head(f) -> str:
    return ("(forall" if f.__class__ is _FORALL else "(exists") \
        + f" (({f.var} {f.sort}))"


_SMT = _Syntax(("(and ", " ", ")", "true"), ("(or ", " ", ")", "false"),
               ("(not ", "", ")", None), ("(=> ", " ", ")", None),
               (_smt_head, ")"), ("(", " ", " "), str, _smt_parts)


def _smt_write(f, pad: str, room: int, memo: dict, out: list) -> None:
    """Append the text of f, which fits where its one-line text is at most
    room columns; pad is the line break and indent of the line it starts
    on, and its broken parts start on lines two columns further in."""
    text = memo[id(f)]
    if text and len(text) <= room:
        out.append(text)
        return
    cls = f.__class__
    if cls is _AND or cls is _OR:
        parts = f.args
        if len(parts) < 2:  # true or false at any width, or its one part
            if parts:
                _smt_write(parts[0], pad, room, memo, out)
            else:
                out.append(text)
            return
        out.append("(and" if cls is _AND else "(or")
    elif cls is _NOT:
        out.append("(not")
        parts = (f.arg,)
    elif cls is _IMPLIES:
        out.append("(=>")
        parts = (f.left, f.right)
    elif cls is _FORALL or cls is _EXISTS:
        # a run of quantifiers that do not fit, in a loop; a binding list
        # prints on one line even where it does not fit
        closing = ""
        while cls is _FORALL or cls is _EXISTS:
            text = memo[id(f)]
            if text and len(text) <= room:
                break
            pad += "  "
            room = _WIDTH + 1 - len(pad)
            out += ("(forall" if cls is _FORALL else "(exists", pad,
                    f"(({f.var} {f.sort}))", pad)
            closing += ")"
            f = f.body
            cls = f.__class__
        _smt_write(f, pad, room, memo, out)
        out.append(closing)
        return
    else:
        head, parts = _smt_parts(f)
        if not parts:  # a name or a constant, at any width
            out.append(text)
            return
        out.append("(" + head)
    pad += "  "
    room = _WIDTH + 1 - len(pad)
    for part in parts:
        out.append(pad)
        if part.__class__ is str:
            out.append(part)
            continue
        text = memo[id(part)]
        if text and len(text) <= room:
            out.append(text)
        else:
            _smt_write(part, pad, room, memo, out)
    out.append(")")


# ---------------------------------------------------------------------------
# TPTP TFF
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)  # called for every atom
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
    memo = {}
    _flat(problem.formula, memo, _TPTP)
    _tptp_write(problem.formula, "\n  ", memo, out)
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


def _tptp_parts(t) -> tuple:
    """Head and arguments of an atom or term but a predicate or function
    application, as for _smt_parts."""
    cls = t.__class__
    if cls is fol.Var:
        return _tptp_var(t.name), ()
    if cls is fol.IntLess:
        return "$less", (t.left, t.right)
    if cls is fol.IntAdd:
        return "$sum", (t.arg, str(t.offset))
    if cls is fol.IntConst:
        return str(t.value), ()
    raise fol.FolError(f"cannot emit {t!r}")


def _tptp_head(f) -> str:
    quant = "!" if f.__class__ is _FORALL else "?"
    return f"{quant}[{_tptp_var(f.var)}: {_tptp_symbol(f.sort)}]:"


_TPTP = _Syntax(("(", " & ", ")", "$true"), ("(", " | ", ")", "$false"),
                ("~ ", "", "", None), ("(", " => ", ")", None),
                (_tptp_head, ""), ("", "(", ", "), _tptp_symbol,
                _tptp_parts)


def _tptp_write(f, pad: str, memo: dict, out: list) -> None:
    """Append the text of f, which fits where its one-line text ends by
    _WIDTH counted from the indent in pad, the line break and indent that
    f is measured from; its broken parts are measured two columns further
    in."""
    text = memo[id(f)]
    if text and len(pad) - 1 + len(text) <= _WIDTH:
        out.append(text)
        return
    cls = f.__class__
    if cls is _NOT:  # a prefix that never breaks by itself
        out.append("~ ")
        _tptp_write(f.arg, pad, memo, out)
        return
    inner = pad + "  "
    if cls is _AND or cls is _OR:
        parts = f.args
        if len(parts) < 2:  # $true or $false at any width, or its one part
            if parts:
                _tptp_write(parts[0], pad, memo, out)
            else:
                out.append(text)
            return
        opening, closing = "( ", " )"
        separator = pad + ("& " if cls is _AND else "| ")
    elif cls is _IMPLIES:
        parts, opening, separator, closing = \
            (f.left, f.right), "(", pad + " => ", ")"
    elif cls is _FORALL or cls is _EXISTS:
        # a run of quantifiers that do not fit, in a loop
        while cls is _FORALL or cls is _EXISTS:
            text = memo[id(f)]
            if text and len(pad) - 1 + len(text) <= _WIDTH:
                break
            pad += "  "
            out.append(_tptp_head(f) + pad)
            f = f.body
            cls = f.__class__
        _tptp_write(f, pad, memo, out)
        return
    else:  # an atom, which never breaks
        out.append(text)
        return
    room = _WIDTH + 1 - len(inner)
    for part in parts:
        out.append(opening)
        opening = separator
        text = memo[id(part)]
        if text and len(text) <= room:
            out.append(text)
        else:
            _tptp_write(part, inner, memo, out)
    out.append(closing)
