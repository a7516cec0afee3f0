"""HyperLTL formulas: AST, parser, printer, and normal-form rewrites.

A formula is a quantifier prefix over trace variables followed by a
quantifier-free LTL body whose atoms are indexed propositions ``"ap"_var``.
The concrete syntax is::

    forall p1. exists p2. G ("a"_p1 <-> "a"_p2)

Atomic propositions are always double-quoted, so they may contain arbitrary
characters (everything except the quote itself).  ``//`` starts a comment.
Unary operators (``!``, ``X``, ``G``, ``F``) bind tightest, then the binary
temporal operators ``U``/``W``/``R`` (right-associative), then ``&``, ``|``,
then ``->`` and ``<->`` (right-associative).  ``1`` and ``0`` denote the
boolean constants.  ``forall``, ``exists``, ``X``, ``G``, ``F``, ``U``,
``W`` and ``R`` are reserved words and cannot be used as trace variables.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class Quantifier(Enum):
    FORALL = "forall"
    EXISTS = "exists"


class FormulaError(Exception):
    """Base class for everything raised by this module."""


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnboundVariableError(FormulaError):
    def __init__(self, name: str):
        super().__init__(f"trace variable '{name}' is not bound by the prefix")
        self.name = name


class DuplicateVariableError(FormulaError):
    def __init__(self, name: str):
        super().__init__(f"trace variable '{name}' bound twice in the prefix")
        self.name = name


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

def _node(cls):
    """Frozen dataclass whose structural hash is computed once per node.

    The generated hash recurses through the whole subtree, and the tableau
    hashes nodes in every set and dict operation.  The value is kept in the
    instance dict under ``_hash``: not a field, so it stays out of ``==``,
    ``repr`` and ``dataclasses.fields``, and ``__getstate__`` leaves it out
    of pickles, where it would be stale under another hash seed.
    """
    cls = dataclass(frozen=True)(cls)
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class LtlBody:
    """Base class for body nodes; all nodes are immutable and hashable."""

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state


@_node
class Atom(LtlBody):
    ap: str
    var: str


@_node
class TrueConst(LtlBody):
    pass


@_node
class FalseConst(LtlBody):
    pass


@_node
class Not(LtlBody):
    arg: LtlBody


@_node
class And(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Or(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Implies(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Iff(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Next(LtlBody):
    arg: LtlBody


@_node
class Until(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class WeakUntil(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Release(LtlBody):
    left: LtlBody
    right: LtlBody


@_node
class Eventually(LtlBody):
    arg: LtlBody


@_node
class Globally(LtlBody):
    arg: LtlBody


@dataclass(frozen=True)
class HyperFormula:
    """Quantifier prefix plus quantifier-free LTL body.

    The prefix is an ordered tuple of (quantifier, trace variable) pairs;
    variables are pairwise distinct and every atom in the body is bound.
    Use :func:`make_hyper` (or the parser) to get these invariants checked.
    The body's NNF and its atom set are built on first use and kept: not
    fields, so they stay out of ``==``, ``hash`` and ``repr``.
    """

    prefix: tuple[tuple[Quantifier, str], ...]
    body: LtlBody

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(v for _, v in self.prefix)

    @cached_property
    def nnf(self) -> LtlBody:
        return to_nnf(self.body)

    @cached_property
    def atoms(self) -> frozenset[tuple[str, str]]:
        return atoms_of(self.body)


IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

RESERVED_WORDS = frozenset({"forall", "exists", "X", "G", "F", "U", "W", "R"})


def make_hyper(prefix, body: LtlBody) -> HyperFormula:
    """Build a HyperFormula, validating variable names and closedness."""
    norm = []
    seen = set()
    for quant, var in prefix:
        if not IDENT_RE.match(var) or var in RESERVED_WORDS:
            raise FormulaError(f"invalid trace variable name: {var!r}")
        if var in seen:
            raise DuplicateVariableError(var)
        seen.add(var)
        norm.append((Quantifier(quant), var))
    phi = HyperFormula(tuple(norm), body)
    for _, var in sorted(phi.atoms):
        if var not in seen:
            raise UnboundVariableError(var)
    return phi


def atoms_of(body: LtlBody) -> frozenset[tuple[str, str]]:
    """All (ap, var) pairs mentioned in the body; a shared node is walked
    once."""
    acc: set[tuple[str, str]] = set()
    seen = set()
    stack = [body]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        if isinstance(node, Atom):
            acc.add((node.ap, node.var))
        elif isinstance(node, (Not, Next, Eventually, Globally)):
            stack.append(node.arg)
        elif isinstance(node, (And, Or, Implies, Iff, Until, WeakUntil, Release)):
            stack.append(node.left)
            stack.append(node.right)
    return frozenset(acc)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_SPEC = [
    ("APATOM", r'"[^"]*"_[a-zA-Z_][a-zA-Z0-9_]*'),
    ("WORD", r"[a-zA-Z_][a-zA-Z0-9_]*"),
    ("IFF", r"<->"),
    ("IMPLIES", r"->"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("NOT", r"!"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("DOT", r"\."),
    ("TRUE", r"1"),
    ("FALSE", r"0"),
]

# whitespace and comments, then the next token, if one starts there
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|//[^\n]*)*(?:" + "|".join(
    f"(?P<{n}>{p})" for n, p in _TOKEN_SPEC) + ")?")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token of text, then of an EOF token."""
    tokens = []
    m = _TOKEN_RE.match(text)
    while m.lastgroup:
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        m = _TOKEN_RE.match(text, m.end())
    pos = m.end()
    if pos < len(text):
        raise _parse_error(f"unexpected character {text[pos]!r}", text, pos)
    tokens.append(("EOF", "", pos))
    return tokens


def _parse_error(message: str, text: str, offset: int) -> ParseError:
    """A ParseError at the 1-based line and column of text[offset]."""
    return ParseError(message, text.count("\n", 0, offset) + 1,
                      offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str):
        raise _parse_error(message, self.text, self.peek()[2])

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            self.error(f"expected {what}, got {self.peek()[1]!r}")
        return self.advance()

    # formula := quant+ body
    def parse_formula(self) -> HyperFormula:
        prefix = []
        while self.peek()[:2] in (("WORD", "forall"), ("WORD", "exists")):
            quant = Quantifier(self.advance()[1])
            kind, name, _ = self.peek()
            if kind != "WORD" or name in RESERVED_WORDS:
                self.error("expected trace variable name")
            self.advance()
            self.expect("DOT", "'.' after trace variable")
            prefix.append((quant, name))
        if not prefix:
            self.error("expected quantifier prefix ('forall'/'exists')")
        body = self.parse_iff()
        if self.peek()[0] != "EOF":
            self.error(f"unexpected trailing input {self.peek()[1]!r}")
        return make_hyper(prefix, body)

    def parse_iff(self) -> LtlBody:
        left = self.parse_implies()
        if self.peek()[0] == "IFF":
            self.advance()
            return Iff(left, self.parse_iff())
        return left

    def parse_implies(self) -> LtlBody:
        left = self.parse_or()
        if self.peek()[0] == "IMPLIES":
            self.advance()
            return Implies(left, self.parse_implies())
        return left

    def parse_or(self) -> LtlBody:
        left = self.parse_and()
        while self.peek()[0] == "OR":
            self.advance()
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> LtlBody:
        left = self.parse_temporal()
        while self.peek()[0] == "AND":
            self.advance()
            left = And(left, self.parse_temporal())
        return left

    def parse_temporal(self) -> LtlBody:
        left = self.parse_unary()
        kind, op, _ = self.peek()
        if kind == "WORD" and op in ("U", "W", "R"):
            self.advance()
            right = self.parse_temporal()
            return {"U": Until, "W": WeakUntil, "R": Release}[op](left, right)
        return left

    def parse_unary(self) -> LtlBody:
        kind, text, offset = self.peek()
        if kind == "NOT":
            self.advance()
            return Not(self.parse_unary())
        if kind == "WORD" and text in ("X", "G", "F"):
            self.advance()
            node = {"X": Next, "G": Globally, "F": Eventually}[text]
            return node(self.parse_unary())
        if kind == "APATOM":
            self.advance()
            closing = text.rindex('"')
            ap = text[1:closing]
            var = text[closing + 2:]
            if not ap:
                raise _parse_error("empty atomic proposition name",
                                   self.text, offset)
            return Atom(ap, var)
        if kind == "TRUE":
            self.advance()
            return TrueConst()
        if kind == "FALSE":
            self.advance()
            return FalseConst()
        if kind == "LPAREN":
            self.advance()
            inner = self.parse_iff()
            self.expect("RPAREN", "')'")
            return inner
        self.error(f"expected formula, got {text!r}" if kind != "EOF" else "unexpected end of input")


def parse(text: str) -> HyperFormula:
    """Parse the concrete syntax into a HyperFormula.

    Raises ParseError (with position), UnboundVariableError, or
    DuplicateVariableError.
    """
    return _Parser(text).parse_formula()


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

_PREFIX_OPS = {Not: "!", Next: "X", Globally: "G", Eventually: "F"}
_INFIX_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->",
              Until: "U", WeakUntil: "W", Release: "R"}


def pretty_body(body: LtlBody) -> str:
    return printed_forms(body)[body]


def printed_forms(body: LtlBody) -> dict:
    """The printed form of every subformula of body, keyed by node: each
    distinct node's form is built once, from its children's forms."""
    forms = {}

    def form(node: LtlBody) -> str:
        found = forms.get(node)
        if found is None:
            if isinstance(node, Atom):
                found = f'"{node.ap}"_{node.var}'
            elif isinstance(node, (TrueConst, FalseConst)):
                found = "1" if isinstance(node, TrueConst) else "0"
            elif type(node) in _PREFIX_OPS:
                found = f"{_PREFIX_OPS[type(node)]} {form(node.arg)}"
            elif type(node) in _INFIX_OPS:
                found = (f"({form(node.left)} {_INFIX_OPS[type(node)]} "
                         f"{form(node.right)})")
            else:
                raise TypeError(f"not an LTL body node: {node!r}")
            forms[node] = found
        return found

    form(body)
    return forms


def pretty(phi: HyperFormula) -> str:
    parts = [f"{q.value} {v}." for q, v in phi.prefix]
    parts.append(pretty_body(phi.body))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------

def to_nnf(body: LtlBody) -> LtlBody:
    """Push negations onto atoms, over {&,|,X,U,R,W,G,F} plus literals.

    The four conversions of the sides of each <-> are made once per call
    and shared by both of its polarities, so every (node, polarity) is
    converted once, and the result is a DAG of linear size.
    """
    return _nnf(body, False, {})


def _nnf(node: LtlBody, neg: bool, sides: dict) -> LtlBody:
    if isinstance(node, TrueConst):
        return FalseConst() if neg else node
    if isinstance(node, FalseConst):
        return TrueConst() if neg else node
    if isinstance(node, Atom):
        return Not(node) if neg else node
    if isinstance(node, Not):
        return _nnf(node.arg, not neg, sides)
    if isinstance(node, And):
        cls = Or if neg else And
        return cls(_nnf(node.left, neg, sides), _nnf(node.right, neg, sides))
    if isinstance(node, Or):
        cls = And if neg else Or
        return cls(_nnf(node.left, neg, sides), _nnf(node.right, neg, sides))
    if isinstance(node, Implies):
        if neg:
            return And(_nnf(node.left, False, sides),
                       _nnf(node.right, True, sides))
        return Or(_nnf(node.left, True, sides), _nnf(node.right, False, sides))
    if isinstance(node, Iff):
        found = sides.get(id(node))
        if found is None:
            found = sides[id(node)] = (
                _nnf(node.left, False, sides), _nnf(node.left, True, sides),
                _nnf(node.right, False, sides), _nnf(node.right, True, sides))
        ll, nl, rr, nr = found
        if neg:
            return Or(And(ll, nr), And(nl, rr))
        return Or(And(ll, rr), And(nl, nr))
    if isinstance(node, Next):
        return Next(_nnf(node.arg, neg, sides))
    if isinstance(node, Until):
        if neg:
            return Release(_nnf(node.left, True, sides),
                           _nnf(node.right, True, sides))
        return Until(_nnf(node.left, False, sides),
                     _nnf(node.right, False, sides))
    if isinstance(node, Release):
        if neg:
            return Until(_nnf(node.left, True, sides),
                         _nnf(node.right, True, sides))
        return Release(_nnf(node.left, False, sides),
                       _nnf(node.right, False, sides))
    if isinstance(node, WeakUntil):
        # !(a W b) == !b U (!a & !b), via a W b == b R (a | b)
        if neg:
            nr = _nnf(node.right, True, sides)
            return Until(nr, And(_nnf(node.left, True, sides), nr))
        return WeakUntil(_nnf(node.left, False, sides),
                         _nnf(node.right, False, sides))
    if isinstance(node, Eventually):
        if neg:
            return Globally(_nnf(node.arg, True, sides))
        return Eventually(_nnf(node.arg, False, sides))
    if isinstance(node, Globally):
        if neg:
            return Eventually(_nnf(node.arg, True, sides))
        return Globally(_nnf(node.arg, False, sides))
    raise TypeError(f"not an LTL body node: {node!r}")


def bounded_eventually(b: int, inner: LtlBody) -> LtlBody:
    """Disjunction of inner at the first b positions: inner | X inner | ...

    Positions 0..b-1, so b = 1 is inner itself.
    """
    if b < 1:
        raise ValueError("bounded eventually needs b >= 1")
    result = inner
    term = inner
    for _ in range(b - 1):
        term = Next(term)
        result = Or(result, term)
    return result


def bounded_globally(b: int, inner: LtlBody) -> LtlBody:
    """Conjunction of inner at the first b positions."""
    if b < 1:
        raise ValueError("bounded globally needs b >= 1")
    result = inner
    term = inner
    for _ in range(b - 1):
        term = Next(term)
        result = And(result, term)
    return result


def nnext(n: int, inner: LtlBody) -> LtlBody:
    """n-fold application of the next-step operator."""
    for _ in range(n):
        inner = Next(inner)
    return inner
