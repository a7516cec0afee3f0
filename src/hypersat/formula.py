"""HyperLTL formulas: AST, parser, printer, and normal-form rewrites.

A formula is a quantifier prefix over trace variables followed by a
quantifier-free LTL body whose atoms are indexed propositions ``"ap"_var``.
The concrete syntax is::

    forall p1. exists p2. G ("a"_p1 <-> "a"_p2)

Atomic propositions are always double-quoted, so they may contain arbitrary
characters (everything except the quote itself).  ``//`` starts a comment.
``1`` and ``0`` denote the boolean constants.  ``forall``, ``exists``,
``X``, ``G``, ``F``, ``U``, ``W`` and ``R`` are reserved words and cannot be
used as trace variables.  Operators, from the tightest binding down:

    ``!`` ``X`` ``G`` ``F``   prefix
    ``U`` ``W`` ``R``         right-associative, one level
    ``&``, then ``|``         left-associative
    ``->``, then ``<->``      right-associative

The parser climbs precedences over explicit operand and operator stacks,
and every pass over a body is a loop over postorder(body) or another
explicit stack, so the depth of a body costs no Python frames.  Body
nodes are hash-consed: equal subformulas are one object, so == and hash
are identity, and need no frames either.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
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

# (class, *fields) -> a weak reference to the one living node of that shape
_nodes: dict = {}
_set = object.__setattr__  # sets a field of a new, frozen node


class _Ref(weakref.ref):
    __slots__ = ("key",)  # the node's key in _nodes


def _forget(ref):
    # a node died: drop its entry, unless a living node has taken it
    _remove_dead_weakref(_nodes, ref.key)


def _intern(key, cls, fields):
    """A new node of key, unless another thread's came first.  Each step on
    the table is one atomic dict operation."""
    names = cls.__match_args__
    if len(fields) != len(names):
        raise TypeError(f"{cls.__name__} takes the fields {names}")
    node = object.__new__(cls)
    for name, value in zip(names, fields):
        _set(node, name, value)
    ref = _Ref(node, _forget)
    ref.key = key
    while (old := _nodes.setdefault(key, ref)) is not ref:
        if (living := old()) is not None:
            return living
        _remove_dead_weakref(_nodes, key)  # it died before _forget ran
    return node


class LtlBody:
    """Base class for body nodes: immutable, and hash-consed (Filliatre &
    Conchon, "Type-Safe Modular Hash-Consing", 2006).  A node class returns
    the living node of its class and fields if there is one, so equal
    subformulas are one object, also when built in different threads, and
    == and hash are identity: O(1) at any depth."""

    def __new__(cls, *fields):
        ref = _nodes.get(key := (cls,) + fields)
        return ref and ref() or _intern(key, cls, fields)

    def __reduce__(self):
        # a pickle load calls the class, which finds the local node
        return self.__class__, tuple(map(self.__getattribute__,
                                         self.__match_args__))


# a frozen dataclass per shape, without __init__: _intern sets its fields
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Atom(LtlBody):
    ap: str
    var: str


@_node
class _Constant(LtlBody):
    pass


@_node
class _Unary(LtlBody):
    arg: LtlBody


@_node
class _Binary(LtlBody):
    left: LtlBody
    right: LtlBody


class TrueConst(_Constant):
    pass


class FalseConst(_Constant):
    pass


class Not(_Unary):
    pass


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Iff(_Binary):
    pass


class Next(_Unary):
    pass


class Until(_Binary):
    pass


class WeakUntil(_Binary):
    pass


class Release(_Binary):
    pass


class Eventually(_Unary):
    pass


class Globally(_Unary):
    pass


_LEAVES = frozenset({Atom, TrueConst, FalseConst})
_UNARY = frozenset({Not, Next, Eventually, Globally})
_BINARY = frozenset({And, Or, Implies, Iff, Until, WeakUntil, Release})


def postorder(body: LtlBody):
    """Each distinct subformula of body once, children before parents and
    left before right, walked on an explicit stack."""
    seen = set()
    # a None entry stands above the node to yield once its children are
    stack = [body]
    pop = stack.pop
    while stack:
        node = pop()
        if node is None:
            yield pop()
            continue
        if node not in seen:
            seen.add(node)
            cls = node.__class__
            if cls in _BINARY:
                stack += (node, None, node.right, node.left)
            elif cls in _UNARY:
                stack += (node, None, node.arg)
            elif cls in _LEAVES:
                yield node
            else:
                raise TypeError(f"not an LTL body node: {node!r}")


@dataclass(frozen=True)
class HyperFormula:
    """Quantifier prefix plus quantifier-free LTL body.

    The prefix is an ordered tuple of (quantifier, trace variable) pairs;
    variables are pairwise distinct and every atom in the body is bound.
    Use :func:`make_hyper` (or the parser) to get these invariants checked.
    The body's NNF is built on first use and kept.  Its atom set is kept
    too: make_hyper finds it, the parser collects it as it reads the
    atoms, and a formula built directly finds it on first use, as it does
    the sorted AP names.  None is a field, so none is in ``==``, ``hash``
    or ``repr``.
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

    @cached_property
    def aps(self) -> tuple[str, ...]:
        return tuple(sorted({ap for ap, _ in self.atoms}))


IDENT_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")

RESERVED_WORDS = frozenset({"forall", "exists", "X", "G", "F", "U", "W", "R"})


def make_hyper(prefix, body: LtlBody, atoms=None) -> HyperFormula:
    """Build a HyperFormula, validating variable names and closedness.  The
    formula keeps atoms, the body's atom set, found here if not given."""
    if atoms is None:
        atoms = atoms_of(body)
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
    phi.__dict__["atoms"] = atoms  # where the cached property keeps it
    for _, var in sorted(atoms):
        if var not in seen:
            raise UnboundVariableError(var)
    return phi


def atoms_of(body: LtlBody) -> frozenset[tuple[str, str]]:
    """All (ap, var) pairs mentioned in the body."""
    return frozenset((node.ap, node.var) for node in postorder(body)
                     if node.__class__ is Atom)


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


# prefix operators, and (binding power, class, power of the operators that
# a new one closes) of the binary ones: one less than its own power for a
# left-associative operator, its own power for a right-associative one
_PREFIX_POWER = 6  # a prefix operator takes the operand right after it
_PREFIX_TOKENS = {word: (_PREFIX_POWER, cls) for word, cls in (
    ("!", Not), ("X", Next), ("G", Globally), ("F", Eventually))}
_BINARY_TOKENS = {"<->": (1, Iff, 1), "->": (2, Implies, 2), "|": (3, Or, 2),
                  "&": (4, And, 3), "U": (5, Until, 5),
                  "W": (5, WeakUntil, 5), "R": (5, Release, 5)}
_OPEN = (0, None)  # an open parenthesis on the operator stack


def parse(text: str) -> HyperFormula:
    """Parse the concrete syntax into a HyperFormula.

    The body is parsed by precedence climbing over an operand and an
    operator stack; an operator entry is (binding power, node class), or
    _OPEN.  Token texts tell the operators apart: no other token spells
    one.  Raises ParseError (with position), UnboundVariableError, or
    DuplicateVariableError.
    """
    tokens = _tokenize(text)
    prefix = []
    i = 0
    while tokens[i][:2] in (("WORD", "forall"), ("WORD", "exists")):
        kind, name, offset = tokens[i + 1]
        if kind != "WORD" or name in RESERVED_WORDS:
            raise _parse_error("expected trace variable name", text, offset)
        kind, dot, offset = tokens[i + 2]
        if kind != "DOT":
            raise _parse_error(
                f"expected '.' after trace variable, got {dot!r}", text, offset)
        prefix.append((Quantifier(tokens[i][1]), name))
        i += 3
    if not prefix:
        raise _parse_error("expected quantifier prefix ('forall'/'exists')",
                           text, tokens[i][2])
    operands, ops = [], []
    atoms = set()  # the (ap, var) pairs read
    node = None  # the operand just read, or None while one is expected
    while True:
        kind, word, offset = tokens[i]
        if node is None:
            # prefix operators and open parentheses, then a leaf
            if kind == "LPAREN" or word in _PREFIX_TOKENS:
                ops.append(_PREFIX_TOKENS.get(word, _OPEN))
            elif kind == "APATOM":
                closing = word.rindex('"')
                if closing == 1:
                    raise _parse_error("empty atomic proposition name", text,
                                       offset)
                pair = word[1:closing], word[closing + 2:]
                atoms.add(pair)
                node = Atom(*pair)
            elif kind == "TRUE" or kind == "FALSE":
                node = TrueConst() if kind == "TRUE" else FalseConst()
            else:
                raise _parse_error(
                    f"expected formula, got {word!r}" if kind != "EOF"
                    else "unexpected end of input", text, offset)
            i += 1
            continue
        # what closes on the operand: its prefix operators, the binary
        # operators that bind at least as tightly as the next one, and a
        # closing parenthesis
        while ops and ops[-1][0] == _PREFIX_POWER:
            node = ops.pop()[1](node)
        binary = _BINARY_TOKENS.get(word)
        if binary is not None:
            power, cls, closes = binary
            while ops and ops[-1][0] > closes:
                node = ops.pop()[1](operands.pop(), node)
            operands.append(node)
            ops.append((power, cls))
            node = None
        else:
            while ops and ops[-1] is not _OPEN:
                node = ops.pop()[1](operands.pop(), node)
            if not ops:
                break
            if kind != "RPAREN":
                raise _parse_error(f"expected ')', got {word!r}", text, offset)
            ops.pop()
        i += 1
    if kind != "EOF":
        raise _parse_error(f"unexpected trailing input {word!r}", text, offset)
    return make_hyper(prefix, node, frozenset(atoms))


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# the parser's spelling of each operator
_PREFIX_OPS = {cls: word for word, (_, cls) in _PREFIX_TOKENS.items()}
_INFIX_OPS = {cls: word for word, (_, cls, _) in _BINARY_TOKENS.items()}


def pretty_body(body: LtlBody) -> str:
    """The printed form of body, written left to right from an explicit
    stack, so that only the result is kept."""
    out = []
    stack = [body]  # nodes, and pieces of text that a None stands above
    while stack:
        node = stack.pop()
        cls = node.__class__
        if node is None:
            out.append(stack.pop())
        elif cls in _BINARY:
            out.append("(")
            stack += (")", None, node.right, f" {_INFIX_OPS[cls]} ", None,
                      node.left)
        elif cls in _UNARY:
            out.append(_PREFIX_OPS[cls] + " ")
            stack.append(node.arg)
        else:
            out.append(printed_form(node))
    return "".join(out)


def printed_form(leaf: LtlBody) -> str:
    """The printed form of an atom or a constant."""
    cls = leaf.__class__
    if cls is Atom:
        return f'"{leaf.ap}"_{leaf.var}'
    if cls in _LEAVES:
        return "1" if cls is TrueConst else "0"
    raise TypeError(f"not an LTL body node: {leaf!r}")


def pretty(phi: HyperFormula) -> str:
    parts = [f"{q.value} {v}." for q, v in phi.prefix]
    parts.append(pretty_body(phi.body))
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Rewrites
# ---------------------------------------------------------------------------

def to_nnf(body: LtlBody) -> LtlBody:
    """Push negations onto atoms, over {&,|,X,U,R,W,G,F} plus literals.

    The (node, negated) pairs reachable from (body, False) are converted on
    an explicit stack, each once and after the pairs it is built from, so
    the time is linear: both polarities of the sides of a <-> serve its two
    polarities, and !(a W b) converts b once.
    """
    done = ({}, {})  # node -> its conversion, positive and negated
    values = []  # conversions, a pair's parts on top when it is built
    # pairs to convert, flattened; a None entry stands above the
    # (node, negated) to build from the values of its parts
    stack = [body, False]
    pop = stack.pop
    while stack:
        neg = pop()
        node = pop()
        if node is None:
            node, neg = neg
            cls = node.__class__
            if cls in _UNARY:
                new = _CONVERTED[cls, neg](values.pop())
            elif cls is Iff:
                nr, rr, nl, ll = (values.pop(), values.pop(), values.pop(),
                                  values.pop())
                new = Or(And(ll, nr), And(nl, rr)) if neg else Or(
                    And(ll, rr), And(nl, nr))
            else:
                second, first = values.pop(), values.pop()
                # !(a W b) == !b U (!a & !b), via a W b == b R (a | b);
                # its parts are !b, then !a
                new = (Until(first, And(second, first))
                       if cls is WeakUntil and neg
                       else _CONVERTED[cls, neg](first, second))
        else:
            new = done[neg].get(node)
            if new is not None:
                values.append(new)
                continue
            cls = node.__class__
            if cls is Not:  # converted as its argument at the other polarity
                stack += (node.arg, not neg)
                continue
            if cls in _LEAVES:
                new = (Not(node) if cls is Atom else _CONVERTED[cls, True]()
                       ) if neg else node
            else:
                # its parts, flattened, the last one first
                if cls in _UNARY:
                    parts = (node.arg, neg)
                elif cls is Iff:
                    parts = (node.right, True, node.right, False,
                             node.left, True, node.left, False)
                elif cls is WeakUntil and neg:
                    parts = (node.left, True, node.right, True)
                elif cls in _BINARY:
                    parts = (node.right, neg,
                             node.left, neg != (cls is Implies))
                else:
                    raise TypeError(f"not an LTL body node: {node!r}")
                stack += (None, (node, neg))
                stack += parts
                continue
        done[neg][node] = new
        values.append(new)
    return values[0]


# the class of the conversion of a (node class, negated) pair
_CONVERTED = {(cls, False): cls for cls in _UNARY | _BINARY} | {
    (Iff, False): Or, (Iff, True): Or, (Implies, False): Or,
    (Implies, True): And, (And, True): Or, (Or, True): And,
    (Next, True): Next, (Until, True): Release, (Release, True): Until,
    (WeakUntil, True): Until, (Eventually, True): Globally,
    (Globally, True): Eventually, (TrueConst, True): FalseConst,
    (FalseConst, True): TrueConst}


def rewrite(body: LtlBody) -> LtlBody:
    """A smaller NNF body with the same language (Somenzi & Bloem;
    Babiak, Kretinsky, Rehak & Strejcek).

    One loop over postorder(body) rewrites each node from its children's
    rewrites by the rules of _unary_rule and _binary_rule.  Equal
    subformulas are one object, so a rule tells them apart by identity,
    and a node whose rule does not fire and whose children are unchanged
    is built as itself.  A merged part is built, not rewritten.
    """
    done = {}  # node -> its rewrite
    for node in postorder(body):
        cls = node.__class__
        if cls in _BINARY:
            a, b = done[node.left], done[node.right]
            new = _binary_rule(cls, a, b) or cls(a, b)
        elif cls in _UNARY:
            a = done[node.arg]
            new = _unary_rule(cls, a) or cls(a)
        else:
            new = node
        done[node] = new
    return done[body]


def _unary_rule(cls, a):
    """The rewrite of cls(a), or None where no rule fires."""
    if cls is Not:
        return None
    inner = a.__class__
    if cls is Next:
        return a if inner is TrueConst or inner is FalseConst else None
    # F (a U b) == F b and G (a R b) == G b, down a chain of them
    side, dual = (Until, Globally) if cls is Eventually \
        else (Release, Eventually)
    arg = a
    while inner is side:
        a = a.right
        inner = a.__class__
    # F 1, F 0, F F a, F G F a, and the same with G
    if inner is TrueConst or inner is FalseConst or inner is cls \
            or inner is dual and a.arg.__class__ is cls:
        return a
    return None if a is arg else cls(a)


def _binary_rule(cls, a, b):
    """The rewrite of cls(a, b), or None where no rule fires."""
    left, right = a.__class__, b.__class__
    if cls is And or cls is Or:
        unit, zero, spread = (TrueConst, FalseConst, Globally) \
            if cls is And else (FalseConst, TrueConst, Eventually)
        if left is zero or right is unit or a is b:
            return a
        if right is zero or left is unit:
            return b
        if left is not right:
            return None
        # X a & X b == X (a & b), G a & G b == G (a & b), and in a
        # disjunction the same with F for G
        if left is Next or left is spread:
            return left(cls(a.arg, b.arg))
        # a conjunction of untils shares their right side and one of
        # releases their left side, a disjunction the other sides
        if left is Until or left is WeakUntil or left is Release:
            if (left is Release) == (cls is Or):
                if a.right is b.right:
                    return left(cls(a.left, b.left), a.right)
            elif a.left is b.left:
                return left(a.left, cls(a.right, b.right))
        return None
    if cls is Until or cls is Release:
        # its right side where that or its left side decides it: a U 1,
        # a U 0, 0 U b, a U a, and their duals; 1 U b == F b, 0 R b == G b
        stop, wait = (FalseConst, Eventually) if cls is Until \
            else (TrueConst, Globally)
        if right is TrueConst or right is FalseConst or left is stop \
                or a is b:
            return b
        if left is TrueConst or left is FalseConst:
            return _unary_rule(wait, b) or wait(b)
    elif cls is WeakUntil:
        # a W 1 == 1, 0 W b == b, a W a == a, 1 W b == 1, a W 0 == G a
        if right is TrueConst or left is FalseConst or a is b:
            return b
        if left is TrueConst:
            return a
        if right is FalseConst:
            return _unary_rule(Globally, a) or Globally(a)
    return None


def bounded_eventually(b: int, inner: LtlBody) -> LtlBody:
    """Disjunction of inner at the first b positions: inner | X inner | ...

    Positions 0..b-1, so b = 1 is inner itself.
    """
    return _bounded(Or, b, inner)


def bounded_globally(b: int, inner: LtlBody) -> LtlBody:
    """Conjunction of inner at the first b positions."""
    return _bounded(And, b, inner)


def _bounded(junction, b: int, inner: LtlBody) -> LtlBody:
    """inner at positions 0..b-1, joined left to right by junction."""
    if b < 1:
        name = "eventually" if junction is Or else "globally"
        raise ValueError(f"bounded {name} needs b >= 1")
    result = term = inner
    for _ in range(b - 1):
        term = Next(term)
        result = junction(result, term)
    return result


def nnext(n: int, inner: LtlBody) -> LtlBody:
    """n-fold application of the next-step operator."""
    for _ in range(n):
        inner = Next(inner)
    return inner
