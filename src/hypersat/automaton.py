"""Symbolic automata for LTL bodies over indexed atoms.

Bodies in negation normal form are compiled to nondeterministic
generalized Buchi automata with a tableau (expand/next-step) construction:
one acceptance set per until/eventually node, and the states with no
infinite run removed.  A safety automaton is one with no acceptance set,
so that every infinite run is accepting (Kupferman & Vardi, "Model
Checking of Safety Properties"): to_safety_automaton is ltl_to_nba's
automaton with accepting=(), exact for bodies in the U/F-free fragment
and a superset of the body's language otherwise.

A tableau state is a set of obligations, and its outgoing edges are its
covers: the minimal one-step expansions of the obligations.  Covers and
obligation sets are ints over bit slots fixed once per construction (see
_CoverTable).  States are numbers; they carry no label.  The construction
fixes every order, and nothing sorts afterwards: the nodes take their
slots in postorder, a state's edges are its covers in the order of their
ints, and the states are numbered as a breadth-first search over those
edges meets them.

Edge labels are the literal bits of their covers: bit 2k is the positive
and bit 2k + 1 the negative literal of atom k of the automaton's sorted
atoms, and no label holds both bits of one atom.  A label stands for every
full letter consistent with it: a letter, coded with the positive bit of
each atom it holds and the negative bit of each other, matches a label
when label & ~code == 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from functools import reduce
from operator import or_

from . import formula as F

# the edges a tableau search may make, dead states' included; the largest
# search of the 44 built-in cases makes 2,305
EDGE_CAP = 1 << 20


class AutomatonError(Exception):
    pass


class EmptyLoopError(AutomatonError):
    pass


class TableauTooLargeError(AutomatonError):
    """The tableau search made more than EDGE_CAP edges."""


@dataclass(frozen=True)
class SymbolicAutomaton:
    """States are 0..n-1, unlabelled; edges carry literal-bit labels over
    the sorted atoms; a run is accepting if it visits each of the m state
    sets in accepting infinitely often."""

    num_states: int
    initial: frozenset
    edges: tuple  # of (src, label, dst)
    accepting: tuple  # of frozensets of states
    atoms: tuple  # sorted: atom k owns label bits 2k and 2k + 1

    @property
    def states(self) -> range:
        return range(self.num_states)


# ---------------------------------------------------------------------------
# Tableau covers
# ---------------------------------------------------------------------------

# obligation nodes, beside the body and the arguments of X
_OBLIGATIONS = frozenset({F.Globally, F.Eventually, F.Until, F.WeakUntil,
                          F.Release})


class _CoverTable:
    """All one-step expansions of obligation sets, for one construction.

    A cover is an int over slots fixed from the body and the atoms.  Atom i
    of the sorted atoms owns bits 2i and 2i + 1: its positive and its
    negative literal.  Above them, each node that can be an obligation (the
    body, the arguments of X, and the G/F/U/W/R nodes) owns two bits: next
    (an obligation of the next step) and postponed (an until/eventually
    that chose to wait).  The nodes take their slots in the order that a
    postorder walk of the body finds them: a G/F/U/W/R node where the walk
    meets it, the argument of an X where it meets the X, and the body
    last.  Equal nodes share one slot, as they are one object.  An
    obligation set is the next bits of its nodes.  Nodes and states carry
    no names.

    Calling the table with an obligation set gives its subset-minimal
    covers, sorted by their ints, so the result does not depend on hash
    order.  They are composed bottom-up from each subformula's covers with
    the tableau's local expansion rules (Gerth, Peled, Vardi & Wolper): a
    conjunction takes the consistent pairwise unions of its sides' covers,
    a disjunction their union, and each temporal operator splits into its
    now-part and its next-step obligation.  A consistent cover stays
    consistent without any of its elements and unions are monotone, so
    dropping a non-minimal cover at any node never loses a minimal one;
    sides that share no slot need no such pass (_product).  One postorder
    walk of the body checks it and gives the obligation nodes their slots;
    every node's covers are then made in the walk's order, from its
    children's.  An obligation set's covers are those of its lower bits
    times those of its top node, kept per set, and sorted in place where a
    state asks for them.  A cover's literal bits are its edge's label, as
    they are.  These memos and the formula nodes the table holds live only
    as long as its construction.
    """

    def __init__(self, body: F.LtlBody, atoms: frozenset):
        self.atoms = tuple(sorted(atoms))
        atom_bit = self.atom_bit = {
            a: 1 << 2 * i for i, a in enumerate(self.atoms)}
        walk = list(F.postorder(body))
        capable = {}  # the obligation nodes, in slot order
        for node in walk:
            cls = node.__class__
            if cls is F.Atom:
                if (node.ap, node.var) not in atom_bit:
                    raise AutomatonError("atom set does not cover the body")
            elif cls is F.Not:
                if node.arg.__class__ is not F.Atom:
                    raise AutomatonError("tableau input must be in NNF")
            elif cls is F.Next:
                capable[node.arg] = None
            elif cls in _OBLIGATIONS:
                capable[node] = None
            elif cls is F.Implies or cls is F.Iff:
                raise AutomatonError(f"unsupported node in tableau: {node!r}")
        capable[body] = None
        nodes = self.nodes = list(capable)
        self.base = base = 2 * len(self.atoms)
        self.next_bit = {n: 1 << base + 2 * j for j, n in enumerate(nodes)}
        # the first bit of every atom and node, of the atoms, of the nodes
        self.even = ((1 << base + 2 * len(nodes)) - 1) // 3
        self.literals = (1 << base) - 1
        self.literal_even = self.even & self.literals
        self.obligation_mask = self.even ^ self.literal_even
        self.initial = (0 if isinstance(body, F.TrueConst)
                        else self.next_bit[body])
        # the postponed bit of each until/eventually, in slot order
        self.liveness = [self.next_bit[n] << 1 for n in nodes
                         if isinstance(n, (F.Until, F.Eventually))]
        covers = self.covers = {}  # node -> its minimal covers
        for node in walk:
            covers[node] = self._expand(node)
        self.node_covers = [covers[n] for n in nodes]
        self.set_memo = {0: [0]}

    def __call__(self, obligations: int) -> list:
        found = self._set_covers(obligations)
        found.sort()  # in the memo, and in linear time when sorted already
        return found

    def _set_covers(self, obligations: int) -> list:
        """The minimal covers of an obligation set, in any order: those of
        its lower bits times those of its top node, for each set down to a
        known one, all kept."""
        memo, tops = self.set_memo, []
        while obligations not in memo:
            tops.append(obligations.bit_length() - 1)
            obligations ^= 1 << tops[-1]
        found = memo[obligations]
        for top in reversed(tops):
            obligations |= 1 << top
            found = memo[obligations] = self._product(
                found, self.node_covers[top - self.base >> 1])
        return found

    def _expand(self, node) -> list:
        """The minimal covers of one subformula, from its children's."""
        covers = self.covers
        cls = node.__class__
        # the most frequent nodes first
        if cls is F.Atom:
            return [self.atom_bit[node.ap, node.var]]
        if cls is F.Not:
            return [self.atom_bit[node.arg.ap, node.arg.var] << 1]
        if cls is F.And:
            return self._product(covers[node.left], covers[node.right])
        if cls is F.Or:
            return _minimal(covers[node.left] + covers[node.right])
        if cls is F.Next:
            return [0 if isinstance(node.arg, F.TrueConst)
                    else self.next_bit[node.arg]]
        if cls is F.TrueConst or cls is F.FalseConst:
            return [0] if cls is F.TrueConst else []
        nxt = self.next_bit[node]
        if cls is F.Globally:
            return self._product(covers[node.arg], [nxt])
        if cls is F.Eventually:
            return _minimal(covers[node.arg] + [nxt | nxt << 1])
        right = covers[node.right]
        if cls is F.Until:
            return _minimal(right + self._product(
                covers[node.left], [nxt | nxt << 1]))
        if cls is F.WeakUntil:
            return _minimal(right + self._product(covers[node.left], [nxt]))
        # Release
        return _minimal(self._product(covers[node.left], right)
                        + self._product(right, [nxt]))

    def _product(self, xs: list, ys: list) -> list:
        """Minimal consistent pairwise unions of two cover lists."""
        unions = [x | y for x in xs for y in ys]
        sx, sy = reduce(or_, xs, 0), reduce(or_, ys, 0)
        if not (sx | sx >> 1) & (sy | sy >> 1) & self.even:
            # The lists share no atom and no node.  Each is an antichain of
            # consistent covers, so every union is consistent, and
            # x | y <= x2 | y2 splits into x <= x2 and y <= y2, which makes
            # the unions an antichain already.
            return unions
        even = self.literal_even
        return _minimal([u for u in unions if not u & (u >> 1) & even])


def _minimal(covers: list) -> list:
    """The subset-minimal elements of a list of covers."""
    if len(covers) < 2:
        return covers
    kept = []
    for c in sorted(set(covers), key=int.bit_count):
        outside = ~c
        for k in kept:
            if not k & outside:
                break
        else:
            kept.append(c)
    return kept


# ---------------------------------------------------------------------------
# NBA construction
# ---------------------------------------------------------------------------

def ltl_to_nba(body: F.LtlBody, atoms: frozenset) -> SymbolicAutomaton:
    """Tableau construction for an NNF body, with generalized acceptance.

    A state is the body, or the next and postponed bits of a cover that
    enters it; set j holds the states that do not postpone until/eventually
    j, in slot order (Gerth, Peled, Vardi & Wolper).  The tableau is
    searched breadth-first, each state's covers in the order of their ints.
    A state with no infinite run lies on no accepting run, so only the
    states with one are kept, numbered in the order the search met them,
    with the edges between them: every state has an edge.  Every state is
    reachable from the start state, so if any is kept, the start state is
    kept as 0.  An edge's label is its cover's literal bits.  The search
    raises TableauTooLargeError once it has made more than EDGE_CAP edges.

    atoms must cover every atom of the body; it fixes the automaton's
    alphabet support, and its sorted tuple the labels' bit layout.
    """
    covers_of = _CoverTable(body, atoms)
    obligations, literals = covers_of.obligation_mask, covers_of.literals

    index = {covers_of.initial: 0}
    order = [covers_of.initial]
    edges = []
    for src, state in enumerate(order):
        for cover in covers_of(state & obligations):
            label = cover & literals
            target = cover ^ label
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
            edges.append((src, label, dst))
        if len(edges) > EDGE_CAP:
            raise TableauTooLargeError(
                f"the tableau has more than {EDGE_CAP} edges")
    # a state dies when its last edge into a living one goes; each dead
    # state's predecessors are visited once
    outdegree = [0] * len(order)
    preds = [[] for _ in order]
    for src, _, dst in edges:
        outdegree[src] += 1
        preds[dst].append(src)
    dead = [q for q, d in enumerate(outdegree) if not d]
    for q in dead:  # grows while it is walked; each state dies once
        for p in preds[q]:
            outdegree[p] -= 1
            if not outdegree[p]:
                dead.append(p)
    if dead:
        live = sorted(set(range(len(order))).difference(dead))
        number = {q: i for i, q in enumerate(live)}
        # a dead state's edges all lead to dead states
        edges = [(number[src], c, number[dst]) for src, c, dst in edges
                 if dst in number]
        order = [order[q] for q in live]
    return SymbolicAutomaton(
        num_states=len(order),
        initial=frozenset({0} if order else ()),
        edges=tuple(edges),
        accepting=tuple(frozenset(q for q, s in enumerate(order) if not s & b)
                        for b in covers_of.liveness),
        atoms=covers_of.atoms,
    )


# ---------------------------------------------------------------------------
# Safety fragment
# ---------------------------------------------------------------------------

# a body with one of these nodes, or a negation of a non-atom, is not safe
_NOT_SAFE = frozenset({F.Until, F.Eventually, F.Implies, F.Iff})


def is_syntactically_safe(body: F.LtlBody) -> bool:
    """Sound syntactic check: NNF without until/eventually.

    True guarantees the body denotes a safety property; False only means
    the check could not establish it.  A shared node is visited once.
    """
    for node in F.postorder(body):
        cls = node.__class__
        if cls in _NOT_SAFE or cls is F.Not and node.arg.__class__ is not F.Atom:
            return False
    return True


def to_safety_automaton(body: F.LtlBody, atoms: frozenset) -> SymbolicAutomaton:
    """ltl_to_nba's automaton of an NNF body with accepting=(), so that
    every infinite run is accepting.

    For a syntactically safe body it has no set to drop: it is the safety
    automaton.  For any other body it accepts a superset of the body's
    words, as no until/eventually is held to its promise; only
    is_syntactically_safe tells the two apart.

    The textbook safety automaton (Kupferman & Vardi, "Model Checking of
    Safety Properties") also has an absorbing bad state in place of the
    states with no infinite run, and sends it every letter no edge
    matches.  The encodings never need it: an encoding of that automaton
    asserts that the bad state never holds, which makes every step into it
    false, and a model of the encoding without the bad state extends to
    one with it by leaving the bad state empty.
    """
    return replace(ltl_to_nba(body, atoms), accepting=())


# ---------------------------------------------------------------------------
# Lasso acceptance
# ---------------------------------------------------------------------------

def accepts_lasso(aut: SymbolicAutomaton, stem, loop) -> bool:
    """Does the automaton accept the word stem . loop^omega?"""
    return lasso_run(aut, stem, loop) is not None


def lasso_run(aut: SymbolicAutomaton, stem, loop):
    """An accepting lasso-shaped run on stem . loop^omega, or None.

    Letters are sets of atom ids (full assignments over aut.atoms), and
    each is coded once: the positive bit of every atom it holds and the
    negative bit of every other, so that an edge matches it when
    label & ~code == 0.  The search runs on the product of the automaton,
    the word's positions (the last steps back to the loop's first) and a
    counter j over the m sets, which steps to (j + 1) % m on leaving a
    state of set j.  A node is accepting when m = 0, or when j = 0 and its
    state is in set 0, so a cycle through it meets every set.  It picks
    the first reachable accepting node in sorted order that lies in the
    loop part and is on a cycle; the run is a shortest path to it followed
    by a shortest cycle through it, both breadth-first with successors in
    (state, label) order.  Returns (run_stem, run_loop): the states before
    and from the node.
    """
    if not loop:
        raise EmptyLoopError("lasso loop must be nonempty")
    word = [sum([1 << 2 * k + (a not in letter)
                 for k, a in enumerate(aut.atoms)])
            for letter in map(frozenset, [*stem, *loop])]
    succs: dict = {}
    for src, label, dst in sorted(aut.edges, key=lambda e: (e[2], e[1])):
        succs.setdefault(src, []).append((label, dst))

    sets, m = aut.accepting, len(aut.accepting)

    def successors(node):
        q, p, j = node
        nxt = p + 1 if p + 1 < len(word) else len(stem)
        j = (j + 1) % m if m and q in sets[j] else j
        code = word[p]
        return [(dst, nxt, j) for label, dst in succs.get(q, ())
                if not label & ~code]

    def bfs(starts) -> dict:
        """Parent of every node reached from starts, in breadth-first order."""
        parents = dict.fromkeys(starts)
        queue = deque(starts)
        while queue:
            node = queue.popleft()
            for nxt in successors(node):
                if nxt not in parents:
                    parents[nxt] = node
                    queue.append(nxt)
        return parents

    def path(parents, node) -> list:
        states = []
        while node is not None:
            states.append(node[0])
            node = parents[node]
        return states[::-1]

    reached = bfs([(q, 0, 0) for q in sorted(aut.initial)])
    for node in sorted(reached):
        if node[1] < len(stem) or m and (node[2] or node[0] not in sets[0]):
            continue
        around = bfs([node])
        last = next((x for x in around if node in successors(x)), None)
        if last is not None:
            return path(reached, node)[:-1], path(around, last)
    return None
