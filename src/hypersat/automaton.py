"""Symbolic automata for LTL bodies over indexed atoms.

Bodies in negation normal form are compiled to nondeterministic Buchi
automata with a tableau (expand/next-step) construction; generalized
acceptance from until-style obligations is removed with a round-robin
counter.  Bodies in the U/F-free fragment additionally compile to
nondeterministic safety automata: the same tableau restricted to its live
states (those with covers), with neither a bad state nor a completion,
which the first-order encodings never need (see to_safety_automaton).

A tableau state is a set of obligations, and its outgoing edges are its
covers: the minimal one-step expansions of the obligations.  The covers of
each subformula are composed bottom-up from its children's covers and
memoized per construction; a state's covers are the product of its
obligations' covers.

Edge labels are cubes: partial assignments over the atom alphabet.  A cube
stands for every full letter consistent with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

from . import formula as F

AtomId = tuple  # (ap, var)


class AutomatonError(Exception):
    pass


class NotSyntacticallySafeError(AutomatonError):
    pass


class EmptyLoopError(AutomatonError):
    pass


@dataclass(frozen=True)
class Cube:
    """Partial assignment: positive and negative atom literals."""

    positives: frozenset
    negatives: frozenset

    def __post_init__(self):
        if self.positives & self.negatives:
            raise AutomatonError("contradictory cube")

    def matches(self, letter) -> bool:
        """Does a full letter (set of atom ids) fall inside this cube?"""
        return self.positives <= letter and not (self.negatives & letter)

    def atoms(self) -> frozenset:
        return self.positives | self.negatives

    def key(self):
        return (tuple(sorted(self.positives)), tuple(sorted(self.negatives)))


@dataclass(frozen=True)
class Buchi:
    accepting: frozenset


@dataclass(frozen=True)
class Safety:
    """Every infinite run is accepting."""


@dataclass(frozen=True)
class SymbolicAutomaton:
    """States are 0..n-1; edges carry cube labels; immutable once built."""

    num_states: int
    initial: frozenset
    edges: tuple  # of (src, Cube, dst)
    acceptance: object  # Buchi | Safety
    atoms: frozenset
    state_labels: tuple = field(default=(), compare=False)

    @property
    def states(self) -> range:
        return range(self.num_states)


# ---------------------------------------------------------------------------
# Tableau covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Cover:
    pos: frozenset
    neg: frozenset
    nxt: frozenset
    postponed: frozenset  # until-like subformulas delayed on this step


class _CoverTable:
    """All one-step expansions of obligation sets, for one construction.

    Calling the table with an obligation set gives its covers: the literal
    cube that must hold now, the obligations shifted to the next step, and
    which until/eventually obligations chose their delaying branch.  Only
    the subset-minimal covers are kept, sorted by size and then by printed
    form (key), so the result does not depend on hash order.

    Covers are composed bottom-up from each subformula's covers with the
    tableau's local expansion rules (Gerth, Peled, Vardi & Wolper): a
    conjunction takes the consistent pairwise unions of its sides' covers,
    a disjunction their union, and each temporal operator splits into its
    now-part and its next-step obligation.  A consistent cover stays
    consistent without any of its elements and unions are monotone, so
    dropping a non-minimal cover at any node never loses a minimal one.

    Inside the table a cover is a (pos, neg, nxt, postponed) tuple of
    frozensets.  The memos hold formula nodes, so a table lives only as
    long as its construction.
    """

    def __init__(self, key):
        self.key = key
        self.node_memo = {}
        self.state_memo = {}

    def __call__(self, obligations: frozenset) -> tuple:
        found = self.state_memo.get(obligations)
        if found is None:
            covers = [_EMPTY_COVER]
            for node in obligations:
                covers = _product(covers, self.node_covers(node))
            found = tuple(sorted((_Cover(*c) for c in covers),
                                 key=partial(_cover_order, key=self.key)))
            self.state_memo[obligations] = found
        return found

    def node_covers(self, node) -> list:
        """The minimal covers of one subformula."""
        found = self.node_memo.get(node)
        if found is None:
            found = self.node_memo[node] = self._expand(node)
        return found

    def _expand(self, node) -> list:
        covers = self.node_covers
        if isinstance(node, F.TrueConst):
            return [_EMPTY_COVER]
        if isinstance(node, F.FalseConst):
            return []
        if isinstance(node, F.Atom):
            return [(frozenset({(node.ap, node.var)}), _NONE, _NONE, _NONE)]
        if isinstance(node, F.Not):
            if not isinstance(node.arg, F.Atom):
                raise AutomatonError("tableau input must be in NNF")
            return [(_NONE, frozenset({(node.arg.ap, node.arg.var)}), _NONE,
                     _NONE)]
        if isinstance(node, F.Next):
            if isinstance(node.arg, F.TrueConst):
                return [_EMPTY_COVER]
            return [(_NONE, _NONE, frozenset({node.arg}), _NONE)]
        if isinstance(node, F.And):
            return _product(covers(node.left), covers(node.right))
        if isinstance(node, F.Or):
            return _minimal(covers(node.left) + covers(node.right))
        this = frozenset({node})
        nxt = [(_NONE, _NONE, this, _NONE)]
        if isinstance(node, F.Globally):
            return _product(covers(node.arg), nxt)
        if isinstance(node, F.Eventually):
            return _minimal(covers(node.arg) + [(_NONE, _NONE, this, this)])
        if isinstance(node, F.Until):
            return _minimal(covers(node.right) + _product(
                covers(node.left), [(_NONE, _NONE, this, this)]))
        if isinstance(node, F.WeakUntil):
            return _minimal(covers(node.right)
                            + _product(covers(node.left), nxt))
        if isinstance(node, F.Release):
            right = covers(node.right)
            return _minimal(_product(covers(node.left), right)
                            + _product(right, nxt))
        raise AutomatonError(f"unsupported node in tableau: {node!r}")


_NONE = frozenset()
_EMPTY_COVER = (_NONE, _NONE, _NONE, _NONE)


def _product(xs: list, ys: list) -> list:
    """Minimal consistent pairwise unions of two cover lists."""
    unions = []
    for x_pos, x_neg, x_nxt, x_postponed in xs:
        for y_pos, y_neg, y_nxt, y_postponed in ys:
            pos, neg = x_pos | y_pos, x_neg | y_neg
            if not pos & neg:
                unions.append((pos, neg, x_nxt | y_nxt,
                               x_postponed | y_postponed))
    return _minimal(unions)


def _minimal(covers: list) -> list:
    """The subset-minimal elements of a list of covers."""
    if len(covers) < 2:
        return covers
    kept = []
    for c in sorted(set(covers), key=_size):
        pos, neg, nxt, postponed = c
        for k_pos, k_neg, k_nxt, k_postponed in kept:
            if (k_pos <= pos and k_neg <= neg and k_nxt <= nxt
                    and k_postponed <= postponed):
                break
        else:
            kept.append(c)
    return kept


def _size(c: tuple) -> int:
    return len(c[0]) + len(c[1]) + len(c[2]) + len(c[3])


def _cover_order(c: _Cover, key):
    """Sort key of a cover: weaker covers first, then by printed form."""
    return (len(c.pos) + len(c.neg), len(c.nxt), len(c.postponed),
            tuple(sorted(c.pos)), tuple(sorted(c.neg)),
            tuple(sorted(key(n) for n in c.nxt)),
            tuple(sorted(key(n) for n in c.postponed)))


def _initial_obligations(body: F.LtlBody) -> frozenset:
    return frozenset() if isinstance(body, F.TrueConst) else frozenset({body})


def _liveness_subformulas(body: F.LtlBody, key) -> list:
    seen = []
    stack = [body]
    visited = set()
    while stack:
        node = stack.pop()
        if node in visited:
            continue
        visited.add(node)
        if isinstance(node, (F.Until, F.Eventually)):
            seen.append(node)
        if isinstance(node, (F.Not, F.Next, F.Eventually, F.Globally)):
            stack.append(node.arg)
        elif isinstance(node, (F.And, F.Or, F.Until, F.WeakUntil, F.Release)):
            stack.append(node.left)
            stack.append(node.right)
    return sorted(seen, key=key)


# ---------------------------------------------------------------------------
# NBA construction
# ---------------------------------------------------------------------------

def ltl_to_nba(body: F.LtlBody, atoms: frozenset) -> SymbolicAutomaton:
    """Tableau construction for an NNF body, degeneralized to one Buchi set.

    atoms must cover every atom of the body; it fixes the automaton's
    alphabet support.
    """
    if not F.atoms_of(body) <= frozenset(atoms):
        raise AutomatonError("atom set does not cover the body")
    # sort by printed form, so covers and states do not depend on hash order
    key = lru_cache(maxsize=None)(F.pretty_body)
    liveness = _liveness_subformulas(body, key)
    m = len(liveness)
    live_index = {u: i for i, u in enumerate(liveness)}

    covers_of = _CoverTable(key)
    init_core = _initial_obligations(body)

    # state = (obligations, counter); counter m is the accepting flag state
    start = (init_core, 0)
    index = {start: 0}
    order = [start]
    edges = []
    frontier = [start]
    while frontier:
        state = frontier.pop(0)
        src = index[state]
        obls, counter = state
        base = 0 if counter == m else counter
        for cover in covers_of(obls):
            if m:
                delayed = {live_index[u] for u in cover.postponed}
                j = base
                while j < m and j not in delayed:
                    j += 1
                new_counter = m if j == m else j
            else:
                new_counter = 0
            target = (cover.nxt, new_counter)
            if target not in index:
                index[target] = len(order)
                order.append(target)
                frontier.append(target)
            edges.append((src, Cube(cover.pos, cover.neg), index[target]))

    if m:
        accepting = frozenset(i for i, (_, c) in enumerate(order) if c == m)
    else:
        accepting = frozenset(range(len(order)))
    labels = tuple(f"{{{', '.join(sorted(key(o) for o in obls))}}}@{c}"
                   for obls, c in order)
    return SymbolicAutomaton(
        num_states=len(order),
        initial=frozenset({0}),
        edges=tuple(edges),
        acceptance=Buchi(accepting),
        atoms=frozenset(atoms),
        state_labels=labels,
    )


# ---------------------------------------------------------------------------
# Safety fragment
# ---------------------------------------------------------------------------

_SAFE_BINARY = (F.And, F.Or, F.WeakUntil, F.Release)


def is_syntactically_safe(body: F.LtlBody) -> bool:
    """Sound syntactic check: NNF without until/eventually.

    True guarantees the body denotes a safety property; False only means
    the check could not establish it.
    """
    if isinstance(body, (F.Atom, F.TrueConst, F.FalseConst)):
        return True
    if isinstance(body, F.Not):
        return isinstance(body.arg, F.Atom)
    if isinstance(body, (F.Next, F.Globally)):
        return is_syntactically_safe(body.arg)
    if isinstance(body, _SAFE_BINARY):
        return is_syntactically_safe(body.left) and is_syntactically_safe(body.right)
    return False


def to_safety_automaton(body: F.LtlBody, atoms: frozenset) -> SymbolicAutomaton:
    """Safety automaton for a body in the safe NNF fragment.

    The body has no until/eventually, so every infinite run of its Buchi
    tableau is accepting, and the safety automaton is that tableau
    restricted to its live states: those with at least one cover, in the
    tableau's order.  Edges into dead states are dropped, and a dead
    initial state leaves no states and no initial state.

    The textbook safety automaton (Kupferman & Vardi, "Model Checking of
    Safety Properties") also merges the dead states into one absorbing bad
    state and sends it every letter no edge matches.  The encodings never
    need it: an encoding of that automaton asserts that the bad state never
    holds, which makes every step into it false, and a model of the
    encoding without the bad state extends to one with it by leaving the
    bad state empty.
    """
    if not is_syntactically_safe(body):
        raise NotSyntacticallySafeError(F.pretty_body(body))
    nba = ltl_to_nba(body, atoms)
    live = {q: i for i, q in
            enumerate(sorted({src for src, _, _ in nba.edges}))}
    return SymbolicAutomaton(
        num_states=len(live),
        initial=frozenset(live[q] for q in nba.initial if q in live),
        edges=tuple((live[src], cube, live[dst])
                    for src, cube, dst in nba.edges if dst in live),
        acceptance=Safety(),
        atoms=nba.atoms,
        state_labels=tuple(nba.state_labels[q] for q in live),
    )


def expand_cubes(aut: SymbolicAutomaton) -> SymbolicAutomaton:
    """Expand every cube label into the full letters it stands for.

    Exponential in the number of unmentioned atoms; only meant for
    conformance testing against letter-exact transition relations.
    """
    all_atoms = sorted(aut.atoms)
    edges = []
    for src, cube, dst in aut.edges:
        free = [a for a in all_atoms if a not in cube.atoms()]
        for bits in range(1 << len(free)):
            pos = set(cube.positives)
            neg = set(cube.negatives)
            for i, a in enumerate(free):
                (pos if bits >> i & 1 else neg).add(a)
            edges.append((src, Cube(frozenset(pos), frozenset(neg)), dst))
    return replace(aut, edges=tuple(edges))


# ---------------------------------------------------------------------------
# Lasso acceptance
# ---------------------------------------------------------------------------

def buchi_view(aut: SymbolicAutomaton):
    """States, initial set, edges, and accepting set in Buchi terms.

    Every infinite run of a safety automaton is accepting, so all its
    states are.  It has no bad state to leave out (see
    to_safety_automaton), so the view of a safety automaton equals that of
    the textbook one with a bad state, once the bad state and the edges
    into it are dropped: no accepting run visits them.
    """
    if isinstance(aut.acceptance, Buchi):
        accepting = set(aut.acceptance.accepting)
    else:
        accepting = set(aut.states)
    return list(aut.states), set(aut.initial), list(aut.edges), accepting


def accepts_lasso(aut: SymbolicAutomaton, stem, loop) -> bool:
    """Does the automaton accept the word stem . loop^omega?"""
    return lasso_run(aut, stem, loop) is not None


def lasso_run(aut: SymbolicAutomaton, stem, loop):
    """An accepting lasso-shaped run on stem . loop^omega, or None.

    Letters are sets of atom ids (full assignments over aut.atoms).  The
    search runs on the product of buchi_view(aut) with the word's
    positions, where the last position steps back to the loop's first.  It
    picks the first reachable node (state, position) in sorted order that
    lies in the loop part, is accepting and is on a cycle; the run is a
    shortest path to that node followed by a shortest cycle through it,
    both breadth-first with successors in (state, cube) order.  Returns
    (run_stem, run_loop): the states before the node, then the states of
    the cycle starting at it.
    """
    if not loop:
        raise EmptyLoopError("lasso loop must be nonempty")
    word = [frozenset(x) for x in stem] + [frozenset(x) for x in loop]
    _, initial, edges, accepting = buchi_view(aut)
    succs: dict = {}
    for src, cube, dst in sorted(edges, key=lambda e: (e[2], e[1].key())):
        succs.setdefault(src, []).append((cube, dst))

    def successors(node):
        q, p = node
        nxt = p + 1 if p + 1 < len(word) else len(stem)
        return [(dst, nxt) for cube, dst in succs.get(q, ())
                if cube.matches(word[p])]

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

    reached = bfs([(q, 0) for q in sorted(initial)])
    for node in sorted(reached):
        if node[1] < len(stem) or node[0] not in accepting:
            continue
        around = bfs([node])
        last = next((x for x in around if node in successors(x)), None)
        if last is not None:
            return path(reached, node)[:-1], path(around, last)
    return None
