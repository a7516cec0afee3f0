"""Shared test utilities, including an independent LTL evaluator.

naive_eval computes subformula truth values on an ultimately periodic word
by global fixpoint iteration (least fixpoints start from all-false,
greatest from all-true, iterated until stabilization).  It shares no code
with the package's two-sweep kernel and serves as its oracle.

reference_tableau is the tableau loop without the removal of states that
have no infinite run, and reference_prune removes them by repeated passes.
reference_safety_automaton is the textbook safety automaton, with a bad
state and the completion that the package's safety automaton leaves out.
Both write edge labels with label, from atom sets, and read them back
with label_literals, bit by bit.
"""

from __future__ import annotations

import random
from dataclasses import replace

from hypersat import automaton, bench
from hypersat import formula as F
from hypersat.automaton import SymbolicAutomaton


def naive_eval(body, word, stem_len, loop_len, position=0):
    """word: list of sets of (ap, var) atom ids, length stem_len+loop_len."""
    n = stem_len + loop_len
    word = [frozenset(x) for x in word]

    def succ(p):
        return p + 1 if p + 1 < n else stem_len

    def table(node):
        if isinstance(node, F.Atom):
            return [(node.ap, node.var) in word[p] for p in range(n)]
        if isinstance(node, F.TrueConst):
            return [True] * n
        if isinstance(node, F.FalseConst):
            return [False] * n
        if isinstance(node, F.Not):
            return [not v for v in table(node.arg)]
        if isinstance(node, F.And):
            l, r = table(node.left), table(node.right)
            return [a and b for a, b in zip(l, r)]
        if isinstance(node, F.Or):
            l, r = table(node.left), table(node.right)
            return [a or b for a, b in zip(l, r)]
        if isinstance(node, F.Implies):
            l, r = table(node.left), table(node.right)
            return [(not a) or b for a, b in zip(l, r)]
        if isinstance(node, F.Iff):
            l, r = table(node.left), table(node.right)
            return [a == b for a, b in zip(l, r)]
        if isinstance(node, F.Next):
            c = table(node.arg)
            return [c[succ(p)] for p in range(n)]
        if isinstance(node, F.Until):
            l, r = table(node.left), table(node.right)
            return _lfp(lambda v, p: r[p] or (l[p] and v[succ(p)]), n)
        if isinstance(node, F.Eventually):
            c = table(node.arg)
            return _lfp(lambda v, p: c[p] or v[succ(p)], n)
        if isinstance(node, F.Release):
            l, r = table(node.left), table(node.right)
            return _gfp(lambda v, p: r[p] and (l[p] or v[succ(p)]), n)
        if isinstance(node, F.WeakUntil):
            l, r = table(node.left), table(node.right)
            return _gfp(lambda v, p: r[p] or (l[p] and v[succ(p)]), n)
        if isinstance(node, F.Globally):
            c = table(node.arg)
            return _gfp(lambda v, p: c[p] and v[succ(p)], n)
        raise TypeError(node)

    return table(body)[position]


def _iterate(step, start, n):
    values = [start] * n
    for _ in range(n + 1):
        new = [step(values, p) for p in range(n)]
        if new == values:
            break
        values = new
    return values


def _lfp(step, n):
    return _iterate(step, False, n)


def _gfp(step, n):
    return _iterate(step, True, n)


def random_lasso(rng: random.Random, atoms, max_stem, max_loop):
    """Random word over full letters: (letters, stem_len, loop_len)."""
    atoms = sorted(atoms)
    stem_len = rng.randint(0, max_stem)
    loop_len = rng.randint(1, max_loop)
    word = [frozenset(a for a in atoms if rng.random() < 0.5)
            for _ in range(stem_len + loop_len)]
    return word, stem_len, loop_len


def safety_emit_style_cases() -> list:
    """The built-in cases except qn_n_implies_m with both n, m >= 2."""
    cases = []
    for family in bench.FAMILIES.values():
        for case in family():
            if case.family == "qn":
                n, m = map(int, case.id.split("_")[1::2])
                if n >= 2 and m >= 2:
                    continue
            cases.append(case)
    return cases


def label(atoms, positives, negatives) -> int:
    """The edge label of two disjoint sets of atoms: bit 2k for the
    positive and bit 2k + 1 for the negative literal of atom k of the
    sorted atoms."""
    order = sorted(atoms)
    assert not set(positives) & set(negatives)
    return (sum(1 << 2 * order.index(a) for a in positives)
            + sum(2 << 2 * order.index(a) for a in negatives))


def label_literals(atoms, label) -> tuple:
    """The (positives, negatives) frozensets of atoms that a label holds."""
    order = sorted(atoms)
    return (frozenset(a for k, a in enumerate(order) if label >> 2 * k & 1),
            frozenset(a for k, a in enumerate(order)
                      if label >> 2 * k + 1 & 1))


def reference_tableau(body, atoms) -> SymbolicAutomaton:
    """The tableau as automaton.ltl_to_nba builds it, with every state it
    reaches kept: the states without an infinite run too.

    A state is a pair (next obligations, postponed until/eventually nodes)
    of the cover that enters it, and acceptance set j holds the states that
    do not postpone until/eventually j.  An edge's label is made by label
    from the literals of its cover."""
    table = automaton._CoverTable(body, atoms)

    def nodes_of(bits: int) -> frozenset:
        return frozenset(n for n in table.nodes if bits & table.next_bit[n])

    def literals_of(bits: int, sign: int) -> frozenset:
        return frozenset(a for a in atoms if bits & table.atom_bit[a] << sign)

    start = (nodes_of(table.initial), frozenset())
    index = {start: 0}
    order = [start]
    edges = []
    for src, (obligations, _) in enumerate(order):
        for cover in table(sum(table.next_bit[n] for n in obligations)):
            target = (nodes_of(cover), nodes_of(cover >> 1))
            dst = index.get(target)
            if dst is None:
                dst = index[target] = len(order)
                order.append(target)
            edges.append((src, label(atoms, literals_of(cover, 0),
                                     literals_of(cover, 1)), dst))
    return SymbolicAutomaton(
        num_states=len(order),
        initial=frozenset({0}),
        edges=tuple(edges),
        accepting=tuple(frozenset(i for i, (_, postponed) in enumerate(order)
                                  if node not in postponed)
                        for node in table.nodes
                        if isinstance(node, (F.Until, F.Eventually))),
        atoms=tuple(sorted(atoms)),
    )


def reference_prune(aut: SymbolicAutomaton, drop=frozenset()):
    """aut without the states in drop and then without every state that
    has no infinite run, found by passes that each drop the states with no
    edge to a kept state, until one drops nothing; the kept states are
    numbered in order."""
    kept = set(aut.states) - set(drop)
    while True:
        stepping = {src for src, _, dst in aut.edges
                    if src in kept and dst in kept}
        if stepping == kept:
            break
        kept = stepping
    number = {q: i for i, q in enumerate(sorted(kept))}
    return SymbolicAutomaton(
        num_states=len(number),
        initial=frozenset(number[q] for q in aut.initial if q in number),
        edges=tuple((number[src], edge, number[dst])
                    for src, edge, dst in aut.edges
                    if src in number and dst in number),
        accepting=tuple(frozenset(number[q] for q in accepting if q in number)
                        for accepting in aut.accepting),
        atoms=aut.atoms,
    )


def reference_safety_automaton(body, atoms) -> SymbolicAutomaton:
    """The unpruned tableau with its dead states (those without a cover)
    merged into one absorbing bad state, which also takes every letter
    that no edge of a live state matches (Kupferman & Vardi, "Model
    Checking of Safety Properties").

    The live states keep their order and the bad state comes last; it
    exists only when something reaches it, so a dead initial state is the
    bad state itself.  The automaton has one acceptance set, and the bad
    state is the one state outside it.
    """
    nba = reference_tableau(body, atoms)
    succs: dict = {}
    for src, edge, dst in nba.edges:
        succs.setdefault(src, []).append((edge, dst))
    live = {q: i for i, q in enumerate(sorted(succs))}
    bad = len(live)
    edges = []
    for q, i in live.items():
        edges += [(i, edge, live.get(dst, bad)) for edge, dst in succs[q]]
        uncovered = reference_uncovered(
            [label_literals(atoms, edge) for edge, _ in succs[q]])
        edges += [(i, label(atoms, pos, neg), bad) for pos, neg in uncovered]
    (start,) = nba.initial
    initial = live.get(start, bad)
    reached = bad in {initial, *(dst for _, _, dst in edges)}
    if reached:
        edges.append((bad, label(atoms, (), ()), bad))
    return SymbolicAutomaton(
        num_states=bad + reached,
        initial=frozenset({initial}),
        edges=tuple(edges),
        accepting=(frozenset(live.values()),),
        atoms=nba.atoms,
    )


def bad_states(aut: SymbolicAutomaton) -> frozenset:
    """The bad state of a reference safety automaton, if it has one."""
    (accepting,) = aut.accepting
    return frozenset(aut.states) - accepting


def reference_live_part(ref: SymbolicAutomaton) -> SymbolicAutomaton:
    """A reference safety automaton without its bad state, then without the
    states that have no infinite run.  Its one acceptance set then holds
    every state, so every infinite run is accepting and the set is dropped:
    a safety automaton has none."""
    live = reference_prune(ref, bad_states(ref))
    assert live.accepting == (frozenset(live.states),)
    return replace(live, accepting=())


def reference_uncovered(cubes: list) -> list:
    """Cubes covering the complement of a union of cubes, all as (positives,
    negatives) frozenset pairs of atoms: a Shannon split on the atom in the
    most cubes, the lowest such atom on ties."""
    if not cubes:
        return [(frozenset(), frozenset())]
    counts: dict = {}
    for pos, neg in cubes:
        if not pos and not neg:
            return []
        for a in pos:
            counts[a] = counts.get(a, 0) + 1
        for a in neg:
            counts[a] = counts.get(a, 0) + 1
    atom = max(sorted(counts), key=counts.__getitem__)
    single = frozenset((atom,))
    result = [(pos | single, neg) for pos, neg in reference_uncovered(
        [(pos - single, neg) for pos, neg in cubes if atom not in neg])]
    result += [(pos, neg | single) for pos, neg in reference_uncovered(
        [(pos, neg - single) for pos, neg in cubes if atom not in pos])]
    return result
