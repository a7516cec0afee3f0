"""Shared test utilities, including an independent LTL evaluator.

naive_eval computes subformula truth values on an ultimately periodic word
by global fixpoint iteration (least fixpoints start from all-false,
greatest from all-true, iterated until stabilization).  It shares no code
with the package's two-sweep kernel and serves as its oracle.

reference_safety_automaton is the textbook safety automaton, with a bad
state and the completion that the package's safety automaton leaves out.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from hypersat import bench
from hypersat import formula as F
from hypersat.automaton import Cube, SymbolicAutomaton, ltl_to_nba


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


@dataclass(frozen=True)
class BadStates:
    """Acceptance of a reference safety automaton: no run visits bad."""

    bad: frozenset


def reference_safety_automaton(body, atoms) -> SymbolicAutomaton:
    """The Buchi tableau with its dead states merged into one absorbing bad
    state, which also takes every letter that no edge of a live state
    matches (Kupferman & Vardi, "Model Checking of Safety Properties").

    The live states keep their order and the bad state comes last; it
    exists only when something reaches it, so a dead initial state is the
    bad state itself.  The acceptance is BadStates.
    """
    nba = ltl_to_nba(body, atoms)
    succs: dict = {}
    for src, cube, dst in nba.edges:
        succs.setdefault(src, []).append((cube, dst))
    live = {q: i for i, q in enumerate(sorted(succs))}
    bad = len(live)
    edges = []
    for q, i in live.items():
        edges += [(i, cube, live.get(dst, bad)) for cube, dst in succs[q]]
        uncovered = reference_uncovered(
            [(cube.positives, cube.negatives) for cube, _ in succs[q]])
        edges += [(i, Cube(pos, neg), bad) for pos, neg in uncovered]
    (start,) = nba.initial
    initial = live.get(start, bad)
    reached = frozenset({bad}) & {initial, *(dst for _, _, dst in edges)}
    labels = tuple(nba.state_labels[q] for q in live)
    if reached:
        edges.append((bad, Cube(frozenset(), frozenset()), bad))
        labels += ("<bad>",)
    return SymbolicAutomaton(
        num_states=len(labels),
        initial=frozenset({initial}),
        edges=tuple(edges),
        acceptance=BadStates(reached),
        atoms=nba.atoms,
        state_labels=labels,
    )


def reference_buchi_view(aut: SymbolicAutomaton):
    """buchi_view of a reference safety automaton: its bad states dropped,
    every other state accepting, state indices preserved."""
    bad = aut.acceptance.bad
    states = [q for q in aut.states if q not in bad]
    initial = set(aut.initial) - bad
    edges = [(s, c, d) for s, c, d in aut.edges
             if s not in bad and d not in bad]
    return states, initial, edges, set(states)


def reference_uncovered(cubes: list) -> list:
    """Cubes covering the complement of a union of cubes, as (positives,
    negatives) frozenset pairs: a Shannon split on the atom in the most
    cubes, the lowest such atom on ties."""
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
