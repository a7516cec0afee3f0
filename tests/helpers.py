"""Shared test utilities, including an independent LTL evaluator.

naive_eval computes subformula truth values on an ultimately periodic word
by global fixpoint iteration (least fixpoints start from all-false,
greatest from all-true, iterated until stabilization).  It shares no code
with the package's two-sweep kernel and serves as its oracle.
"""

from __future__ import annotations

import random

from hypersat import bench
from hypersat import formula as F


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
