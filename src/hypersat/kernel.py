"""Batched evaluation of LTL bodies over ultimately periodic words.

A body is compiled once into a flat postorder program: per node, its
formula class and its children's indices (an atom's word column).  The
program is then evaluated against a batch of words of one shape, given as
a (batch x positions x atoms) 0/1 array: every word is
``stem . loop^omega`` with the same stem and loop lengths.  Each node's
values are kept as one (positions x batch) boolean array, so every step of
the program is a numpy operation over the whole batch.  Until-like
operators are solved exactly on the loop in O(log loop) array operations,
by one reduction over its rows (G, F) or by doubling a window around the
cycle (U, W, R), followed by one backward pass over the stem (after
Markey & Schnoebelen, "Model Checking a Path", CONCUR 2003).

This is the only evaluator in the package: the oracle stacks many words
into one call, and single-word callers use a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import formula as F
# the node classes are module globals, read in the hot loop without an
# attribute lookup
from .formula import (_BINARY, _LEAVES, _UNARY, And, Atom, Eventually,
                      FalseConst, Globally, Iff, Implies, Next, Not, Or,
                      Release, TrueConst, Until, WeakUntil)

# recorded in benchmark provenance; there is one backend
BACKEND = "numpy"
# positions of an oracle lasso word, and of the encoder's cyclic time domain
POSITION_CAP = 1 << 20


@dataclass(frozen=True)
class CompiledBody:
    ops: tuple  # of (node class, a, b): an atom's column or children, or -1
    last_use: tuple  # per op, the last op that reads it: its values go then


def compile_body(body: F.LtlBody, atom_order) -> CompiledBody:
    """Flatten a body into a postorder program.

    atom_order fixes the word-column layout: column i holds the truth values
    of atom_order[i].  Each distinct subformula is one op, in the order of
    formula.postorder.
    """
    index = {atom: i for i, atom in enumerate(atom_order)}
    ops: list[tuple[type, int, int]] = []
    last_use: list[int] = []
    slot: dict[F.LtlBody, int] = {}
    for node in F.postorder(body):
        cls, n = node.__class__, len(ops)
        if cls in _BINARY:
            op = (cls, slot[node.left], slot[node.right])
            last_use[op[1]] = last_use[op[2]] = n
        elif cls in _UNARY:
            op = (cls, slot[node.arg], -1)
            last_use[op[1]] = n
        else:
            op = (cls, index[node.ap, node.var] if cls is Atom else -1, -1)
        slot[node] = n
        last_use.append(n)
        ops.append(op)
    return CompiledBody(tuple(ops), tuple(last_use))


def eval_compiled(prog: CompiledBody, words: np.ndarray, stem_len: int,
                  loop_len: int) -> np.ndarray:
    """Truth value of the compiled body at position 0 of each word.

    words is a 0/1 array of shape (batch, stem_len + loop_len, atoms), its
    columns in the atom_order of compile_body; word b is words[b, :stem_len]
    followed by words[b, stem_len:] repeated forever.  Returns a (batch,)
    bool array.
    """
    if loop_len < 1:
        raise ValueError("loop must be nonempty")
    n_pos = stem_len + loop_len
    if words.ndim != 3 or words.shape[1] != n_pos:
        raise ValueError(f"words must have shape (batch, {n_pos}, atoms), "
                         f"got {words.shape}")
    batch = words.shape[0]
    # (atoms, positions, batch): each atom's values are one contiguous block
    cols = np.ascontiguousarray(words.transpose(2, 1, 0), dtype=bool)

    ops, last_use = prog.ops, prog.last_use
    # a node's values are dropped after the last node that reads them
    vals: list = [None] * len(ops)
    for n, (op, a, b) in enumerate(ops):
        if op is Atom:
            row = cols[a]
        elif op is TrueConst:
            row = np.ones((n_pos, batch), dtype=bool)
        elif op is FalseConst:
            row = np.zeros((n_pos, batch), dtype=bool)
        elif op is Not:
            row = ~vals[a]
        elif op is And:
            row = vals[a] & vals[b]
        elif op is Or:
            row = vals[a] | vals[b]
        elif op is Implies:
            row = ~vals[a] | vals[b]
        elif op is Iff:
            row = vals[a] == vals[b]
        elif op is Next:
            c = vals[a]
            row = np.empty_like(c)
            row[:-1] = c[1:]
            row[-1] = c[stem_len]
        else:
            row = _fixpoint(op, vals[a], vals[b] if b >= 0 else None,
                            n_pos, stem_len)
        vals[n] = row
        if op not in _LEAVES:
            if last_use[a] == n:
                vals[a] = None
            if b >= 0 and last_use[b] == n:
                vals[b] = None
    return vals[-1][0].copy()


def _fixpoint(op, c1, c2, n_pos, stem_len):
    """Values of an until-like node from its children's (positions x batch)
    values.  Binary operators read c1 (left) and c2 (right); unary ones
    read c1 only.

    On the loop, G and F are one reduction over its rows.  U, W and R
    double a window around the cycle: after the round of width w, hit[p]
    says whether the right operand holds within w steps of loop row p with
    the left one holding before it, and run[p] whether the left one holds
    for all w steps; R is !(!a U !b).  The stem is then walked backwards.
    """
    loop = slice(stem_len, n_pos)
    row = np.empty_like(c1)
    if op is Eventually or op is Globally:
        combine = np.logical_or if op is Eventually else np.logical_and
        row[loop] = combine.reduce(c1[loop], axis=0)

        def step(p):
            combine(c1[p], row[p + 1], out=row[p])
    elif op is Until or op is WeakUntil or op is Release:
        dual = op is Release
        run, hit = (~c1[loop], ~c2[loop]) if dual else (c1[loop], c2[loop])
        w = 1
        while w < n_pos - stem_len:  # row p + w, counted around the cycle
            hit = hit | run & np.concatenate((hit[w:], hit[:w]))
            run = run & np.concatenate((run[w:], run[:w]))
            w *= 2
        if op is WeakUntil:  # a U b, or a forever
            hit = hit | run
        row[loop] = ~hit if dual else hit
        # until: c2 | (c1 & next); release: c2 & (c1 | next)
        inner, outer = ((np.logical_or, np.logical_and) if dual
                        else (np.logical_and, np.logical_or))

        def step(p):
            inner(c1[p], row[p + 1], out=row[p])
            outer(c2[p], row[p], out=row[p])
    else:
        raise ValueError(f"not an until-like node: {op}")
    for p in range(stem_len - 1, -1, -1):
        step(p)
    return row


def word_from_letters(letters, atom_order) -> np.ndarray:
    """Build a (positions x atoms) word matrix from letters given as sets of
    atom ids."""
    word = np.zeros((len(letters), len(atom_order)), dtype=np.uint8)
    for p, letter in enumerate(letters):
        for i, atom in enumerate(atom_order):
            if atom in letter:
                word[p, i] = 1
    return word


def eval_body_on_lasso(body: F.LtlBody, stem, loop, atom_order=None) -> bool:
    """Evaluate an LTL body on a lasso word of atom-id letters.

    Convenience wrapper used by tests and by out-of-hot-path callers;
    compiles the body on every call and evaluates a batch of one.
    """
    if atom_order is None:
        atom_order = sorted(F.atoms_of(body))
    prog = compile_body(body, atom_order)
    word = word_from_letters(list(stem) + list(loop), atom_order)
    return bool(eval_compiled(prog, word[None], len(stem), len(loop))[0])
