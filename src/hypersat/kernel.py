"""Batched evaluation of LTL bodies over ultimately periodic words.

A body is compiled once into a flat postorder program: per node, its
formula class and its children's indices (an atom's word column).  The
program is then evaluated against a batch of words of one shape, given as
a (batch x positions x atoms) 0/1 array: every word is
``stem . loop^omega`` with the same stem and loop lengths.  Each node's
values are kept as one (positions x batch) boolean array, so every step of
the program is a numpy operation over the whole batch.  Until-like
operators are solved exactly with two backward sweeps over the loop
positions followed by one backward pass over the stem (Markey &
Schnoebelen, "Model Checking a Path", CONCUR 2003).

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


def compile_body(body: F.LtlBody, atom_order) -> CompiledBody:
    """Flatten a body into a postorder program.

    atom_order fixes the word-column layout: column i holds the truth values
    of atom_order[i].  Each distinct subformula is one op, in the order of
    formula.postorder.
    """
    index = {atom: i for i, atom in enumerate(atom_order)}
    ops: list[tuple[type, int, int]] = []
    slot: dict[F.LtlBody, int] = {}
    for node in F.postorder(body):
        cls = node.__class__
        if cls in _BINARY:
            op = (cls, slot[node.left], slot[node.right])
        elif cls in _UNARY:
            op = (cls, slot[node.arg], -1)
        else:
            op = (cls, index[node.ap, node.var] if cls is Atom else -1, -1)
        slot[node] = len(ops)
        ops.append(op)
    return CompiledBody(tuple(ops))


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

    ops = prog.ops
    # a node's values are dropped after the last node that reads them
    last_use = list(range(len(ops)))
    for n, (op, a, b) in enumerate(ops):
        if op not in _LEAVES:
            last_use[a] = n
            if b >= 0:
                last_use[b] = n

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
    read c1 only."""
    if op is Eventually or op is Globally:
        row = c1.copy()
        combine = np.logical_or if op is Eventually else np.logical_and

        def step(p, s):
            combine(c1[p], row[s], out=row[p])
    else:
        if op is WeakUntil:
            row = c1 | c2
        elif op is Until or op is Release:
            row = c2.copy()
        else:
            raise ValueError(f"not an until-like node: {op}")
        # until: c2 | (c1 & next); release: c2 & (c1 | next)
        inner, outer = ((np.logical_or, np.logical_and) if op is Release
                        else (np.logical_and, np.logical_or))

        def step(p, s):
            inner(c1[p], row[s], out=row[p])
            outer(c2[p], row[p], out=row[p])

    # two backward sweeps over the loop, then one over the stem
    for _ in range(2):
        for p in range(n_pos - 1, stem_len - 1, -1):
            step(p, p + 1 if p + 1 < n_pos else stem_len)
    for p in range(stem_len - 1, -1, -1):
        step(p, p + 1)
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
