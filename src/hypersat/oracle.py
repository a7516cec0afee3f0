"""Ground-truth HyperLTL semantics over finite sets of lasso traces, and a
bounded model finder on top of it.

Quantifiers range over a trace set; an assignment picks one trace per
variable, and the body is evaluated on the combined word.  An Evaluator
renders every trace of a fixed list once, at its own shape (stem, then
loop).  Each kernel call aligns the traces it uses to their common shape:
a stem as long as the longest of their stems and a loop whose length is
the lcm of their loop lengths, gathering position i of a trace from its
own rendering by a modular index.  Unrolling a lasso's loop or its stem
does not change the word, so this alignment is exact.

C candidate sets of k traces under n quantifiers are checked as one block
of k^n x C words, evaluated in one kernel call.  The block is built in the
kernel's own layout, one bool per (atom, position, word) cell.  Its word
axes are one per variable, then the set axis, innermost: a variable varies
only on its own axis and the set axis, so its values are written, and the
quantifier check (nested all/any, innermost variable first) reduces, in
contiguous rows of C words.  Short rows are written once, then doubled.

The model finder draws candidate sets from a pool that lists each lasso
word within the bounds once, as its canonical lasso, cheapest first.  The
pool is built loops first from letter ranks: each primitive loop once, then
joined with every stem that may precede it, and sorted once on an integer
key.  It enumerates candidate sets lazily in canonical order
(ascending total bit count, then size, then index tuple), so the first hit
is a minimal, readable witness.  Consecutive candidate sets of the same
size are stacked into one kernel call of at most _CELL_CAP word cells
(words x positions x atoms), as long as the stacked words need no more
positions than the sets' own words together; a single block larger than
the cap is split on its outermost variable, and the parts stop as soon as
the quantifier is decided.

The model finder is an oracle for the SAT direction only: NoModelUpTo means
nothing beyond "no model within these bounds".
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, product

import numpy as np

from . import formula as F
from . import kernel
from .encoder import POSITION_CAP

_POOL_CAP = 2_000_000
# a kernel block has one axis per quantified variable and one for the
# candidate sets, and numpy's array functions take at most 32 axes
_MAX_VARIABLES = 31
# word cells (words x positions x atoms) per kernel call; the kernel's
# input block holds one bool per cell, so this also bounds its bytes
_CELL_CAP = 1 << 20
# blocks of at least _DOUBLING_ROWS rows of 2 or more words take _fill,
# which doubles runs of rows shorter than _SHORT_ROW cells
_DOUBLING_ROWS, _SHORT_ROW = 1 << 14, 64


class OracleError(Exception):
    pass


class EmptyTraceSetError(OracleError):
    pass


class BoundsExceededError(OracleError):
    """Requested bounds would exceed the position/enumeration caps."""


class DuplicateTraceError(OracleError):
    """A trace set lists the same trace twice."""


class SelfCheckError(OracleError):
    """The model finder's candidate failed the independent re-evaluation."""


@dataclass(frozen=True)
class LassoTrace:
    """Ultimately periodic trace stem . loop^omega over sets of AP names."""

    stem: tuple
    loop: tuple

    def __post_init__(self):
        if len(self.loop) < 1:
            raise OracleError("lasso loop must be nonempty")

    def at(self, i: int) -> frozenset:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def bits(self) -> int:
        return sum(map(len, self.stem + self.loop))


@dataclass(frozen=True)
class LassoTraceSet:
    traces: tuple

    def __post_init__(self):
        if len(set(self.traces)) != len(self.traces):
            raise DuplicateTraceError("trace set lists a trace twice")


@dataclass(frozen=True)
class Found:
    model: LassoTraceSet


@dataclass(frozen=True)
class NoModelUpTo:
    max_traces: int
    max_stem: int
    max_loop: int


class Evaluator:
    """Evaluates one formula over candidate sets drawn from a fixed trace list.

    Each trace is rendered once at its own shape.  Every kernel call aligns
    the traces it uses to their common shape: the longest of their stems
    and the lcm of their loop lengths.  Candidate sets and quantifier
    assignments are given as integer indices into the list.
    """

    def __init__(self, phi: F.HyperFormula, traces):
        self.phi = phi
        self.aps = sorted({ap for ap, _ in phi.atoms})
        atom_order = [(ap, var) for var in phi.variables for ap in self.aps]
        self.prog = kernel.compile_body(phi.body, atom_order)
        self.forall = [q is F.Quantifier.FORALL for q, _ in phi.prefix]
        self.stems = np.array([len(t.stem) for t in traces], dtype=np.intp)
        self.loops = np.array([len(t.loop) for t in traces], dtype=np.intp)
        self.mats = _render(traces, self.aps)
        self.atoms = max(1, len(phi.prefix) * len(self.aps))

    def shape(self, used: np.ndarray) -> tuple[int, int]:
        """(stem, loop) lengths that align the traces with these indices."""
        return (int(self.stems[used].max(initial=0)),
                math.lcm(*self.loops[used].tolist()))

    def body_value(self, *traces: np.ndarray) -> np.ndarray:
        """Body truth values for the assignments that bind variable v to
        the trace indices traces[v]: arrays that broadcast to one shape,
        which the result has.  One kernel call at the common shape of the
        traces they use, on a block that it reads without a copy, filled
        by _fill if its innermost axis makes many short rows."""
        shape = np.broadcast_shapes(*(t.shape for t in traces))
        uses = np.zeros(len(self.mats), dtype=bool)
        for t in traces:
            uses[t] = True
        used = np.flatnonzero(uses)
        stem_len, loop_len = self.shape(used)
        if stem_len + 2 * loop_len > POSITION_CAP:
            raise BoundsExceededError(
                f"aligned word needs {stem_len} + 2*{loop_len} positions")
        # trace t's position i at that shape is pos[i, t] of its rendering
        i = np.arange(stem_len + loop_len)[:, None]
        stem, loop = self.stems[used], self.loops[used]
        pos = np.where(i < stem, i, stem + (i - stem) % loop)
        rows = self.mats.transpose(2, 1, 0)[:, pos, used]  # (aps, pos, used)
        local = np.cumsum(uses) - 1  # trace index -> column of rows
        cols = np.empty((len(traces), len(self.aps), len(i)) + shape,
                        dtype=bool)
        width = cols.shape[-1]  # a broadcast writes rows this many words long
        fill = _fill if 1 < width <= cols.size // _DOUBLING_ROWS else np.copyto
        for v, t in enumerate(traces):
            # t's axes are the last of shape's, as in broadcasting
            t = t.reshape((1,) * (len(shape) - t.ndim) + t.shape)
            fill(cols[v], rows[:, :, local[t]])
        cols = cols.reshape(-1, len(i), math.prod(shape))  # (atom, pos, word)
        return kernel.eval_compiled(self.prog, cols.transpose(2, 1, 0),
                                    stem_len, loop_len).reshape(shape)

    def satisfies(self, sets: np.ndarray) -> np.ndarray:
        """Quantifier check of every row of a (C, k) array of trace indices,
        each row a candidate set; returns a (C,) bool array."""
        sets = np.asarray(sets, dtype=np.intp)
        uses = np.zeros(len(self.mats), dtype=bool)
        uses[sets] = True
        stem_len, loop_len = self.shape(np.flatnonzero(uses))
        return self._check(sets, (), stem_len + loop_len)

    def satisfied_by_all(self) -> bool:
        """Does the whole trace list satisfy the formula?"""
        return bool(self.satisfies(np.arange(len(self.mats))[None])[0])

    def _check(self, sets, fixed, positions):
        """Truth of the quantifiers after the len(fixed) outermost ones,
        with those variables bound per row to the (C,) index arrays in
        fixed; positions bounds the length of the words."""
        c, k = sets.shape
        free = len(self.forall) - len(fixed)
        if free == 0 or c * k ** free * positions * self.atoms <= _CELL_CAP:
            return self._block(sets, fixed)
        # over the cap: split on the outermost free variable, and stop as
        # soon as every row is decided
        forall = self.forall[len(fixed)]
        values = np.full(c, forall)
        for j in range(k):
            part = self._check(sets, fixed + (sets[:, j],), positions)
            values = values & part if forall else values | part
            if (values != forall).all():
                break
        return values

    def _block(self, sets, fixed):
        c, k = sets.shape
        free = len(self.forall) - len(fixed)
        # the block's axes are (k, .., k, c): free variables along their own
        # axis, fixed ones per set only; the set axis is innermost, so rows
        # are c words long.  No variables give one value
        traces = [*fixed] + [sets.T.reshape((k,) + (1,) * (free - 1 - j)
                                            + (c,)) for j in range(free)]
        values = np.broadcast_to(self.body_value(*traces),
                                 (k,) * free + (c,))
        for forall in reversed(self.forall[len(fixed):]):
            values = values.all(axis=-2) if forall else values.any(axis=-2)
        return values


def _fill(out, part):
    """out[...] = part: part's cells once, then each run of axes that it
    broadcasts, innermost first: doubled onto itself if the rows inside are
    2 to _SHORT_ROW - 1 cells long, else in one broadcast (a memset for 1)."""
    sizes, spread = [], []  # out's axes, neighbours of one kind merged
    for n, m in zip(out.shape, part.shape):
        if spread and spread[-1] == (m < n):
            sizes[-1] *= n
        elif n > 1:
            sizes.append(n)
            spread.append(m < n)
    out = out.reshape(sizes, copy=False)
    head = tuple(slice(0, 1) if b else slice(None) for b in spread)
    out[head] = part.reshape([1 if b else n for n, b in zip(sizes, spread)])
    for g in reversed(range(len(sizes))):  # axes inside g are all written
        done, short = 1, 1 < math.prod(sizes[g + 1:]) < _SHORT_ROW
        while spread[g] and done < sizes[g]:
            step = min(done, sizes[g] - done) if short else sizes[g] - 1
            out[head[:g] + (slice(done, done + step),)] = \
                out[head[:g] + (slice(0, step if short else 1),)]
            done += step


def _render(traces, aps) -> np.ndarray:
    """(traces, positions, aps) bool matrix: row t holds trace t's stem and
    then its loop, zero-padded to the longest trace."""
    column = {ap: j for j, ap in enumerate(aps)}
    letters: dict = {}  # letter -> its row in table
    codes = [letters.setdefault(letter, len(letters))
             for trace in traces for letter in trace.stem + trace.loop]
    table = np.zeros((len(letters), len(aps)), dtype=bool)
    for letter, row in letters.items():
        for ap in letter:
            if ap in column:
                table[row, column[ap]] = True
    lengths = np.array([len(t.stem) + len(t.loop) for t in traces],
                       dtype=np.intp)
    which = np.repeat(np.arange(len(traces)), lengths)
    starts = np.cumsum(lengths) - lengths
    mats = np.zeros((len(traces), lengths.max(initial=0), len(aps)),
                    dtype=bool)
    mats[which, np.arange(len(codes)) - starts[which]] = table[codes]
    return mats


def eval_hyperltl(phi: F.HyperFormula, model: LassoTraceSet) -> bool:
    """Does the trace set satisfy the formula?  Exact, no approximation."""
    if not model.traces:
        raise EmptyTraceSetError("model candidates must be nonempty")
    return Evaluator(phi, model.traces).satisfied_by_all()


# ---------------------------------------------------------------------------
# Bounded model finding
# ---------------------------------------------------------------------------

def _trace_pool(aps, max_stem: int, max_loop: int):
    """All lasso words within the bounds, each as its one canonical lasso:
    the loop is a primitive word (it equals none of its proper rotations),
    and the stem is empty or ends in a letter other than the loop's last.

    Lassos come cheapest first: by bits, length, stem length, stem, then
    loop, comparing letters as sorted AP tuples.  They are built loops
    first, as tuples of letter ranks in that letter order; each primitive
    loop is joined with every stem that may precede it.  Raises
    BoundsExceededError before building any lasso when the raw lassos,
    every stem with every loop, exceed _POOL_CAP.
    """
    # raw lassos: (n^0 + .. + n^max_stem) stems times (n^1 + .. + n^max_loop)
    # loops over n = 2^|aps| letters, counted before the letters are listed;
    # the stem sum stops as soon as the product is over
    n = 2 ** len(aps)
    loop_count = sum(n ** k for k in range(1, max_loop + 1))
    stem_count = 0
    for k in range(max_stem + 1):
        stem_count += n ** k
        if stem_count * loop_count > _POOL_CAP:
            raise BoundsExceededError(
                "trace enumeration exceeds the candidate cap; "
                "reduce max_stem/max_loop or the AP count")
    letters = sorted(c for r in range(len(aps) + 1)
                     for c in combinations(sorted(aps), r))
    weight = [len(c) for c in letters]
    ranks = range(len(letters))
    loops = []
    for k in range(1, max_loop + 1):
        # a loop equal to a proper rotation is a power of a shorter prefix
        divisors = [d for d in range(1, k) if k % d == 0]
        loops += [w for w in product(ranks, repeat=k)
                  if all(w[:d] * (k // d) != w for d in divisors)]
    # with one letter, every stem but the empty one ends in the loop's last
    stems = [w for k in range(max_stem + 1 if len(letters) > 1 else 1)
             for w in product(ranks, repeat=k)]
    loop_bits = [sum(map(weight.__getitem__, w)) for w in loops]
    stem_bits = [sum(map(weight.__getitem__, w)) for w in stems]
    # stems and loops are listed by length, then ranks, so (bits, length,
    # stem index, loop index) is the order above
    keys = sorted((stem_bits[i] + loop_bits[j], len(stem) + len(loop), i, j)
                  for j, loop in enumerate(loops)
                  for i, stem in enumerate(stems)
                  if not stem or stem[-1] != loop[-1])
    sets = [frozenset(c) for c in letters]
    stems = [tuple(map(sets.__getitem__, w)) for w in stems]
    loops = [tuple(map(sets.__getitem__, w)) for w in loops]
    return [LassoTrace(stems[i], loops[j]) for _, _, i, j in keys]


def candidate_sets(bits, max_size: int):
    """Index tuples of 1..max_size distinct positions of bits, lazily.

    bits must be nondecreasing.  Tuples come in ascending (weight, size,
    tuple) order, weight being the sum of the bits they index: the order of
    sorting all combinations by that key.
    """
    prefix = list(accumulate(bits, initial=0))
    top = sum(bits[len(bits) - max_size:])
    for weight in range(top + 1):
        for size in range(1, max_size + 1):
            yield from _sets_of_weight(bits, prefix, size, weight, 0)


def _sets_of_weight(bits, prefix, size: int, weight: int, start: int):
    """Increasing size-tuples of positions >= start whose bits sum to
    weight, in lexicographic order."""
    if size == 1:
        lo = bisect_left(bits, weight, start)
        for i in range(lo, bisect_right(bits, weight, lo)):
            yield (i,)
        return
    n = len(bits)
    # the last size-1 positions carry the largest sum the rest can add
    rest_max = prefix[n] - prefix[n - size + 1]
    for i in range(max(start, bisect_left(bits, weight - rest_max)),
                   n - size + 1):
        if prefix[i + size] - prefix[i] > weight:
            break
        for rest in _sets_of_weight(bits, prefix, size - 1,
                                    weight - bits[i], i + 1):
            yield (i,) + rest


def _chunks(sets, evaluator: Evaluator):
    """Stack consecutive candidate sets of one size into (C, k) arrays.

    A chunk's words have the common shape of all its traces.  A set joins
    the chunk only if the chunk stays within _CELL_CAP word cells and its
    words get no more positions than the words of its sets, each at its own
    shape, have together: a stacked call never walks more positions than
    its sets would one by one.  Each chunk holds at least one set.
    """
    stem_of = evaluator.stems.tolist().__getitem__
    loop_of = evaluator.loops.tolist().__getitem__
    chunk: list = []
    size = 0
    for combo in sets:
        stem = max(map(stem_of, combo))
        loop = math.lcm(*map(loop_of, combo))
        if len(combo) == size:
            joint_stem = max(chunk_stem, stem)
            joint_loop = math.lcm(chunk_loop, loop)
            positions = joint_stem + joint_loop
            if (positions <= own + stem + loop
                    and (len(chunk) + 1) * positions <= limit):
                chunk.append(combo)
                chunk_stem, chunk_loop = joint_stem, joint_loop
                own += stem + loop
                continue
        if chunk:
            yield np.array(chunk, dtype=np.intp)
        chunk = [combo]
        chunk_stem, chunk_loop = stem, loop
        own = stem + loop
        size = len(combo)
        # word positions the chunk's sets may have in all: each set is a
        # block of size^n words of `atoms` columns
        limit = _CELL_CAP // (size ** len(evaluator.forall) * evaluator.atoms)
    if chunk:
        yield np.array(chunk, dtype=np.intp)


def bounded_find_model(phi: F.HyperFormula, max_traces: int, max_stem: int,
                       max_loop: int):
    """Search for a model with at most the given trace count and lasso sizes.

    Candidate sets are tried by ascending total bit count, so the first hit
    is a minimal, readable witness.  Returns Found(model) or NoModelUpTo;
    the latter says nothing about satisfiability beyond the bounds.  The
    witness is re-checked by eval_hyperltl at its own shape; a failure
    raises SelfCheckError.  More than _MAX_VARIABLES quantified variables
    raise BoundsExceededError."""
    if max_traces < 1 or max_loop < 1 or max_stem < 0:
        raise ValueError("bounds must satisfy max_traces, max_loop >= 1, max_stem >= 0")
    if len(phi.prefix) > _MAX_VARIABLES:
        raise BoundsExceededError(
            f"{len(phi.prefix)} quantified trace variables exceed the "
            f"oracle's limit of {_MAX_VARIABLES}")
    worst_loop = 1
    for v in range(2, max_loop + 1):
        worst_loop = math.lcm(worst_loop, v)
        if max_stem + 2 * worst_loop > POSITION_CAP:
            raise BoundsExceededError("position cap exceeded by the loop bound")

    aps = sorted({ap for ap, _ in phi.atoms})
    pool = _trace_pool(aps, max_stem, max_loop)
    max_size = min(max_traces, len(pool))
    if sum(math.comb(len(pool), k) for k in range(1, max_size + 1)) > _POOL_CAP:
        raise BoundsExceededError(
            "candidate-set enumeration exceeds the cap; "
            "reduce max_traces or the lasso bounds")
    evaluator = Evaluator(phi, pool)

    bits = [t.bits() for t in pool]
    for chunk in _chunks(candidate_sets(bits, max_size), evaluator):
        hits = evaluator.satisfies(chunk)
        if hits.any():
            combo = chunk[int(hits.argmax())]
            model = LassoTraceSet(tuple(pool[i] for i in combo))
            if not eval_hyperltl(phi, model):
                raise SelfCheckError("model finder self-check failed")
            return Found(model)
    return NoModelUpTo(max_traces, max_stem, max_loop)


def format_witness(model: LassoTraceSet) -> str:
    """Render a model as one `trace k: stem | loop` line per trace."""
    lines = []
    for k, trace in enumerate(model.traces):
        stem = " ".join(_fmt_letter(p) for p in trace.stem)
        loop = " ".join(_fmt_letter(p) for p in trace.loop)
        lines.append(f"trace {k}: {stem + ' ' if stem else ''}| {loop}")
    return "\n".join(lines)


def _fmt_letter(letter) -> str:
    return "{" + ",".join(sorted(letter)) + "}"
