"""Ground-truth HyperLTL semantics over finite sets of lasso traces, and a
bounded model finder on top of it.

Quantifiers range over a trace set; an assignment picks one trace per
variable, and the body is evaluated on the combined word.  An Evaluator
renders a fixed list of traces once, from a table of each letter's APs: a
row per trace, its stem padded to the longest stem, then its loop.  Each
kernel call aligns the traces it uses to their common shape: a stem as
long as the longest of their stems and a loop whose length is the lcm of
their loop lengths, gathering position i of a trace from its rendering by
a modular index.  Unrolling a lasso's loop or its stem does not change the
word, so this alignment is exact.

C candidate sets of k traces under n quantifiers are checked as one block
of k^n x C words, evaluated in one kernel call.  The block is built in the
kernel's own layout, one bool per (atom, position, word) cell.  Its word
axes are one per variable, then the set axis, innermost: a variable varies
only on its own axis and the set axis, so its values are written, and the
quantifier check (nested all/any, innermost variable first) reduces, in
contiguous rows of C words.  Short rows are written once, then doubled up
to _SHORT_ROW cells, then copied whole.

The model finder draws candidate sets from a pool that lists each lasso
word within the bounds once, as its canonical lasso, cheapest first.  The
pool stays letter ranks up to the rendering: arrays of words, the
primitive ones as loops, each loop joined with every stem that may precede
it, sorted once on integer keys that hold each lasso's bit count.  Only a
witness's traces become LassoTrace objects.  Candidate sets come lazily in
canonical order (ascending total bit count, then size, then index tuple),
so the first hit is a minimal, readable witness.  Consecutive sets of one
size are stacked into one kernel call of at most _CELL_CAP word cells
(words x positions x atoms), as long as the stacked words need no more
positions than the sets' own words together: the (stem, loop) shapes of
sets are numbered and joined through a table built once per search.  A
single block larger than the cap is split on its outermost variable, and
the parts stop as soon as the quantifier is decided.

The model finder is an oracle for the SAT direction only: NoModelUpTo means
nothing beyond "no model within these bounds".
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import NamedTuple

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

    The list comes rendered by _gather over the formula's sorted APs.
    Every kernel call aligns the traces it uses to their common shape: the
    longest of their stems and the lcm of their loop lengths.  Candidate
    sets and quantifier assignments are given as integer indices into the
    list.
    """

    def __init__(self, phi: F.HyperFormula, rendered):
        self.phi = phi
        self.aps = _aps(phi)
        atom_order = [(ap, var) for var in phi.variables for ap in self.aps]
        self.prog = kernel.compile_body(phi.body, atom_order)
        self.forall = [q is F.Quantifier.FORALL for q, _ in phi.prefix]
        self.stems, self.loops, self.mats = rendered
        self.head = int(self.stems.max(initial=0))  # where loops start
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
        pos = np.where(i < stem, i, self.head + (i - stem) % loop)
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
    broadcasts, innermost first: doubled onto itself while the rows inside
    are 2 to _SHORT_ROW - 1 cells long, then in whole copies of the written
    part, in one broadcast (a memset for rows of 1 cell), and one copy of
    what is left."""
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
        if not spread[g]:
            continue
        row, n, done = math.prod(sizes[g + 1:]), sizes[g], 1
        at = head[:g]
        while 1 < row and done * row < _SHORT_ROW and done < n:
            step = min(done, n - done)
            out[at + (slice(done, done + step),)] = out[at + (slice(0, step),)]
            done += step
        copies, rest = divmod(n - done, done)
        if copies:
            whole = out[at + (slice(done, done + copies * done),)]
            whole.reshape(whole.shape[:g] + (copies, done) + whole.shape[g + 1:],
                          copy=False)[...] = out[at + (None, slice(0, done))]
        if rest:
            out[at + (slice(n - rest, n),)] = out[at + (slice(0, rest),)]


def _aps(phi: F.HyperFormula) -> list:
    return sorted({ap for ap, _ in phi.atoms})


def _gather(letters, aps, stems, loops, stem_of, loop_of):
    """Render lassos given as letter codes: lasso t is the stem
    stems[stem_of[t]] then the loop loops[loop_of[t]], (codes, lengths)
    pairs of zero-padded rows, code c standing for letters[c].  Returns
    their stem lengths, loop lengths and (lassos, positions, aps) block,
    whose row t is lasso t's stem, padded to the longest stem, then its
    loop."""
    table = np.array([[ap in c for ap in aps] for c in letters],
                     dtype=bool).reshape(len(letters), len(aps))
    (stem_codes, stem_lengths), (loop_codes, loop_lengths) = stems, loops
    stem_len, loop_len = stem_lengths[stem_of], loop_lengths[loop_of]
    codes = np.concatenate((stem_codes[stem_of, :stem_len.max(initial=0)],
                            loop_codes[loop_of]), axis=1)
    return stem_len, loop_len, table[codes]


def _padded(lengths, codes):
    """(rows, lengths) of words given by their lengths and their codes, one
    word after another: a zero-padded row per word."""
    rows = np.zeros((len(lengths), lengths.max(initial=0)), dtype=np.intp)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = codes
    return rows, lengths


def render_traces(traces, aps):
    """The rendering of LassoTrace objects that an Evaluator takes."""
    letters: dict = {}  # letter -> its code

    def padded(words):
        return _padded(np.array([len(w) for w in words], dtype=np.intp),
                       [letters.setdefault(x, len(letters))
                        for w in words for x in w])
    stems, loops = (padded([t.stem for t in traces]),
                    padded([t.loop for t in traces]))
    each = np.arange(len(traces))
    return _gather(letters, aps, stems, loops, each, each)


def eval_hyperltl(phi: F.HyperFormula, model: LassoTraceSet) -> bool:
    """Does the trace set satisfy the formula?  Exact, no approximation."""
    if not model.traces:
        raise EmptyTraceSetError("model candidates must be nonempty")
    return Evaluator(phi, render_traces(model.traces, _aps(phi))) \
        .satisfied_by_all()


# ---------------------------------------------------------------------------
# Bounded model finding
# ---------------------------------------------------------------------------

class _Pool(NamedTuple):
    """Canonical lassos as letter ranks, cheapest first: lasso t is the
    stem stems[keys[t, 2]] then the loop loops[keys[t, 3]], as _gather
    reads them, and keys[t, 0] is its bit count."""

    letters: list
    stems: tuple
    loops: tuple
    keys: np.ndarray  # (lassos, 4): bits, length, stem row, loop row

    def lasso(self, t: int) -> LassoTrace:
        _, _, i, j = self.keys[t].tolist()
        return LassoTrace(*(tuple(map(self.letters.__getitem__,
                                      ranks[k, :lengths[k]].tolist()))
                            for (ranks, lengths), k in ((self.stems, i),
                                                        (self.loops, j))))


def _trace_pool(aps, max_stem: int, max_loop: int) -> _Pool:
    """All lasso words within the bounds, each as its one canonical lasso:
    the loop is a primitive word (it equals none of its proper rotations),
    and the stem is empty or ends in a letter other than the loop's last.

    Lassos come cheapest first: by bits, length, stem length, stem, then
    loop, comparing letters as sorted AP tuples.  They are built loops
    first, as rows of letter ranks in that letter order; each primitive
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
    letters = [frozenset(c) for c in sorted(
        c for r in range(len(aps) + 1) for c in combinations(sorted(aps), r))]
    # rank 0 is the empty letter, so padding adds no bits
    weight = np.array([len(c) for c in letters])

    def words(k):  # all n^k words of length k, in product order
        return np.indices((n,) * k).reshape(k, n ** k).T

    def padded(blocks):  # each block's words are equally long
        return _padded(np.repeat([b.shape[1] for b in blocks],
                                 [len(b) for b in blocks]),
                       np.concatenate([b.ravel() for b in blocks]))

    loops = []
    for k in range(1, max_loop + 1):
        w = words(k)
        # a loop equal to a proper rotation is a power of a shorter prefix
        periodic = np.zeros(len(w), dtype=bool)
        for d in range(1, k):
            if k % d == 0:
                periodic |= (w[:, d:] == w[:, :-d]).all(axis=1)
        loops.append(w[~periodic])
    # with one letter, every stem but the empty one ends in the loop's last
    stems = padded([words(k) for k in range(max_stem + 1 if n > 1 else 1)])
    loops = padded(loops)
    (stem_ranks, stem_len), (loop_ranks, loop_len) = stems, loops
    stem_last = np.full(len(stem_len), -1)  # -1: the empty stem
    ends = stem_len > 0
    stem_last[ends] = stem_ranks[ends, stem_len[ends] - 1]
    loop_last = loop_ranks[np.arange(len(loop_len)), loop_len - 1]
    i, j = np.nonzero(stem_last[:, None] != loop_last)
    bits = weight[stem_ranks].sum(axis=1)[i] + weight[loop_ranks].sum(axis=1)[j]
    length = stem_len[i] + loop_len[j]
    # stems and loops are listed by length, then ranks, so (bits, length,
    # stem row, loop row) is the order above
    keys = np.stack((bits, length, i, j), axis=1)
    return _Pool(letters, stems, loops,
                 keys[np.lexsort((j, i, length, bits))])


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
    shape_of, join, positions = _shape_table(evaluator.stems, evaluator.loops)
    chunk: list = []
    size = 0
    for combo in sets:
        shape = shape_of[combo[0]]
        for t in combo[1:]:
            shape = join[shape][shape_of[t]]
        if len(combo) == size:
            joint = join[chunk_shape][shape]
            if (positions[joint] <= own + positions[shape]
                    and (len(chunk) + 1) * positions[joint] <= limit):
                chunk.append(combo)
                chunk_shape = joint
                own += positions[shape]
                continue
        if chunk:
            yield np.array(chunk, dtype=np.intp)
        chunk = [combo]
        chunk_shape = shape
        own = positions[shape]
        size = len(combo)
        # word positions the chunk's sets may have in all: each set is a
        # block of size^n words of `atoms` columns
        limit = _CELL_CAP // (size ** len(evaluator.forall) * evaluator.atoms)
    if chunk:
        yield np.array(chunk, dtype=np.intp)


def _shape_table(stems, loops):
    """Numbers for the shapes (longest stem, lcm of the loops) of sets of
    lassos with these stem and loop lengths: each lasso's shape, the table
    whose join[a][b] is the shape of the union of sets of shapes a and b,
    and each shape's positions."""
    # distinct values by bincount, as np.unique would import numpy.ma
    values = np.flatnonzero(np.bincount(loops))
    while True:  # the loop lengths, closed under lcm
        lcm = np.lcm.outer(values, values)
        closed = np.flatnonzero(np.bincount(lcm.ravel()))
        if len(closed) == len(values):
            break
        values = closed
    # shape (stem s, loop values[b]) is s * m + b
    m = len(values)
    index = np.zeros(values[-1] + 1, dtype=np.intp)
    index[values] = np.arange(m)
    s = np.arange(stems.max() + 1)
    join = (np.maximum.outer(s, s)[:, None, :, None] * m
            + index[lcm][None, :, None, :])
    return ((stems * m + index[loops]).tolist(),
            join.reshape(len(s) * m, -1).tolist(),
            (s[:, None] + values).ravel().tolist())


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

    aps = _aps(phi)
    pool = _trace_pool(aps, max_stem, max_loop)
    count = len(pool.keys)
    max_size = min(max_traces, count)
    if sum(math.comb(count, k) for k in range(1, max_size + 1)) > _POOL_CAP:
        raise BoundsExceededError(
            "candidate-set enumeration exceeds the cap; "
            "reduce max_traces or the lasso bounds")
    evaluator = Evaluator(phi, _gather(pool.letters, aps, pool.stems,
                                       pool.loops, pool.keys[:, 2],
                                       pool.keys[:, 3]))

    bits = pool.keys[:, 0].tolist()
    for chunk in _chunks(candidate_sets(bits, max_size), evaluator):
        hits = evaluator.satisfies(chunk)
        if hits.any():
            combo = chunk[int(hits.argmax())].tolist()
            model = LassoTraceSet(tuple(map(pool.lasso, combo)))
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
