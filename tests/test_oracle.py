import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hypersat import formula as F
from hypersat import kernel
from hypersat import oracle as O
from hypersat.bench import (gen_enforce_model, gen_gni_ni, gen_random,
                            gen_unsat, qn_suite)
from hypersat.formula import Quantifier, parse

from helpers import naive_eval


def lasso(stem, loop):
    return O.LassoTrace(tuple(frozenset(p) for p in stem),
                        tuple(frozenset(p) for p in loop))


def trace_set(traces):
    return O.LassoTraceSet(tuple(traces))


def pool_lassos(aps, max_stem, max_loop):
    """The trace pool, decoded lasso by lasso."""
    pool = O._trace_pool(aps, max_stem, max_loop)
    return [pool.lasso(t) for t in range(len(pool.keys))]


def evaluator(phi, traces):
    return O.Evaluator(phi, O.render_traces(traces, phi.aps))


def lasso_key(trace):
    """The trace pool's order, spelled out letter by letter."""
    return (trace.bits(), len(trace.stem) + len(trace.loop), len(trace.stem),
            tuple(tuple(sorted(p)) for p in trace.stem),
            tuple(tuple(sorted(p)) for p in trace.loop))


def brute_force_eval(phi, model):
    """Independent check: enumerate all quantifier instantiations and
    evaluate the body with the naive fixpoint evaluator."""
    traces = model.traces
    aps = sorted({ap for ap, _ in F.atoms_of(phi.body)})
    n = len(phi.prefix)

    def body_holds(assignment):
        stem_len = max((len(t.stem) for t in assignment), default=0)
        loop_len = 1
        for t in assignment:
            loop_len = loop_len * len(t.loop) // _gcd(loop_len, len(t.loop))
        word = []
        for k in range(stem_len + loop_len):
            letter = set()
            for t, (_, var) in zip(assignment, phi.prefix):
                for ap in t.at(k):
                    letter.add((ap, var))
            word.append(frozenset(letter))
        return naive_eval(phi.body, word, stem_len, loop_len)

    def rec(k, chosen):
        if k == n:
            return body_holds(chosen)
        quant = phi.prefix[k][0]
        options = [rec(k + 1, chosen + (t,)) for t in traces]
        return all(options) if quant is Quantifier.FORALL else any(options)

    return rec(0, ())


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestEvalHyperltl:
    def test_forall_globally_atom(self):
        phi = parse('forall p. G "a"_p')
        model = trace_set([lasso([], [{"a"}])])
        assert O.eval_hyperltl(phi, model)

    def test_unsat_family_never_satisfied(self):
        phi = gen_unsat(0)
        models = [
            trace_set([lasso([], [{"a"}])]),
            trace_set([lasso([], [set()])]),
            trace_set([lasso([], [{"a"}]), lasso([{"a"}], [set()])]),
        ]
        for model in models:
            assert not O.eval_hyperltl(phi, model)

    def test_gni_on_constant_singleton(self):
        gni = gen_gni_ni(1)[0]
        model = trace_set([lasso([], [{"l"}])])
        assert O.eval_hyperltl(gni, model)
        assert brute_force_eval(gni, model)

    def test_empty_trace_set_rejected(self):
        phi = parse('forall p. G "a"_p')
        with pytest.raises(O.EmptyTraceSetError):
            O.eval_hyperltl(phi, trace_set([]))

    def test_agrees_with_brute_force(self):
        rng = random.Random(42)
        for seed in range(60):
            nq = rng.randint(1, 3)
            prefix = [rng.choice(["forall", "exists"]) for _ in range(nq)]
            phi = gen_random(prefix, rng.randint(1, 8), 2,
                             rng.random() < 0.5, seed)
            traces = [lasso([{"a"}] if rng.random() < 0.5 else [],
                            [set(), {"a"}] if rng.random() < 0.5 else [{"b"}])
                      for _ in range(rng.randint(1, 3))]
            traces = list(dict.fromkeys(traces))
            model = trace_set(traces)
            assert O.eval_hyperltl(phi, model) == brute_force_eval(phi, model)

    def test_agrees_with_brute_force_on_mixed_loop_lengths(self):
        # traces with loops of length 1 to 4 are aligned to the lcm of
        # the loops each call uses
        rng = random.Random(43)
        letters = [set(), {"a"}, {"b"}, {"a", "b"}]
        for _ in range(60):
            variables = [f"p{i + 1}" for i in range(rng.randint(1, 3))]
            prefix = [(rng.choice(["forall", "exists"]), v) for v in variables]
            phi = F.make_hyper(prefix, random_body(rng, variables,
                                                   rng.randint(2, 9)))
            traces = [lasso([rng.choice(letters)
                             for _ in range(rng.randint(0, 2))],
                            [rng.choice(letters)
                             for _ in range(rng.randint(1, 4))])
                      for _ in range(rng.randint(1, 3))]
            model = trace_set(list(dict.fromkeys(traces)))
            assert O.eval_hyperltl(phi, model) == brute_force_eval(phi, model)

    def test_invariant_under_loop_unrolling(self):
        rng = random.Random(4)
        for seed in range(40):
            phi = gen_random(["forall", "exists"], rng.randint(1, 8), 2,
                             rng.random() < 0.5, seed)
            base = [lasso([], [{"a"}, set()]), lasso([{"b"}], [{"a", "b"}])]
            doubled = [O.LassoTrace(t.stem, t.loop + t.loop) for t in base]
            m1 = trace_set(base)
            m2 = trace_set(doubled)
            assert O.eval_hyperltl(phi, m1) == O.eval_hyperltl(phi, m2)


class TestBoundedFindModel:
    def test_minimal_witness_for_existential_atom(self):
        phi = parse('exists p. "a"_p')
        result = O.bounded_find_model(phi, 1, 0, 1)
        assert isinstance(result, O.Found)
        assert result.model.traces == (lasso([], [{"a"}]),)

    def test_enforce_model_2_1_found(self):
        result = O.bounded_find_model(gen_enforce_model(2, 1), 2, 1, 2)
        assert isinstance(result, O.Found)
        traces = result.model.traces
        assert len(traces) == 2
        assert traces[0].at(0) != traces[1].at(0)

    def test_enforce_model_3_1_no_model(self):
        result = O.bounded_find_model(gen_enforce_model(3, 1), 3, 2, 2)
        assert isinstance(result, O.NoModelUpTo)
        assert result.max_traces == 3

    def test_found_model_satisfies_formula(self):
        rng = random.Random(6)
        hits = 0
        for seed in range(40):
            phi = gen_random(["forall", "exists"], rng.randint(1, 8), 2,
                             True, seed)
            result = O.bounded_find_model(phi, 2, 1, 2)
            if isinstance(result, O.Found):
                hits += 1
                assert O.eval_hyperltl(phi, result.model)
                assert brute_force_eval(phi, result.model)
        assert hits > 0

    def test_canonical_order_prefers_fewer_bits(self):
        phi = parse('exists p. F "a"_p')
        result = O.bounded_find_model(phi, 2, 2, 2)
        assert isinstance(result, O.Found)
        model_bits = sum(t.bits() for t in result.model.traces)
        assert model_bits == 1

    def test_bad_bounds_rejected(self):
        phi = parse('exists p. "a"_p')
        with pytest.raises(ValueError):
            O.bounded_find_model(phi, 0, 1, 1)

    def test_position_cap_enforced(self):
        phi = parse('exists p. "a"_p')
        with pytest.raises(O.BoundsExceededError):
            O.bounded_find_model(phi, 1, 1, 10**7)


def reference_find_model(phi, max_traces, max_stem, max_loop):
    """Brute-force search: every candidate set of the pool, sorted by
    (total bits, size, index tuple), checked with brute_force_eval."""
    aps = sorted({ap for ap, _ in F.atoms_of(phi.body)})
    pool = pool_lassos(aps, max_stem, max_loop)
    combos = [c for k in range(1, min(max_traces, len(pool)) + 1)
              for c in itertools.combinations(range(len(pool)), k)]
    combos.sort(key=lambda c: (sum(pool[i].bits() for i in c), len(c), c))
    for combo in combos:
        model = trace_set([pool[i] for i in combo])
        if brute_force_eval(phi, model):
            return O.Found(model)
    return O.NoModelUpTo(max_traces, max_stem, max_loop)


class TestCandidateOrder:
    def test_lazy_order_equals_sorted_combinations(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 9)
            bits = sorted(rng.randint(0, 3) for _ in range(n))
            max_size = rng.randint(1, n)
            want = [c for k in range(1, max_size + 1)
                    for c in itertools.combinations(range(n), k)]
            want.sort(key=lambda c: (sum(bits[i] for i in c), len(c), c))
            assert list(O.candidate_sets(bits, max_size)) == want

    def test_gaps_in_bit_counts(self):
        bits = [0, 0, 5, 5, 9]
        want = [c for k in (1, 2, 3)
                for c in itertools.combinations(range(5), k)]
        want.sort(key=lambda c: (sum(bits[i] for i in c), len(c), c))
        assert list(O.candidate_sets(bits, 3)) == want


def random_body(rng, variables, size, aps="ab"):
    """Random body over the given atoms with every LTL operator."""
    if size <= 1:
        atom = F.Atom(rng.choice(aps), rng.choice(variables))
        return F.Not(atom) if rng.random() < 0.3 else atom
    unary = [F.Not, F.Next, F.Globally, F.Eventually]
    binary = [F.And, F.Or, F.Implies, F.Iff, F.Until, F.Release,
              F.WeakUntil]
    if size == 2 or rng.random() < 0.35:
        return rng.choice(unary)(random_body(rng, variables, size - 1, aps))
    left = rng.randint(1, size - 2)
    return rng.choice(binary)(random_body(rng, variables, left, aps),
                              random_body(rng, variables, size - 1 - left,
                                          aps))


class TestQuantifierCheck:
    def test_satisfies_agrees_with_naive_reference(self, monkeypatch):
        # traces of different shapes, so every block aligns them; each case
        # runs as one block and again with the cap set so that _check
        # splits once, binding its outermost variable per row.  100 cases
        # take every 2- or 3-set of 4 traces; 40 more take 1-6 of the 2- to
        # 5-sets of 6 traces under 3 or 4 variables, so that blocks hold
        # fewer sets than traces per set as well as more, and the largest
        # are filled by _fill, whose every write is checked on its own
        rng = random.Random(14)
        letters = [set(), {"a"}, {"b"}, {"a", "b"}]
        inputs = [(4, 1, 2, 3)] * 100 + [(6, 3, 2, 5)] * 40
        fill = O._fill
        filled = []  # the variables' blocks that _fill filled

        def checked_fill(out, part):
            fill(out, part)
            assert (out == part).all()
            filled.append(out.shape)
        monkeypatch.setattr(O, "_fill", checked_fill)
        kinds = set()  # (fewer sets than traces per set, k, _fill ran)
        for pool_size, fewest, k_lo, k_hi in inputs:
            variables = [f"p{i + 1}" for i in range(rng.randint(fewest, 4))]
            prefix = [(rng.choice(["forall", "exists"]), v) for v in variables]
            phi = F.make_hyper(prefix, random_body(rng, variables,
                                                   rng.randint(2, 9)))
            distinct: dict = {}
            while len(distinct) < pool_size:
                distinct[lasso([rng.choice(letters)
                                for _ in range(rng.randint(0, 2))],
                               [rng.choice(letters)
                                for _ in range(rng.randint(1, 3))])] = None
            pool = list(distinct)
            k = rng.randint(k_lo, k_hi)
            sets = np.array(list(itertools.combinations(range(pool_size), k)))
            if pool_size > 4:
                count = rng.randint(1, min(6, len(sets)))
                sets = sets[sorted(rng.sample(range(len(sets)), count))]
            want = [brute_force_eval(phi, trace_set([pool[i] for i in row]))
                    for row in sets]
            check = evaluator(phi, pool)
            del filled[:]
            assert check.satisfies(sets).tolist() == want
            kinds.add((len(sets) < k, k, bool(filled)))
            stem_len, loop_len = check.shape(np.unique(sets))
            with monkeypatch.context() as m:
                m.setattr(O, "_CELL_CAP", len(sets) * k ** (len(variables) - 1)
                          * (stem_len + loop_len) * check.atoms)
                assert check.satisfies(sets).tolist() == want
        # blocks on both sides of every choice of the layout and the fill
        assert {few for few, _, _ in kinds} == {True, False}
        assert {k for _, k, _ in kinds} == {2, 3, 4, 5}
        assert {ran for _, _, ran in kinds} == {True, False}

    def test_split_blocks_read_the_chunk_alignment(self, monkeypatch):
        # a quantifier check aligns its sets' traces once, at their common
        # shape, and every block of a split reads that alignment: also the
        # first block, which binds every variable to the sets' first traces
        # and whose own shape is often shorter.  The traces mix loops of 1
        # to 4 letters, so the alignment's loop is their lcm
        rng = random.Random(34)
        letters = [set(), {"a"}, {"b"}, {"a", "b"}]
        shorter = 0
        for _ in range(40):
            variables = [f"p{i + 1}" for i in range(rng.randint(1, 3))]
            prefix = [(rng.choice(["forall", "exists"]), v) for v in variables]
            phi = F.make_hyper(prefix, random_body(rng, variables,
                                                   rng.randint(2, 9)))
            distinct: dict = {}
            while len(distinct) < 6:
                distinct[lasso([rng.choice(letters)
                                for _ in range(rng.randint(0, 2))],
                               [rng.choice(letters)
                                for _ in range(rng.randint(1, 4))])] = None
            pool = list(distinct)
            combos = list(itertools.combinations(range(6), rng.randint(1, 3)))
            sets = np.array(sorted(rng.sample(combos, rng.randint(2, 6))))
            check = evaluator(phi, pool)
            want = check.satisfies(sets).tolist()
            assert want == [brute_force_eval(phi, trace_set([pool[i]
                                                             for i in row]))
                            for row in sets]
            with monkeypatch.context() as m:
                m.setattr(O, "_CELL_CAP", 1)
                shapes = record_kernel_shapes(m)
                assert check.satisfies(sets).tolist() == want
            chunk = check.shape(np.unique(sets))
            assert set(shapes) == {chunk}
            shorter += sum(check.shape(np.unique(sets[:, 0]))) < sum(chunk)
        assert shorter >= 10


class TestAgainstReferenceSearch:
    def test_same_outcome_and_witness(self):
        rng = random.Random(2024)
        outcomes = []
        for _ in range(100):
            variables = [f"p{i + 1}" for i in range(rng.randint(1, 3))]
            prefix = [(rng.choice(["forall", "exists"]), v) for v in variables]
            body = random_body(rng, variables, rng.randint(2, 9))
            if len(variables) >= 2 and rng.random() < 0.7:
                # two variables that must differ somewhere: larger models
                v1, v2 = rng.sample(variables, 2)
                ap = rng.choice("ab")
                diff = F.Not(F.Iff(F.Atom(ap, v1), F.Atom(ap, v2)))
                wrap = rng.choice([lambda x: x, F.Next, F.Eventually,
                                   F.Globally])
                body = F.And(body, wrap(diff))
            phi = F.make_hyper(prefix, body)
            bounds = rng.choice([(2, 1, 1), (2, 0, 2), (3, 0, 1), (1, 1, 2)])
            got = O.bounded_find_model(phi, *bounds)
            assert got == reference_find_model(phi, *bounds), \
                (F.pretty(phi), bounds)
            outcomes.append(len(got.model.traces)
                            if isinstance(got, O.Found) else 0)
        assert outcomes.count(0) >= 15
        assert sum(k >= 2 for k in outcomes) >= 5

    def test_same_outcome_with_loops_of_length_two_and_three(self):
        # one candidate set can mix loops of length 2 and 3 (lcm 6)
        rng = random.Random(7)
        outcomes = []
        for _ in range(30):
            prefix = [(rng.choice(["forall", "exists"]), v)
                      for v in ("p1", "p2")]
            body = random_body(rng, ["p1", "p2"], rng.randint(2, 7), aps="a")
            diff = F.Not(F.Iff(F.Atom("a", "p1"), F.Atom("a", "p2")))
            wrap = rng.choice([F.Next, F.Eventually, F.Globally])
            phi = F.make_hyper(prefix, F.And(body, wrap(diff)))
            got = O.bounded_find_model(phi, 2, 0, 3)
            assert got == reference_find_model(phi, 2, 0, 3), F.pretty(phi)
            outcomes.append(len(got.model.traces)
                            if isinstance(got, O.Found) else 0)
        assert outcomes.count(0) >= 5
        assert outcomes.count(2) >= 5


def fill_matches_copyto(c, k, n, aps, positions, rng):
    """Fill every variable's part of a block of c sets of k traces under n
    variables, as body_value lays it out, with _fill and with np.copyto,
    each over random cells."""
    rows = rng.random((aps, positions, c * k)) < 0.5
    sets = rng.permutation(c * k).reshape(c, k)
    for v in range(n):
        part = rows[:, :, sets.T.reshape((1,) * v + (k,) + (1,) * (n - 1 - v)
                                         + (c,))]
        want = rng.random((aps, positions) + (k,) * n + (c,)) < 0.5
        got = want.copy()
        np.copyto(want, part)
        O._fill(got, part)
        if not (got == want).all():
            return False
    return True


class TestFill:
    def test_few_sets_of_many_traces(self):
        assert fill_matches_copyto(3, 5, 5, 1, 3, np.random.default_rng(0))

    def test_random_few_set_shapes(self):
        rng = np.random.default_rng(30)
        for _ in range(40):
            c = int(rng.integers(1, 4))
            k = int(rng.integers(c + 1, 7))
            n = int(rng.integers(1, 6))
            aps, positions = (int(x) for x in rng.integers(1, 4, size=2))
            if c * k ** n * aps * positions <= 1 << 17:
                assert fill_matches_copyto(c, k, n, aps, positions, rng), \
                    (c, k, n, aps, positions)


ORACLE_SEARCH_CASES = (Path(__file__).resolve().parents[1] / "perfbench"
                       / "inputs" / "oracle_search.txt")

# sha256 prefixes of each benchmark case's outcome, format_witness of a
# model or repr of a NoModelUpTo: a change to the search that moves a
# witness or a verdict shows here
PINNED_OUTCOMES = {
    "enforce_model_2_1@2,1,2": "014cff739864d49a",
    "enforce_model_3_2@3,1,2": "9fc9c9d68f419e7a",
    "enforce_model_4_2@4,1,2": "1c893c4419cb6629",
    "enforce_model_4_2@4,2,2": "1c893c4419cb6629",
    "gni_implies_ni_1@2,1,2": "f6699ebd3494d385",
    "gni_implies_ni_2@2,1,2": "f6699ebd3494d385",
    "gni_implies_ni_3@2,1,2": "f6699ebd3494d385",
    "gni_leak@2,1,2": "6993974c8a539dce",
    "qn_2_implies_1@2,0,1": "d4212cd560db7770",
    "qn_3_implies_1@2,0,1": "d4212cd560db7770",
    "qn_4_implies_1@2,0,1": "d4212cd560db7770",
    "qn_3_implies_2@3,0,1": "fd0100b8247445e8",
    "enforce_model_3_1@3,1,2": "92f891af11096161",
    "enforce_model_5_2@5,1,2": "f01d323c66c26e95",
    "unsat_0@2,1,2": "e87f671d1310dbae",
    "unsat_1@2,1,2": "e87f671d1310dbae",
    "unsat_2@2,1,2": "e87f671d1310dbae",
    "ni_leak2@2,0,2": "f0246cfeb25c61a6",
    "anon_leak@2,0,1": "9df43eeaf5994e9f",
    "qn_1_implies_1@2,0,1": "9df43eeaf5994e9f",
}


class TestPinnedOutcomes:
    def test_benchmark_cases_keep_their_witnesses(self):
        seen = {}
        for line in ORACLE_SEARCH_CASES.read_text().splitlines():
            if not line.strip():
                continue
            case, _, bounds, text = line.split("\t")
            got = O.bounded_find_model(parse(text),
                                       *map(int, bounds.split(",")))
            shown = (O.format_witness(got.model)
                     if isinstance(got, O.Found) else repr(got))
            seen[f"{case}@{bounds}"] = \
                hashlib.sha256(shown.encode()).hexdigest()[:16]
        assert seen == PINNED_OUTCOMES

    def test_random_formulas_match_the_reference_search(self):
        rng = random.Random(30)
        shapes = [["exists"], ["forall"], ["forall", "exists"],
                  ["exists", "forall"], ["exists", "exists"],
                  ["forall", "exists", "exists"]]
        outcomes = []
        for seed in range(150):
            phi = gen_random(rng.choice(shapes), rng.randint(1, 8),
                             rng.randint(1, 2), rng.random() < 0.5, seed)
            if len(phi.variables) >= 2 and rng.random() < 0.6:
                # two variables that must differ somewhere: larger models
                v1, v2 = rng.sample(phi.variables, 2)
                diff = F.Not(F.Iff(F.Atom("a", v1), F.Atom("a", v2)))
                wrap = rng.choice([lambda x: x, F.Next, F.Eventually])
                phi = F.make_hyper(phi.prefix, F.And(phi.body, wrap(diff)))
            bounds = rng.choice([(2, 1, 1), (2, 0, 2), (1, 1, 2), (3, 0, 1)])
            got = O.bounded_find_model(phi, *bounds)
            assert got == reference_find_model(phi, *bounds), \
                (F.pretty(phi), bounds)
            outcomes.append(len(got.model.traces)
                            if isinstance(got, O.Found) else 0)
        assert outcomes.count(0) >= 15
        assert sum(k >= 2 for k in outcomes) >= 5


class TestLargeLoopBounds:
    @pytest.mark.parametrize("text, bounds", [
        pytest.param('exists p. G "a"_p & F ! "a"_p', (1, 1, 9),
                     id="G_F_1_1_9"),
        # a witness with an a in every fifth letter, through U and R
        pytest.param('exists p. G F "a"_p & G ("a"_p -> X (! "a"_p & X (! '
                     '"a"_p & X (! "a"_p & X (! "a"_p & X (! "a"_p U '
                     '"a"_p))))))', (1, 1, 6), id="until_1_1_6"),
        pytest.param('exists p. G F "a"_p & G ("a"_p -> X ((X X X X "a"_p) '
                     'R (! "a"_p & ! X "a"_p & ! X X "a"_p)))', (1, 1, 6),
                     id="release_1_1_6"),
        pytest.param('exists p. G "a"_p & F ! "a"_p', (2, 1, 7),
                     id="G_F_2_1_7", marks=pytest.mark.slow),
    ])
    def test_outcome_matches_the_reference_search(self, text, bounds):
        phi = parse(text)
        got = O.bounded_find_model(phi, *bounds)
        assert got == reference_find_model(phi, *bounds)
        if isinstance(got, O.Found):
            assert [len(t.loop) for t in got.model.traces] == [5]
        else:
            assert got == O.NoModelUpTo(*bounds)


class TestSearchEdgeCases:
    def test_zero_ap_true_body(self):
        result = O.bounded_find_model(parse("forall p. 1"), 2, 1, 2)
        assert isinstance(result, O.Found)
        assert result.model.traces == (lasso([], [set()]),)

    def test_zero_ap_false_body(self):
        result = O.bounded_find_model(parse("exists p. 0"), 2, 1, 2)
        assert result == O.NoModelUpTo(2, 1, 2)

    def test_empty_prefix(self):
        found = O.bounded_find_model(F.make_hyper([], F.TrueConst()), 2, 1, 2)
        assert found.model.traces == (lasso([], [set()]),)
        none = O.bounded_find_model(F.make_hyper([], F.FalseConst()), 2, 1, 2)
        assert none == O.NoModelUpTo(2, 1, 2)

    @pytest.mark.parametrize("case", [
        (gen_enforce_model(3, 1), (3, 1, 2)),
        (gen_enforce_model(3, 2), (3, 1, 2)),
        (gen_unsat(0), (2, 1, 2)),
        (gen_gni_ni(1)[0], (2, 1, 2)),
    ])
    def test_blocks_over_the_cap_split(self, case, monkeypatch):
        phi, bounds = case
        want = O.bounded_find_model(phi, *bounds)
        # every block exceeds the cap: one set per call, split per variable
        monkeypatch.setattr(O, "_CELL_CAP", 1)
        assert O.bounded_find_model(phi, *bounds) == want

    @pytest.mark.parametrize("phi", [
        gen_gni_ni(1)[0],
        parse('forall p. exists q. X ("a"_p <-> ! "a"_q)'),
    ])
    def test_stacked_sets_over_the_cap_split(self, phi, monkeypatch):
        aps = sorted({ap for ap, _ in F.atoms_of(phi.body)})
        check = evaluator(phi, pool_lassos(aps, 0, 2))
        sets = np.array(list(itertools.combinations(
            range(len(check.mats)), 2)))
        want = check.satisfies(sets)
        assert 0 < want.sum() < len(want)
        monkeypatch.setattr(O, "_CELL_CAP", 1)
        assert check.satisfies(sets).tolist() == want.tolist()

    @pytest.mark.parametrize("phi, bounds", [
        pytest.param(gen_enforce_model(5, 2), (5, 1, 2),
                     id="enforce_model_5_2"),
        pytest.param({c.id: c for c in qn_suite()}["qn_3_implies_2"].formula,
                     (2, 1, 2), id="qn_3_implies_2", marks=pytest.mark.slow),
    ])
    def test_memory_stays_within_the_cell_cap(self, phi, bounds):
        # refutations that fill many blocks up to the cap: 5 traces per
        # set, and 7 variables over 2
        tracemalloc.start()
        try:
            result = O.bounded_find_model(phi, *bounds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result == O.NoModelUpTo(*bounds)
        assert peak <= 4 * O._CELL_CAP

    def test_candidate_cap_raises(self):
        phi = parse('exists p. "a"_p')
        with pytest.raises(O.BoundsExceededError):
            O.bounded_find_model(phi, 10, 3, 3)

    def test_self_check_failure_raises(self, monkeypatch):
        monkeypatch.setattr(O, "eval_hyperltl", lambda phi, model: False)
        with pytest.raises(O.SelfCheckError):
            O.bounded_find_model(parse('exists p. "a"_p'), 1, 0, 1)

    def test_self_check_uses_model_shape(self, monkeypatch):
        shapes = record_kernel_shapes(monkeypatch)
        result = O.bounded_find_model(parse('exists p. G "a"_p'), 1, 2, 4)
        assert result.model.traces == (lasso([], [{"a"}]),)
        # the last call is the self-check, at the witness's own shape
        assert shapes[-1] == (0, 1)

    def test_early_witness_at_a_large_loop_bound(self, monkeypatch):
        shapes = record_kernel_shapes(monkeypatch)
        result = O.bounded_find_model(parse('exists p. "a"_p'), 1, 0, 12)
        assert result.model.traces == (lasso([], [{"a"}]),)
        # no call is aligned to lcm(1..12) = 27720
        assert max(stem + loop for stem, loop in shapes) <= 12

    def test_only_the_witness_is_built_as_lasso_traces(self, monkeypatch):
        # the pool stays letter ranks: of its 8,032 lassos at these bounds,
        # the search builds a LassoTrace for the witness's one trace only,
        # and the self-check reads that model as it is
        built = []
        check = O.LassoTrace.__post_init__

        def counted(trace):
            built.append(trace)
            check(trace)
        monkeypatch.setattr(O.LassoTrace, "__post_init__", counted)
        result = O.bounded_find_model(parse('exists p. "a"_p'), 1, 0, 12)
        assert built == list(result.model.traces) == [lasso([], [{"a"}])]

    def test_stacked_calls_walk_no_more_positions_than_the_sets(
            self, monkeypatch):
        phi = parse('exists p. G "a"_p & F ! "a"_p')
        shapes = record_kernel_shapes(monkeypatch)
        assert O.bounded_find_model(phi, 1, 1, 9) == O.NoModelUpTo(1, 1, 9)
        pool = pool_lassos(["a"], 1, 9)
        assert len(shapes) < len(pool)
        assert sum(stem + loop for stem, loop in shapes) <= sum(
            len(t.stem) + len(t.loop) for t in pool)


_COLD_SEARCH = """
import sys
from hypersat import oracle
from hypersat.formula import parse
oracle.bounded_find_model(parse('exists p. "a"_p'), 1, 0, 1)
print(sorted(m for m in sys.modules if m.split(".")[:2] == ["numpy", "ma"]))
"""


def test_first_search_leaves_numpy_ma_unloaded():
    # importing numpy.ma takes about 14 ms, which every one-off search in a
    # fresh process would pay
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", _COLD_SEARCH], env=env,
                         capture_output=True, check=True, text=True)
    assert run.stdout.strip() == "[]"


def record_kernel_shapes(monkeypatch):
    """Record the (stem, loop) lengths of every kernel call."""
    shapes = []
    real = kernel.eval_compiled

    def spy(prog, words, stem_len, loop_len):
        shapes.append((stem_len, loop_len))
        return real(prog, words, stem_len, loop_len)

    monkeypatch.setattr(kernel, "eval_compiled", spy)
    return shapes


class TestWitnessFormat:
    def test_stem_and_loop_rendering(self):
        model = trace_set(
            [O.LassoTrace((frozenset({"a"}), frozenset()),
                          (frozenset({"a"}),))])
        assert O.format_witness(model) == "trace 0: {a} {} | {a}"

    def test_empty_stem_rendering(self):
        model = trace_set([lasso([], [{"a", "b"}])])
        assert O.format_witness(model) == "trace 0: | {a,b}"


class TestLassoTrace:
    def test_indexing(self):
        t = lasso([{"a"}], [set(), {"b"}])
        assert t.at(0) == {"a"}
        assert t.at(1) == set()
        assert t.at(2) == {"b"}
        assert t.at(3) == set()

    @pytest.mark.parametrize("n_aps, max_stem, max_loop",
                             [(1, 3, 4), (2, 1, 3), (2, 2, 2), (3, 1, 2),
                              (1, 0, 6), (2, 3, 1)])
    def test_pool_lists_each_word_once_as_its_cheapest_lasso(
            self, n_aps, max_stem, max_loop):
        # two lassos within the bounds denote the same word exactly when
        # they agree up to max_stem + 2 lcm(1..max_loop)
        aps = ["a", "b", "c"][:n_aps]
        letters = [frozenset(c) for r in range(n_aps + 1)
                   for c in itertools.combinations(aps, r)]
        horizon = max_stem + 2 * math.lcm(*range(1, max_loop + 1))
        cheapest = {}
        for stem_len in range(max_stem + 1):
            for loop_len in range(1, max_loop + 1):
                for content in itertools.product(
                        letters, repeat=stem_len + loop_len):
                    trace = O.LassoTrace(content[:stem_len],
                                         content[stem_len:])
                    word = tuple(trace.at(i) for i in range(horizon))
                    if (word not in cheapest
                            or lasso_key(trace) < lasso_key(cheapest[word])):
                        cheapest[word] = trace
        assert pool_lassos(aps, max_stem, max_loop) == sorted(
            cheapest.values(), key=lasso_key)

    @pytest.mark.parametrize("n_aps", [1, 2, 3])
    def test_pool_cap_counts_every_raw_lasso(self, n_aps, monkeypatch):
        # raises exactly when the stems times loops within the bounds,
        # canonical or not, exceed the cap
        aps = ["a", "b", "c"][:n_aps]
        for max_stem in range(4):
            for max_loop in range(1, 6):
                raw = sum(2 ** (n_aps * (s + k)) for s in range(max_stem + 1)
                          for k in range(1, max_loop + 1))
                if raw > O._POOL_CAP:
                    with pytest.raises(O.BoundsExceededError):
                        O._trace_pool(aps, max_stem, max_loop)
                elif raw <= 5000:
                    with monkeypatch.context() as m:
                        m.setattr(O, "_POOL_CAP", raw)
                        O._trace_pool(aps, max_stem, max_loop)
                        m.setattr(O, "_POOL_CAP", raw - 1)
                        with pytest.raises(O.BoundsExceededError):
                            O._trace_pool(aps, max_stem, max_loop)

    def test_pool_without_aps_builds_no_stem(self):
        # one letter: every nonempty stem ends in the loop's last letter
        assert pool_lassos([], 10 ** 5, 3) == [lasso([], [set()])]

    def test_pool_cap_is_checked_before_any_lasso_is_built(self):
        phi = parse('exists p. "a"_p')
        tracemalloc.start()
        try:
            with pytest.raises(O.BoundsExceededError):
                O.bounded_find_model(phi, 1, 19, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_pool_cap_is_checked_before_the_letters_are_listed(self):
        # 2^30 letters: counting them is the whole cost of the refusal
        phi = parse("exists p. " + " & ".join(f'"a{i}"_p' for i in range(30)))
        started = time.perf_counter()
        with pytest.raises(O.BoundsExceededError):
            O.bounded_find_model(phi, 1, 0, 1)
        assert time.perf_counter() - started < 0.1

    def test_empty_loop_rejected(self):
        with pytest.raises(O.OracleError):
            O.LassoTrace((), ())


class TestLassoTraceSet:
    def test_duplicate_traces_rejected(self):
        t = lasso([], [{"a"}])
        with pytest.raises(O.DuplicateTraceError):
            trace_set([t, lasso([], [{"a"}])])
        assert isinstance(O.DuplicateTraceError(), O.OracleError)


@pytest.mark.slow
def test_unsat_family_oracle_exhaustion():
    # consistency only: absence of small models is not an unsat proof
    result = O.bounded_find_model(gen_unsat(2), 3, 4, 3)
    assert isinstance(result, O.NoModelUpTo)
