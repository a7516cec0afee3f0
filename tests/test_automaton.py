import gc
import hashlib
import itertools
import random
import time
import weakref
from dataclasses import replace
from functools import lru_cache, partial

import pytest

from hypersat import automaton, bench, fol, pipeline
from hypersat import formula as F
from hypersat.automaton import (AutomatonError, EmptyLoopError,
                                SymbolicAutomaton, TableauTooLargeError,
                                accepts_lasso, is_syntactically_safe,
                                lasso_run, ltl_to_nba, to_safety_automaton)
from hypersat.bench import gen_random
from hypersat.encoder import encode_func
from hypersat.formula import (And, Atom, FalseConst, Globally, Iff, Implies,
                              Next, Not, Or, TrueConst, to_nnf)

from helpers import (bad_states, buchi_bodies, label, label_literals,
                     naive_eval, random_lasso, reference_live_part,
                     reference_prune, reference_safety_automaton,
                     reference_tableau, safety_emit_style_cases)

A_P = ("a", "p")
AP_SET = frozenset({A_P})


def letters(*specs):
    return [frozenset(s) for s in specs]


class TestNbaExamples:
    def test_true_single_state_self_loop(self):
        aut = ltl_to_nba(TrueConst(), frozenset())
        assert aut.num_states == 1
        assert aut.initial == {0}
        assert aut.edges == ((0, label(frozenset(), (), ()), 0),)
        assert aut.accepting == ()

    def test_globally_language(self):
        aut = ltl_to_nba(Globally(Atom("a", "p")), AP_SET)
        assert accepts_lasso(aut, [], letters({A_P}))
        assert not accepts_lasso(aut, letters({A_P}), letters(set()))

    def test_false_empty_language(self):
        aut = ltl_to_nba(FalseConst(), AP_SET)
        assert not accepts_lasso(aut, [], letters(set()))
        assert not accepts_lasso(aut, [], letters({A_P}))

    def test_until_agrees_with_direct_eval(self):
        body = F.Until(Atom("a", "p"), Atom("b", "p"))
        atoms = frozenset({("a", "p"), ("b", "p")})
        aut = ltl_to_nba(body, atoms)
        rng = random.Random(3)
        for _ in range(500):
            word, s, l = random_lasso(rng, atoms, 3, 3)
            assert accepts_lasso(aut, word[:s], word[s:]) == \
                naive_eval(body, word, s, l)


class TestSafetyCheck:
    def test_globally_next_safe(self):
        body = to_nnf(Globally(Implies(Atom("a", "p"), Next(Atom("b", "q")))))
        assert is_syntactically_safe(body)

    def test_eventually_not_safe(self):
        assert not is_syntactically_safe(F.Eventually(Atom("a", "p")))

    def test_until_not_safe(self):
        assert not is_syntactically_safe(F.Until(Atom("a", "p"),
                                                 Atom("b", "p")))

    def test_gni_style_body_safe(self):
        body = to_nnf(And(
            Globally(And(Iff(Atom("l", "p1"), Atom("l", "p3")),
                         Iff(Atom("o", "p1"), Atom("o", "p3")))),
            Globally(Iff(Atom("h", "p2"), Atom("h", "p3")))))
        assert is_syntactically_safe(body)

    def test_non_nnf_rejected(self):
        assert not is_syntactically_safe(Not(Globally(Atom("a", "p"))))


class TestSafetyAutomaton:
    def test_globally_two_states(self):
        # the reference's two states are {G a} and the bad state, which
        # takes the letters without a; only the live state is kept
        body = Globally(Atom("a", "p"))
        ref = reference_safety_automaton(body, AP_SET)
        assert ref.num_states == 2
        assert bad_states(ref) == {1}
        aut = to_safety_automaton(body, AP_SET)
        assert aut.num_states == 1
        assert aut.initial == {0}
        assert aut.accepting == ()
        assert aut.edges == ((0, label(AP_SET, {A_P}, ()), 0),)

    def test_dead_state_found_before_live_ones(self):
        # X 0 takes a lower slot than X a, so the tableau reaches the dead
        # obligation set {0, X G b} (state 1) by the lower cover, before
        # the live {a, X G b} and {G b}; the live states keep their order
        # and every edge into a dead state is dropped
        body = to_nnf(F.parse('exists p. (X 0 | X "a"_p) & X X G "b"_p').body)
        atoms = F.atoms_of(body)
        tableau = reference_tableau(body, atoms)
        assert tableau.num_states == 4
        assert not any(src == 1 for src, _, _ in tableau.edges)
        a, b, none = frozenset({A_P}), frozenset({("b", "p")}), frozenset()
        aut = to_safety_automaton(body, atoms)
        assert aut == ltl_to_nba(body, atoms)
        assert aut.num_states == 3
        assert aut.initial == {0}
        assert aut.accepting == ()
        assert aut.edges == (
            (0, label(atoms, none, none), 1),
            (1, label(atoms, a, none), 2),
            (2, label(atoms, b, none), 2),
        )

    def test_false_initial_state_bad(self):
        # the reference's initial state is its bad state; a dead initial
        # state leaves no states at all
        assert bad_states(reference_safety_automaton(FalseConst(), AP_SET)) \
            == {0}
        aut = to_safety_automaton(FalseConst(), AP_SET)
        assert (aut.num_states, aut.initial, aut.edges) == (0, set(), ())
        assert not accepts_lasso(aut, [], letters({A_P}))

    def test_drops_the_acceptance_sets_of_a_non_safe_body(self):
        # the same tableau as ltl_to_nba, every infinite run accepting
        for body, atoms in [
                (F.Eventually(Atom("a", "p")), AP_SET),
                (to_nnf(F.parse(
                    'forall p. G ("a"_p -> X ("a"_p U "b"_p))').body),
                 frozenset({A_P, ("b", "p")}))]:
            nba = ltl_to_nba(body, atoms)
            assert nba.accepting
            assert to_safety_automaton(body, atoms) == replace(nba,
                                                               accepting=())

    def test_step_implication_agrees_with_direct_eval(self):
        body = to_nnf(Globally(Implies(Atom("a", "p1"),
                                       Next(Atom("a", "p2")))))
        atoms = frozenset({("a", "p1"), ("a", "p2")})
        aut = to_safety_automaton(body, atoms)
        rng = random.Random(8)
        for _ in range(500):
            word, s, l = random_lasso(rng, atoms, 3, 3)
            assert accepts_lasso(aut, word[:s], word[s:]) == \
                naive_eval(body, word, s, l)

    def test_bad_states_absorbing(self):
        # the reference's bad state is absorbing, and the safety automaton
        # is the reference without it, pruned: its other states with an
        # infinite run, and the edges between them in order
        rng = random.Random(21)
        dead = 0
        for seed in range(60):
            phi = gen_random(["forall", "exists"], rng.randint(1, 10), 2,
                             True, seed)
            atoms = frozenset(F.atoms_of(phi.body)) or frozenset({A_P})
            ref = reference_safety_automaton(phi.body, atoms)
            bad = bad_states(ref)
            for src, _, dst in ref.edges:
                if src in bad:
                    assert dst in bad
            dead += bool(bad)
            aut = to_safety_automaton(phi.body, atoms)
            assert aut == reference_live_part(ref)
        assert dead >= 30


class TestSafetyDecision:
    def test_one_safety_walk_per_case(self, monkeypatch):
        # choose_encoding decides it, and to_safety_automaton does not
        # decide it again
        walks = []

        def spy(body, real=automaton.is_syntactically_safe):
            walks.append(body)
            return real(body)

        monkeypatch.setattr(automaton, "is_syntactically_safe", spy)
        monkeypatch.setattr(pipeline, "is_syntactically_safe", spy)
        cases = safety_emit_style_cases()
        assert len(cases) == 35
        for case in cases:
            walks.clear()
            phi = F.parse(F.pretty(case.formula))
            kind = pipeline.choose_encoding(phi, "auto")
            pipeline.build_problem(phi, kind)
            assert walks == [phi.nnf], case.id
            walks.clear()
            for explicit in ("func", "pred", "lia"):
                pipeline.build_problem(
                    phi, pipeline.choose_encoding(phi, explicit))
            assert walks == [], case.id

    def test_one_tableau_per_problem(self, monkeypatch):
        # under every encoding, on safe and on non-safe bodies
        built = []

        class Counted(automaton._CoverTable):
            def __init__(self, body, atoms):
                built.append(body)
                super().__init__(body, atoms)

        monkeypatch.setattr(automaton, "_CoverTable", Counted)
        formulas = [case.formula for case in safety_emit_style_cases()]
        formulas += buchi_bodies(160)
        for phi in formulas:
            for requested in ("auto", "func", "pred", "lia"):
                built.clear()
                pipeline.build_problem(
                    phi, pipeline.choose_encoding(phi, requested))
                assert len(built) == 1, (F.pretty(phi), requested)

    def test_auto_and_the_over_approximation_are_pinned(self):
        # both read the NNF, not the rewrite that the lia automaton is
        # built from: per formula, the first letter of the kind auto picks
        # and whether func, pred and lia over-approximate (y) or not (n)
        formulas = [case.formula for family in bench.FAMILIES.values()
                    for case in family()]
        formulas += [gen_random(["forall", "exists"], 1 + seed % 12, 2,
                                seed % 3 == 0, seed) for seed in range(300)]
        answers = "".join(
            pipeline.choose_encoding(phi, "auto").value[0] + "".join(
                "ny"[pipeline.over_approximates(phi, kind)]
                for kind in pipeline.EncodingKind) for phi in formulas)
        assert answers[:4 * 44] == "fnnn" * 44
        assert (answers.count("fnnn"), answers.count("lyyn")) == (211, 133)
        assert hashlib.sha256(answers.encode()).hexdigest() == \
            "95c40fc5728b19ac3f351c2ab4f3da20cc9de4429b5e464579c3793d9a603214"

    def test_a_shared_nnf_is_walked_once(self):
        # the NNF of the nested <-> chain is a DAG of linear size and a
        # tree of 2^n leaves; the tree walk took 0.50 s at n = 18
        body = Atom("a0", "p")
        for k in range(1, 19):
            body = Iff(body, Atom(f"a{k}", "p"))
        phi = F.make_hyper([("forall", "p")], body)
        start = time.perf_counter()
        assert pipeline.choose_encoding(phi, "auto") \
            is pipeline.EncodingKind.FUNC_SAFETY
        assert not is_syntactically_safe(F.Eventually(phi.nnf))
        assert time.perf_counter() - start < 0.1


class TestAgainstReference:
    """The safety automaton is the reference without its bad state and
    completion, then without the states that have no infinite run: no
    accepting run visits any of those.  The states kept keep their order,
    and the edges between them."""

    def test_live_part_on_the_built_in_cases(self):
        deeper = []
        for case_id, body, atoms in built_in_bodies():
            ref = reference_safety_automaton(body, atoms)
            bad = bad_states(ref)
            aut = to_safety_automaton(body, atoms)
            live = reference_live_part(ref)
            assert aut == live, case_id
            # without its bad state, every state of the reference has an
            # edge, so a state that pruning removes leads only to bad ones
            if aut.num_states < ref.num_states - len(bad):
                deeper.append(case_id)
        assert deeper == ["enforce_model_5_2"]

    def test_live_part_on_random_safe_bodies(self):
        rng = random.Random(77)
        dead_initial = 0
        for seed in range(300):
            prefix = [rng.choice(["forall", "exists"])
                      for _ in range(rng.randint(1, 3))]
            phi = gen_random(prefix, rng.randint(1, 12), rng.randint(1, 3),
                             True, seed)
            body = to_nnf(phi.body)
            atoms = F.atoms_of(body) or frozenset({A_P})
            aut = to_safety_automaton(body, atoms)
            ref = reference_safety_automaton(body, atoms)
            assert aut == reference_live_part(ref), seed
            dead_initial += not aut.initial
        assert dead_initial >= 1


def built_in_bodies() -> list:
    """(case id, NNF body, atoms) of the 44 built-in cases."""
    found = []
    for family in bench.FAMILIES.values():
        for case in family():
            body = to_nnf(case.formula.body)
            found.append((case.id, body, F.atoms_of(body)))
    assert len(found) == 44
    return found


class TestPruning:
    """ltl_to_nba is the tableau without the states that have no infinite
    run, removed to a fixpoint, with the states kept numbered in order."""

    def test_equals_the_pruned_reference_on_the_built_in_cases(self):
        for case_id, body, atoms in built_in_bodies():
            aut = ltl_to_nba(body, atoms)
            ref = reference_prune(reference_tableau(body, atoms))
            assert aut == ref, case_id

    def test_equals_the_pruned_reference_on_random_liveness_bodies(self):
        rng = random.Random(43)
        atoms = frozenset({("a", "p"), ("b", "p"), ("a", "q")})
        bodies = pruned = deeper = dead_initial = 0
        while bodies < 300:
            pool = []
            body = random_nnf(rng, rng.randint(1, 16), sorted(atoms), pool)
            if not any(isinstance(n, (F.Until, F.Eventually)) for n in pool):
                continue
            bodies += 1
            tableau = reference_tableau(body, atoms)
            aut = ltl_to_nba(body, atoms)
            ref = reference_prune(tableau)
            assert aut == ref, F.pretty_body(body)
            # the tableau states without a cover; the fixpoint may remove
            # more, whose edges all lead to removed states
            coverless = tableau.num_states - len({s for s, _, _ in
                                                  tableau.edges})
            pruned += aut.num_states < tableau.num_states
            deeper += aut.num_states < tableau.num_states - coverless
            dead_initial += not aut.initial
        assert pruned >= 30 and deeper >= 5 and dead_initial >= 5

    def test_every_state_has_an_outgoing_edge(self):
        automata = []
        for _, body, atoms in built_in_bodies():
            automata += [ltl_to_nba(body, atoms),
                         to_safety_automaton(body, atoms)]
        rng = random.Random(44)
        for seed in range(200):
            phi = gen_random(["exists"] * rng.randint(1, 3),
                             rng.randint(1, 12), rng.randint(1, 3),
                             rng.random() < 0.5, seed)
            body = to_nnf(phi.body)
            atoms = F.atoms_of(body) or frozenset({A_P})
            automata.append(ltl_to_nba(body, atoms))
            if is_syntactically_safe(body):
                automata.append(to_safety_automaton(body, atoms))
        empty = 0
        for aut in automata:
            assert {src for src, _, _ in aut.edges} == set(aut.states)
            assert {dst for _, _, dst in aut.edges} <= set(aut.states)
            empty += not aut.num_states
        assert len(automata) >= 300 and empty >= 5


def reference_covers(obligations: frozenset, key, rank) -> tuple:
    """The tableau covers by a depth-first search over the expansion rules.

    Each branch carries the literals, next-step obligations and
    postponements it has chosen, and skips nodes it has already expanded;
    it takes the parts of a node in the order of key.  The leaves are
    reduced to the subset-minimal covers, and these are sorted by rank.
    """
    results: dict = {}

    def run(pending, pos, neg, nxt, postponed, done):
        while pending:
            node = pending.pop()
            if node in done:
                continue
            done = done | {node}
            if isinstance(node, F.TrueConst):
                continue
            if isinstance(node, F.FalseConst):
                return
            if isinstance(node, F.Atom):
                atom = (node.ap, node.var)
                if atom in neg:
                    return
                pos = pos | {atom}
                continue
            if isinstance(node, F.Not):
                atom = (node.arg.ap, node.arg.var)
                if atom in pos:
                    return
                neg = neg | {atom}
                continue
            if isinstance(node, F.And):
                pending = pending + sorted({node.left, node.right},
                                           key=key, reverse=True)
                continue
            if isinstance(node, F.Next):
                if not isinstance(node.arg, F.TrueConst):
                    nxt = nxt | {node.arg}
                continue
            if isinstance(node, F.Globally):
                pending = pending + [node.arg]
                nxt = nxt | {node}
                continue
            if isinstance(node, F.Or):
                for branch in sorted({node.left, node.right}, key=key):
                    run(pending + [branch], pos, neg, nxt, postponed, done)
                return
            if isinstance(node, F.Until):
                run(pending + [node.right], pos, neg, nxt, postponed, done)
                run(pending + [node.left], pos, neg, nxt | {node},
                    postponed | {node}, done)
                return
            if isinstance(node, F.Eventually):
                run(pending + [node.arg], pos, neg, nxt, postponed, done)
                run(pending, pos, neg, nxt | {node}, postponed | {node}, done)
                return
            if isinstance(node, F.WeakUntil):
                run(pending + [node.right], pos, neg, nxt, postponed, done)
                run(pending + [node.left], pos, neg, nxt | {node}, postponed,
                    done)
                return
            if isinstance(node, F.Release):
                run(pending + sorted({node.left, node.right}, key=key),
                    pos, neg, nxt, postponed, done)
                run(pending + [node.right], pos, neg, nxt | {node}, postponed,
                    done)
                return
            raise AssertionError(f"unexpected node {node!r}")
        cover = (frozenset(pos), frozenset(neg), frozenset(nxt),
                 frozenset(postponed))
        results.setdefault(cover, cover)

    run(sorted(obligations, key=key, reverse=True), frozenset(), frozenset(),
        frozenset(), frozenset(), frozenset())

    kept = []
    for c in sorted(results.values(), key=lambda c: sum(map(len, c))):
        if not any(all(a <= b for a, b in zip(k, c)) for k in kept):
            kept.append(c)
    return tuple(sorted(kept, key=rank))


def decode(table, cover: int) -> tuple:
    """A cover of automaton._CoverTable as (pos, neg, nxt, postponed)
    frozensets of atom ids and formula nodes."""
    parts = ([], [], [], [])
    for bit in range(cover.bit_length()):
        if cover >> bit & 1:
            slot, kind = divmod(bit, 2)
            if bit < table.base:
                parts[kind].append(table.atoms[slot])
            else:
                parts[2 + kind].append(table.nodes[slot - len(table.atoms)])
    return tuple(map(frozenset, parts))


def encode(table, cover: tuple) -> int:
    """The inverse of decode."""
    pos, neg, nxt, postponed = cover
    return (sum(table.atom_bit[a] for a in pos)
            + sum(table.atom_bit[a] << 1 for a in neg)
            + sum(table.next_bit[n] for n in nxt)
            + sum(table.next_bit[n] << 1 for n in postponed))


class ReferenceCoverTable(automaton._CoverTable):
    """Drop-in for automaton._CoverTable whose covers come from
    reference_covers, ranked by their bits in the table's slot layout: the
    same slots, decoded for the search and encoded again."""

    def __init__(self, body, atoms):
        super().__init__(body, atoms)
        self.key = lru_cache(maxsize=None)(F.pretty_body)
        self.memo = {}

    def __call__(self, obligations: int) -> list:
        found = self.memo.get(obligations)
        if found is None:
            obls = decode(self, obligations)[2]
            found = self.memo[obligations] = [
                encode(self, c) for c in reference_covers(
                    obls, self.key, partial(encode, self))]
        return found


def obligation_bits(table, obligations: frozenset) -> int:
    return encode(table, (frozenset(), frozenset(), obligations, frozenset()))


NNF_LEAVES = (TrueConst, FalseConst, Atom, Not)
NNF_UNARY = (Next, Globally, F.Eventually)
NNF_BINARY = (And, Or, F.Until, F.WeakUntil, F.Release)


def random_nnf(rng, size: int, atoms, pool: list):
    """Random NNF body over every operator that reuses earlier subformulas."""
    if pool and rng.random() < 0.2:
        node = rng.choice(pool)
    elif size <= 1:
        leaf = rng.choice(NNF_LEAVES)
        if leaf in (TrueConst, FalseConst):
            node = leaf()
        else:
            node = Atom(*rng.choice(atoms))
            node = Not(node) if leaf is Not else node
    elif size == 2 or rng.random() < 0.35:
        node = rng.choice(NNF_UNARY)(random_nnf(rng, size - 1, atoms, pool))
    else:
        left = rng.randint(1, size - 2)
        node = rng.choice(NNF_BINARY)(
            random_nnf(rng, left, atoms, pool),
            random_nnf(rng, size - 1 - left, atoms, pool))
    pool.append(node)
    return node


class TestComposedCovers:
    def test_same_covers_as_the_search_on_random_bodies(self):
        rng = random.Random(41)
        atoms = [("a", "p"), ("b", "p"), ("a", "q")]
        ops = set()
        multi = repeated = 0
        for _ in range(300):
            pool = []
            body = random_nnf(rng, rng.randint(1, 16), atoms, pool)
            ops.update(type(n) for n in pool)
            repeated += len(set(map(id, pool))) < len(pool)
            key = lru_cache(maxsize=None)(F.pretty_body)
            table = automaton._CoverTable(body, frozenset(atoms))
            start = (frozenset() if isinstance(body, TrueConst)
                     else frozenset({body}))
            assert table.initial == obligation_bits(table, start)
            rank = partial(encode, table)
            # the start state, then every obligation set one step on
            obligation_sets = [start] + [c[2] for c in
                                         reference_covers(start, key, rank)]
            for obls in obligation_sets:
                multi += len(obls) > 1
                covers = table(obligation_bits(table, obls))
                assert tuple(decode(table, c) for c in covers) == \
                    reference_covers(obls, key, rank)
        assert ops == set(NNF_LEAVES + NNF_UNARY + NNF_BINARY)
        assert repeated >= 50 and multi >= 75

    def test_same_automata_as_the_search_on_the_built_in_cases(
            self, monkeypatch):
        cases = safety_emit_style_cases()
        assert len(cases) == 35
        bodies = [to_nnf(case.formula.body) for case in cases]

        def build(body):
            atoms = F.atoms_of(body)
            return [to_safety_automaton(body, atoms), ltl_to_nba(body, atoms)]

        composed = [build(body) for body in bodies]
        monkeypatch.setattr(automaton, "_CoverTable", ReferenceCoverTable)
        for case, body, auts in zip(cases, bodies, composed):
            for aut, ref in zip(auts, build(body)):
                assert aut == ref, case.id

    def test_qn_n_implies_4_is_bad_from_the_start(self):
        # the pigeonhole makes the initial state dead: the reference is one
        # bad state, and the safety automaton has no states
        cases = {case.id: case for case in bench.qn_suite()}
        for n in range(1, 5):
            body = to_nnf(cases[f"qn_{n}_implies_4"].formula.body)
            atoms = F.atoms_of(body)
            ref = reference_safety_automaton(body, atoms)
            assert ref.edges == ((0, label(atoms, (), ()), 0),)
            assert bad_states(ref) == {0}
            aut = to_safety_automaton(body, atoms)
            assert (aut.num_states, aut.initial, aut.edges) == (0, set(), ())

    def test_non_nnf_node_raises_behind_a_contradiction(self):
        # every subformula's covers are built, so a contradiction beside
        # the non-NNF node does not hide it
        a = Atom("a", "p")
        for body in (And(FalseConst(), Not(Next(a))),
                     And(Not(Next(a)), And(a, Not(a)))):
            atoms = F.atoms_of(body)
            with pytest.raises(AutomatonError):
                ltl_to_nba(body, atoms)
            with pytest.raises(AutomatonError):
                to_safety_automaton(body, atoms)
            with pytest.raises(AutomatonError, match="NNF"):
                automaton._CoverTable(body, atoms)

    @pytest.mark.parametrize("last", [F.Until, F.WeakUntil])
    def test_wider_than_a_machine_word(self, monkeypatch, last):
        # 70 atoms and over 64 nodes that can be obligations: every node's
        # bits lie past bit 128, so a fixed-width mask would lose them
        atoms = [Atom(f"a{i}", "p") for i in range(70)]
        chain = last(atoms[0], atoms[-1])
        for i in reversed(range(70)):
            chain = And(atoms[i] if i % 2 else Not(atoms[i]), Next(chain))
        later = F.Eventually(atoms[2]) if last is F.Until else Next(atoms[2])
        body = And(chain, Globally(Or(atoms[1], later)))
        atom_ids = F.atoms_of(body)
        table = automaton._CoverTable(body, atom_ids)
        assert len(table.atoms) == 70 and len(table.nodes) > 64
        build = (ltl_to_nba if last is F.Until else to_safety_automaton)
        aut = build(body, atom_ids)
        assert aut.num_states > 140
        if last is F.Until:
            assert len(table.liveness) == 2
            assert len(aut.accepting) == 2
            assert all(0 < len(f) < aut.num_states for f in aut.accepting)
        else:
            assert aut.accepting == ()
        monkeypatch.setattr(automaton, "_CoverTable", ReferenceCoverTable)
        ref = build(body, atom_ids)
        assert aut == ref

    def test_product_over_disjoint_supports_skips_the_minimal_pass(
            self, monkeypatch):
        # random antichains of consistent covers over disjoint atoms and
        # nodes: their product, made without _minimal, is _minimal of all
        # the consistent unions
        atoms = [(ap, var) for ap in "abcdef" for var in ("p", "q")]
        body = Atom("a", "p")
        for i, atom in enumerate(atoms[1:]):
            body = (F.Until, F.WeakUntil, F.Release)[i % 3](Atom(*atom), body)
        table = automaton._CoverTable(body, frozenset(atoms))
        assert len(table.nodes) >= 10
        literals = [table.atom_bit[a] for a in atoms]
        nodes = list(table.next_bit.values())
        minimal = automaton._minimal
        calls = []
        monkeypatch.setattr(automaton, "_minimal",
                            lambda covers: calls.append(1) or minimal(covers))
        rng = random.Random(5)
        both_plural = 0
        for _ in range(500):
            sides = ([], [])
            for slot in literals + nodes:
                side = rng.randrange(3)
                if side < 2:
                    sides[side].append(slot)
            xs, ys = (minimal([random_cover(rng, side, literals)
                               for _ in range(rng.randint(0, 6))])
                      for side in sides)
            calls.clear()
            product = table._product(xs, ys)
            assert not calls
            even = table.literal_even
            assert sorted(product) == sorted(minimal(
                [x | y for x in xs for y in ys
                 if not (x | y) & (x | y) >> 1 & even]))
            both_plural += len(xs) > 1 and len(ys) > 1
        assert both_plural >= 100
        # an atom with opposite signs on the two sides is shared
        a = table.atom_bit[atoms[0]]
        calls.clear()
        assert table._product([a], [a << 1]) == []
        assert calls


def first_occurrence_slots(body) -> list:
    """The obligation nodes of body, structurally, in the order that a
    recursive postorder walk of its tree first finds them: the argument of
    an X where it reaches the X, a G/F/U/W/R node where it reaches the
    node, and the body last."""
    found = []

    def walk(node):
        for child in ("left", "right", "arg"):
            if hasattr(node, child):
                walk(getattr(node, child))
        if isinstance(node, Next):
            node = node.arg
        elif not isinstance(node, (Globally, F.Eventually, F.Until,
                                   F.WeakUntil, F.Release)):
            return
        if node not in found:
            found.append(node)

    walk(body)
    return found + [body] if body not in found else found


def random_cover(rng, slots: list, literals: list) -> int:
    """A consistent cover over some of the given slots: a literal of either
    sign for an atom, next or next and postponed for a node."""
    cover = 0
    for slot in slots:
        if rng.random() < 0.4:
            cover |= slot << rng.randrange(2) if slot in literals else \
                slot | slot << rng.randrange(2)
    return cover


class TestConstructionState:
    def test_no_body_node_outlives_its_construction(self):
        # the tableau's caches (slots, covers) belong to one
        # construction, so repeated constructions do not accumulate nodes
        refs = []
        for seed in range(30):
            body = to_nnf(gen_random(["forall", "exists"], 8, 2, True,
                                     seed).body)
            atoms = frozenset(F.atoms_of(body))
            nsa = to_safety_automaton(body, atoms)
            nba = ltl_to_nba(body, atoms)
            refs.append(weakref.ref(body))
            del body
        gc.collect()
        assert nsa.num_states and nba.num_states
        assert all(ref() is None for ref in refs)

    def test_state_covers_are_composed_once_per_table(self, monkeypatch):
        # a liveness body whose states share obligation sets: each set's
        # covers are composed once per table, and every state with the set
        # gets that one list, sorted
        phi = F.parse('forall p. exists q. X ("a"_p U ("b"_q & F "a"_q)) '
                      '& G (F ! "b"_p | ("a"_q U X "b"_p))')
        body = to_nnf(phi.body)
        calls = []
        real = automaton._CoverTable.__call__

        def call(self, obligations):
            found = real(self, obligations)
            calls.append((self, obligations, found, list(found)))
            return found

        monkeypatch.setattr(automaton._CoverTable, "__call__", call)
        for _ in range(2):
            ltl_to_nba(body, frozenset(F.atoms_of(body)))
        tables = list(dict.fromkeys(table for table, *_ in calls))
        assert len(tables) == 2
        for table in tables:
            first = {}
            mine = [c[1:] for c in calls if c[0] is table]
            for obligations, found, seen in mine:
                assert first.setdefault(obligations, found) is found
                assert seen == sorted(seen)
                assert table.set_memo[obligations] is found
            assert len(mine) > len(first)

    def test_nodes_take_slots_in_first_occurrence_postorder(self):
        bodies = built_in_bodies()
        rng = random.Random(22)
        for seed in range(200):
            phi = gen_random(["forall", "exists"], rng.randint(1, 14),
                             rng.randint(1, 3), rng.random() < 0.4, seed)
            body = to_nnf(phi.body)
            bodies.append((seed, body, F.atoms_of(body) or AP_SET))
        atoms = [("a", "p"), ("b", "p"), ("a", "q")]
        for seed in range(200):
            body = random_nnf(rng, rng.randint(1, 16), atoms, [])
            bodies.append((seed, body, frozenset(atoms)))
        for case_id, body, atoms in bodies:
            table = automaton._CoverTable(body, atoms)
            assert table.nodes == first_occurrence_slots(body), case_id
            assert table.nodes[-1] == body
            assert [table.next_bit[n] for n in table.nodes] == [
                1 << table.base + 2 * j for j in range(len(table.nodes))]

    def test_equal_nodes_built_apart_share_a_slot(self):
        # G (a U b) built twice is one object, so the body built from
        # both copies is the body built from one
        def body(g1, g2):
            return And(g1, Next(And(Atom("c", "p"), g2)))

        def g():
            return Globally(F.Until(Atom("a", "p"), Atom("b", "p")))

        apart, shared = g(), g()
        assert apart is shared and body(apart, shared) is body(shared, shared)
        atoms = frozenset({("a", "p"), ("b", "p"), ("c", "p")})
        table = automaton._CoverTable(body(apart, shared), atoms)
        assert len(table.nodes) == 4
        assert table.nodes.count(apart) == 1
        assert table.next_bit[apart] == table.next_bit[g()]

    def test_states_are_numbered_breadth_first_over_int_sorted_covers(self):
        # F a & (b U c): slots F a (next 64, postponed 128), b U c (256,
        # 512) and the body (1024) above the literals a, b and c (1, 4, 16).
        # The body's covers, by their ints: a c (17), c F (208), a b U
        # (773), b F U (964); each new target is numbered as it is met
        body = to_nnf(F.parse('forall p. F "a"_p & ("b"_p U "c"_p)').body)
        atoms = F.atoms_of(body)
        table = automaton._CoverTable(body, atoms)
        assert table.nodes == [body.left, body.right, body]
        assert table(table.initial) == [17, 208, 773, 964]
        a, b, c = ({(ap, "p")} for ap in "abc")
        none = set()
        aut = ltl_to_nba(body, atoms)
        assert aut.num_states == 5 and aut.initial == {0}
        assert aut.edges == tuple(
            (src, label(atoms, pos, none), dst) for src, pos, dst in (
                (0, a | c, 1), (0, c, 2), (0, a | b, 3), (0, b, 4),
                (1, none, 1),
                (2, a, 1), (2, none, 2),
                (3, c, 1), (3, b, 3),
                (4, a | c, 1), (4, c, 2), (4, a | b, 3), (4, b, 4)))
        # one set per until/eventually in slot order: the states that do
        # not postpone F a, then those that do not postpone b U c
        assert aut.accepting == ({0, 1, 3}, {0, 1, 2})

    def test_a_next_chain_prints_no_node(self, monkeypatch):
        # ordering X^300's 301 capable nodes took 45,451 pretty_body calls
        # when each form reprinted its subformulas, and 301 printed forms
        # when they were ordered by them; their slots need none
        body = F.nnext(300, Atom(*A_P))
        chain = [body]
        while isinstance(chain[-1], Next):
            chain.append(chain[-1].arg)

        def printer(*args):
            raise AssertionError("a node printed")

        monkeypatch.setattr(F, "printed_form", printer)
        monkeypatch.setattr(F, "pretty_body", printer)
        table = automaton._CoverTable(body, AP_SET)
        assert list(map(id, table.nodes)) == list(map(id, reversed(chain)))

    def test_every_edge_label_is_its_covers_literal_bits(self):
        # no bit above the literals, never both bits of one atom, and the
        # label of the same edge in the reference tableau
        rng = random.Random(23)
        bodies = built_in_bodies()
        atoms = [("a", "p"), ("b", "p"), ("a", "q")]
        for seed in range(150):
            body = random_nnf(rng, rng.randint(1, 16), atoms, [])
            bodies.append((seed, body, frozenset(atoms)))
        negative = 0
        for case_id, body, atom_set in bodies:
            aut = ltl_to_nba(body, atom_set)
            assert aut.atoms == tuple(sorted(atom_set))
            for _, edge, _ in aut.edges:
                assert 0 <= edge < 1 << 2 * len(aut.atoms), case_id
                assert not any(edge >> 2 * k & 3 == 3
                               for k in range(len(aut.atoms))), case_id
                negative += bool(label_literals(atom_set, edge)[1])
            ref = reference_prune(reference_tableau(body, atom_set))
            assert [edge for _, edge, _ in aut.edges] == \
                [edge for _, edge, _ in ref.edges], case_id
        assert negative >= 5000

    def test_the_search_stops_past_the_edge_cap(self, monkeypatch):
        # the search counts its edges after each state's, the states
        # without an infinite run included
        phi = F.parse("forall p. " + " U ".join(f'"a{k}"_p' for k in range(6)))
        body, atoms = phi.nnf, phi.atoms
        made = len(reference_tableau(body, atoms).edges)
        aut = ltl_to_nba(body, atoms)
        assert made > 20
        monkeypatch.setattr(automaton, "EDGE_CAP", made)
        assert ltl_to_nba(body, atoms) == aut
        for cap in (made - 1, 1, 0):
            monkeypatch.setattr(automaton, "EDGE_CAP", cap)
            with pytest.raises(TableauTooLargeError,
                               match=f"more than {cap} edges"):
                ltl_to_nba(body, atoms)
        assert issubclass(TableauTooLargeError, AutomatonError)


def random_labels(rng) -> tuple:
    """1 to 40 atoms whose names sort unlike their numbers (a10 before a9),
    sorted, and four labels over them, each drawn literal by literal."""
    atoms = sorted({(f"a{k}", rng.choice("pq"))
                    for k in rng.sample(range(1000), rng.randint(1, 40))})
    labels = [sum(rng.randrange(3) << 2 * k for k in range(len(atoms)))
              for _ in range(4)]
    return atoms, labels


class TestLabelsBitByBit:
    """Labels read bit by bit: bit 2k is the positive and bit 2k + 1 the
    negative literal of atom k of the automaton's sorted atoms."""

    def test_a_step_writes_its_positives_then_its_negatives(self):
        rng = random.Random(31)
        xs = {"p": fol.Var("x1", "Trace"), "q": fol.Var("x2", "Trace")}
        i = fol.Var("i", "Time")
        target = fol.PredApp("S_0", (xs["p"], xs["q"],
                                      fol.FunApp("succ", (i,))))
        for _ in range(200):
            atoms, labels = random_labels(rng)
            body = Atom(*atoms[0])
            for atom in atoms[1:]:
                body = And(body, Atom(*atom))
            phi = F.make_hyper([("exists", "p"), ("exists", "q")], body)
            aut = SymbolicAutomaton(1, frozenset({0}),
                                    tuple((0, edge, 0) for edge in labels),
                                    (), tuple(atoms))
            problem = encode_func(phi, aut)
            trans = problem.formula.body.body.args[1]
            (implies,) = trans.body.args
            for step, edge in zip(implies.right.args, labels):
                literals = {sign: [
                    fol.PredApp(f"P_{ap}", (xs[var], i))
                    for k, (ap, var) in enumerate(atoms)
                    if edge >> 2 * k + sign & 1] for sign in (0, 1)}
                assert step.args == (target, *literals[0],
                                     *map(fol.Not, literals[1]))

    def test_lasso_run_matches_a_letter_by_its_literals(self):
        rng = random.Random(32)
        outcomes = []
        for _ in range(200):
            atoms, labels = random_labels(rng)
            for edge in labels:
                aut = SymbolicAutomaton(2, frozenset({0}),
                                        ((0, edge, 1), (1, 0, 1)), (),
                                        tuple(atoms))
                pos, neg = label_literals(atoms, edge)
                for _ in range(3):
                    # a letter that meets the label's literals but for a
                    # few, and an atom outside the alphabet, ignored
                    letter = {a for a in atoms
                              if (a in pos) ^ (a not in pos | neg
                                               and rng.random() < 0.5)
                              ^ (rng.random() < 0.05)}
                    if rng.random() < 0.3:
                        letter.add(("zz", "p"))
                    expected = pos <= letter and not neg & letter
                    assert (lasso_run(aut, [letter], [set()]) is not None) \
                        == expected
                    outcomes.append(expected)
        assert 300 < sum(outcomes) < len(outcomes) - 300


class TestMasterProperty:
    def test_nba_matches_direct_eval(self):
        rng = random.Random(2024)
        for trial in range(100):
            safe = rng.random() < 0.5
            phi = gen_random(["exists"] * rng.randint(1, 3),
                             rng.randint(1, 12), rng.randint(1, 3), safe,
                             seed=10_000 + trial)
            body = phi.body
            atoms = frozenset(F.atoms_of(body)) or frozenset({("a", "p1")})
            nba = ltl_to_nba(body, atoms)
            nsa = (to_safety_automaton(body, atoms)
                   if is_syntactically_safe(body) else None)
            for _ in range(50):
                word, s, l = random_lasso(rng, atoms, 3, 3)
                expected = naive_eval(body, word, s, l)
                assert accepts_lasso(nba, word[:s], word[s:]) == expected
                if nsa is not None:
                    assert accepts_lasso(nsa, word[:s], word[s:]) == expected


def check_run(aut, word, stem_len, run):
    """Is run = (run_stem, run_loop) an accepting run of aut on the lasso?"""
    run_stem, run_loop = run
    assert run_loop
    states = run_stem + run_loop + run_loop[:1]
    assert states[0] in aut.initial
    assert all(set(run_loop) & accepting for accepting in aut.accepting)
    positions = [0]
    for src, dst in zip(states, states[1:]):
        p = positions[-1]
        assert any(s == src and d == dst
                   and pos <= word[p] and not neg & word[p]
                   for s, edge, d in aut.edges
                   for pos, neg in [label_literals(aut.atoms, edge)])
        positions.append(p + 1 if p + 1 < len(word) else stem_len)
    # the node the loop part starts at is visited again after it
    assert positions[-1] == positions[len(run_stem)]


class TestLassoRun:
    def test_runs_are_accepting_runs_exactly_on_accepted_lassos(self):
        rng = random.Random(515)
        found = {"nba": 0, "nsa": 0}
        for trial in range(60):
            safe = rng.random() < 0.5
            phi = gen_random(["exists"] * rng.randint(1, 2),
                             rng.randint(1, 10), rng.randint(1, 2), safe,
                             seed=20_000 + trial)
            body = phi.body
            atoms = frozenset(F.atoms_of(body)) or frozenset({("a", "p1")})
            auts = {"nba": ltl_to_nba(body, atoms)}
            if is_syntactically_safe(body):
                auts["nsa"] = to_safety_automaton(body, atoms)
            for _ in range(20):
                word, s, l = random_lasso(rng, atoms, 3, 3)
                expected = naive_eval(body, word, s, l)
                for name, aut in auts.items():
                    run = lasso_run(aut, word[:s], word[s:])
                    assert (run is not None) == expected
                    if run is not None:
                        check_run(aut, word, s, run)
                        found[name] += 1
        assert min(found.values()) >= 100

    def test_two_acceptance_sets_on_every_small_lasso(self):
        # G F a & G F b has one set per eventuality; a run must meet both,
        # so a loop with a but never b is rejected although set 0 recurs
        body = to_nnf(F.parse('exists p. G F "a"_p & G F "b"_p').body)
        atoms = frozenset({A_P, ("b", "p")})
        aut = ltl_to_nba(body, atoms)
        assert len(aut.accepting) == 2
        alphabet = [frozenset(x) for x in ((), {A_P}, {("b", "p")}, atoms)]
        verdicts = []
        for s in range(3):
            for l in range(1, 4):
                for word in itertools.product(alphabet, repeat=s + l):
                    expected = naive_eval(body, list(word), s, l)
                    run = lasso_run(aut, word[:s], word[s:])
                    assert (run is not None) == expected, word
                    if run is not None:
                        check_run(aut, word, s, run)
                    verdicts.append(expected)
        assert len(verdicts) == 21 * 84 and 0 < sum(verdicts) < len(verdicts)

    def test_a_cycle_must_meet_every_set(self):
        # the only cycle is state 1's self-loop, which lies in set 0 and
        # not in set 1
        true = label(AP_SET, (), ())
        edges = ((0, true, 1), (1, true, 1))
        aut = SymbolicAutomaton(2, frozenset({0}), edges,
                                (frozenset({1}), frozenset({0})), (A_P,))
        for stem, loop in (([], letters(set())), (letters({A_P}),
                                                   letters(set(), {A_P}))):
            assert lasso_run(aut, stem, loop) is None
            met = replace(aut, accepting=(frozenset({1}), frozenset({0, 1})))
            assert lasso_run(met, stem, loop) is not None


class TestAcceptsLasso:
    def test_no_initial_states(self):
        aut = SymbolicAutomaton(1, frozenset(), (), (frozenset({0}),), (A_P,))
        assert not accepts_lasso(aut, [], letters({A_P}))

    def test_nsa_globally_satisfying_word(self):
        aut = to_safety_automaton(Globally(Atom("a", "p")), AP_SET)
        assert accepts_lasso(aut, [], letters({A_P}))

    def test_nba_eventually_all_empty(self):
        body = F.Eventually(Atom("a", "p"))
        aut = ltl_to_nba(body, AP_SET)
        assert not accepts_lasso(aut, letters(set()), letters(set()))
        assert not naive_eval(body, letters(set(), set()), 1, 1)

    def test_empty_loop_rejected(self):
        aut = ltl_to_nba(TrueConst(), frozenset())
        with pytest.raises(EmptyLoopError):
            accepts_lasso(aut, letters(set()), [])
