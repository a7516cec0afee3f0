import gc
import random
import weakref

import pytest

from hypersat import automaton
from hypersat import formula as F
from hypersat.automaton import (EMPTY_CUBE, Buchi, Cube, EmptyLoopError,
                                Safety, SymbolicAutomaton, accepts_lasso,
                                expand_cubes, is_syntactically_safe,
                                ltl_to_nba, to_safety_automaton)
from hypersat.bench import gen_random
from hypersat.formula import (And, Atom, FalseConst, Globally, Iff, Implies,
                              Next, Not, Or, TrueConst, to_nnf)

from helpers import naive_eval, random_lasso

A_P = ("a", "p")
AP_SET = frozenset({A_P})


def letters(*specs):
    return [frozenset(s) for s in specs]


class TestNbaExamples:
    def test_true_single_state_self_loop(self):
        aut = ltl_to_nba(TrueConst(), frozenset())
        assert aut.num_states == 1
        assert aut.initial == {0}
        assert aut.edges == ((0, Cube(frozenset(), frozenset()), 0),)
        assert aut.acceptance == Buchi(frozenset({0}))

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
        aut = to_safety_automaton(Globally(Atom("a", "p")), AP_SET)
        assert aut.num_states == 2
        assert aut.acceptance == Safety(frozenset({1}))
        assert set(aut.edges) == {
            (0, Cube(frozenset({A_P}), frozenset()), 0),
            (0, Cube(frozenset(), frozenset({A_P})), 1),
            (1, Cube(frozenset(), frozenset()), 1),
        }

    def test_false_initial_state_bad(self):
        aut = to_safety_automaton(FalseConst(), AP_SET)
        assert aut.initial <= aut.acceptance.bad

    def test_requires_safe_fragment(self):
        from hypersat.automaton import NotSyntacticallySafeError
        with pytest.raises(NotSyntacticallySafeError):
            to_safety_automaton(F.Eventually(Atom("a", "p")), AP_SET)

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
        rng = random.Random(21)
        for seed in range(60):
            phi = gen_random(["forall", "exists"], rng.randint(1, 10), 2,
                             True, seed)
            atoms = frozenset(F.atoms_of(phi.body)) or frozenset({A_P})
            aut = to_safety_automaton(phi.body, atoms)
            bad = aut.acceptance.bad
            for src, _, dst in aut.edges:
                if src in bad:
                    assert dst in bad


def random_cube(rng, atoms):
    pos, neg = set(), set()
    for atom in atoms:
        roll = rng.random()
        if roll < 0.3:
            pos.add(atom)
        elif roll < 0.6:
            neg.add(atom)
    return Cube(frozenset(pos), frozenset(neg))


def all_letters(atoms):
    return [frozenset(a for i, a in enumerate(atoms) if bits >> i & 1)
            for bits in range(1 << len(atoms))]


class TestUncoveredCubes:
    def test_complement_partitions_the_letters(self):
        rng = random.Random(5)
        for _ in range(400):
            atoms = [(ap, "p") for ap in "abcd"[:rng.randint(1, 4)]]
            cubes = [random_cube(rng, atoms)
                     for _ in range(rng.randint(1, 6))]
            cubes = [c for c in cubes if c.atoms()]
            result = automaton._uncovered_cubes(cubes)
            for letter in all_letters(atoms):
                inside = [c for c in cubes if c.matches(letter)]
                outside = [c for c in result if c.matches(letter)]
                # every letter is matched by an input cube or by exactly
                # one result cube, never by both
                assert len(outside) == (0 if inside else 1)

    def test_result_cubes_pairwise_disjoint_and_off_the_inputs(self):
        rng = random.Random(6)
        for _ in range(200):
            atoms = [(ap, "p") for ap in "abcd"]
            cubes = [random_cube(rng, atoms) for _ in range(rng.randint(1, 5))]
            cubes = [c for c in cubes if c.atoms()]
            result = automaton._uncovered_cubes(cubes)

            def disjoint(x, y):
                return bool(x.positives & y.negatives
                            or x.negatives & y.positives)

            for i, x in enumerate(result):
                assert all(disjoint(x, c) for c in cubes)
                assert all(disjoint(x, y) for y in result[i + 1:])

    def test_edge_cases(self):
        a = ("a", "p")
        assert automaton._uncovered_cubes([]) == [EMPTY_CUBE]
        assert automaton._uncovered_cubes(
            [Cube(frozenset({a}), frozenset()), EMPTY_CUBE]) == []
        assert automaton._uncovered_cubes(
            [Cube(frozenset({a}), frozenset())]) == \
            [Cube(frozenset(), frozenset({a}))]


class TestConstructionState:
    def test_no_body_node_outlives_its_construction(self):
        # the tableau's caches (printed forms, covers) belong to one
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

    def test_cube_expansion_preserves_language(self):
        rng = random.Random(31)
        for seed in range(20):
            phi = gen_random(["exists", "exists"], rng.randint(1, 8), 2,
                             True, seed)
            atoms = frozenset(F.atoms_of(phi.body)) or frozenset({A_P})
            aut = to_safety_automaton(phi.body, atoms)
            explicit = expand_cubes(aut)
            for _, cube, _ in explicit.edges:
                assert cube.atoms() == frozenset(atoms)
            for _ in range(30):
                word, s, l = random_lasso(rng, atoms, 2, 2)
                assert accepts_lasso(aut, word[:s], word[s:]) == \
                    accepts_lasso(explicit, word[:s], word[s:])


class TestAcceptsLasso:
    def test_no_initial_states(self):
        aut = SymbolicAutomaton(1, frozenset(), (), Buchi(frozenset({0})),
                                AP_SET)
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
