import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypersat import formula as F
from hypersat import kernel
from hypersat.bench import gen_random
from hypersat.formula import Atom, Globally, Next, Not, Until

from helpers import naive_eval, random_lasso

ATOMS = [("a", "p1"), ("b", "p1"), ("a", "p2")]


def eval_one(body, word, stem_len, loop_len):
    """The batched kernel on a batch of one word."""
    prog = kernel.compile_body(body, ATOMS)
    mat = kernel.word_from_letters(word, ATOMS)
    values = kernel.eval_compiled(prog, mat[None], stem_len, loop_len)
    assert values.shape == (1,) and values.dtype == bool
    return bool(values[0])


def test_backend_selected():
    assert kernel.BACKEND == "numpy"


def test_next_wraps_into_loop():
    body = Next(Atom("a", "p1"))
    # stem [], loop [{}, {a}]: X a at 0 true, at 1 false (wraps to 0)
    word = [frozenset(), frozenset({("a", "p1")})]
    assert eval_one(body, word, 0, 2) is True


def test_until_witness_across_wrap():
    # a U b with b true only at the loop head, checked from the loop tail
    body = Until(Atom("a", "p1"), Atom("b", "p1"))
    word = [frozenset({("b", "p1")}), frozenset({("a", "p1")})]
    prog = kernel.compile_body(body, ATOMS)
    mat = kernel.word_from_letters(word, ATOMS)
    assert kernel.eval_compiled(prog, mat[None], 0, 2)[0]
    assert naive_eval(body, word, 0, 2)


def test_globally_false_when_loop_fails_once():
    body = Globally(Atom("a", "p1"))
    word = [frozenset({("a", "p1")}), frozenset({("a", "p1")}), frozenset()]
    assert eval_one(body, word, 1, 2) is False


def test_globally_on_stem_only_failure():
    # failure in the stem does not affect positions after it
    body = Globally(Atom("a", "p1"))
    word = [frozenset(), frozenset({("a", "p1")})]
    assert eval_one(body, word, 1, 1) is False


def _random_full_body(rng, size):
    if size <= 1:
        return Atom(*rng.choice(ATOMS))
    unary = [Not, Next, Globally, F.Eventually]
    binary = [F.And, F.Or, F.Implies, F.Iff, Until, F.Release, F.WeakUntil]
    if size == 2 or rng.random() < 0.4:
        return rng.choice(unary)(_random_full_body(rng, size - 1))
    left = rng.randint(1, size - 2)
    return rng.choice(binary)(_random_full_body(rng, left),
                              _random_full_body(rng, size - 1 - left))


def test_agrees_with_fixpoint_oracle():
    rng = random.Random(1234)
    for _ in range(500):
        body = _random_full_body(rng, rng.randint(1, 14))
        word, s, l = random_lasso(rng, ATOMS, 3, 3)
        assert eval_one(body, word, s, l) == naive_eval(body, word, s, l)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 14), st.integers(0, 3),
       st.integers(1, 4))
def test_agrees_with_fixpoint_oracle_hypothesis(seed, size, stem, loop):
    rng = random.Random(seed)
    body = _random_full_body(rng, size)
    word = [frozenset(a for a in ATOMS if rng.random() < 0.5)
            for _ in range(stem + loop)]
    assert eval_one(body, word, stem, loop) == \
        naive_eval(body, word, stem, loop)


def test_shared_subterms_compiled_once():
    a = Atom("a", "p1")
    body = F.And(Globally(a), F.Or(Globally(a), a))
    prog = kernel.compile_body(body, ATOMS)
    # nodes: a, G a, Or, And -- G a and a shared
    assert len(prog.ops) == 4


def test_rejects_empty_loop():
    prog = kernel.compile_body(Atom("a", "p1"), ATOMS)
    mat = np.zeros((1, 1, len(ATOMS)), dtype=np.uint8)
    with pytest.raises(ValueError):
        kernel.eval_compiled(prog, mat, 1, 0)


def test_rejects_wrong_word_length():
    prog = kernel.compile_body(Atom("a", "p1"), ATOMS)
    mat = np.zeros((4, 3, len(ATOMS)), dtype=np.uint8)
    with pytest.raises(ValueError):
        kernel.eval_compiled(prog, mat, 1, 1)


def test_generated_safe_bodies_eval_consistently():
    rng = random.Random(77)
    for seed in range(100):
        phi = gen_random(["forall", "exists"], rng.randint(1, 10), 2, True,
                         seed)
        body = phi.body
        atoms = sorted(F.atoms_of(body)) or [("a", "p1")]
        word, s, l = random_lasso(rng, atoms, 2, 3)
        got = kernel.eval_body_on_lasso(body, word[:s], word[s:], atoms)
        assert got == naive_eval(body, word, s, l)


def test_batch_equals_single_word_calls():
    rng = random.Random(99)
    for _ in range(60):
        body = _random_full_body(rng, rng.randint(1, 14))
        stem, loop = rng.randint(0, 3), rng.randint(1, 4)
        batch = rng.randint(1, 40)
        words = (np.array([[[rng.random() < 0.5 for _ in ATOMS]
                            for _ in range(stem + loop)]
                           for _ in range(batch)])).astype(np.uint8)
        prog = kernel.compile_body(body, ATOMS)
        together = kernel.eval_compiled(prog, words, stem, loop)
        assert together.shape == (batch,)
        alone = [bool(kernel.eval_compiled(prog, w[None], stem, loop)[0])
                 for w in words]
        assert together.tolist() == alone


def test_empty_batch():
    prog = kernel.compile_body(Globally(Atom("a", "p1")), ATOMS)
    words = np.zeros((0, 3, len(ATOMS)), dtype=np.uint8)
    assert kernel.eval_compiled(prog, words, 1, 2).shape == (0,)
