import dataclasses
import gc
import os
import pickle
import random
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hypersat import formula as F
from hypersat.bench import FAMILIES, gen_random
from hypersat.formula import (And, Atom, DuplicateVariableError, Eventually,
                              FalseConst, Globally, Iff, Next, Not, Or,
                              ParseError, Quantifier, Release, TrueConst,
                              Until, UnboundVariableError, WeakUntil,
                              bounded_eventually, parse, pretty, rewrite,
                              to_nnf)
from hypersat.kernel import eval_body_on_lasso

from helpers import naive_eval, random_lasso


class TestParse:
    def test_basic_iff_globally(self):
        phi = parse('forall p1. exists p2. G ("a"_p1 <-> "a"_p2)')
        assert phi.prefix == ((Quantifier.FORALL, "p1"),
                              (Quantifier.EXISTS, "p2"))
        assert phi.body == Globally(Iff(Atom("a", "p1"), Atom("a", "p2")))

    def test_noninterference_formula(self):
        text = ('forall p1. exists p2. (G (("l"_p1 <-> "l"_p2) & '
                '("o"_p1 <-> "o"_p2))) & (G (! "h"_p2))')
        phi = parse(text)
        assert phi.prefix == ((Quantifier.FORALL, "p1"),
                              (Quantifier.EXISTS, "p2"))
        expected = And(
            Globally(And(Iff(Atom("l", "p1"), Atom("l", "p2")),
                         Iff(Atom("o", "p1"), Atom("o", "p2")))),
            Globally(Not(Atom("h", "p2"))))
        assert phi.body == expected

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariableError) as err:
            parse('forall p. "a"_q')
        assert err.value.name == "q"

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariableError):
            parse('forall p. exists p. "a"_p')

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse('forall p. "a"_p &')
        assert err.value.line == 1
        assert err.value.column >= 17

    def test_missing_prefix_rejected(self):
        with pytest.raises(ParseError):
            parse('"a"_p')

    def test_unary_binds_tighter_than_until(self):
        phi = parse('exists p. ! "a"_p U "b"_p')
        assert phi.body == Until(Not(Atom("a", "p")), Atom("b", "p"))

    def test_until_binds_tighter_than_and(self):
        phi = parse('exists p. "a"_p & "b"_p U "c"_p')
        assert phi.body == And(Atom("a", "p"),
                               Until(Atom("b", "p"), Atom("c", "p")))

    def test_and_binds_tighter_than_or(self):
        phi = parse('exists p. "a"_p | "b"_p & "c"_p')
        assert phi.body == Or(Atom("a", "p"),
                              And(Atom("b", "p"), Atom("c", "p")))

    def test_implies_right_associative(self):
        phi = parse('exists p. "a"_p -> "b"_p -> "c"_p')
        assert phi.body == F.Implies(Atom("a", "p"),
                                     F.Implies(Atom("b", "p"), Atom("c", "p")))

    def test_temporal_right_associative(self):
        phi = parse('exists p. "a"_p U "b"_p U "c"_p')
        assert phi.body == Until(Atom("a", "p"),
                                 Until(Atom("b", "p"), Atom("c", "p")))

    def test_comments_and_constants(self):
        phi = parse('exists p. // a comment\n 1 & X 0')
        assert phi.body == And(TrueConst(), Next(FalseConst()))

    def test_quoted_ap_with_punctuation(self):
        phi = parse('exists p. G "out-1!x"_p')
        assert phi.body == Globally(Atom("out-1!x", "p"))

    def test_reserved_words_rejected_as_variables(self):
        with pytest.raises(ParseError):
            parse('forall X. "a"_X')


    @pytest.mark.parametrize("text, line, column", [
        ('exists p. // note\n@ "a"_p', 2, 1),  # right after a comment
        ('exists p. "a"_p // c\r\n\t$', 2, 2),
        ('exists p.\r\n\t\t"a"_p $', 2, 9),  # after CR LF and tabs
        ('exists p. "a"_p &\t#', 1, 19),  # at the end of the input
        ('exists p. "a"_p & "', 1, 19),  # an unclosed quote at the end
    ])
    def test_unexpected_character_position(self, text, line, column):
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert (err.value.line, err.value.column) == (line, column)


def roundtrip_corpus() -> list:
    rng = random.Random(5)
    corpus = []
    for seed in range(150):
        nq = rng.randint(1, 4)
        prefix = [rng.choice(["forall", "exists"]) for _ in range(nq)]
        corpus.append(gen_random(prefix, rng.randint(1, 15),
                                 rng.randint(1, 3), rng.random() < 0.5,
                                 seed=seed))
    return corpus


# the tokenizer's earlier loop, kept as a reference: one finditer over
# tokens, whitespace and comments alike, stopping at the first gap
FINDITER_RE = re.compile("|".join(f"(?P<{n}>{p})" for n, p in [
    ("COMMENT", r"//[^\n]*"),
    ("WS", r"[ \t\r\n]+"),
    ("APATOM", r'"[^"]*"_[a-zA-Z_][a-zA-Z0-9_]*'),
    ("WORD", r"[a-zA-Z_][a-zA-Z0-9_]*"),
    ("IFF", r"<->"),
    ("IMPLIES", r"->"),
    ("AND", r"&"),
    ("OR", r"\|"),
    ("NOT", r"!"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("DOT", r"\."),
    ("TRUE", r"1"),
    ("FALSE", r"0"),
]))


def finditer_tokens(text: str):
    """The reference's tokens of text, or the (line, column) of the first
    character that starts none."""
    tokens = []
    pos = 0
    for m in FINDITER_RE.finditer(text):
        if m.start() != pos:
            break
        pos = m.end()
        if m.lastgroup not in ("WS", "COMMENT"):
            tokens.append((m.lastgroup, m.group(), m.start()))
    if pos < len(text):
        return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)
    return tokens + [("EOF", "", pos)]


def tokens(text: str):
    try:
        return F._tokenize(text)
    except ParseError as err:
        return err.line, err.column


class TestRoundTrip:
    def test_roundtrip_generated_corpus(self):
        for phi in roundtrip_corpus():
            assert parse(pretty(phi)) == phi

    def test_tokens_equal_the_finditer_loop(self):
        rng = random.Random(9)
        gaps = [" ", "  ", "\n", "\t ", "\r\n", " // note\n", "//\r\n"]
        errors = 0
        for phi in roundtrip_corpus():
            text = pretty(phi)
            spaced = re.sub(" ", lambda _: rng.choice(gaps), text)
            cut = rng.randrange(len(spaced) + 1)
            bad = spaced[:cut] + rng.choice("@#$/\"") + spaced[cut:]
            for variant in (text, spaced, spaced + " // end", bad):
                found = tokens(variant)
                assert found == finditer_tokens(variant)
                errors += isinstance(found, tuple)
        assert errors >= 100

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 12), st.integers(1, 3),
           st.booleans())
    def test_roundtrip_hypothesis(self, seed, size, atoms, safe):
        phi = gen_random(["forall", "exists"], size, atoms, safe, seed=seed)
        assert parse(pretty(phi)) == phi


def _sample_body():
    return And(Globally(Iff(Atom("l", "p1"), Atom("l", "p2"))),
               Until(Not(Atom("h", "p2")), Next(TrueConst())))


_PICKLE_SCRIPT = """
import pickle, sys
from hypersat.formula import And, Atom, Globally, Iff, Next, Not, TrueConst, Until
body = And(Globally(Iff(Atom("l", "p1"), Atom("l", "p2"))),
           Until(Not(Atom("h", "p2")), Next(TrueConst())))
hash(body)
sys.stdout.buffer.write(pickle.dumps(body))
"""


class TestHashCache:
    # equal nodes are one object, so == and hash are identity: no node
    # keeps a hash, and a pickle load finds the local node

    def test_separately_built_nodes_equal_and_hash_equal(self):
        a, b = _sample_body(), _sample_body()
        assert a is b and a.right.left.arg is Atom("h", "p2")
        assert hash(a) == object.__hash__(a)
        assert len({a, b, a.left, b.left, _sample_body().right}) == 3

    def test_cache_stays_out_of_repr_fields_and_pickle(self):
        body = _sample_body()
        hash(body)
        assert "_hash" not in repr(body)
        assert [f.name for f in dataclasses.fields(body)] == ["left", "right"]
        assert b"_hash" not in pickle.dumps(body)
        assert "_hash" not in body.__getstate__()
        copy = pickle.loads(pickle.dumps(body))
        assert copy == body and hash(copy) == hash(body)

    def test_unpickled_node_hashes_under_this_seed(self):
        env = dict(os.environ, PYTHONHASHSEED="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        run = subprocess.run([sys.executable, "-c", _PICKLE_SCRIPT], env=env,
                             capture_output=True, check=True)
        loaded = pickle.loads(run.stdout)
        assert loaded is _sample_body()
        assert loaded == _sample_body()
        assert hash(loaded) == hash(_sample_body())
        assert loaded in {_sample_body()}


class TestInterning:
    def test_deep_bodies_parsed_apart_are_one_object(self):
        text = 'forall p. ' + '"a"_p & X (' * 5000 + '"b"_p' + ')' * 5000
        first, second = parse(text), parse(text)
        assert first.body is second.body and first == second
        assert hash(first) == hash(second)
        assert {first.body: 1}[second.body] == 1

    def test_the_table_holds_only_living_nodes(self):
        gc.collect()
        start = len(F._nodes)
        bodies = [gen_random(["forall", "exists"], 12, 3, False, seed).body
                  for seed in range(1000)]
        assert len(F._nodes) > start
        del bodies
        gc.collect()
        assert len(F._nodes) == start

    def test_threads_get_one_nnf_per_formula(self):
        texts = [pretty(gen_random(["forall", "exists"], 12, 3, False, seed))
                 for seed in range(300)]
        start = threading.Barrier(4, timeout=60)

        def run(nnfs):
            start.wait()
            nnfs += [parse(text).nnf for text in texts]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # a round's nodes die before the next
                found = [[] for _ in range(4)]
                threads = [threading.Thread(target=run, args=(nnfs,))
                           for nnfs in found]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert [len(nnfs) for nnfs in found] == [300] * 4
                assert [i for i, nnf in enumerate(found[0])
                        if any(nnfs[i] is not nnf for nnfs in found)] == []
        finally:
            sys.setswitchinterval(interval)


class TestNnf:
    def test_until_release_duality(self):
        body = Not(Until(Atom("a", "p"), Atom("b", "p")))
        assert to_nnf(body) == Release(Not(Atom("a", "p")), Not(Atom("b", "p")))

    def test_globally_eventually_duality(self):
        assert to_nnf(Not(Globally(Atom("a", "p")))) == \
            F.Eventually(Not(Atom("a", "p")))

    def test_double_negation(self):
        assert to_nnf(Not(Not(Atom("a", "p")))) == Atom("a", "p")

    def test_negations_only_on_atoms(self):
        rng = random.Random(11)
        for seed in range(80):
            phi = gen_random(["exists"], rng.randint(1, 12), 2, False, seed)
            result = to_nnf(Not(phi.body))
            assert _nnf_shape_ok(result)


def _iff_chain(n: int):
    """((("a0"_p <-> "a1"_p) <-> "a2"_p) .. <-> "an"_p), built as an AST."""
    body = Atom("a0", "p")
    for k in range(1, n + 1):
        body = Iff(body, Atom(f"a{k}", "p"))
    return body


def _tree_nnf(node, neg: bool):
    """NNF of an atom or an iff chain, as the rewrite made it as a tree:
    each side converted anew at each polarity of each <->."""
    if isinstance(node, Atom):
        return Not(node) if neg else node
    ll, nl = _tree_nnf(node.left, False), _tree_nnf(node.left, True)
    rr, nr = _tree_nnf(node.right, False), _tree_nnf(node.right, True)
    if neg:
        return Or(And(ll, nr), And(nl, rr))
    return Or(And(ll, rr), And(nl, nr))


class TestNnfSharing:
    def test_nested_iff_is_linear(self):
        # the tree rewrite made 2^(n+1) conversions: 5.2 s at n = 18
        body = _iff_chain(18)
        start = time.perf_counter()
        nnf = to_nnf(body)
        atoms = F.atoms_of(nnf)
        assert time.perf_counter() - start < 0.1
        assert atoms == {(f"a{k}", "p") for k in range(19)}

    def test_negated_weak_until_chain_is_linear(self):
        # !(a W b) converts b twice at the same polarity; once, shared
        body = Atom("a0", "p")
        for k in range(1, 19):
            body = WeakUntil(Atom(f"a{k}", "p"), body)
        start = time.perf_counter()
        assert F.atoms_of(to_nnf(Not(body))) == F.atoms_of(body)
        assert time.perf_counter() - start < 0.1

    def test_shared_result_equals_the_tree(self):
        for n in range(13):
            body = _iff_chain(n)
            assert to_nnf(body) == _tree_nnf(body, False), n
            assert to_nnf(Not(body)) == _tree_nnf(body, True), n

    def test_both_polarities_of_a_side_are_shared(self):
        nnf = to_nnf(_iff_chain(2))
        # (l & a2) | (!l & !a2), l the inner <-> at each polarity
        inner, negated = nnf.left.left, nnf.right.left
        assert inner == to_nnf(Iff(Atom("a0", "p"), Atom("a1", "p")))
        assert negated == to_nnf(Not(Iff(Atom("a0", "p"), Atom("a1", "p"))))
        # both build on one ! a0 and one ! a1
        assert inner.right.left is negated.right.left
        assert inner.right.right is negated.left.right


class TestCachedParts:
    def test_nnf_and_atoms_are_built_once_and_stay_out_of_fields(self):
        phi = parse('forall p. exists q. ! G ("a"_p <-> X "b"_q)')
        assert phi.nnf is phi.nnf and phi.atoms is phi.atoms
        assert phi.nnf == to_nnf(phi.body)
        assert phi.atoms == {("a", "p"), ("b", "q")}
        twin = parse(pretty(phi))
        assert twin == phi and hash(twin) == hash(phi)
        assert "nnf" not in repr(phi) and "atoms" not in repr(phi)
        assert [f.name for f in dataclasses.fields(phi)] == ["prefix", "body"]

    def test_parse_collects_the_atoms_it_reads(self):
        # the parser's atom set is the one atoms_of finds in its body
        rng = random.Random(23)
        texts = ["exists p. 1 U X 0", 'forall p. "a"_p & ! ("a"_p | "b"_p)']
        texts += [pretty(case.formula) for family in FAMILIES.values()
                  for case in family()]
        for seed in range(200):
            prefix = [rng.choice(["forall", "exists"])
                      for _ in range(rng.randint(1, 4))]
            texts.append(pretty(gen_random(prefix, rng.randint(1, 15),
                                           rng.randint(1, 3),
                                           rng.random() < 0.5, seed)))
        for text in texts:
            phi = parse(text)
            assert phi.atoms == F.atoms_of(phi.body), text
            assert isinstance(phi.atoms, frozenset)


class TestPrintedForms:
    def test_every_subformula_is_printed_once(self):
        # every subformula's form parses back to it, and the leaves print
        # themselves
        rng = random.Random(5)
        for seed in range(100):
            phi = gen_random(["forall", "exists"], rng.randint(1, 14), 2,
                             False, seed)
            for node in F.postorder(phi.body):
                form = F.pretty_body(node)
                assert parse(f"forall p1. forall p2. {form}").body == node
                if isinstance(node, (Atom, TrueConst, FalseConst)):
                    assert F.printed_form(node) == form
            assert F.pretty_body(phi.body) == pretty(phi).rsplit(". ", 1)[1]

    def test_rejects_what_is_not_a_body(self):
        for walk in (lambda body: list(F.postorder(body)), F.pretty_body,
                     lambda body: F.printed_form(body.right)):
            with pytest.raises(TypeError, match="not an LTL body node"):
                walk(And(Atom("a", "p"), "b"))


def _nnf_shape_ok(node):
    if isinstance(node, Not):
        return isinstance(node.arg, Atom)
    if isinstance(node, (Atom, TrueConst, FalseConst)):
        return True
    if isinstance(node, (Next, F.Eventually, Globally)):
        return _nnf_shape_ok(node.arg)
    if isinstance(node, (And, Or, Until, WeakUntil, Release)):
        return _nnf_shape_ok(node.left) and _nnf_shape_ok(node.right)
    return False  # Implies/Iff must be gone


class TestRewriteEquivalence:
    def test_rewrites_preserve_semantics(self):
        # 200 random bodies x 50 random lasso assignments each
        rng = random.Random(99)
        for seed in range(200):
            phi = gen_random(["forall", "exists"], rng.randint(1, 10),
                             rng.randint(1, 2), rng.random() < 0.3, seed)
            body = phi.body if seed % 2 else Not(phi.body)
            atoms = sorted(F.atoms_of(body)) or [("a", "p1")]
            nnf = to_nnf(body)
            for _ in range(50):
                word, s, l = random_lasso(rng, atoms, 2, 3)
                reference = eval_body_on_lasso(body, word[:s], word[s:], atoms)
                assert eval_body_on_lasso(nnf, word[:s], word[s:], atoms) == reference

    def test_rewrites_preserve_atoms(self):
        rng = random.Random(17)
        for seed in range(100):
            phi = gen_random(["forall", "exists"], rng.randint(1, 12), 3,
                             False, seed)
            body = Not(phi.body)
            assert F.atoms_of(to_nnf(body)) == F.atoms_of(body)


def liveness_formulas(count: int) -> list:
    """The first count seeded gen_random formulas whose NNF body has an
    until or an eventually, with sizes 4 to 14 and two propositions."""
    found = []
    seed = 0
    while len(found) < count:
        phi = gen_random(["forall", "exists"], 4 + seed % 11, 2, False, seed)
        if any(isinstance(n, (Until, Eventually))
               for n in F.postorder(phi.nnf)):
            found.append(phi)
        seed += 1
    return found


def agrees_on_lassos(body, new, atoms, rng, lassos: int) -> bool:
    """new and body agree under naive_eval, and new under the kernel too,
    on random lassos over atoms, a superset of new's atoms."""
    atoms = sorted(atoms)
    for _ in range(lassos):
        word, s, l = random_lasso(rng, atoms, 3, 3)
        want = naive_eval(body, word, s, l)
        if naive_eval(new, word, s, l) != want or eval_body_on_lasso(
                new, word[:s], word[s:], atoms) != want:
            return False
    return True


A_P, B_P, A_Q = Atom("a", "p"), Atom("b", "p"), Atom("a", "q")
# small NNF bodies over two propositions and the constants
SMALL = st.recursive(
    st.sampled_from([A_P, B_P, A_Q, Not(A_P), Not(B_P), TrueConst(),
                     FalseConst()]),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from([Next, Eventually, Globally]), inner).map(
            lambda t: t[0](t[1])),
        st.tuples(st.sampled_from([And, Or, Until, WeakUntil, Release]),
                  inner, inner).map(lambda t: t[0](t[1], t[2]))),
    max_leaves=3)

# the left-hand side of each rule, over parts a, b and c
RULES = {
    "X 1": lambda a, b, c: Next(TrueConst()),
    "F 0": lambda a, b, c: Eventually(FalseConst()),
    "1 U b": lambda a, b, c: Until(TrueConst(), b),
    "0 U b": lambda a, b, c: Until(FalseConst(), b),
    "a U 0": lambda a, b, c: Until(a, FalseConst()),
    "0 R b": lambda a, b, c: Release(FalseConst(), b),
    "1 R b": lambda a, b, c: Release(TrueConst(), b),
    "a R 1": lambda a, b, c: Release(a, TrueConst()),
    "a W 0": lambda a, b, c: WeakUntil(a, FalseConst()),
    "1 W b": lambda a, b, c: WeakUntil(TrueConst(), b),
    "a & 0": lambda a, b, c: And(a, FalseConst()),
    "1 | b": lambda a, b, c: Or(TrueConst(), b),
    "a U a": lambda a, b, c: Until(a, a),
    "a W a": lambda a, b, c: WeakUntil(a, a),
    "a R a": lambda a, b, c: Release(a, a),
    "a & a": lambda a, b, c: And(a, a),
    "a | a": lambda a, b, c: Or(a, a),
    "X a & X b": lambda a, b, c: And(Next(a), Next(b)),
    "G a & G b": lambda a, b, c: And(Globally(a), Globally(b)),
    "a U c & b U c": lambda a, b, c: And(Until(a, c), Until(b, c)),
    "a W c & b W c": lambda a, b, c: And(WeakUntil(a, c), WeakUntil(b, c)),
    "a R b & a R c": lambda a, b, c: And(Release(a, b), Release(a, c)),
    "X a | X b": lambda a, b, c: Or(Next(a), Next(b)),
    "F a | F b": lambda a, b, c: Or(Eventually(a), Eventually(b)),
    "a U b | a U c": lambda a, b, c: Or(Until(a, b), Until(a, c)),
    "a W b | a W c": lambda a, b, c: Or(WeakUntil(a, b), WeakUntil(a, c)),
    "a R c | b R c": lambda a, b, c: Or(Release(a, c), Release(b, c)),
    "F F a": lambda a, b, c: Eventually(Eventually(a)),
    "G G a": lambda a, b, c: Globally(Globally(a)),
    "F (a U b)": lambda a, b, c: Eventually(Until(a, b)),
    "G (a R b)": lambda a, b, c: Globally(Release(a, b)),
    "F G F a": lambda a, b, c: Eventually(Globally(Eventually(a))),
    "G F G a": lambda a, b, c: Globally(Eventually(Globally(a))),
}


class TestRewrite:
    def test_equivalent_on_built_in_and_random_bodies(self):
        rng = random.Random(26)
        formulas = [case.formula for family in FAMILIES.values()
                    for case in family()] + liveness_formulas(300)
        assert len(formulas) == 344
        changed = 0
        for phi in formulas:
            new = rewrite(phi.nnf)
            assert _nnf_shape_ok(new)
            assert F.atoms_of(new) <= phi.atoms
            before, after = F.pretty_body(phi.nnf), F.pretty_body(new)
            assert len(after) <= len(before)
            changed += after != before
            assert agrees_on_lassos(phi.body, new, phi.atoms, rng, 30), \
                (before, after)
        assert changed >= 100

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(RULES)), SMALL, SMALL, SMALL,
           st.sampled_from([None, Next, Globally, Eventually, And, Until]),
           st.integers(0, 2**32 - 1))
    def test_each_rule_keeps_the_language(self, rule, a, b, c, context,
                                          seed):
        body = RULES[rule](a, b, c)
        if context in (And, Until):
            body = context(body, A_Q)
        elif context is not None:
            body = context(body)
        new = rewrite(body)
        # every rule shortens the printed form
        assert len(F.pretty_body(new)) < len(F.pretty_body(body))
        atoms = F.atoms_of(body) | {("a", "q")}
        assert agrees_on_lassos(body, new, atoms, random.Random(seed), 20)

    def test_merges_and_absorptions(self):
        a, b = A_P, B_P
        cases = {
            And(Next(a), Next(b)): Next(And(a, b)),
            Or(Until(a, b), Until(a, A_Q)): Until(a, Or(b, A_Q)),
            And(Release(a, b), Release(a, A_Q)): Release(a, And(b, A_Q)),
            Eventually(Until(a, Globally(b))): Eventually(Globally(b)),
            Globally(Eventually(Globally(a))): Eventually(Globally(a)),
            Until(TrueConst(), Or(a, a)): Eventually(a),
            Release(FalseConst(), b): Globally(b),
        }
        for body, want in cases.items():
            assert rewrite(body) == want

    def test_equal_parts_are_found_by_identity(self):
        # deep trees built apart are one object, which the rules compare
        # by identity, without a frame per level
        deep = [Atom("a", "p")] * 2
        for _ in range(5000):
            deep = [Next(d) for d in deep]
        assert deep[0] is deep[1]
        body = Or(And(deep[0], deep[1]), deep[1])
        new = rewrite(body)
        assert new is deep[0]

    def test_an_unchanged_body_is_kept(self):
        phi = parse('forall p. G ("a"_p -> X ("b"_p U "a"_p))')
        assert rewrite(phi.nnf) is phi.nnf
        # nodes that are not NNF have no rule
        body = F.Implies(A_P, A_P)
        assert rewrite(body) is body
        assert rewrite(Not(TrueConst())) == Not(TrueConst())


class TestBoundedOperators:
    def test_one_position_is_identity(self):
        a = Atom("a", "p")
        assert bounded_eventually(1, a) == a

    def test_two_positions(self):
        a = Atom("a", "p")
        assert bounded_eventually(2, a) == Or(a, Next(a))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            bounded_eventually(0, Atom("a", "p"))

    def test_covers_exactly_first_b_positions(self):
        a = Atom("a", "p")
        body = bounded_eventually(3, a)
        atoms = [("a", "p")]
        # a true only at position 2: inside the window
        word = [frozenset(), frozenset(), frozenset({("a", "p")}), frozenset()]
        assert eval_body_on_lasso(body, word[:3], word[3:], atoms)
        # a true only at position 3: outside the window
        word = [frozenset(), frozenset(), frozenset(), frozenset({("a", "p")})]
        assert not eval_body_on_lasso(body, word[:3], word[3:], atoms)
