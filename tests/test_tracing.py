"""The benchmark's traced run wraps the package's functions by name.

perfbench/spans.py replaces module attributes such as
``pipeline.to_safety_automaton`` and ``emit.emit_smtlib`` with recording
wrappers, so a rename or a call that bypasses those attributes silently
drops a layer from the traced metrics.  This runs one case of each traced
path under the real Tracer and checks the span names it records.
"""

import importlib.util
from pathlib import Path

from hypersat import (automaton, bench, emit, encoder, formula, kernel,
                      oracle, pipeline)

from helpers import safety_emit_style_cases

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_spans",
    Path(__file__).resolve().parents[1] / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

MODULES = {"formula": formula, "pipeline": pipeline, "emit": emit,
           "oracle": oracle, "kernel": kernel}


def run_emit_case(text: str, encoding: str):
    phi = formula.parse(text)
    problem = pipeline.build_problem(
        phi, pipeline.choose_encoding(phi, encoding))
    emit.emit_smtlib(problem)
    emit.emit_tptp(problem)


def test_traced_run_records_every_layer():
    tracer = spans.Tracer()
    spans.install(tracer, MODULES)
    results = {}
    try:
        cases = {
            "func": lambda: run_emit_case('forall p. G ("a"_p -> X "b"_p)',
                                          "auto"),
            "lia": lambda: run_emit_case('exists p. G F "a"_p', "lia"),
            "oracle": lambda: oracle.bounded_find_model(
                formula.parse('exists p. G "a"_p & F ! "b"_p'), 1, 1, 2),
        }
        for case, run in cases.items():
            tracer.case = case
            run()
            results[case] = [name for name, _ in tracer.results]
            tracer.results.clear()
    finally:
        tracer.uninstall()
    recorded = {case: set(names) for case, names in tracer.per_case().items()}
    emitted = {"formula.parse", "formula.nnf", "automaton.tableau",
               "encoder.encode", "emit.smtlib", "emit.tptp"}
    assert recorded["func"] == emitted
    assert recorded["lia"] == emitted
    assert recorded["oracle"] >= {
        "formula.parse", "oracle.search", "oracle.selfcheck",
        "oracle.quantifier", "oracle.body_value", "kernel.compile",
        "kernel.eval"}
    # one automaton and one problem per emit case, so the traced sizes
    # count each once
    for case in ("func", "lia"):
        assert results[case] == ["automaton.tableau", "encoder.encode"]
    assert tracer.counts["kernel.evals"] > 0
    assert tracer.counts["oracle.candidates"] > 0
    # uninstalled: the package's own functions are back
    assert pipeline.to_safety_automaton is automaton.to_safety_automaton
    assert pipeline.ltl_to_nba is automaton.ltl_to_nba
    assert pipeline.encode_func is encoder.encode_func
    assert pipeline.encode_lia is encoder.encode_lia
    assert not hasattr(oracle.Evaluator.satisfies, "__wrapped__")
    assert not hasattr(kernel.eval_compiled, "__wrapped__")


def test_each_case_builds_one_nnf_and_one_atom_set(monkeypatch):
    # the traced formula.nnf span and the tableau, the encoder and the
    # closedness check all read the formula's one NNF and one atom set,
    # which the parser collects as it reads the atoms, with no walk
    calls = []
    for name in ("to_nnf", "atoms_of"):
        def spy(body, real=getattr(formula, name), name=name):
            calls.append(name)
            return real(body)
        monkeypatch.setattr(formula, name, spy)
    texts = [formula.pretty(case.formula) for case in safety_emit_style_cases()]
    texts += [formula.pretty(bench.gen_random(["forall", "exists"], 10, 2,
                                              False, seed))
              for seed in range(20)]
    for text in texts:
        for encoding in ("auto", "func", "pred", "lia"):
            calls.clear()
            phi = formula.parse(text)
            pipeline.build_problem(
                phi, pipeline.choose_encoding(phi, encoding))
            assert calls == ["to_nnf"], (text, encoding)
