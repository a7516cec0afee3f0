"""Timing and counting wrappers around the package's public functions.

The traced run replaces each measured function on the module attribute its
caller looks up (``pipeline.ltl_to_nba``, ``emit.emit_smtlib``,
``kernel.eval_compiled``, ...) with a wrapper that records a span.  Spans
nest: a span's self time is its duration minus the durations of the spans
it directly contains.  Spans are aggregated per case id and span name as
they close, so memory stays constant however many calls a case makes.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter


class _Frame:
    __slots__ = ("name", "start", "children")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    def __init__(self):
        self.case = None
        self.stack: list[_Frame] = []
        # (case, span name) -> [self seconds, inclusive seconds]
        self.spans = defaultdict(lambda: [0.0, 0.0])
        self.counts = defaultdict(int)
        self.results: list = []  # (span name, return value) of this case
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, keep_result: bool = False,
             on_call=None):
        """Replace owner.attr by a span-recording wrapper."""
        inner = getattr(owner, attr)
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            frame = _Frame(name, _clock())
            stack.append(frame)
            try:
                result = inner(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame.start
                if stack:
                    stack[-1].children += duration
                acc = spans[(self.case, name)]
                acc[0] += duration - frame.children
                acc[1] += duration
            if keep_result:
                self.results.append((name, result))
            return result

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)
        self._restore.append((owner, attr, inner))

    def parent(self) -> str | None:
        return self.stack[-1].name if self.stack else None

    def uninstall(self) -> None:
        for owner, attr, inner in reversed(self._restore):
            setattr(owner, attr, inner)
        self._restore.clear()

    def per_case(self) -> dict:
        """case id -> {span name: [self seconds, inclusive seconds]}."""
        out: dict = defaultdict(dict)
        for (case, name), times in self.spans.items():
            out[case][name] = times
        return out


def install(tracer: Tracer, modules) -> None:
    """Wrap every measured function of the package's layers.

    `modules` maps short names (formula, pipeline, emit, oracle, kernel) to
    the imported package modules.
    """
    formula = modules["formula"]
    pipeline = modules["pipeline"]
    emit = modules["emit"]
    oracle = modules["oracle"]
    kernel = modules["kernel"]

    tracer.wrap(formula, "parse", "formula.parse")
    tracer.wrap(formula, "to_nnf", "formula.nnf")

    tracer.wrap(pipeline, "to_safety_automaton", "automaton.tableau",
                keep_result=True)
    tracer.wrap(pipeline, "ltl_to_nba", "automaton.tableau", keep_result=True)
    tracer.wrap(pipeline, "encode_func", "encoder.encode", keep_result=True)
    tracer.wrap(pipeline, "encode_lia", "encoder.encode", keep_result=True)

    tracer.wrap(emit, "emit_smtlib", "emit.smtlib")
    tracer.wrap(emit, "emit_tptp", "emit.tptp")

    def count_candidate(_args):
        if tracer.parent() == "oracle.search":
            tracer.counts["oracle.candidates"] += 1

    def count_body_eval(_args):
        tracer.counts["oracle.body_evals"] += 1

    def count_kernel_eval(args):
        prog, word = args[0], args[1]
        tracer.counts["kernel.evals"] += 1
        tracer.counts["kernel.node_positions"] += len(prog.ops) * word.shape[0]

    tracer.wrap(oracle, "bounded_find_model", "oracle.search")
    tracer.wrap(oracle, "eval_hyperltl", "oracle.selfcheck")
    tracer.wrap(oracle.Evaluator, "satisfies", "oracle.quantifier",
                on_call=count_candidate)
    tracer.wrap(oracle.Evaluator, "body_value", "oracle.body_value",
                on_call=count_body_eval)
    tracer.wrap(kernel, "compile_body", "kernel.compile")
    tracer.wrap(kernel, "eval_compiled", "kernel.eval",
                on_call=count_kernel_eval)
