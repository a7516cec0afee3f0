"""One pass over a workload's cases, in a fresh single-threaded process.

Started by ``run.py``, never by hand.  The job arrives as one JSON object
on standard input; the process prints ``ready`` once the package is
imported and the inputs are loaded (the end of set-up, stamped with the
system-wide monotonic clock), then times each
case from formula text to result, samples the host's speed between cases
with a calibration loop, and prints one JSON object with the per-case times, calibration times,
output digests, sizes and check results.

Job keys: ``workload``, ``seed``, ``cases``, ``check`` (run the reference
checks after each case), ``trace`` (install the span wrappers) and
``break`` (self-test only: corrupt a reference so the checks must fail).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# random lassos per case for the automaton/kernel check
LASSOS = {"safety-emit": 50, "liveness-emit": 10}
CALIBRATION_ROUNDS = 2000
CALIBRATION_MAX_SAMPLES = 9


def calibration() -> float:
    """Seconds a fixed loop of dict, tuple and frozenset work takes now.

    Timed around every case, it samples the host's speed in the same
    process; run.py scales the case's time by it.  The collector is off so
    the package's heap cannot change the loop's cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(CALIBRATION_ROUNDS):
            table[(i, i & 7, "k")] = frozenset((i, i + 1))
        total = 0
        for key, value in table.items():
            total += len(value) + hash(key) % 3
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def host_speed(after_s: float) -> float:
    """Median of calibration samples, more of them after a longer case."""
    rounds = min(CALIBRATION_MAX_SAMPLES, 1 + int(after_s / 0.1))
    return statistics.median(calibration() for _ in range(rounds))


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    from hypersat import (automaton, emit, encoder, fol, formula, kernel,
                          oracle, pipeline)
    return types.SimpleNamespace(
        automaton=automaton, emit=emit, encoder=encoder, fol=fol,
        formula=formula, kernel=kernel, oracle=oracle, pipeline=pipeline)


def run_emit(pkg, case):
    phi = pkg.formula.parse(case["text"])
    kind = pkg.pipeline.choose_encoding(phi, case["encoding"])
    problem = pkg.pipeline.build_problem(phi, kind)
    return (phi, kind, pkg.emit.emit_smtlib(problem),
            pkg.emit.emit_tptp(problem))


def run_oracle(pkg, case):
    phi = pkg.formula.parse(case["text"])
    return phi, pkg.oracle.bounded_find_model(phi, *case["bounds"])


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _render_model(model) -> str:
    return ";".join(
        "|".join(" ".join(",".join(sorted(letter)) or "-" for letter in part)
                 for part in (t.stem, t.loop))
        for t in model.traces)


def fol_node_count(formula) -> int:
    """Nodes (formulas and terms) in a first-order formula tree."""
    count = 0
    stack = [formula]
    while stack:
        node = stack.pop()
        count += 1
        for value in vars(node).values():
            if isinstance(value, tuple):
                stack.extend(v for v in value if hasattr(v, "__dict__"))
            elif hasattr(value, "__dict__") and not isinstance(value, type):
                stack.append(value)
    return count


def _drop_one_edge(aut):
    """Self-test corruption: remove the first edge from an initial state."""
    for k, (src, _, _) in enumerate(aut.edges):
        if src in aut.initial:
            return dataclasses.replace(aut,
                                       edges=aut.edges[:k] + aut.edges[k + 1:])
    return aut


def main() -> int:
    if sys.flags.optimize:
        print("worker: refusing to run under -O (the oracle's self-check "
              "is an assert)", file=sys.stderr)
        return 2
    pkg = _import_package()
    job = json.loads(sys.stdin.read())
    print(f"ready {time.monotonic()!r}", flush=True)

    workload = job["workload"]
    emit_workload = workload != "oracle-search"
    checking = job["check"]
    breaking = job.get("break")
    if checking:
        sys.path.insert(0, str(ROOT / "tests"))
        import checks
        captured = []
        inner = pkg.pipeline.body_automaton

        def capture(*args, **kwargs):
            aut = inner(*args, **kwargs)
            captured.append(aut)
            return aut

        pkg.pipeline.body_automaton = capture
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer, vars(pkg))
    counts = {"automaton.states": 0, "automaton.edges": 0,
              "encoder.fol_nodes": 0}

    clock = time.perf_counter
    run_case = run_emit if emit_workload else run_oracle
    cases = {}
    calibration()  # the first call also pays for allocator warm-up
    # sampled as after a case as long as set-up, about 0.3 s
    setup_cal = before = host_speed(0.3)
    for case in job["cases"]:
        cid = case["id"]
        if tracer is not None:
            tracer.case = cid
        start = clock()
        try:
            out = run_case(pkg, case)
        except Exception as exc:  # a failed case is counted, not fatal
            before = host_speed(clock() - start)
            cases[cid] = {"errors": [f"raised {type(exc).__name__}: {exc}"]}
            if checking:
                captured.clear()
            if tracer is not None:
                tracer.results.clear()
            continue
        elapsed = clock() - start
        after = host_speed(elapsed)

        row = {"t": elapsed, "cal": (before + after) / 2}
        before = after
        if emit_workload:
            phi, kind, smtlib, tptp = out
            row.update(digest=_digest(smtlib, tptp),
                       smtlib_bytes=len(smtlib.encode()),
                       tptp_bytes=len(tptp.encode()))
        else:
            phi, outcome = out
            found = isinstance(outcome, pkg.oracle.Found)
            row.update(outcome="found" if found else "no-model",
                       digest=_digest(_render_model(outcome.model)
                                      if found else repr(outcome)))
        if tracer is not None:
            for name, result in tracer.results:
                if name == "automaton.tableau":
                    counts["automaton.states"] += result.num_states
                    counts["automaton.edges"] += len(result.edges)
                elif name == "encoder.encode":
                    counts["encoder.fol_nodes"] += fol_node_count(
                        result.formula)
            tracer.results.clear()
        if checking:
            if emit_workload:
                aut = captured[-1]
                if breaking == "edge":
                    aut = _drop_one_edge(aut)
                rng = random.Random(f"{job['seed']}/{cid}")
                errors = checks.check_emitted(smtlib, tptp,
                                              kind.value == "lia")
                errors += checks.check_automaton(pkg, phi.body, aut, rng,
                                                 LASSOS[workload])
            else:
                expected = case["expected"]
                if breaking == "expected":
                    expected = "found" if expected == "no-model" else "no-model"
                errors = checks.check_oracle(pkg, phi, outcome, expected,
                                             case["bounds"])
            captured.clear()
            if errors:
                row["errors"] = errors
        cases[cid] = row
        del out

    usage = resource.getrusage(resource.RUSAGE_SELF)
    import numpy
    report = {
        "cases": cases,
        "setup_cal": setup_cal,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__,
                     "kernel_backend": pkg.kernel.BACKEND},
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = {"counts": {**counts, **tracer.counts},
                           "per_case": tracer.per_case()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
