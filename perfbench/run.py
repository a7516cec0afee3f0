"""hypersat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload safety-emit --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run starts one worker process at a time
(``worker.py``), each a fresh interpreter that imports the package from
``src/`` and makes one pass over the workload's cases.  The first pass also
checks every output against the references in ``checks.py``; after it, the
run keeps starting passes until ``--seconds`` have gone by and at least
three passes have run.  Every pass must reproduce the first pass's output
digests exactly.  Each case time is scaled to a reference host speed by
calibration samples taken around it (see CALIBRATION_REF_S), and a case's
time is its median over the passes.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
from untraced passes.  With ``--trace 1`` untraced and traced passes
alternate, and the metrics are the per-layer ones: self times and counts
at the package's public functions, the untraced per-class times, the
tracing overhead and the time no layer span accounts for.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance, the inputs digest and per-case detail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_PASSES = 3
# Reference time of worker.calibration(), close to its fastest time on the
# host where the baseline in README.md was measured.  Times are reported in
# seconds at that host speed: a case time t whose calibration samples
# around it took c counts as t * CALIBRATION_REF_S / c.  It sets the unit,
# nothing else.
CALIBRATION_REF_S = 0.0008
# no pass starts if it could end later than this after the run began
RUN_LIMIT_S = 150.0
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing package, broken worker)."""


def _median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# Worker passes
# ---------------------------------------------------------------------------

def run_pass(job: dict) -> dict:
    """Start one worker, feed it the job, and return its report.

    Adds ``setup_s``: from process start until the worker has imported the
    package and loaded its inputs.
    """
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONOPTIMIZE", None)
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for every
    # process, so the worker's "ready" stamp is comparable with this one
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise BenchmarkError("worker failed during set-up "
                             "(is the hypersat package under src/?)")
    setup = float(lines[0].split()[1]) - start
    if proc.returncode != 0 or len(lines) < 2:
        return {"crashed": f"worker exited with {proc.returncode}",
                "setup_s": setup}
    report = json.loads(lines[-1])
    report["setup_s"] = setup
    return report


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               cases: list, breaking: str | None = None) -> list:
    """Run a checking pass, then passes for `seconds`; return the reports.

    The first pass runs the reference checks and is timed like the others;
    the `seconds` window starts after it.  Without tracing at least
    MIN_PASSES run in all; with tracing, untraced and traced passes
    alternate, at least two of each.
    """
    begin = time.perf_counter()
    window = None
    reports = []
    longest = 0.0
    while True:
        now = time.perf_counter()
        traced = trace and len(reports) % 2 == 1
        enough = len(reports) >= (4 if trace else MIN_PASSES)
        if enough and now - window >= seconds:
            break
        if reports and now - begin + longest > RUN_LIMIT_S:
            break
        job = {"workload": workload, "seed": seed, "cases": cases,
               "check": not reports, "trace": traced, "break": breaking}
        report = run_pass(job)
        longest = max(longest, time.perf_counter() - now)
        report["traced"] = traced
        report["checked"] = not reports
        reports.append(report)
        if window is None:
            window = time.perf_counter()
    return reports


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def scale(row: dict) -> float:
    """Calibration factor of one case row: reference over measured speed."""
    return CALIBRATION_REF_S / row["cal"]


def case_times(reports: list, traced: bool, raw: bool = False) -> dict:
    """case id -> its calibrated (or raw) times over the untraced (or
    traced) passes."""
    times: dict = {}
    for rep in reports:
        if rep["traced"] != traced or "crashed" in rep:
            continue
        for cid, row in rep["cases"].items():
            if "t" in row:
                times.setdefault(cid, []).append(
                    row["t"] * (1.0 if raw else scale(row)))
    return times


def setup_times(reports: list, raw: bool = False) -> list:
    """Set-up time of each pass, calibrated by the samples taken right
    after it."""
    return [r["setup_s"] * (1.0 if raw or "setup_cal" not in r
                            else CALIBRATION_REF_S / r["setup_cal"])
            for r in reports]


def summed_median(times: dict, ids=None) -> float:
    """Sum over cases of each case's median time: one pass's time, robust
    to a burst of host slowness that hits some cases of a single pass."""
    return float(sum(_median(ts) for cid, ts in times.items()
                     if ids is None or cid in ids))


def tally(reports: list, cases: list):
    """(attempted, failed, first errors): a case fails in a pass when it
    raised, failed a check, or its output differs from the first pass."""
    ids = [c["id"] for c in cases]
    reference = reports[0].get("cases", {})
    attempted = failed = 0
    errors = []
    for k, rep in enumerate(reports):
        for cid in ids:
            attempted += 1
            row = rep.get("cases", {}).get(cid)
            problem = None
            if row is None:
                problem = rep.get("crashed", "case missing from report")
            elif row.get("errors"):
                problem = "; ".join(row["errors"])
            elif row.get("digest") != reference.get(cid, {}).get("digest"):
                problem = f"output differs from the first pass (pass {k})"
            if problem is not None:
                failed += 1
                if len(errors) < 10:
                    errors.append(f"{cid}: {problem}")
    return attempted, failed, errors


def end_to_end_metrics(reports: list) -> dict:
    untraced = [r for r in reports if not r["traced"]]
    rss = [r["rss_mb"] for r in untraced
           if not r["checked"] and "rss_mb" in r]
    return {
        "wall_s": {"value": summed_median(case_times(reports, False)),
                   "unit": "s"},
        "setup_s": {"value": _median(setup_times(reports)), "unit": "s"},
        "peak_rss_mb": {"value": _median(rss), "unit": "MB"},
    }


def class_times(reports: list) -> dict:
    """Untraced time on Found and on NoModelUpTo cases (oracle-search)."""
    first = reports[0].get("cases", {})
    times = case_times(reports, False)
    found = {cid for cid, row in first.items() if row.get("outcome") == "found"}
    refuted = {cid for cid, row in first.items()
               if row.get("outcome") == "no-model"}
    return {"witness_s": summed_median(times, found),
            "refute_s": summed_median(times, refuted)}


def output_bytes(reports: list) -> dict:
    rows = reports[0].get("cases", {}).values()
    return {"smtlib_bytes": sum(r.get("smtlib_bytes", 0) for r in rows),
            "tptp_bytes": sum(r.get("tptp_bytes", 0) for r in rows)}


# per-layer metric -> (source, span or counter name, unit); a span's
# source is its self time (0) or its inclusive time (1)
LAYER_METRICS = {
    "formula.parse_s": (0, "formula.parse", "s"),
    "formula.nnf_s": (0, "formula.nnf", "s"),
    "automaton.tableau_s": (0, "automaton.tableau", "s"),
    "automaton.states": ("counts", "automaton.states", "count"),
    "automaton.edges": ("counts", "automaton.edges", "count"),
    "encoder.encode_s": (0, "encoder.encode", "s"),
    "encoder.fol_nodes": ("counts", "encoder.fol_nodes", "count"),
    "emit.smtlib_s": (0, "emit.smtlib", "s"),
    "emit.tptp_s": (0, "emit.tptp", "s"),
    "oracle.search_s": (1, "oracle.search", "s"),
    "oracle.enumerate_s": (0, "oracle.search", "s"),
    "oracle.candidates": ("counts", "oracle.candidates", "count"),
    "oracle.quantifier_s": (0, "oracle.quantifier", "s"),
    "oracle.body_value_s": (0, "oracle.body_value", "s"),
    "oracle.body_evals": ("counts", "oracle.body_evals", "count"),
    "oracle.selfcheck_s": (1, "oracle.selfcheck", "s"),
    "kernel.compile_s": (0, "kernel.compile", "s"),
    "kernel.evals": ("counts", "kernel.evals", "count"),
    "kernel.eval_s": (0, "kernel.eval", "s"),
    "kernel.node_positions": ("counts", "kernel.node_positions", "count"),
}


def traced_pass_layers(rep: dict) -> dict:
    """One traced pass: every layer metric, plus the calibrated case time
    that no span covers."""
    trace = rep["trace"]
    values = {}
    unattributed = 0.0
    for cid, row in rep["cases"].items():
        if "t" not in row:
            continue
        spans = trace["per_case"].get(cid, {})
        factor = scale(row)
        for name, (source, key, _) in LAYER_METRICS.items():
            if source != "counts" and key in spans:
                values[name] = values.get(name, 0.0) + spans[key][source] * factor
        unattributed += (row["t"] - sum(own for own, _ in spans.values())) * factor
    for name, (source, key, _) in LAYER_METRICS.items():
        if source == "counts":
            values[name] = trace["counts"].get(key, 0)
    values["trace.unattributed_s"] = unattributed
    return values


def per_layer_metrics(reports: list) -> dict:
    passes = [traced_pass_layers(r) for r in reports
              if r["traced"] and "trace" in r]
    units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
    units["trace.unattributed_s"] = "s"
    metrics = {name: {"value": _median([p.get(name, 0) for p in passes]),
                      "unit": unit}
               for name, unit in units.items()}
    evals = metrics["oracle.body_evals"]["value"]
    kernel_evals = metrics["kernel.evals"]["value"]
    metrics["oracle.memo_hit_ratio"] = {
        "value": 1.0 - kernel_evals / evals if evals else 0.0, "unit": "ratio"}
    for name, value in {**output_bytes(reports), **class_times(reports)}.items():
        metrics[name] = {"value": value,
                         "unit": "bytes" if name.endswith("_bytes") else "s"}
    untraced_wall = summed_median(case_times(reports, False))
    traced_wall = summed_median(case_times(reports, True))
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - untraced_wall,
                                   "unit": "s"}
    return metrics


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """Content hash of the package sources, for checkouts without .git."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "hypersat").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, cases: list, reports: list) -> dict:
    versions = next((r["versions"] for r in reports if "versions" in r), {})
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(ROOT), "source_digest": source_digest(ROOT),
        "inputs_digest": workloads.digest(cases), "cases": len(cases),
        "passes": len(reports), "nproc": os.cpu_count(), **versions,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool,
            cases: list, breaking: str | None = None):
    """Run a workload; return (result line, passes' reports, first errors)."""
    reports = run_passes(workload, seed, seconds, trace, cases, breaking)
    attempted, failed, errors = tally(reports, cases)
    metrics = per_layer_metrics(reports) if trace else end_to_end_metrics(reports)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, reports, errors


def _detail(reports: list, trace: bool) -> dict:
    """Per-case times, and the uncalibrated totals next to the reported ones."""
    times = case_times(reports, trace)
    detail = {
        "case_s": {cid: _median(ts) for cid, ts in times.items()},
        "raw_wall_s": summed_median(case_times(reports, trace, raw=True)),
        "raw_setup_s": _median(setup_times(reports, raw=True)),
        "calibration_s": _median([row["cal"] for r in reports
                                  for row in r.get("cases", {}).values()
                                  if "cal" in row]),
    }
    if trace:
        per_case: dict = {}
        for rep in reports:
            if rep["traced"] and "trace" in rep:
                for cid, spans in rep["trace"]["per_case"].items():
                    per_case.setdefault(
                        cid, {name: own for name, (own, _) in spans.items()})
        detail["case_layer_self_s"] = per_case
    else:
        detail.update(class_times(reports))
        detail.update(output_bytes(reports))
    return detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("run.py: do not run under -O: the oracle's self-check is an "
              "assert", file=sys.stderr)
        return 2
    for needed in (ROOT / "src" / "hypersat" / "__init__.py",
                   ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"run.py: {needed.relative_to(ROOT)} is missing; run from "
                  "a full checkout of the repository", file=sys.stderr)
            return 2
    cases = workloads.load(args.workload, args.seed)
    try:
        result, reports, errors = measure(args.workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          cases)
    except BenchmarkError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for line in errors:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"provenance": provenance(args, cases, reports),
                      "detail": _detail(reports, bool(args.trace))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
