"""Self-test of the benchmark on a small slice of each workload.

    python3 perfbench/selftest.py

Run from the repository root; takes about a minute.  For each workload it
checks that:

* the printed metric names equal BENCHMARK.json's end_to_end names (trace
  off) and per_layer names (trace on);
* the slice runs with no failed case, and two runs give identical output
  digests and identical deterministic counts;
* the traced run reaches the layers the workload is meant to use, and no
  others;
* a deliberately broken reference makes cases fail: a flipped expected
  outcome on oracle-search, one dropped automaton edge on the emit
  workloads.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent

SEED = 7
SLICES = {
    "safety-emit": lambda: [c for c in workloads.safety_emit_cases()
                            if c["id"] in {"enforce_model_2_1", "unsat_1",
                                           "gni_leak", "ni_leak2"}],
    "liveness-emit": lambda: workloads.liveness_emit_cases(SEED)[:8],
    "oracle-search": lambda: [c for c in workloads.oracle_search_cases()
                              if c["id"] in {"enforce_model_2_1@2,1,2",
                                             "unsat_0@2,1,2",
                                             "qn_2_implies_1@2,0,1"}],
}
BREAK = {"safety-emit": "edge", "liveness-emit": "edge",
         "oracle-search": "expected"}

# counts that depend only on the inputs and the code, never on timing
DETERMINISTIC = ("automaton.states", "automaton.edges", "encoder.fol_nodes",
                 "smtlib_bytes", "tptp_bytes", "oracle.candidates",
                 "oracle.body_evals", "kernel.evals", "kernel.node_positions")
# layers each workload must reach, and layers it must not
USED = {
    "emit": ("formula.parse_s", "formula.nnf_s", "automaton.tableau_s",
             "automaton.states", "encoder.encode_s", "encoder.fol_nodes",
             "emit.smtlib_s", "emit.tptp_s", "smtlib_bytes"),
    "oracle": ("formula.parse_s", "oracle.search_s", "oracle.candidates",
               "oracle.body_evals", "kernel.compile_s", "kernel.evals",
               "oracle.selfcheck_s"),
}
UNUSED = {
    "emit": ("oracle.search_s", "oracle.candidates", "kernel.evals"),
    "oracle": ("automaton.tableau_s", "automaton.states", "encoder.fol_nodes",
               "emit.smtlib_s", "smtlib_bytes"),
}


class SelfTest:
    def __init__(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.end_to_end = {m["name"] for m in spec["end_to_end"]}
        self.per_layer = {m["name"] for m in spec["per_layer"]}
        self.failures = 0

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        self.failures += not ok

    def workload(self, name: str) -> None:
        cases = SLICES[name]()
        kind = "oracle" if name == "oracle-search" else "emit"

        plain = [run.measure(name, SEED, 0, False, cases) for _ in range(2)]
        result, reports, errors = plain[0]
        self.expect(set(result["metrics"]) == self.end_to_end,
                    f"{name}: end-to-end metric names match BENCHMARK.json")
        self.expect(result["failed"] == 0 and result["correct"],
                    f"{name}: no failed case {errors}")
        digests = [{cid: row.get("digest")
                    for cid, row in reps[0]["cases"].items()}
                   for _, reps, _ in plain]
        self.expect(digests[0] == digests[1] and len(digests[0]) == len(cases),
                    f"{name}: output digests repeat across runs")

        traced = [run.measure(name, SEED, 0, True, cases)[0]["metrics"]
                  for _ in range(2)]
        self.expect(set(traced[0]) == self.per_layer,
                    f"{name}: per-layer metric names match BENCHMARK.json")
        same = [m for m in DETERMINISTIC
                if traced[0][m]["value"] != traced[1][m]["value"]]
        self.expect(not same, f"{name}: deterministic counts repeat {same}")
        idle = [m for m in USED[kind] if not traced[0][m]["value"] > 0]
        self.expect(not idle, f"{name}: traced layers reached {idle}")
        stray = [m for m in UNUSED[kind] if traced[0][m]["value"] != 0]
        self.expect(not stray, f"{name}: no stray layer activity {stray}")

        broken, _, _ = run.measure(name, SEED, 0, False, cases, BREAK[name])
        self.expect(broken["failed"] > 0 and not broken["correct"],
                    f"{name}: broken reference ({BREAK[name]}) fails "
                    f"{broken['failed']} of {broken['attempted']}")


def main() -> int:
    test = SelfTest()
    for name in workloads.WORKLOADS:
        test.workload(name)
    print("self-test passed" if not test.failures
          else f"self-test: {test.failures} check(s) failed")
    return 1 if test.failures else 0


if __name__ == "__main__":
    sys.exit(main())
