"""Write the fixed workload inputs from the package's bench families.

The benchmark reads formulas only from the files this script writes, so a
later edit to ``hypersat.bench`` cannot change a workload.  Run it from the
repository root, only when the benchmark's inputs are meant to change:

    PYTHONPATH=src python3 perfbench/freeze.py

Each line is tab-separated.  ``safety_emit.txt``: case id, formula.
``oracle_search.txt``: case id, expected outcome (``found`` or
``no-model``), bounds ``max_traces,max_stem,max_loop``, formula.  Formulas
are printed with ``formula.pretty``; the run checks that they parse back.
"""

from __future__ import annotations

from pathlib import Path

from hypersat import bench
from hypersat.formula import parse, pretty

INPUTS = Path(__file__).resolve().parent / "inputs"

# every qn case with n = 1 or m = 1; the other nine spend seconds to minutes
# in the tableau and would dominate the workload
QN_KEPT = {f"qn_{n}_implies_{m}" for n in range(1, 5) for m in range(1, 5)
           if n == 1 or m == 1}

ORACLE_CASES = [
    # (case id, expected, (max_traces, max_stem, max_loop))
    ("enforce_model_2_1", "found", (2, 1, 2)),
    ("enforce_model_3_2", "found", (3, 1, 2)),
    ("enforce_model_4_2", "found", (4, 1, 2)),
    ("enforce_model_4_2", "found", (4, 2, 2)),
    ("gni_implies_ni_1", "found", (2, 1, 2)),
    ("gni_implies_ni_2", "found", (2, 1, 2)),
    ("gni_implies_ni_3", "found", (2, 1, 2)),
    ("gni_leak", "found", (2, 1, 2)),
    ("qn_2_implies_1", "found", (2, 0, 1)),
    ("qn_3_implies_1", "found", (2, 0, 1)),
    ("qn_4_implies_1", "found", (2, 0, 1)),
    ("qn_3_implies_2", "found", (3, 0, 1)),
    # family-UNSAT: no bound can produce a model
    ("enforce_model_3_1", "no-model", (3, 1, 2)),
    ("enforce_model_5_2", "no-model", (5, 1, 2)),
    ("unsat_0", "no-model", (2, 1, 2)),
    ("unsat_1", "no-model", (2, 1, 2)),
    ("unsat_2", "no-model", (2, 1, 2)),
    ("ni_leak2", "no-model", (2, 0, 2)),
    ("anon_leak", "no-model", (2, 0, 1)),
    ("qn_1_implies_1", "no-model", (2, 0, 1)),
]


def _text(case) -> str:
    text = pretty(case.formula)
    if parse(text) != case.formula:
        raise SystemExit(f"{case.id}: pretty/parse round trip is not exact")
    return text


def main() -> None:
    cases = {c.id: c for family in bench.FAMILIES.values() for c in family()}
    safety = [c for c in cases.values()
              if c.family != "qn" or c.id in QN_KEPT]
    INPUTS.mkdir(exist_ok=True)
    (INPUTS / "safety_emit.txt").write_text(
        "".join(f"{c.id}\t{_text(c)}\n" for c in safety))
    (INPUTS / "oracle_search.txt").write_text("".join(
        f"{cid}\t{expected}\t{','.join(map(str, bounds))}\t{_text(cases[cid])}\n"
        for cid, expected, bounds in ORACLE_CASES))
    print(f"wrote {len(safety)} safety-emit and {len(ORACLE_CASES)} "
          f"oracle-search cases to {INPUTS}")


if __name__ == "__main__":
    main()
