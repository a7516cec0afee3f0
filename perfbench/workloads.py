"""Workload inputs: the frozen case files and the seeded liveness generator.

A case is a plain dict that the worker process receives as JSON:
``id``, ``text`` (formula in concrete syntax), ``encoding`` for the emit
workloads, and ``expected`` plus ``bounds`` for oracle-search.  The program
under test only ever sees ``text``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

INPUTS = Path(__file__).resolve().parent / "inputs"

WORKLOADS = ("safety-emit", "liveness-emit", "oracle-search")

# liveness-emit: bodies drawn from the grammar of the package's random
# family with until/eventually allowed, over two APs
LIVENESS_CASES = 600
LIVENESS_BODY_SIZE = 12
LIVENESS_APS = ("a", "b")
LIVENESS_STRATA = (1, 2, 3, 4)
LIVENESS_PREFIXES = (("forall", "exists"), ("exists", "forall"),
                     ("forall", "forall", "exists"), ("exists", "exists"))


def _fields(name: str):
    for line in (INPUTS / name).read_text().splitlines():
        if line.strip():
            yield line.split("\t")


def safety_emit_cases() -> list:
    return [{"id": cid, "text": text, "encoding": "auto"}
            for cid, text in _fields("safety_emit.txt")]


def oracle_search_cases() -> list:
    cases = []
    for cid, expected, bounds, text in _fields("oracle_search.txt"):
        cases.append({"id": f"{cid}@{bounds}", "text": text,
                      "expected": expected,
                      "bounds": [int(b) for b in bounds.split(",")]})
    return cases


def random_body(rng: random.Random, size: int, variables):
    """Random LTL body text of `size` nodes, and its count of until and
    eventually operators.  Every binary node is wrapped in parentheses, as
    the package's printer does."""
    unary = ("X", "G", "F")
    binary = ("&", "|", "W", "R", "U")
    live = 0

    def literal() -> str:
        atom = f'"{rng.choice(LIVENESS_APS)}"_{rng.choice(variables)}'
        return f"! {atom}" if rng.random() < 0.5 else atom

    def gen(n: int) -> str:
        nonlocal live
        if n <= 1:
            return literal()
        if n == 2 or rng.random() < 0.4:
            op = rng.choice(unary)
            live += op == "F"
            return f"{op} {gen(n - 1)}"
        left = rng.randint(1, n - 2)
        op = rng.choice(binary)
        live += op == "U"
        return f"({gen(left)} {op} {gen(n - 1 - left)})"

    return gen(size), live


def liveness_emit_cases(seed: int, count: int = LIVENESS_CASES,
                        size: int = LIVENESS_BODY_SIZE) -> list:
    """Seeded random bodies, stratified by their number of until/eventually
    operators, which set the automaton's acceptance counter and most of a
    body's cost: each prefix shape gets every count in LIVENESS_STRATA
    equally often, so one seed's total work stays close to another's."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        quants = LIVENESS_PREFIXES[k % len(LIVENESS_PREFIXES)]
        variables = [f"p{i + 1}" for i in range(len(quants))]
        prefix = " ".join(f"{q} {v}." for q, v in zip(quants, variables))
        want = LIVENESS_STRATA[k // len(LIVENESS_PREFIXES)
                               % len(LIVENESS_STRATA)]
        while True:
            body, live = random_body(rng, size, variables)
            if live == want:
                break
        cases.append({"id": f"live_{seed}_{k}", "text": f"{prefix} {body}",
                      "encoding": "lia"})
    return cases


def load(workload: str, seed: int) -> list:
    if workload == "safety-emit":
        return safety_emit_cases()
    if workload == "liveness-emit":
        return liveness_emit_cases(seed)
    if workload == "oracle-search":
        return oracle_search_cases()
    raise ValueError(f"unknown workload {workload!r}")


def digest(cases: list) -> str:
    """Short content hash of a workload's inputs, printed with every run."""
    blob = json.dumps(cases, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
