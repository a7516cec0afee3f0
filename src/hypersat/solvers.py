"""External solver invocation: portfolios of solver processes.

Solver definitions are data, not code: a command template plus verdict
regexes, loaded from an INI-style config file (section per solver) or taken
from the built-in defaults for the usual FOL/SMT provers.  Every solver is
optional at runtime; a missing binary raises SolverNotFoundError, which is
distinct from an Unknown verdict so callers can skip instead of fail.

A portfolio starts every member, an OS process on the problem file in its
own format, before it waits for any.  The first decisive verdict wins and
kills the members still running (whole process groups, so no orphans
survive).  Conflicting decisive verdicts are never resolved silently: they
raise SoundnessConflictError.
"""

from __future__ import annotations

import configparser
import logging
import math
import os
import re
import shlex
import shutil
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

from .fol import Verdict

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT = 60.0
CONFIG_ENV_VAR = "HYPERSAT_SOLVER_CONFIG"

_SZS_SAT = r"SZS status (Satisfiable|CounterSatisfiable)"
_SZS_UNSAT = r"SZS status (Unsatisfiable|Theorem|ContradictoryAxioms)"

FORMATS = ("smtlib", "tptp")


class SolverError(Exception):
    pass


class SolverNotFoundError(SolverError):
    """The solver binary is not installed; callers may skip, not fail."""


class SoundnessConflictError(SolverError):
    """Two portfolio members decided SAT and UNSAT on the same problem."""


@dataclass(frozen=True)
class SolverConfig:
    name: str
    command: str  # template with {input}, {timeout}, {timeout_ms}
    format: str  # one of FORMATS
    sat_regex: str
    unsat_regex: str
    timeout_sec: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not self.command.strip():
            raise SolverError(f"solver {self.name}: empty command template")
        if self.format not in FORMATS:
            raise SolverError(f"solver {self.name}: unknown format "
                              f"{self.format!r} (expected smtlib or tptp)")
        if not 0 < self.timeout_sec < float("inf"):  # false for nan too
            raise SolverError(f"solver {self.name}: timeout "
                              f"{self.timeout_sec!r} is not finite and > 0")
        for pattern in (self.sat_regex, self.unsat_regex):
            try:
                re.compile(pattern)
            except re.error as exc:
                raise SolverError(
                    f"solver {self.name}: bad verdict regex {pattern!r}: {exc}"
                ) from exc

    def argv(self, problem_file: str) -> list:
        rendered = self.command.format(
            input=str(problem_file),
            timeout=math.ceil(self.timeout_sec),
            timeout_ms=math.ceil(self.timeout_sec * 1000),
        )
        return shlex.split(rendered)


@dataclass(frozen=True)
class SolverResult:
    verdict: Verdict
    solver: str
    elapsed: float
    detail: str = ""


DEFAULT_SOLVERS = (
    SolverConfig("z3", "z3 -T:{timeout} {input}", "smtlib",
                 r"^sat\s*$", r"^unsat\s*$"),
    SolverConfig("cvc5",
                 "cvc5 --tlimit={timeout_ms} --finite-model-find {input}",
                 "smtlib", r"^sat\s*$", r"^unsat\s*$"),
    SolverConfig("vampire", "vampire --input_syntax tptp -t {timeout} {input}",
                 "tptp", _SZS_SAT, _SZS_UNSAT),
    SolverConfig("eprover", "eprover --auto -s --cpu-limit={timeout} {input}",
                 "tptp", _SZS_SAT, _SZS_UNSAT),
    SolverConfig("iprover", "iproveropt --time_out_real {timeout} {input}",
                 "tptp", _SZS_SAT, _SZS_UNSAT),
    SolverConfig("paradox", "paradox --time {timeout} {input}", "tptp",
                 r"RESULT: Satisfiable", r"RESULT: Unsatisfiable"),
)


def load_solver_configs(path=None) -> list:
    """Solver configs from a file, the env-var override, or the defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return list(DEFAULT_SOLVERS)
    parser = configparser.ConfigParser()
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise SolverError(f"cannot read solver config: {exc}") from exc
    except configparser.Error as exc:
        raise SolverError(f"malformed solver config {path}: {exc}") from exc
    configs = []
    for section in parser.sections():
        sec = parser[section]
        if "command" not in sec:
            raise SolverError(f"solver {section}: no command in {path}")
        configs.append(SolverConfig(
            name=section,
            command=sec["command"],
            format=sec.get("format", "smtlib"),
            sat_regex=sec.get("sat_regex", r"^sat\s*$"),
            unsat_regex=sec.get("unsat_regex", r"^unsat\s*$"),
            timeout_sec=float(sec.get("timeout_sec", DEFAULT_TIMEOUT)),
        ))
    if not configs:
        raise SolverError(f"no solver sections in {path}")
    return configs


def _classify(output: str, cfg: SolverConfig) -> Verdict:
    sat_re = re.compile(cfg.sat_regex)
    unsat_re = re.compile(cfg.unsat_regex)
    for line in output.splitlines():
        if unsat_re.search(line):
            return Verdict.UNSAT
        if sat_re.search(line):
            return Verdict.SAT
    return Verdict.UNKNOWN


def _start(cfg: SolverConfig, problem_file) -> subprocess.Popen:
    """Start one solver on a problem file, in a process group of its own."""
    argv = cfg.argv(problem_file)
    if shutil.which(argv[0]) is None:
        raise SolverNotFoundError(f"{cfg.name}: binary {argv[0]!r} not found")
    try:
        return subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True,
                                start_new_session=True)
    except OSError as exc:
        raise SolverError(f"{cfg.name}: cannot start: {exc}") from exc


def _kill_group(proc: subprocess.Popen):
    if proc.poll() is None:  # a reaped process's id may be reused already
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _wait(cfg: SolverConfig, proc: subprocess.Popen,
          started: float) -> SolverResult:
    """Wait for a started solver, enforcing its timeout, and classify it.

    A solver killed at its timeout (detail "timeout") or by a portfolio
    keeps any verdict it printed before; one killed by a portfolio without
    a verdict is Unknown with detail "cancelled"."""
    detail = ""
    try:
        output, _ = proc.communicate(timeout=cfg.timeout_sec)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        output, _ = proc.communicate()
        detail = "timeout"
    verdict = _classify(output or "", cfg)
    if verdict is Verdict.UNKNOWN and proc.returncode == -signal.SIGKILL:
        detail = detail or "cancelled"
    return SolverResult(verdict, cfg.name, time.monotonic() - started, detail)


def run_portfolio(cfgs, problem_files: dict) -> SolverResult:
    """Run all solvers at once; the first SAT/UNSAT wins.

    problem_files maps each member's format name to its problem file.
    Every member is started, in config order, before any is waited for:
    one with a missing binary is skipped with a warning (SolverNotFoundError
    if none starts), and one that cannot start raises SolverError at once,
    after the started ones are killed.  The first decisive verdict kills
    the members not yet reaped; each keeps any verdict printed before, as
    does a member killed at its own timeout.  A
    SAT/UNSAT disagreement raises SoundnessConflictError, and otherwise a
    member's exception is raised once every member has finished.
    """
    cfgs = list(cfgs)
    started = time.monotonic()
    members = []  # (config, process), in config order
    for cfg in cfgs:
        try:
            members.append((cfg, _start(cfg, problem_files[cfg.format])))
        except SolverNotFoundError as exc:
            log.warning("skipping solver %s: %s", cfg.name, exc)
        except BaseException:
            for _, proc in members:
                _kill_group(proc)
                proc.communicate()
            raise
    if not members:
        raise SolverNotFoundError(
            "no configured solver is installed: "
            + ", ".join(cfg.name for cfg in cfgs))

    decisive, failures = [], []

    def wait(cfg: SolverConfig, proc: subprocess.Popen):
        try:
            result = _wait(cfg, proc, started)
        except Exception as exc:  # raised in the caller's thread below
            failures.append(exc)
            return
        log.info("solver %s: %s in %.2fs%s", cfg.name, result.verdict.value,
                 result.elapsed,
                 f" ({result.detail})" if result.detail else "")
        if result.verdict is not Verdict.UNKNOWN:
            decisive.append(result)
            for _, other in members:
                _kill_group(other)

    waiters = [threading.Thread(target=wait, args=member, daemon=True)
               for member in members]
    for waiter in waiters:
        waiter.start()
    for waiter in waiters:
        waiter.join()

    verdicts = {r.verdict for r in decisive}
    if Verdict.SAT in verdicts and Verdict.UNSAT in verdicts:
        detail = ", ".join(f"{r.solver}={r.verdict.value}" for r in decisive)
        raise SoundnessConflictError(f"portfolio disagreement: {detail}")
    if failures:
        raise failures[0]
    if decisive:
        return decisive[0]
    return SolverResult(Verdict.UNKNOWN, "portfolio",
                        time.monotonic() - started)
