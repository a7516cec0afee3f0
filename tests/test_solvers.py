import logging
import re
import signal
import time
from dataclasses import replace

import pytest

from hypersat import solvers as S
from hypersat.emit import OutputFormat
from hypersat.solvers import (SolverConfig, SolverError, SolverNotFoundError,
                              SoundnessConflictError, Verdict, run_portfolio)

from conftest import make_stub_solver


def stub_config(directory, name: str, script: str,
                timeout_sec: float = 30.0) -> SolverConfig:
    path = make_stub_solver(directory, name, script)
    return SolverConfig(name, f"{path} {{input}}", "smtlib",
                        r"^sat\s*$", r"^unsat\s*$", timeout_sec)


def missing_config(name: str) -> SolverConfig:
    return SolverConfig(name, f"/nonexistent/{name} {{input}}", "smtlib",
                        r"^sat\s*$", r"^unsat\s*$")


@pytest.fixture
def problem(stub_dir):
    path = stub_dir / "problem.smt2"
    path.write_text("(check-sat)\n")
    return path


def test_first_decisive_verdict_wins(stub_dir, problem):
    cfgs = [stub_config(stub_dir, "slow", "sleep 30\necho sat\n"),
            stub_config(stub_dir, "fast", "echo unsat\n"),
            stub_config(stub_dir, "vague", "echo unknown\n")]
    started = time.monotonic()
    result = run_portfolio(cfgs, {"smtlib": problem})
    # the slow member's process group is killed, not waited for
    assert time.monotonic() - started < 15
    assert result.verdict is Verdict.UNSAT
    assert result.solver == "fast"


def test_disagreement_raises(stub_dir, problem):
    # both verdicts are printed long before either member exits, so the
    # member killed by the first one's cancel still reports its verdict
    cfgs = [stub_config(stub_dir, "yes", "echo sat\nsleep 2\n"),
            stub_config(stub_dir, "no", "echo unsat\nsleep 2\n")]
    with pytest.raises(SoundnessConflictError):
        run_portfolio(cfgs, {"smtlib": problem})


def test_timeout_gives_unknown(stub_dir, problem, caplog):
    cfg = stub_config(stub_dir, "sleeper", "sleep 30\necho sat\n",
                      timeout_sec=0.5)
    started = time.monotonic()
    with caplog.at_level(logging.INFO, logger=S.__name__):
        result = run_portfolio([cfg], {"smtlib": problem})
    assert time.monotonic() - started < 15
    assert result.verdict is Verdict.UNKNOWN
    # an undecided portfolio reports itself; the member's detail is logged
    assert re.search(r"solver sleeper: unknown in [\d.]+s \(timeout\)$",
                     caplog.text, re.M)


def test_verdict_printed_before_a_timeout_is_kept(stub_dir, problem):
    cfg = stub_config(stub_dir, "hanger", "echo sat\nsleep 30\n",
                      timeout_sec=0.5)
    started = time.monotonic()
    result = run_portfolio([cfg], {"smtlib": problem})
    assert time.monotonic() - started < 5
    assert result.verdict is Verdict.SAT
    assert result.detail == "timeout"


def test_disagreement_before_timeouts_raises(stub_dir, problem):
    # both members print a verdict and hang: the first is killed at its
    # timeout, and its verdict kills the second, which keeps its own
    cfgs = [stub_config(stub_dir, "yes", "echo sat\nsleep 30\n",
                        timeout_sec=2),
            stub_config(stub_dir, "no", "echo unsat\nsleep 30\n",
                        timeout_sec=5)]
    started = time.monotonic()
    with pytest.raises(SoundnessConflictError):
        run_portfolio(cfgs, {"smtlib": problem})
    assert time.monotonic() - started < 15


def test_unmatched_output_gives_unknown(stub_dir, problem, caplog):
    cfg = stub_config(stub_dir, "chatty", "echo 'satisfiable, maybe'\n"
                                          "echo 'unsat core: none'\n")
    with caplog.at_level(logging.INFO, logger=S.__name__):
        result = run_portfolio([cfg], {"smtlib": problem})
    assert result.verdict is Verdict.UNKNOWN
    assert result.solver == "portfolio"
    assert result.detail == ""
    # the member finished by itself: no detail
    assert re.search(r"solver chatty: unknown in [\d.]+s$", caplog.text,
                     re.M)


def test_missing_member_is_skipped(stub_dir, problem):
    cfgs = [missing_config("absent"),
            stub_config(stub_dir, "present", "echo sat\n")]
    with pytest.raises(SolverNotFoundError):
        run_portfolio(cfgs[:1], {"smtlib": problem})
    result = run_portfolio(cfgs, {"smtlib": problem})
    assert result.verdict is Verdict.SAT
    assert result.solver == "present"


def test_all_members_missing_raises(problem):
    with pytest.raises(SolverNotFoundError):
        run_portfolio([missing_config("absent1"), missing_config("absent2")],
                      {"smtlib": problem})


def test_unknown_format_is_rejected():
    # checked when the config is read, before any problem is written
    with pytest.raises(SolverError, match="smt2"):
        SolverConfig("typo", "true {input}", "smt2", r"^sat\s*$", r"^unsat\s*$")


def test_config_formats_are_the_output_formats():
    # pipeline.solve emits each member's format as OutputFormat(name)
    assert S.FORMATS == tuple(f.value for f in OutputFormat)


@pytest.mark.parametrize("timeout", [-1.0, 0.0, float("nan"), float("inf")])
def test_bad_timeout_is_rejected(timeout):
    with pytest.raises(SolverError, match="timeout"):
        SolverConfig("slow", "true {input}", "smtlib", r"^sat\s*$",
                     r"^unsat\s*$", timeout)


def test_member_that_cannot_start_raises(stub_dir, problem):
    # executable, but without a shebang line the kernel cannot run it
    path = stub_dir / "broken"
    path.write_text("echo sat\n")
    path.chmod(0o755)
    cfg = SolverConfig("broken", f"{path} {{input}}", "smtlib", r"^sat\s*$",
                       r"^unsat\s*$")
    # alone, beside a missing member, or beside one that answers at once:
    # every member is started, so the broken one is reported however the
    # race goes
    fast = stub_config(stub_dir, "fast", "echo sat\n")
    runs = [lambda others=others: run_portfolio([*others, cfg],
                                                {"smtlib": problem})
            for others in [[], [missing_config("absent")]] + [[fast]] * 10]
    for run in runs:
        with pytest.raises(SolverError, match="broken") as caught:
            run()
        assert not isinstance(caught.value, SolverNotFoundError)


def test_member_that_cannot_start_stops_the_others(stub_dir, problem,
                                                   monkeypatch):
    # every member is started before any is waited for, so the broken one
    # is reported at once, and the sleeper started before it is killed
    # and reaped
    procs = []
    real_start = S._start

    def start(*args):
        procs.append(real_start(*args))
        return procs[-1]
    monkeypatch.setattr(S, "_start", start)
    sleeper = stub_config(stub_dir, "sleeper", "sleep 30\n")
    path = stub_dir / "broken"
    path.write_text("echo sat\n")
    path.chmod(0o755)
    broken = SolverConfig("broken", f"{path} {{input}}", "smtlib",
                          r"^sat\s*$", r"^unsat\s*$")
    started = time.monotonic()
    with pytest.raises(SolverError, match="broken"):
        run_portfolio([sleeper, broken], {"smtlib": problem})
    assert time.monotonic() - started < 5
    assert [proc.returncode for proc in procs] == [-signal.SIGKILL]


def test_member_killed_by_a_verdict_logs_cancelled(stub_dir, problem,
                                                     caplog):
    cfgs = [stub_config(stub_dir, "sleeper", "sleep 30\n"),
            stub_config(stub_dir, "fast", "echo sat\n")]
    with caplog.at_level(logging.INFO, logger=S.__name__):
        result = run_portfolio(cfgs, {"smtlib": problem})
    assert result.solver == "fast"
    lines = {r.getMessage().split(":")[0]: r.getMessage()
             for r in caplog.records}
    assert lines["solver sleeper"].endswith("(cancelled)")
    assert not lines["solver fast"].endswith(")")


def test_timeouts_render_rounded_up():
    # a sub-second timeout reaches every default prover as a positive
    # limit; a whole number of seconds renders as itself
    for cfg in S.DEFAULT_SOLVERS:
        for timeout, seconds, ms in ((0.5, "1", "500"), (60.0, "60", "60000")):
            argv = replace(cfg, timeout_sec=timeout).argv("problem")
            limits = re.findall(r"\d+", " ".join(argv[1:]))
            assert limits == [ms if "{timeout_ms}" in cfg.command
                              else seconds], cfg.name
