"""Exit codes of the command-line entry point.

Verdicts exit 0/1/2 (SAT/UNSAT/UNKNOWN), a bench verdict mismatch 3, usage
errors (a formula that does not parse among them) 10 and internal errors
11.  Solvers are stub scripts named in a --config file, so no real solver
is needed.
"""

import csv
import io
import itertools
import time

import pytest

from hypersat import automaton, bench, cli, pipeline
from hypersat import formula as F
from hypersat import oracle as O
from hypersat import solvers as S
from hypersat.automaton import accepts_lasso
from hypersat.emit import OutputFormat, emit
from hypersat.encoder import EncoderError, EncodingKind

from conftest import make_stub_solver

PHI = 'exists p. G "a"_p'


def write_config(directory, scripts: dict, options: dict = None) -> str:
    """A solver config with one stub section per (name, script); options
    maps a name to more lines of its section."""
    sections = []
    for name, script in scripts.items():
        path = make_stub_solver(directory, name, script)
        sections.append(f"[{name}]\ncommand = {path} {{input}}\n"
                        + (options or {}).get(name, ""))
    config = directory / "solvers.ini"
    config.write_text("\n".join(sections))
    return str(config)


@pytest.mark.parametrize("answer, code", [("sat", cli.EXIT_SAT),
                                          ("unsat", cli.EXIT_UNSAT),
                                          ("unknown", cli.EXIT_UNKNOWN)])
def test_check_exits_with_the_verdict(stub_dir, capsys, answer, code):
    config = write_config(stub_dir, {"stub": f"echo {answer}\n"})
    assert cli.main(["check", "-f", PHI, "--config", config]) == code
    assert capsys.readouterr().out.splitlines()[-1] == answer.upper()


def test_bench_mismatch_exits_3(stub_dir):
    config = write_config(stub_dir, {"stub": "echo sat\n"})
    argv = ["bench", "--family", "unsat", "--max-workers", "1",
            "--config", config]
    assert cli.main(argv) == cli.EXIT_MISMATCH
    config = write_config(stub_dir, {"stub": "echo unsat\n"})
    assert cli.main(argv) == cli.EXIT_SAT


def test_portfolio_disagreement_exits_11(stub_dir):
    config = write_config(stub_dir, {"yes": "echo sat\nsleep 2\n",
                                     "no": "echo unsat\nsleep 2\n"})
    assert cli.main(["check", "-f", PHI, "--config", config]) \
        == cli.EXIT_INTERNAL
    # members of every format run in one portfolio, so an SMT-LIB member's
    # verdict does not hide a conflicting TPTP member's
    config = write_config(
        stub_dir, {"yes": "echo sat\nsleep 2\n",
                   "no": "echo 'SZS status Unsatisfiable'\nsleep 2\n"},
        {"no": "format = tptp\nunsat_regex = SZS status Unsatisfiable\n"})
    assert cli.main(["check", "-f", PHI, "--config", config]) \
        == cli.EXIT_INTERNAL


def test_config_timeout_holds_without_the_flag(stub_dir, capsys):
    config = write_config(stub_dir, {"sleeper": "sleep 30\necho sat\n"},
                          {"sleeper": "timeout_sec = 0.5\n"})
    started = time.monotonic()
    assert cli.main(["check", "-f", PHI, "--config", config]) \
        == cli.EXIT_UNKNOWN
    assert time.monotonic() - started < 10
    assert capsys.readouterr().out.splitlines()[-1] == "UNKNOWN"


def bench_rows(argv, capsys):
    """Exit code and CSV rows (by case id) of a bench run."""
    code = cli.main(argv)
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    return code, {row["id"]: row for row in rows}


def test_bench_conflict_is_a_row_and_a_failure(stub_dir, capsys):
    # one member per case answers sat and another unsat; the conflict of
    # each case is a row of its own and does not abort the table
    config = write_config(stub_dir, {"yes": "echo sat\nsleep 2\n",
                                     "no": "echo unsat\nsleep 2\n"})
    code, rows = bench_rows(["bench", "--family", "unsat", "--max-workers",
                             "6", "--config", config], capsys)
    assert code == cli.EXIT_MISMATCH
    assert sorted(rows) == sorted(c.id for c in bench.unsat_suite())
    assert {row["status"] for row in rows.values()} == {"conflict"}
    assert {row["verdict"] for row in rows.values()} == {""}


def test_bench_skip_rows_name_the_resolved_encoding(stub_dir, capsys):
    config = stub_dir / "solvers.ini"
    config.write_text(f"[absent]\ncommand = {stub_dir / 'absent'} {{input}}\n")
    code, rows = bench_rows(["bench", "--family", "unsat", "--max-workers",
                             "1", "--config", str(config)], capsys)
    assert code == cli.EXIT_SAT
    assert sorted(rows) == sorted(c.id for c in bench.unsat_suite())
    assert {(row["status"], row["encoding"]) for row in rows.values()} \
        == {("skip", "func")}


def test_emit_and_oracle_exit_codes(tmp_path, capsys):
    out = tmp_path / "problem.p"
    assert cli.main(["emit", "-f", PHI, "--format", "tptp",
                     "-o", str(out)]) == cli.EXIT_SAT
    assert out.read_text().endswith(").\n")
    assert cli.main(["oracle", "-f", PHI]) == cli.EXIT_SAT
    assert cli.main(["oracle", "-f", 'exists p. "a"_p & ! "a"_p']) \
        == cli.EXIT_UNKNOWN
    assert capsys.readouterr().out.splitlines()[-1] == "UNKNOWN"


@pytest.mark.parametrize("text", [
    "exists p. 0",
    F.pretty({c.id: c for c in bench.qn_suite()}["qn_1_implies_4"].formula),
], ids=["false", "qn_1_implies_4"])
@pytest.mark.parametrize("fmt", ["smtlib", "tptp"])
def test_emit_of_a_dead_initial_state(tmp_path, text, fmt):
    # the automaton has no states; the problem is still written out whole
    out = tmp_path / "problem"
    for encoding in ("func", "pred"):
        assert cli.main(["emit", "-f", text, "--format", fmt, "--encoding",
                         encoding, "-o", str(out)]) == cli.EXIT_SAT
        emitted = out.read_text()
        depth = 0
        for ch in emitted:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            assert depth >= 0
        assert depth == 0
        assert emitted.endswith("(check-sat)\n" if fmt == "smtlib"
                                else ").\n")
        assert ("false" if fmt == "smtlib" else "$false") in emitted


@pytest.mark.parametrize("config_text", [
    "",
    "[stub]\ncommand = true {input}\nsat_regex = (\n",
    "[stub]\nformat = smtlib\n",
    "no section header\n",
    "[stub]\ncommand = true {input}\nformat = smt2\n",
    "[stub]\ncommand = true {input}\ntimeout_sec = nan\n",
], ids=["empty", "bad-regex", "no-command", "malformed", "unknown-format",
        "nan-timeout"])
def test_bad_solver_config_is_a_usage_error(tmp_path, capsys, config_text):
    config = tmp_path / "solvers.ini"
    config.write_text(config_text)
    assert cli.main(["check", "-f", PHI, "--config", str(config)]) \
        == cli.EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_config_help_names_the_solvers_variable(capsys):
    # the parser is built without the solver machinery, so it spells out
    # the variable that the solvers read
    for command in ("check", "bench"):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--help"])
        assert f"${S.CONFIG_ENV_VAR})" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["gen", "qn", "-c", "0"],
    ["oracle", "-f", PHI, "--max-traces", "0"],
    ["check", "-f", PHI, "--emit-only", "-o", "out.smt2"],
    ["check", "-f", PHI, "--solver", "absent"],
    ["frobnicate"],
    ["emit", "-f", "exists p. (", "-o", "out.smt2"],
    ["check", "-f", "exists p. G ("],
    ["check", "-f", PHI, "--timeout", "-1"],
    ["check", "-f", PHI, "--timeout", "0"],
    ["check", "-f", PHI, "--timeout", "nan"],
    ["check", "-f", PHI, "--timeout", "inf"],
    ["check", "--file", "absent.hltl"],
    ["check", "-f", PHI, "--config", "absent.ini"],
    ["bench", "--family", "absent"],
], ids=["qn-bound", "oracle-bound", "emit-only", "unknown-solver",
        "unknown-command", "unparsable-emit", "unparsable-check",
        "negative-timeout", "zero-timeout", "nan-timeout", "inf-timeout",
        "missing-file", "missing-config", "unknown-family"])
def test_bad_arguments_are_usage_errors(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["oracle", "-f", PHI, "--max-loop", "30"],
    ["oracle", "-f", PHI, "--max-traces", "10", "--max-stem", "3",
     "--max-loop", "3"],
], ids=["position-cap", "enumeration-cap"])
def test_oracle_bounds_over_the_caps_are_usage_errors(capsys, argv):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "usage error:" in capsys.readouterr().err


def test_a_tableau_over_the_edge_cap_is_a_usage_error(tmp_path, monkeypatch,
                                                     capsys):
    # an until chain of six atoms makes 27 tableau edges
    monkeypatch.setattr(automaton, "EDGE_CAP", 20)
    chain = "forall p. " + " U ".join(f'"a{k}"_p' for k in range(6))
    out = tmp_path / "out.smt2"
    assert cli.main(["emit", "-f", chain, "-o", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines() == ["usage error: the tableau has more than 20 "
                                "edges"]
    assert not out.exists()
    monkeypatch.setattr(automaton, "EDGE_CAP", 27)
    assert cli.main(["emit", "-f", chain, "-o", str(out)]) == cli.EXIT_SAT


def test_oracle_rejects_more_variables_than_its_limit(capsys):
    # the kernel block has one axis per variable, and numpy takes 32 in all
    phi = " ".join(f"forall p{i}." for i in range(40)) + ' "a"_p0'
    assert cli.main(["oracle", "-f", phi]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "usage error:" in err and f"limit of {O._MAX_VARIABLES}" in err


def test_other_oracle_errors_are_internal_errors(monkeypatch, capsys):
    # an oracle error that is not about the bounds is the program's fault
    def fail(*args):
        raise O.SelfCheckError("the candidate failed the re-evaluation")

    monkeypatch.setattr(O, "bounded_find_model", fail)
    assert cli.main(["oracle", "-f", PHI]) == cli.EXIT_INTERNAL
    assert capsys.readouterr().err.splitlines() \
        == ["error: the candidate failed the re-evaluation"]


def test_member_that_cannot_start_is_a_usage_error(stub_dir, capsys):
    # a stub without a shebang line is executable but cannot be run; that
    # is a bad config, not a missing solver, even beside a missing member
    broken = stub_dir / "broken"
    broken.write_text("echo sat\n")
    broken.chmod(0o755)
    config = stub_dir / "solvers.ini"
    config.write_text(f"[broken]\ncommand = {broken} {{input}}\n"
                      f"[absent]\ncommand = {stub_dir / 'absent'} {{input}}\n")
    assert cli.main(["check", "-f", PHI, "--config", str(config)]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "broken" in err and "not installed" not in err


def test_emit_warns_when_a_liveness_body_is_read_as_safety(tmp_path, capsys):
    # func on F a: the automaton without acceptance accepts more words; the
    # problem is written as it is, with one warning line on stderr
    text = 'exists p. F "a"_p'
    out = tmp_path / "out.smt2"
    assert cli.main(["emit", "--encoding", "func", "-f", text,
                     "-o", str(out)]) == cli.EXIT_SAT
    phi = F.parse(text)
    assert out.read_text() == emit(
        pipeline.build_problem(phi, EncodingKind.FUNC_SAFETY),
        OutputFormat.SMTLIB2)
    err = capsys.readouterr().err
    assert err.count("\n") == err.count("(UNSAT only)\n") == 1
    assumed = pipeline.body_automaton(phi, EncodingKind.FUNC_SAFETY)
    nba = pipeline.body_automaton(phi, EncodingKind.LIA)
    assert assumed.accepting == ()
    assert assumed.edges == nba.edges
    (accepting,) = nba.accepting
    assert accepting < frozenset(nba.states)
    empty = [frozenset()]
    assert accepts_lasso(assumed, [], empty)
    assert not accepts_lasso(nba, [], empty)
    # a safe body, or lia, is encoded exactly: no warning
    for argv in (["--encoding", "func", "-f", PHI],
                 ["--encoding", "lia", "-f", text]):
        assert cli.main(["emit", "-o", str(out)] + argv) == cli.EXIT_SAT
        assert capsys.readouterr().err == ""


UNTIL_FALSE = 'exists p. "a"_p U 0'


def test_assume_safe_answers_unsat_only(stub_dir, capsys):
    # "a" U false denotes the empty language, yet the automaton without
    # acceptance sets accepts {a}^omega: a func or pred problem built from
    # it may be SAT, and only its UNSAT holds
    phi = F.parse(UNTIL_FALSE)
    assumed = pipeline.body_automaton(phi, EncodingKind.PRED_SAFETY)
    nba = pipeline.body_automaton(phi, EncodingKind.LIA)
    letter = [frozenset({("a", "p")})]
    assert accepts_lasso(assumed, [], letter)
    assert not accepts_lasso(nba, [], letter)
    assert not isinstance(O.bounded_find_model(phi, 2, 1, 2), O.Found)
    for encoding in ("func", "pred"):
        for answer, code, printed in [("sat", cli.EXIT_UNKNOWN, "UNKNOWN"),
                                      ("unsat", cli.EXIT_UNSAT, "UNSAT")]:
            config = write_config(stub_dir, {"stub": f"echo {answer}\n"})
            assert cli.main(["check", "-f", UNTIL_FALSE, "--encoding",
                             encoding, "--config", config]) == code
            out, err = capsys.readouterr()
            assert out.splitlines()[-1] == printed
            assert err.count("\n") == err.count("reported as UNKNOWN\n") \
                == (answer == "sat")


def test_bench_reports_assumed_sats_as_unknown(stub_dir, capsys,
                                               monkeypatch):
    cases = [bench.BenchCase(f"until_false_{k}", "unsat",
                             F.parse(UNTIL_FALSE), S.Verdict.UNSAT,
                             "the empty language") for k in range(2)]
    monkeypatch.setitem(bench.FAMILIES, "unsat", lambda: cases)
    for (answer, verdict, status, warnings), encoding in itertools.product(
            [("sat", "unknown", "undecided", 2), ("unsat", "unsat", "ok", 0)],
            ["func", "pred"]):
        config = write_config(stub_dir, {"stub": f"echo {answer}\n"})
        assert cli.main(["bench", "--family", "unsat", "--encoding",
                         encoding, "--config", config]) == cli.EXIT_SAT
        out, printed = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {(row["verdict"], row["status"]) for row in rows} \
            == {(verdict, status)}
        assert printed.count("\n") \
            == printed.count("reported as UNKNOWN\n") == warnings


@pytest.mark.parametrize("command", ["check", "emit", "bench"])
def test_encoding_options_reach_build_problem(stub_dir, tmp_path,
                                              monkeypatch, command):
    # a parsed option that no code reads would pass silently
    config = write_config(stub_dir, {"stub": "echo unsat\n"})
    argv = {"check": ["check", "-f", PHI, "--config", config],
            "emit": ["emit", "-f", PHI, "-o", str(tmp_path / "out.smt2")],
            "bench": ["bench", "--family", "unsat", "--config", config],
            }[command]
    for removed in ("--explicit-alphabet", "--assume-safe"):
        assert cli.main(argv + [removed]) == cli.EXIT_USAGE
    seen = []
    build = pipeline.build_problem

    def spy(phi, kind):
        seen.append(kind)
        return build(phi, kind)

    monkeypatch.setattr(pipeline, "build_problem", spy)
    assert cli.main(argv + ["--encoding", "pred"]) \
        == (cli.EXIT_UNSAT if command == "check" else cli.EXIT_SAT)
    assert seen and set(seen) == {EncodingKind.PRED_SAFETY}


def test_internal_errors_exit_11(tmp_path, monkeypatch, capsys):
    out = str(tmp_path / "problem.smt2")
    # func on a body outside the safety fragment is not an error: it is
    # the UNSAT-only problem, written with a warning
    assert cli.main(["emit", "-f", 'exists p. F "a"_p', "--encoding", "func",
                     "-o", out]) == cli.EXIT_SAT
    assert "UNSAT only" in capsys.readouterr().err

    def broken(phi, aut):
        raise EncoderError("broken encoder")

    monkeypatch.setattr(pipeline, "encode_func", broken)
    assert cli.main(["emit", "-f", PHI, "-o", out]) == cli.EXIT_INTERNAL

    def crashing(phi, aut):
        raise RuntimeError("unexpected")

    # an unforeseen exception is an internal error too, not the UNSAT code
    monkeypatch.setattr(pipeline, "encode_func", crashing)
    assert cli.main(["emit", "-f", PHI, "-o", out]) == cli.EXIT_INTERNAL
    assert "RuntimeError: unexpected" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["smtlib", "tptp"])
def test_a_failing_emit_keeps_the_output_file(tmp_path, monkeypatch, capsys,
                                              fmt):
    # the text is built before the output file is opened
    def failing(problem, fmt):
        raise RecursionError("emit failed")

    monkeypatch.setattr(cli, "emit", failing)
    existing = tmp_path / "existing"
    existing.write_bytes(b"(check-sat)\nkept\n")
    missing = tmp_path / "missing"
    for out in (existing, missing):
        assert cli.main(["emit", "-f", PHI, "--format", fmt,
                         "-o", str(out)]) == cli.EXIT_INTERNAL
    assert existing.read_bytes() == b"(check-sat)\nkept\n"
    assert not missing.exists()
    assert "RecursionError: emit failed" in capsys.readouterr().err


GEN_ARGV = [
    ["qn", "-c", "2"],
    ["enforce-model", "-n", "3", "-b", "2"],
    ["unsat", "-n", "2"],
    ["gni", "-b", "2"],
    ["ni", "-b", "2"],
    ["gni-implies-ni", "-b", "2"],
    ["ni-implies-gni", "-b", "2"],
    ["random", "--seed", "3", "--size", "10"],
    ["random", "--prefix", "exists", "--safe-only", "--atoms", "3"],
] + [["handcrafted", "--case", case.id] for case in bench.gen_handcrafted()]


def test_gen_covers_every_family():
    assert {argv[0] for argv in GEN_ARGV} == set(cli._GENERATORS)


@pytest.mark.parametrize("argv", GEN_ARGV,
                         ids=["_".join(a).replace("-", "") for a in GEN_ARGV])
def test_gen_prints_a_formula_that_parses_back(capsys, argv):
    assert cli.main(["gen"] + argv) == cli.EXIT_SAT
    printed = capsys.readouterr().out
    args = cli.build_parser().parse_args(["gen"] + argv)
    assert F.parse(printed) == cli._GENERATORS[argv[0]](bench, args)


def test_gen_rejects_bounds_below_one_as_usage_errors(capsys):
    # every family with each number argument at 0 and at -1, and random
    # with an empty prefix: a formula, or a usage error, never a traceback
    calls = [["random", "--prefix", ","]]
    for family in cli._GENERATORS:
        extra = ["--case", "gni_leak"] if family == "handcrafted" else []
        for option in ("-c", "-n", "-b", "--size", "--atoms"):
            for value in ("0", "-1"):
                calls.append([family, option, value] + extra)
    assert len(calls) == 91
    for argv in calls:
        assert cli.main(["gen"] + argv) in (cli.EXIT_SAT, cli.EXIT_USAGE), \
            argv
    capsys.readouterr()
    for argv in (["--atoms", "0"], ["--atoms", "-1"], ["--prefix", ","]):
        assert cli.main(["gen", "random"] + argv) == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err


def test_gen_names_the_handcrafted_cases(capsys):
    assert cli.main(["gen", "handcrafted", "--case", "absent"]) \
        == cli.EXIT_USAGE
    assert "gni_leak" in capsys.readouterr().err
