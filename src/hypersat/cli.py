"""Command-line entry point.

Subcommands expose the pipeline stages: ``check`` solves a formula end to
end (final line SAT/UNSAT/UNKNOWN; exit code 0/1/2), ``emit`` writes the
encoded problem to a file, ``oracle`` runs the bounded explicit-model
finder, ``bench`` produces verdict tables for the built-in families, and
``gen`` prints a generated family formula.  Usage errors (bad arguments,
a formula that does not parse, an unreadable input or unwritable output
file, a bad solver config, a tableau over automaton.EDGE_CAP) exit 10
and internal errors 11, so they cannot be mistaken for verdicts.
``--encoding func`` or ``pred`` on a body that is not syntactically safe
encodes its one tableau without acceptance sets, which answers UNSAT
only: ``check`` and ``bench`` report its SAT as UNKNOWN, and ``emit``
warns.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback
from pathlib import Path

from . import formula as F
from . import pipeline as P
from .automaton import AutomatonError, TableauTooLargeError
from .emit import OutputFormat, emit
from .encoder import EncoderError, EncodingKind

EXIT_SAT = 0
EXIT_UNSAT = 1
EXIT_UNKNOWN = 2
EXIT_MISMATCH = 3
EXIT_USAGE = 10
EXIT_INTERNAL = 11

_VERDICT_EXIT = {"sat": EXIT_SAT, "unsat": EXIT_UNSAT,
                 "unknown": EXIT_UNKNOWN}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_formula_args(p):
    p.add_argument("--formula", "-f", help="inline formula text")
    p.add_argument("--file", help="read the formula from a file")


def _add_encoding_args(p):
    p.add_argument("--encoding",
                   choices=["auto"] + [k.value for k in EncodingKind],
                   default="auto",
                   help="auto: func for a syntactically safe body, else lia; "
                        "func and pred on any other body answer UNSAT only")


def _add_solver_args(p):
    p.add_argument("--solver", action="append", default=[],
                   help="solver name from the config (repeatable; portfolio)")
    p.add_argument("--timeout", type=float)  # default: each config's
    p.add_argument("--config", help="solver config file "
                                    "(or $HYPERSAT_SOLVER_CONFIG)")


def build_parser() -> _Parser:
    parser = _Parser(prog="hypersat",
                     description="HyperLTL satisfiability via first-order "
                                 "logic encodings")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="encode and solve a formula")
    _add_formula_args(check)
    _add_encoding_args(check)
    _add_solver_args(check)

    emit_p = sub.add_parser("emit", help="write the encoded problem to a file")
    _add_formula_args(emit_p)
    _add_encoding_args(emit_p)
    emit_p.add_argument("--format", choices=[f.value for f in OutputFormat],
                        default="smtlib")
    emit_p.add_argument("-o", "--output", required=True)

    oracle_p = sub.add_parser("oracle",
                              help="bounded explicit-model search")
    _add_formula_args(oracle_p)
    oracle_p.add_argument("--max-traces", type=int, default=2)
    oracle_p.add_argument("--max-stem", type=int, default=1)
    oracle_p.add_argument("--max-loop", type=int, default=2)

    bench_p = sub.add_parser("bench", help="run a benchmark family")
    bench_p.add_argument("--family", default="all",
                         help="a built-in family, or all")
    _add_encoding_args(bench_p)
    _add_solver_args(bench_p)
    bench_p.add_argument("-o", "--output", help="CSV output path")
    bench_p.add_argument("--max-workers", type=int, default=4)

    gen_p = sub.add_parser("gen", help="print a generated family formula")
    gen_p.add_argument("family", choices=list(_GENERATORS))
    gen_p.add_argument("-c", type=int, default=1, help="qn bound")
    gen_p.add_argument("-n", type=int, default=1)
    gen_p.add_argument("-b", type=int, default=1, help="step bound")
    gen_p.add_argument("--case", help="handcrafted case id")
    gen_p.add_argument("--prefix", default="forall,exists",
                       help="comma-separated quantifiers for random")
    gen_p.add_argument("--size", type=int, default=8)
    gen_p.add_argument("--atoms", type=int, default=2)
    gen_p.add_argument("--safe-only", action="store_true")
    gen_p.add_argument("--seed", type=int, default=0)
    return parser


def _read_formula(args) -> F.HyperFormula:
    if args.formula is not None and args.file is not None:
        raise _UsageError("give either --formula or --file, not both")
    if args.formula is not None:
        text = args.formula
    elif args.file is not None:
        try:
            with open(args.file) as handle:
                text = handle.read()
        except OSError as exc:
            raise _UsageError(f"cannot read the formula: {exc}") from exc
    else:
        text = sys.stdin.read()
    return F.parse(text)


def _write_output(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode) as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write the output: {exc}") from exc


def _selected_solvers(args):
    from . import solvers as S  # the solver machinery loads where it runs
    cfgs = S.load_solver_configs(args.config)
    if args.solver:
        by_name = {c.name: c for c in cfgs}
        missing = [n for n in args.solver if n not in by_name]
        if missing:
            raise _UsageError(f"unknown solver(s): {', '.join(missing)}")
        cfgs = [by_name[n] for n in args.solver]
    if args.timeout is None:
        return cfgs
    return [dataclasses.replace(c, timeout_sec=args.timeout) for c in cfgs]


def _cmd_check(args) -> int:
    phi = _read_formula(args)
    kind = P.choose_encoding(phi, args.encoding)
    cfgs = _selected_solvers(args)
    from . import solvers as S
    try:
        verdict = P.solve(phi, kind, cfgs).verdict
    except S.SolverNotFoundError as exc:
        print(f"warning: {exc}", file=sys.stderr)
        verdict = S.Verdict.UNKNOWN
    print(verdict.value.upper())
    return _VERDICT_EXIT[verdict.value]


def _cmd_emit(args) -> int:
    phi = _read_formula(args)
    kind = P.choose_encoding(phi, args.encoding)
    # the text is built before the file is opened, so that a failing emit
    # leaves an existing file as it was
    text = emit(P.build_problem(phi, kind), OutputFormat(args.format))
    _write_output(args.output, text)
    print(f"wrote {kind.value} encoding to {args.output}")
    if P.over_approximates(phi, kind):
        print("warning: the body is not syntactically safe; a SAT of this "
              "problem does not hold for the formula (UNSAT only)",
              file=sys.stderr)
    return EXIT_SAT


def _cmd_oracle(args) -> int:
    from . import oracle as O  # numpy is imported here, where it runs
    phi = _read_formula(args)
    try:
        outcome = O.bounded_find_model(phi, args.max_traces, args.max_stem,
                                       args.max_loop)
    except O.BoundsExceededError as exc:
        # bounds over the oracle's caps: the caller's to reduce
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except O.OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if isinstance(outcome, O.Found):
        print(O.format_witness(outcome.model))
        print("SAT")
        return EXIT_SAT
    print(f"NoModelUpTo(traces={outcome.max_traces}, "
          f"stem={outcome.max_stem}, loop={outcome.max_loop})")
    print("UNKNOWN")
    return EXIT_UNKNOWN


def _cmd_bench(args) -> int:
    from . import bench as B  # loaded where a command reads the families
    if args.family == "all":
        cases = [c for name in sorted(B.FAMILIES)
                 for c in B.FAMILIES[name]()]
    elif args.family in B.FAMILIES:
        cases = list(B.FAMILIES[args.family]())
    else:
        raise _UsageError("--family must be one of: "
                          f"{', '.join(sorted(B.FAMILIES))}, all")
    cfgs = _selected_solvers(args)
    # an unwritable output stops the run before its first case; appending
    # truncates nothing, and a file made here goes if the run fails
    made = args.output and not Path(args.output).exists()
    if args.output:
        _write_output(args.output, "", "a")
    try:
        csv_text, ok = B.run_table(cases, args.encoding, cfgs,
                                   max_workers=args.max_workers)
    except BaseException:
        if made:
            Path(args.output).unlink()
        raise
    if args.output:
        _write_output(args.output, csv_text)
        print(f"wrote {args.output}")
    else:
        print(csv_text, end="")
    if not ok:
        print("verdict mismatches or portfolio conflicts detected",
              file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_SAT


def _gen_handcrafted(B, args) -> F.HyperFormula:
    cases = {c.id: c for c in B.gen_handcrafted(args.b)}
    if args.case not in cases:
        raise _UsageError(f"--case must be one of: {', '.join(sorted(cases))}")
    return cases[args.case].formula


# family name -> formula generator over the bench module and the parsed
# gen arguments
_GENERATORS = {
    "qn": lambda B, args: B.gen_qn(args.c, ("i",), ("o1", "o2")),
    "enforce-model": lambda B, args: B.gen_enforce_model(args.n, args.b),
    "unsat": lambda B, args: B.gen_unsat(args.n),
    "gni": lambda B, args: B.gen_gni(args.b),
    "ni": lambda B, args: B.gen_ni(args.b),
    "gni-implies-ni": lambda B, args: B.gen_gni_ni(args.b)[2],
    "ni-implies-gni": lambda B, args: B.gen_gni_ni(args.b)[3],
    "handcrafted": _gen_handcrafted,
    "random": lambda B, args: B.gen_random(
        [q.strip() for q in args.prefix.split(",") if q.strip()],
        args.size, args.atoms, args.safe_only, args.seed),
}


def _cmd_gen(args) -> int:
    from . import bench as B
    print(F.pretty(_GENERATORS[args.family](B, args)))
    return EXIT_SAT


_COMMANDS = {"check": _cmd_check, "emit": _cmd_emit, "oracle": _cmd_oracle,
             "bench": _cmd_bench, "gen": _cmd_gen}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, F.FormulaError, ValueError,
            TableauTooLargeError) as exc:
        # a formula that does not parse, an out-of-range number argument or
        # a body whose tableau is over the cap
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AutomatonError, EncoderError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # a solver error comes from a command that loaded the solvers: a
        # portfolio conflict is internal, a bad solver config a usage error
        from . import solvers as S
        if not isinstance(exc, S.SolverError):
            traceback.print_exc()
            return EXIT_INTERNAL
        internal = isinstance(exc, S.SoundnessConflictError)
        print(f"{'error' if internal else 'usage error'}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL if internal else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
