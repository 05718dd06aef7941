"""Command line front end: run programs, interval expectations, verification.

All output is JSON with sorted keys, so identical inputs and seeds
produce byte-identical reports. Exit codes: 0 success (``run``: loop
converged; ``verify``: all checks passed), 2 for a nonconverged run or
failed checks, 1 for any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .density import FixpointConfig, PartialDensityOperator, matrix_from_json
from .errors import ParseError
from .observables import expectation_summary
from .qlang import interpret, parse
from .verify import SUITES, run_suite


@dataclass(frozen=True)
class CliConfig:
    psd_tol: float = 1e-9
    trace_tol: float = 1e-9
    max_iterations: int = 10000
    rng_seed: int = 42
    output_path: str | None = None

    def __post_init__(self):
        for name in ("psd_tol", "trace_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")

    def fixpoint(self) -> FixpointConfig:
        return FixpointConfig(max_iterations=self.max_iterations, trace_tol=self.trace_tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpartial",
        description="Quantum while-programs over partial density operators, "
        "interval expected values, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="interpret a program file")
    run_p.add_argument("program", help="path to a program source file")
    run_p.add_argument("--input", help="operator JSON for the initial state (default: ground state)")

    expect_p = sub.add_parser("expect", help="interval expected value of an observable")
    expect_p.add_argument("observable", help="Hermitian operator JSON file")
    expect_p.add_argument("state", help="partial density operator JSON file")

    verify_p = sub.add_parser("verify", help="run a verification suite")
    verify_p.add_argument("suite", choices=SUITES)
    verify_p.add_argument("--dims", default="2,3,4", help="comma-separated dimensions in [2, 16]")
    verify_p.add_argument("--trials", type=int, default=100)

    for p in (run_p, expect_p, verify_p):
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--max-iter", type=int, default=10000)
        p.add_argument("--trace-tol", type=float, default=1e-9)
        p.add_argument("--psd-tol", type=float, default=1e-9)
        p.add_argument("--out", help="also write the JSON report to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = CliConfig(
            psd_tol=args.psd_tol,
            trace_tol=args.trace_tol,
            max_iterations=args.max_iter,
            rng_seed=args.seed,
            output_path=args.out,
        )
        if args.command == "run":
            return _cmd_run(args.program, args.input, cfg)
        if args.command == "expect":
            return _cmd_expect(args.observable, args.state, cfg)
        return _cmd_verify(args.suite, args.dims, args.trials, cfg)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_run(program_path: str, input_path: str | None, cfg: CliConfig) -> int:
    with open(program_path, encoding="utf-8") as fh:
        program = parse(fh.read())
    if input_path is None:
        state = PartialDensityOperator.ground_state(program.dim)
    else:
        state = PartialDensityOperator(
            matrix_from_json(_load_json(input_path)), psd_tol=cfg.psd_tol
        )
    report = interpret(program, state, cfg.fixpoint())
    _emit(report.to_json(), cfg)
    return 0 if report.converged else 2


def _cmd_expect(observable_path: str, state_path: str, cfg: CliConfig) -> int:
    observable = matrix_from_json(_load_json(observable_path))
    state = PartialDensityOperator(matrix_from_json(_load_json(state_path)), psd_tol=cfg.psd_tol)
    summary = expectation_summary(observable, state)
    _emit(summary.to_json(), cfg)
    return 0


def _cmd_verify(suite: str, dims_arg: str, trials: int, cfg: CliConfig) -> int:
    dims = [int(part) for part in dims_arg.split(",") if part.strip()]
    report = run_suite(suite, dims, trials, cfg.rng_seed)
    _emit(report.to_json(), cfg)
    return 0 if report.all_passed else 2


def _load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(payload: dict, cfg: CliConfig) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.exit(main())
