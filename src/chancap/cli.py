"""Command line interface.

Subcommands:
  capacity   solve one channel and print a JSON result
  verify     run optimality checks against an input law
  compare    run both solvers side by side and print a summary
  generate   write a canonical channel to a JSON file

Exit codes: 0 success, 1 bad input (usage, parse or validation), 2 iteration
limit reached, 3 verification check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import TYPE_CHECKING

import numpy as np

# Every subcommand parses and reads a channel; each imports the rest of what
# it runs when it runs, so no command loads a solver or check it does not use.
from .channel import CANONICAL_KINDS, Channel, _canonical_entry, _json_numbers, load_channel, save_channel
from .errors import ChancapError, ParseError
from .probability import Distribution

if TYPE_CHECKING:
    from .arimoto import CapacityResult, IterationTrace

LN2 = math.log(2.0)

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_ITERATION_LIMIT = 2
EXIT_CHECK_FAILED = 3

_TRACE_HEADER = "iter,mutual_info,lower,upper,gap,status,inner_residual"

# brute-force pitch per input-alphabet size; chosen so symmetric optima land
# exactly on grid points
_GRID_BY_INPUTS = {1: 0.1, 2: 1e-5, 3: 1.0 / 999.0, 4: 1.0 / 100.0}


def _read_channel(path: str, fmt: str) -> Channel:
    """The channel in the file at path.  An error the file gives, a parse
    fault or a matrix that fails validation, names the file first, and
    keeps its class and attributes (a RowNotStochastic its row and
    deviation)."""
    with open(path, "rb") as fh:
        try:
            return load_channel(fh, fmt)
        except ChancapError as exc:
            exc.args = (f"{path}: {exc}",)
            raise exc from None


def _read_input_distribution(path: str) -> Distribution:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8: {exc}") from None
    # JSONDecodeError, an integer of too many digits, or too deep a nesting.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    if isinstance(doc, dict):
        for key in ("weights", "optimal_input"):
            if key in doc:
                doc = doc[key]
                break
        else:
            raise ParseError(f'{path}: expected an array or an object with "weights"')
    if not isinstance(doc, list):
        raise ParseError(f"{path}: expected a JSON array of weights")
    # One row through the rule load_channel applies to matrix entries.
    return Distribution(_json_numbers([doc], f"{path}: weight")[0])


def _trace_lines(trace: IterationTrace):
    """The trace CSV's rows, one line each, formatted from the trace's kept
    columns, read by their TraceRecord names, so no TraceRecord is built.
    As on a record, mutual_info is the lower bound and gap is upper - lower;
    each value's repr is taken once."""
    rows = zip(*map(trace._column, ("lower_bound", "upper_bound", "step_status", "inner_residual")))
    for iteration, (lower, upper, route, residual) in enumerate(rows, 1):
        low = repr(lower)
        residual = "" if residual is None else repr(residual)
        yield f"{iteration},{low},{low},{upper!r},{upper - lower!r},{route or ''},{residual}\n"


def _write_trace(path: str, trace: IterationTrace) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER + "\n")
        fh.writelines(_trace_lines(trace))


def _scale(nats: float, units: str) -> float:
    return nats / LN2 if units == "bits" else nats


def _solve(ch: Channel, args, algorithm: str) -> tuple[CapacityResult, IterationTrace]:
    if algorithm == "arimoto":
        from .arimoto import solve_arimoto as solver
    else:
        from .backward_em import solve_backward_em as solver
    return solver(ch, tol=args.tol, max_iters=args.max_iters)


def cmd_capacity(args) -> int:
    from .arimoto import Termination

    ch = _read_channel(args.channel, args.format)
    result, trace = _solve(ch, args, args.algorithm)
    if args.trace:
        _write_trace(args.trace, trace)
    payload = {
        "capacity": _scale(result.capacity, args.units),
        "lower": _scale(result.bracket.lower, args.units),
        "upper": _scale(result.bracket.upper, args.units),
        "iterations": result.iterations,
        "termination": result.termination.value,
        "optimal_input": [float(w) for w in result.optimal_input.weights],
        "units": args.units,
        # upper - lower taken in nats, then scaled: the stopping test's gap.
        "gap": _scale(result.bracket.upper - result.bracket.lower, args.units),
        # Always 0: both solvers carry log-weights and clamp no iterate.  The
        # key stays, as every capacity key does.
        "clamped_steps": 0,
        # 1 when the support-Newton route finished the run, else 0.
        "support_newton_steps": trace._column("step_status").count("support_newton"),
    }
    if args.algorithm == "backward-em":
        payload["inner_sweeps"] = sum(inner or 0 for inner in trace._column("inner_iterations"))
        # How each other iterate after the first was made, from the same columns.
        payload["exact_steps"] = trace._column("step_status").count("exact")
        payload["fallback_steps"] = trace._column("step_status").count("fallback")
        # The largest step size any step took; null when no step was taken.
        payload["max_step_size"] = max(filter(None, trace._column("step_size")), default=None)
        # The candidates the adaptive rule rejected and retried at a smaller step size.
        payload["rejected_candidates"] = sum(filter(None, trace._column("rejected_candidates")))
        # The inner steps those rejected candidates took, which inner_sweeps does not count.
        payload["rejected_inner_sweeps"] = sum(filter(None, trace._column("rejected_inner_iterations")))
    print(json.dumps(payload, indent=2))
    return EXIT_OK if result.termination is Termination.CONVERGED else EXIT_ITERATION_LIMIT


def cmd_verify(args) -> int:
    from .verify import brute_force_capacity, circumcenter_check, converse_check

    ch = _read_channel(args.channel, args.format)
    if args.input:
        q = _read_input_distribution(args.input)
        origin = f"from {args.input}"
    else:
        from .arimoto import solve_arimoto

        result, _ = solve_arimoto(ch)
        q = result.optimal_input
        origin = "from a fresh solver run"
    report = circumcenter_check(q, ch, tol=args.tol)
    certified = converse_check(ch, q, tol=args.tol)

    print(f"channel: {ch.num_inputs}x{ch.num_outputs}, input law {origin}")
    print(f"capacity estimate: {report.capacity_estimate!r} nats")
    print("input  weight        divergence    in_support")
    for x in range(ch.num_inputs):
        print(
            f"{x:>5}  {q.weights[x]:<12.6g}  {report.divergences[x]:<12.10g}"
            f"  {'yes' if report.support[x] else 'no'}"
        )
    print(
        f"circumcenter check: {'pass' if report.passed else 'FAIL'}"
        f" (support deviation {report.max_support_deviation:.3e},"
        f" off-support excess {report.max_off_support_excess:.3e}, tol {report.tol:g})"
    )
    failures = not report.passed

    if certified is None:
        print("converse certificate: not applicable (divergences not all equal)")
    else:
        # A certificate means every divergence is finite, and so is the estimate.
        agrees = abs(certified - report.capacity_estimate) <= args.tol
        print(
            f"converse certificate: {certified!r} nats"
            f" ({'agrees with estimate' if agrees else 'DISAGREES with estimate'})"
        )
        failures = failures or not agrees

    if ch.num_inputs <= 4:
        grid = _GRID_BY_INPUTS[ch.num_inputs]
        best, _ = brute_force_capacity(ch, grid)
        allowance = max(args.tol, grid)
        gap = best - (
            report.capacity_estimate if np.isfinite(report.capacity_estimate) else -np.inf
        )
        ok = gap <= allowance
        print(
            f"brute force (grid {grid:g}): {best!r} nats,"
            f" shortfall {gap:.3e} (allowance {allowance:.3e}):"
            f" {'pass' if ok else 'FAIL'}"
        )
        failures = failures or not ok
    else:
        print("brute force: skipped (more than 4 inputs)")

    print(f"verdict: {'PASS' if not failures else 'FAIL'}")
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_compare(args) -> int:
    from .arimoto import Termination

    ch = _read_channel(args.channel, args.format)
    result_a, trace_a = _solve(ch, args, "arimoto")
    result_b, trace_b = _solve(ch, args, "backward-em")
    _write_trace(f"{args.trace_prefix}_arimoto.csv", trace_a)
    _write_trace(f"{args.trace_prefix}_backward_em.csv", trace_b)
    payload = {
        "capacity_a": _scale(result_a.capacity, args.units),
        "capacity_b": _scale(result_b.capacity, args.units),
        "iters_a": result_a.iterations,
        "iters_b": result_b.iterations,
        "max_capacity_diff": abs(_scale(result_a.capacity - result_b.capacity, args.units)),
        "units": args.units,
    }
    print(json.dumps(payload, indent=2))
    both_converged = (
        result_a.termination is Termination.CONVERGED
        and result_b.termination is Termination.CONVERGED
    )
    return EXIT_OK if both_converged else EXIT_ITERATION_LIMIT


def cmd_generate(args) -> int:
    kind = args.kind
    parts = args.param.split(",")
    build, types = _canonical_entry(kind, len(parts))
    ch = build(*(convert(part) for convert, part in zip(types, parts)))
    with open(args.out, "wb") as fh:
        fh.write(save_channel(ch))
    print(f"wrote {kind} channel ({ch.num_inputs}x{ch.num_outputs}) to {args.out}")
    return EXIT_OK


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="bracket gap tolerance in nats")
    parser.add_argument("--max-iters", type=int, default=100000, help="outer iteration limit")
    parser.add_argument("--units", choices=("bits", "nats"), default="bits")


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--channel", required=True, help="path to the channel file")
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chancap", description="Discrete memoryless channel capacity tools."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="solve one channel for capacity")
    _add_channel_flags(p)
    p.add_argument(
        "--algorithm", choices=("arimoto", "backward-em"), default="arimoto"
    )
    _add_solver_flags(p)
    p.add_argument("--trace", help="write a per-iteration CSV trace to this path")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("verify", help="check an input law for optimality")
    _add_channel_flags(p)
    p.add_argument("--input", help="path to an input law (JSON array or capacity output)")
    p.add_argument("--tol", type=float, default=1e-6, help="check tolerance in nats")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("compare", help="run both solvers and summarize")
    _add_channel_flags(p)
    _add_solver_flags(p)
    p.add_argument(
        "--trace-prefix",
        default="compare_trace",
        help="traces go to <prefix>_arimoto.csv and <prefix>_backward_em.csv",
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("generate", help="write a canonical channel file")
    p.add_argument("--kind", choices=CANONICAL_KINDS, required=True)
    p.add_argument(
        "--param",
        required=True,
        help='probability, size, or "N,M" for the uniform kind',
    )
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, which here means the
        # iteration limit; -h and --help exit with 0.
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # every error chancap raises is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
