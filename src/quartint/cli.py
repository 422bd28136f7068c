"""Command-line front end.

    quartint coeffs   --m 2 --format csv
    quartint verify   --property unimodal --max-m 200
    quartint verify   --all
    quartint scan     ilogconcave --max-m 40 --depth 5
    quartint scan     hypineq --max-m 40 --x-grid 0.5:5:0.25
    quartint tvalues  --max-m 10 --format json
    quartint integral --m 1 --a 1 --tol 1e-12

Exit codes: 0 pass, 1 mathematical counterexample, 2 usage/config error,
3 internal or convergence error.  Machine output keeps every rational as a
"p/q" string; floats appear only in explicitly approximate fields.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from . import tfunction
from .coefficients import coefficient_row
from .exact import rational_str
from .quadrature import QuadratureConvergenceError, evaluate_quartic_integral
from .reports import SCHEMA_VERSION, utc_now_iso
from .suites import SUITES, run_suite, scan_hyp_inequality, scan_infinite_logconcavity

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_GRID_POINTS = 10_000


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text}")
    return value


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _parse_grid(text: str) -> tuple[Fraction, ...]:
    """lo:hi:step with exact decimal/rational bounds, e.g. 0.5:5:0.25; at
    most MAX_GRID_POINTS points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must look like lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (Fraction(p) for p in parts)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in grid {text!r}") from None
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds in {text!r}")
    count = (hi - lo) // step + 1
    if count > MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    return tuple(lo + i * step for i in range(count))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quartint", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="print one coefficient row d_0(m)..d_m(m)")
    p_coeffs.add_argument("--m", type=_nonnegative_int, required=True)
    p_coeffs.add_argument("--format", choices=("table", "csv", "json"), default="csv")

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--property", choices=sorted(SUITES))
    group.add_argument("--all", action="store_true")
    p_verify.add_argument("--max-m", type=_positive_int, default=None)
    p_verify.add_argument("--max-n", type=_positive_int, default=None)
    p_verify.add_argument("--depth", type=_positive_int, default=3)
    jobs_help = "ignored: every sweep runs in one process; accepted until the benchmark stops passing it"
    p_verify.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_scan = sub.add_parser("scan", help="counterexample scans for the open conjectures")
    p_scan.add_argument("kind", choices=("ilogconcave", "hypineq"))
    p_scan.add_argument("--max-m", type=_positive_int, default=40)
    p_scan.add_argument("--depth", type=_positive_int, default=5)
    p_scan.add_argument("--x-grid", default="0.5:5:0.25")
    p_scan.add_argument("--format", choices=("table", "json"), default="json")

    p_tvalues = sub.add_parser("tvalues", help="T(m) through the direct, hypergeometric and integral routes")
    p_tvalues.add_argument("--max-m", type=_positive_int, required=True)
    p_tvalues.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_integral = sub.add_parser("integral", help="numeric quartic integral vs closed form")
    p_integral.add_argument("--m", type=_nonnegative_int, required=True)
    p_integral.add_argument("--a", type=_finite_float, required=True)
    p_integral.add_argument(
        "--tol", type=_finite_float, default=1e-10, help="relative error target of the quadrature (default 1e-10)"
    )
    p_integral.add_argument("--format", choices=("table", "csv", "json"), default="table")

    return parser


def _cmd_coeffs(args) -> int:
    strings = [rational_str(v) for v in coefficient_row(args.m).values]
    if args.format == "csv":
        print(",".join(strings))
    elif args.format == "json":
        print(json.dumps(strings))
    else:
        for ell, s in enumerate(strings):
            print(f"{ell:4d}  {s}")
    return EXIT_PASS


def _cmd_verify(args) -> int:
    started = utc_now_iso()
    names = sorted(SUITES) if args.all else [args.property]
    if args.property is not None:
        knob = SUITES[args.property][1]
        unread = "max_n" if knob == "max_m" else "max_m"
        if getattr(args, unread) is not None:
            raise ValueError(f"{args.property} reads --{knob.replace('_', '-')}, not --{unread.replace('_', '-')}")
    results = []
    for name in names:
        results.extend(run_suite(name, max_m=args.max_m, max_n=args.max_n, depth=args.depth))
    config = {"properties": names, "max_m": args.max_m, "max_n": args.max_n, "depth": args.depth, "jobs": args.jobs}
    return _emit_run("verify", config, results, started, args.format)


def _cmd_scan(args) -> int:
    started = utc_now_iso()
    if args.kind == "ilogconcave":
        result = scan_infinite_logconcavity(args.max_m, args.depth)
        config = {"kind": args.kind, "max_m": args.max_m, "depth": args.depth}
    else:
        grid = _parse_grid(args.x_grid)
        result = scan_hyp_inequality(args.max_m, grid)
        config = {"kind": args.kind, "max_m": args.max_m, "x_grid": [rational_str(x) for x in grid]}
    return _emit_run("scan", config, [result], started, args.format)


def _cmd_tvalues(args) -> int:
    """T(m) through the direct, hypergeometric and integral routes, with the
    float limit gap; an ArithmeticError (exit 3) if any two routes disagree."""
    rows = []
    for m in range(1, args.max_m + 1):
        direct, hyp, integral = tfunction.t_direct(m), tfunction.t_hypergeometric(m), tfunction.t_integral(m)
        if not direct == hyp == integral:
            raise ArithmeticError(f"T({m}) representations disagree: {direct}, {hyp}, {integral}")
        rows.append(
            {
                "m": m,
                "direct": rational_str(direct),
                "hypergeometric": rational_str(hyp),
                "integral": rational_str(integral),
                "approx": float(direct),
                "limit_gap": tfunction.limit_gap(m),
            }
        )
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "command": "tvalues", "limit": tfunction.T_LIMIT, "rows": rows}
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("m,direct,hypergeometric,integral,approx,limit_gap")
        for row in rows:
            print(",".join(map(str, row.values())))
    else:
        for row in rows:
            print(f"T({row['m']}) = {row['direct']}  ~ {row['approx']:.9f}  gap {row['limit_gap']:.9f}")
    return EXIT_PASS


def _cmd_integral(args) -> int:
    result = evaluate_quartic_integral(args.m, args.a, args.tol)
    if args.format == "json":
        print(json.dumps(result._asdict(), indent=2))
    elif args.format == "csv":
        print("m,a,numeric,closed_form,relative_error,evaluations")
        print(
            f"{result.m},{result.a},{result.numeric!r},{result.closed_form!r},"
            f"{result.relative_error!r},{result.evaluations}"
        )
    else:
        print(
            f"m={result.m} a={result.a}: numeric {result.numeric!r}, closed form "
            f"{result.closed_form!r}, relative error {result.relative_error:.3e}, "
            f"{result.evaluations} evaluations"
        )
    return EXIT_PASS


def _emit_run(command: str, config: dict, results: list, started: str, fmt: str) -> int:
    """Print the run report, as the JSON envelope or a table; exit 0 when
    every result passed and 1 otherwise."""
    passed = all(r.passed for r in results)
    if fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "config": config,
            "results": [r.to_jsonable() for r in results],
            "overall": "pass" if passed else "fail",
            "started": started,
            "finished": utc_now_iso(),
        }
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(f"{r.verdict():4s}  {r.property:28s}  {r.range}  [{r.elapsed:.2f}s]")
            for note in r.notes:
                print(f"      note: {note}")
            if r.counterexample is not None:
                print(f"      counterexample at {r.counterexample.location}: {r.counterexample.values}")
        print(f"overall: {'pass' if passed else 'FAIL'}")
    return EXIT_PASS if passed else EXIT_COUNTEREXAMPLE


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "coeffs": _cmd_coeffs,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "tvalues": _cmd_tvalues,
        "integral": _cmd_integral,
    }
    try:
        return handlers[args.command](args)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Any other failure is a fault of the program, never a counterexample:
        # exit 1 is reserved for a mathematical verdict.  traceback is
        # imported only here, off the start-up path of every run.
        import traceback

        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
