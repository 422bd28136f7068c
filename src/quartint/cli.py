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
from .coefficients import dyadic_row
from .exact import rational_str
from .quadrature import QuadratureConvergenceError, evaluate_quartic_integral
from .reports import SCHEMA_VERSION, utc_now_iso
from .suites import SUITES, run_suite, scan_hyp_inequality, scan_infinite_logconcavity

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

MAX_GRID_POINTS = 10_000
# A cold run costs about m^3, mostly the strings of the row's entries: at
# this m, 33 s and a 0.67 GB peak on a shared 2-core VM.
MAX_COEFFS_M = 12_000
# The exact closed form costs about m^2 times the bits of a: at this m, on the same
# VM, a cold run takes 58 s at a = 1e-300 (53 bits over 2^1049), 0.2 s at a = -0.25.
MAX_INTEGRAL_M = 4_000
# The largest limit of each verify suite and a cold run's cost at it on the same
# VM.  The row and left-sum caches keep every row, so memory grows like m^3.
MAX_SUITE_LIMIT = {
    "unimodal": (1_500, "3 s and 0.6 GB"),
    "logconcave": (1_500, "24 s and 0.6 GB"),
    "ilogconcave": (200, "16 s and 25 MB at any depth"),
    "ratio-monotone": (1_500, "13 s and 0.6 GB"),
    "min-functional": (1_500, "33 s and 0.6 GB"),
    "delta-signs": (1_500, "3 s and 0.6 GB"),
    "inequality-chain": (1_200, "8 s and 0.55 GB"),
    "s-monotone": (1_500, "4 s and 0.44 GB"),
    "t-bounds": (10_000, "11 s and 70 MB"),
    "t-crosscheck": (1_500, "27 s and 29 MB"),
    "recurrence": (2_000, "18 s and 19 MB"),
    "monotone-t": (10_000, "19 s and 72 MB"),
}
# The same for --max-m of each scan.  ilogconcave was measured at a depth past
# the last L step of every row up to its cap, so the cost holds at any depth.
MAX_SCAN_M = {"ilogconcave": MAX_SUITE_LIMIT["ilogconcave"], "hypineq": (300, "1 s and 38 MB at the default grid")}


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


def _check_cap(option: str, value: int | None, cap: int, cost: str) -> None:
    if value is not None and value > cap:
        raise ValueError(f"{option} is capped at {cap}, where a run takes about {cost}; got {value}")


def _refuse(args, run: str, option: str) -> None:
    """A usage error for an option that the run does not read."""
    if getattr(args, option) is not None:
        raise ValueError(f"{run} does not read --{option.replace('_', '-')}")


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
    p_verify.add_argument("--depth", type=_positive_int, help="ilogconcave only (default 3)")
    jobs_help = "ignored: every sweep runs in one process; accepted until the benchmark stops passing it"
    p_verify.add_argument("--jobs", type=_positive_int, default=1, help=jobs_help)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")

    p_scan = sub.add_parser("scan", help="counterexample scans for the open conjectures")
    p_scan.add_argument("kind", choices=("ilogconcave", "hypineq"))
    p_scan.add_argument("--max-m", type=_positive_int, default=40)
    p_scan.add_argument("--depth", type=_positive_int, help="ilogconcave only (default 5)")
    p_scan.add_argument("--x-grid", help="hypineq only (default 0.5:5:0.25)")
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
    if args.m > MAX_COEFFS_M:
        raise ValueError(f"--m is capped at {MAX_COEFFS_M}, where a row takes about 33 s; got {args.m}")
    strings = [f"{p}/{1 << e}" if e else str(p) for p, e in dyadic_row(args.m)]
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
        if args.property != "ilogconcave":
            _refuse(args, args.property, "depth")
    for name in names:
        knob = SUITES[name][1]
        _check_cap(f"--{knob.replace('_', '-')} of {name}", getattr(args, knob), *MAX_SUITE_LIMIT[name])
    depth = 3 if args.depth is None else args.depth
    results = []
    for name in names:
        results.extend(run_suite(name, max_m=args.max_m, max_n=args.max_n, depth=depth))
    config = {"properties": names, "max_m": args.max_m, "max_n": args.max_n, "depth": depth}
    return _emit_run("verify", config, results, started, args.format)


def _cmd_scan(args) -> int:
    started = utc_now_iso()
    _refuse(args, f"scan {args.kind}", "x_grid" if args.kind == "ilogconcave" else "depth")
    _check_cap("--max-m", args.max_m, *MAX_SCAN_M[args.kind])
    if args.kind == "ilogconcave":
        depth = 5 if args.depth is None else args.depth
        result = scan_infinite_logconcavity(args.max_m, depth)
        config = {"kind": args.kind, "max_m": args.max_m, "depth": depth}
    else:
        grid = _parse_grid("0.5:5:0.25" if args.x_grid is None else args.x_grid)
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
                "limit_gap": tfunction.T_LIMIT - float(direct),
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
    if args.m > MAX_INTEGRAL_M:
        raise ValueError(f"--m is capped at {MAX_INTEGRAL_M}, where the closed form can take about 60 s; got {args.m}")
    result = evaluate_quartic_integral(args.m, args.a, args.tol)
    if args.format == "json":
        print(json.dumps(result._asdict(), indent=2))
    elif args.format == "csv":
        print(",".join(result._fields))
        print(",".join(map(str, result)))
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
    if hasattr(sys, "set_int_max_str_digits"):
        # exact values pass 4300 digits from m = 3992 on; argv was parsed under the cap
        sys.set_int_max_str_digits(0)
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
