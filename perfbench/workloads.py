"""The benchmark's workloads and the oracle that checks their outputs.

A workload is a fixed list of ``quartint`` CLI invocations.  The seed draws
the free inputs (the order of the row suites, the hypineq grid offset and the
integral points) from finite menus, so the same seed always gives the same
invocations and every invocation has a stored expectation in ``oracle.json``.

The oracle is exact where the program is exact: the JSON of every ``verify``
and ``scan`` run is reduced to its content fields and hashed, so a changed
verdict, witness, range or note is caught.  Timing fields and keys outside
schema v1's content (``schema_version``, fields added later) are left out,
and so is ``config.jobs``, so that a serial and a parallel run of the same
sweep hash alike.  ``integral`` output is floating point: it must converge
(exit 0), reproduce the stored closed form to 1e-12 and agree with it to a
relative error of at most 1e-10.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("verify-all", "row-sweeps", "conjecture-scans")

# The seven suites that sweep coefficient rows and never call t_direct.
ROW_SUITES = (
    "unimodal",
    "logconcave",
    "ratio-monotone",
    "delta-signs",
    "min-functional",
    "inequality-chain",
    "s-monotone",
)
ROW_MAX_M = 150
ROW_JOBS = 2

# hypineq runs over 19 grid points x = offset + i/4; offsets have denominator
# at most 8, which keeps the cost of a scan nearly independent of the seed.
GRID_OFFSETS = tuple(Fraction(1, 2) + Fraction(j, 8) for j in range(8))
GRID_POINTS = 19
GRID_STEP = Fraction(1, 4)

# Seed-drawn quadrature points come from a region where the default absolute
# tolerance still converges.  For a <= -0.75 and larger m the absolute
# tolerance fails to converge; that defect is shown by the fixed case below.
INTEGRAL_MS = tuple(range(1, 41))
INTEGRAL_AS = ("-0.5", "-0.25", "0", "0.5", "1", "2", "4")
INTEGRAL_DRAWS = 3
ROADMAP_CASE = ("integral", "--m", "50", "--a", "-0.9", "--tol", "1e-12", "--format", "json")

RELATIVE_ERROR_LIMIT = 1e-10
CLOSED_FORM_MATCH = 1e-12

ORACLE_PATH = Path(__file__).with_name("oracle.json")


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``key`` names its expectation in the oracle."""

    args: tuple[str, ...]

    @property
    def kind(self) -> str:
        return "integral" if self.args[0] == "integral" else "report"

    @property
    def key(self) -> str:
        """The arguments without ``--jobs``, which must not change the output."""
        args = list(self.args)
        if "--jobs" in args:
            i = args.index("--jobs")
            del args[i : i + 2]
        return " ".join(args)

    def with_jobs(self, jobs: int) -> "Invocation":
        if "--jobs" not in self.args:
            return self
        args = list(self.args)
        args[args.index("--jobs") + 1] = str(jobs)
        return Invocation(tuple(args))


def _grid_arg(offset: Fraction) -> str:
    hi = offset + (GRID_POINTS - 1) * GRID_STEP
    return f"{offset}:{hi}:{GRID_STEP}"


def _row_invocation(suite: str) -> Invocation:
    return Invocation(
        ("verify", "--property", suite, "--max-m", str(ROW_MAX_M), "--jobs", str(ROW_JOBS), "--format", "json")
    )


def _hypineq_invocation(offset: Fraction) -> Invocation:
    return Invocation(("scan", "hypineq", "--max-m", "50", "--x-grid", _grid_arg(offset), "--format", "json"))


def _integral_invocation(m: int, a: str) -> Invocation:
    return Invocation(("integral", "--m", str(m), "--a", a, "--format", "json"))


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocation list of one pass of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        # The canonical user run has no free input; the seed is only recorded.
        return [Invocation(("verify", "--all", "--jobs", "1", "--format", "json"))]
    if workload == "row-sweeps":
        suites = list(ROW_SUITES)
        rng.shuffle(suites)
        return [_row_invocation(s) for s in suites]
    if workload == "conjecture-scans":
        points = rng.sample([(m, a) for m in INTEGRAL_MS for a in INTEGRAL_AS], INTEGRAL_DRAWS)
        return [
            Invocation(("scan", "ilogconcave", "--max-m", "60", "--depth", "7", "--format", "json")),
            _hypineq_invocation(rng.choice(GRID_OFFSETS)),
            *(_integral_invocation(m, a) for m, a in points),
            Invocation(ROADMAP_CASE),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def oracle_menu() -> list[Invocation]:
    """Every invocation any seed can draw; ``make_oracle.py`` records each."""
    menu = [*invocations("verify-all", 0), *(_row_invocation(s) for s in ROW_SUITES)]
    menu.append(invocations("conjecture-scans", 0)[0])
    menu.extend(_hypineq_invocation(o) for o in GRID_OFFSETS)
    menu.extend(_integral_invocation(m, a) for m in INTEGRAL_MS for a in INTEGRAL_AS)
    menu.append(Invocation(ROADMAP_CASE))
    return menu


# ---------------------------------------------------------------------------
# oracle

_RESULT_FIELDS = ("property", "range", "verdict", "counterexample", "notes")


def canonical_report(payload: dict) -> str:
    """The content of a ``verify``/``scan`` report as canonical JSON."""
    config = {k: v for k, v in payload["config"].items() if k != "jobs"}
    results = [{k: r[k] for k in _RESULT_FIELDS} for r in payload["results"]]
    content = {"command": payload["command"], "config": config, "results": results, "overall": payload["overall"]}
    return json.dumps(content, sort_keys=True, separators=(",", ":"))


def canonical_report_text(stdout: str) -> str:
    return canonical_report(json.loads(stdout))


def report_digest(stdout: str) -> str:
    return hashlib.sha256(canonical_report_text(stdout).encode()).hexdigest()


def load_oracle() -> dict:
    with ORACLE_PATH.open() as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Outcome:
    """``ok``; ``error`` (the program reported a failure: unexpected exit code,
    no convergence); or ``wrong`` (the program returned a wrong result)."""

    status: str
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def check(inv: Invocation, returncode: int, stdout: str, oracle: dict) -> Outcome:
    """Judge one invocation's exit code and output against the oracle."""
    if inv.kind == "integral":
        return _check_integral(inv, returncode, stdout, oracle["closed_forms"][inv.key])
    expected = oracle["digests"][inv.key]
    # Exit 1 is a verdict ("counterexample found"), so its output is judged;
    # every oracle entry expects a pass, so it can only be wrong.
    if returncode not in (0, 1):
        return Outcome("error", f"exit {returncode}")
    try:
        digest = report_digest(stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome("wrong", f"unreadable report: {exc!r}")
    if digest != expected:
        return Outcome("wrong", f"digest {digest[:12]} != oracle {expected[:12]}")
    if returncode != 0:
        return Outcome("wrong", "exit 1 with a passing report")
    return Outcome("ok")


def _check_integral(inv: Invocation, returncode: int, stdout: str, closed_form: float) -> Outcome:
    if returncode != 0:
        return Outcome("error", f"exit {returncode}")
    try:
        result = json.loads(stdout)
        numeric, reported, rel = (float(result[k]) for k in ("numeric", "closed_form", "relative_error"))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome("wrong", f"unreadable result: {exc!r}")
    if abs(reported - closed_form) > CLOSED_FORM_MATCH * abs(closed_form):
        return Outcome("wrong", f"closed form {reported!r} != oracle {closed_form!r}")
    actual = abs(numeric - closed_form) / abs(closed_form)
    if not (actual <= RELATIVE_ERROR_LIMIT and rel <= RELATIVE_ERROR_LIMIT):
        return Outcome("wrong", f"relative error {actual:.3e} above {RELATIVE_ERROR_LIMIT:g}")
    return Outcome("ok")


@dataclass
class Tally:
    """Invocations attempted, failed, and failed with a wrong result, with
    one note per distinct failure."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: Counter = field(default_factory=Counter)

    def add(self, inv: Invocation, outcome: Outcome) -> None:
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
            self.notes[f"{outcome.status}: {inv.key}: {outcome.detail}"] += 1
        if outcome.status == "wrong":
            self.wrong += 1

    def note_wrong(self, text: str) -> None:
        self.wrong += 1
        self.notes[f"wrong: {text}"] += 1

    def note_lines(self) -> list[str]:
        return [f"{text} (x{n})" for text, n in self.notes.items()]
