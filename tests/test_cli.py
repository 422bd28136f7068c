import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quartint import cli, coefficients, conjectures, quadrature, recurrence, seqprops, suites, tfunction
from quartint.cli import build_parser, main
from quartint.coefficients import coefficient_row
from quartint.exact import rational_str
from quartint.reports import SCHEMA_VERSION
from quartint.tfunction import T_LIMIT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_coeffs_csv(capsys):
    code, out, _ = run(capsys, "coeffs", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.strip() == "21/8,15/4,3/2"


def test_coeffs_default_format(capsys):
    code, out, _ = run(capsys, "coeffs", "--m", "0")
    assert code == 0
    assert out.strip() == "1"


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "coeffs", "--m", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == ["3/2", "1"]


def test_coeffs_table(capsys):
    code, out, _ = run(capsys, "coeffs", "--m", "1", "--format", "table")
    assert code == 0
    assert "3/2" in out and "1" in out


def test_coeffs_prints_an_entry_past_the_digit_cap_of_int_to_str(capsys, monkeypatch):
    # rows from m = 3992 on hold entries of more than 4300 digits
    big = 10**4999 + 7
    monkeypatch.setattr(cli, "dyadic_row", lambda m: iter([(big, 1)]))
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(4300)  # the default, which an earlier main() lifted
    code, out, _ = run(capsys, "coeffs", "--m", "1", "--format", "csv")
    assert code == 0
    assert out.strip() == f"{big}/2"


@pytest.mark.parametrize("m", [0, 1, 2, 150, 4000])
def test_coeffs_writes_the_strings_of_the_fraction_row(capsys, m):
    code, out, _ = run(capsys, "coeffs", "--m", str(m), "--format", "csv")  # lifts the digit cap first
    assert code == 0
    assert out == ",".join(rational_str(v) for v in coefficient_row(m).values) + "\n"


def test_coeffs_rejects_negative_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--m", "-1"])
    assert exc.value.code == 2


@pytest.fixture
def no_kernel(monkeypatch):
    """Every kernel behind verify, scan, tvalues and integral, and the sweep that runs
    them, fail if called."""

    def called(*args, **kwargs):
        raise AssertionError("a kernel ran")

    for module, name in [
        (coefficients, "_scaled_row"),
        (tfunction, "left_sums"),
        (tfunction, "t_direct"),
        (tfunction, "t_hypergeometric"),
        (tfunction, "t_integral"),
        (recurrence, "t_stepped"),
        (seqprops, "iterated_l_first_negative"),
        (conjectures, "margin_polynomial"),
        (quadrature, "_adaptive"),
        (suites, "_sweep"),
    ]:
        monkeypatch.setattr(module, name, called)


def _usage_error(capsys, *argv) -> str:
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


# The largest limit that CI, the benchmark or the README runs, keyed as suites.SUITES
# and cli.CAPS; for scan hypineq also its margins, (max-m - 1) x grid points, and the
# most bits of a grid entry's numerator or denominator (43/8 of the benchmark's grids).
LARGEST_INVOCATION = {
    "unimodal": 200, "logconcave": 150, "ilogconcave": 150, "ratio-monotone": 150, "min-functional": 150,
    "delta-signs": 150, "inequality-chain": 400, "s-monotone": 400, "t-bounds": 2000, "t-crosscheck": 300,
    "recurrence": 100, "monotone-t": 2000, "coeffs": 4000, "integral": 200, "tvalues": 300,
    "scan ilogconcave": 100, "scan hypineq": 150, "hypineq margins": 149 * 19, "hypineq grid bits": 6,
}


def test_every_cap_is_above_its_default_and_every_invocation():
    assert not set(suites.SUITES) & set(cli.CAPS)
    for name, (cap, _) in ({name: suite.cap for name, suite in suites.SUITES.items()} | cli.CAPS).items():
        default = suites.SUITES[name].default if name in suites.SUITES else 1
        assert cap >= default >= 1 and cap >= LARGEST_INVOCATION[name], name


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_verify_above_the_cap_is_a_usage_error_before_any_kernel(capsys, no_kernel, name):
    suite = suites.SUITES[name]
    cap, cost = suite.cap
    option = "--" + suite.limit.replace("_", "-")
    for value in (str(cap + 1), "99999999999999999999999"):
        err = _usage_error(capsys, "verify", "--property", name, option, value)
        assert err == f"error: {option} of {name} is capped at {cap}, where a run takes about {cost}; got {value}\n"


def test_verify_all_is_refused_when_one_suite_is_above_its_cap(capsys, no_kernel):
    lowest = min(suite.cap[0] for suite in suites.SUITES.values() if suite.limit == "max_m")
    assert "is capped at" in _usage_error(capsys, "verify", "--all", "--max-m", str(lowest + 1))
    cap = suites.SUITES["recurrence"].cap[0]
    assert "--max-n of recurrence" in _usage_error(capsys, "verify", "--all", "--max-n", str(cap + 1))


HUGE = "99999999999999999999999"


def _over_cap_cases():
    """(key of cli.CAPS, the input's name in the error, argv, the value it asks for) for
    each invocation above a cap."""
    caps = {key: cap for key, (cap, _) in cli.CAPS.items()}
    cases = []
    for key, option, *argv in [
        ("coeffs", "--m", "coeffs"),
        ("integral", "--m", "integral", "--a", "-0.25"),
        ("tvalues", "--max-m", "tvalues"),
        ("scan ilogconcave", "--max-m", "scan", "ilogconcave"),
        ("scan hypineq", "--max-m", "scan", "hypineq"),
    ]:
        cases += [(key, option, (*argv, option, v), v) for v in (str(caps[key] + 1), HUGE)]
    margins = "the number of margins, (--max-m - 1) x grid points,"
    bits = "the bit length of a grid entry's numerator or denominator"
    cap = caps["hypineq margins"]
    points = cap // 299 + 1
    for max_m, grid, value in [("300", f"1:{points}:1", 299 * points), ("2", f"1:{cap + 1}:1", cap + 1)]:
        cases.append(("hypineq margins", margins, ("scan", "hypineq", "--max-m", max_m, "--x-grid", grid), value))
    cap = caps["hypineq grid bits"]
    grids = [(f"{2**cap}:{2**cap}:1", cap + 1), (f"{2**cap + 1}/{2**(cap + 1)}:1:1", cap + 2), ("1e100:1e100:1", 333)]
    for grid, value in grids:
        cases.append(("hypineq grid bits", bits, ("scan", "hypineq", "--max-m", "2", "--x-grid", grid), value))
    return cases


OVER_CAP = _over_cap_cases()


def test_every_cap_has_a_case_above_it():
    assert {key for key, *_ in OVER_CAP} == set(cli.CAPS)


@pytest.mark.parametrize(
    "key, name, argv, value", OVER_CAP, ids=[f"{key}-{'huge' if value == HUGE else value}" for key, *_, value in OVER_CAP]
)
def test_above_a_cap_is_a_usage_error_before_any_kernel(capsys, no_kernel, key, name, argv, value):
    cap, cost = cli.CAPS[key]
    err = _usage_error(capsys, *argv)
    assert err == f"error: {name} is capped at {cap}, where a run takes about {cost}; got {value}\n"


@pytest.mark.parametrize(
    "argv",
    [
        *(("verify", "--property", name, "--depth", "4") for name, s in suites.SUITES.items() if not s.reads_depth),
        ("scan", "hypineq", "--depth", "4"),
        ("scan", "ilogconcave", "--x-grid", "0.5:1:0.5"),
    ],
)
def test_an_option_the_run_does_not_read_is_a_usage_error_before_any_kernel(capsys, no_kernel, argv):
    option = argv[-2]
    assert _usage_error(capsys, *argv).endswith(f" does not read {option}\n")


def test_defaults_of_depth_and_grid_still_show_in_the_config(capsys):
    code, out, _ = run(capsys, "verify", "--property", "unimodal", "--max-m", "3", "--format", "json")
    assert code == 0 and json.loads(out)["config"]["depth"] == 3
    code, out, _ = run(capsys, "scan", "ilogconcave", "--max-m", "3")
    assert code == 0 and json.loads(out)["config"]["depth"] == 5
    code, out, _ = run(capsys, "scan", "hypineq", "--max-m", "2")
    grid = [rational_str(Fraction(2 + i, 4)) for i in range(19)]
    assert code == 0 and json.loads(out)["config"]["x_grid"] == grid


def test_ilogconcave_still_reads_depth(capsys):
    argv = ("verify", "--property", "ilogconcave", "--max-m", "6", "--depth", "2", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["depth"] == 2
    assert payload["results"][0]["range"] == "rows m <= 6, depth 2"


def test_verify_unimodal(capsys):
    code, out, _ = run(capsys, "verify", "--property", "unimodal", "--max-m", "25")
    assert code == 0
    assert "overall: pass" in out


def test_verify_rejects_zero_max_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--property", "logconcave", "--max-m", "0"])
    assert exc.value.code == 2


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--property", "recurrence", "--max-n", "12", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["overall"] == "pass"
    assert payload["command"] == "verify"
    names = [r["property"] for r in payload["results"]]
    assert "recurrence-residual" in names
    assert all(r["verdict"] == "pass" for r in payload["results"])
    assert payload["started"] <= payload["finished"]


def test_verify_with_jobs(capsys):
    code, out, _ = run(capsys, "verify", "--property", "logconcave", "--max-m", "12", "--jobs", "2")
    assert code == 0
    assert "overall: pass" in out


@pytest.mark.parametrize("env_jobs", ["2", "abc"])
def test_jobs_environment_variable_is_ignored(capsys, monkeypatch, env_jobs):
    monkeypatch.setenv("QUARTINT_JOBS", env_jobs)
    code, out, _ = run(
        capsys, "verify", "--property", "unimodal", "--max-m", "8", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["config"] == {"properties": ["unimodal"], "max_m": 8, "max_n": None, "depth": 3}


def test_jobs_takes_any_positive_integer_and_nothing_else():
    # parsing only; the value is accepted and read by nothing
    assert build_parser().parse_args(["verify", "--all", "--jobs", "1000000"]).jobs == 1000000
    for bad in ("0", "-4", "abc", ""):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["verify", "--all", "--jobs", bad])
        assert exc.value.code == 2


def test_jobs_changes_nothing_and_starts_no_pool():
    # one cold process per value; at its exit each says on stderr whether it
    # ever loaded the process pool module.  The two payloads are equal but for
    # their times, and neither config names the jobs.
    code = (
        "import atexit, sys\n"
        "atexit.register(lambda: print('concurrent.futures.process' in sys.modules, file=sys.stderr))\n"
        "from quartint.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    results = {}
    for jobs in (1, 2):
        argv = ["verify", "--all", "--jobs", str(jobs), "--format", "json"]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True)
        assert done.stderr.splitlines() == ["False"]
        payload = json.loads(done.stdout)
        assert "jobs" not in payload["config"]
        del payload["started"], payload["finished"]
        for r in payload["results"]:
            del r["elapsed"]
        results[jobs] = payload
    assert results[1] == results[2]


@pytest.mark.parametrize(
    "error",
    [RuntimeError("boom"), OSError("no space left on device"), MemoryError(), ZeroDivisionError("x"), KeyError("k")],
)
def test_unexpected_exception_is_internal_error(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "run_suite", broken)
    code, _, err = run(capsys, "verify", "--property", "unimodal", "--max-m", "3")
    assert code == 3
    assert "Traceback (most recent call last)" in err
    assert "internal error" in err


def test_verify_all_small_ranges(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--all", "--max-m", "12", "--max-n", "5", "--depth", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert len(payload["config"]["properties"]) == 12
    suite_names = {r["property"] for r in payload["results"]}
    assert "t-monotone" in suite_names and "limit-gap" in suite_names


def test_verify_counterexample_exit_code(capsys, monkeypatch):
    from quartint import suites

    real = suites.seqprops.minimum_claimed_value
    monkeypatch.setattr(suites.seqprops, "minimum_claimed_value", lambda m: real(m) + (m >= 5))
    code, out, _ = run(capsys, "verify", "--property", "min-functional", "--max-m", "8")
    assert code == 1
    assert "overall: FAIL" in out
    assert "counterexample" in out


def test_verify_min_functional_reports_both_variants(capsys):
    code, out, _ = run(
        capsys, "verify", "--property", "min-functional", "--max-m", "6", "--format", "json"
    )
    assert code == 0
    notes = json.loads(out)["results"][0]["notes"]
    assert any("corrected form" in n for n in notes)
    assert any("uncorrected" in n for n in notes)


def test_scan_ilogconcave(capsys):
    code, out, _ = run(capsys, "scan", "ilogconcave", "--max-m", "12", "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert payload["config"]["depth"] == 3


def test_scan_hypineq(capsys):
    code, out, _ = run(capsys, "scan", "hypineq", "--max-m", "6", "--x-grid", "0.5:2:0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    assert payload["config"]["x_grid"] == ["1/2", "1", "3/2", "2"]


def test_scan_rejects_low_grid(capsys):
    code, _, err = run(capsys, "scan", "hypineq", "--x-grid", "0.25:1:0.25")
    assert code == 2
    assert "1/2" in err


def test_scan_rejects_malformed_grid(capsys):
    code, _, err = run(capsys, "scan", "hypineq", "--x-grid", "1:2")
    assert code == 2


def test_scan_counterexample_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(conjectures, "hyp_inequality_margin", lambda m, x: Fraction(-1))
    code, out, _ = run(capsys, "scan", "hypineq", "--max-m", "3", "--x-grid", "0.5:1:0.5")
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    assert payload["results"][0]["counterexample"]["values"]["margin"] == "-1"


def test_tvalues_table(capsys):
    code, out, _ = run(capsys, "tvalues", "--max-m", "3")
    assert code == 0
    assert "67/264" in out


def test_tvalues_csv(capsys):
    code, out, _ = run(capsys, "tvalues", "--max-m", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("m,direct")
    assert lines[1].startswith("1,1/4,1/4,1/4,0.25,")


def test_tvalues_json_gap(capsys):
    code, out, _ = run(capsys, "tvalues", "--max-m", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["limit"] == T_LIMIT
    assert payload["rows"][0]["direct"] == "1/4"
    assert payload["rows"][0]["limit_gap"] == pytest.approx(0.0429, abs=1e-4)


def test_integral_command(capsys):
    code, out, _ = run(
        capsys, "integral", "--m", "1", "--a", "1", "--tol", "1e-12", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["relative_error"] < 1e-10


def test_integral_tolerance_is_relative(capsys):
    # the value is 3.49e35, far above any absolute tolerance of 1e-12
    code, out, _ = run(
        capsys, "integral", "--m", "50", "--a", "-0.9", "--tol", "1e-12", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["relative_error"] < 1e-10


def test_integral_csv(capsys):
    code, out, _ = run(capsys, "integral", "--m", "0", "--a", "0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,a,numeric,closed_form,relative_error,evaluations"
    assert lines[1].startswith("0,0.0,")


def _tvalues_json_row(m, t, approx, gap):
    return f"""    {{
      "m": {m},
      "direct": "{t}",
      "hypergeometric": "{t}",
      "integral": "{t}",
      "approx": {approx},
      "limit_gap": {gap}
    }}"""


# The full stdout of each command, byte for byte.
GOLDEN_STDOUT = {
    ("tvalues", "--max-m", "3", "--format", "table"): """\
T(1) = 1/4  ~ 0.250000000  gap 0.042893219
T(2) = 1/4  ~ 0.250000000  gap 0.042893219
T(3) = 67/264  ~ 0.253787879  gap 0.039105340
""",
    ("tvalues", "--max-m", "3", "--format", "csv"): """\
m,direct,hypergeometric,integral,approx,limit_gap
1,1/4,1/4,1/4,0.25,0.04289321881345243
2,1/4,1/4,1/4,0.25,0.04289321881345243
3,67/264,67/264,67/264,0.2537878787878788,0.03910534002557364
""",
    ("tvalues", "--max-m", "3", "--format", "json"): """\
{
  "schema_version": 1,
  "command": "tvalues",
  "limit": 0.2928932188134524,
  "rows": [
"""
    + ",\n".join(
        [
            _tvalues_json_row(1, "1/4", 0.25, 0.04289321881345243),
            _tvalues_json_row(2, "1/4", 0.25, 0.04289321881345243),
            _tvalues_json_row(3, "67/264", 0.2537878787878788, 0.03910534002557364),
        ]
    )
    + """
  ]
}
""",
    ("integral", "--m", "1", "--a", "1", "--tol", "1e-12", "--format", "json"): """\
{
  "m": 1,
  "a": 1.0,
  "numeric": 0.49087385212340373,
  "closed_form": 0.49087385212340506,
  "relative_error": 2.7140733281822015e-15,
  "evaluations": 45
}
""",
    ("integral", "--m", "1", "--a", "1", "--tol", "1e-12", "--format", "csv"): """\
m,a,numeric,closed_form,relative_error,evaluations
1,1.0,0.49087385212340373,0.49087385212340506,2.7140733281822015e-15,45
""",
    ("coeffs", "--m", "3", "--format", "table"): """\
   0  77/16
   1  43/4
   2  35/4
   3  5/2
""",
    ("coeffs", "--m", "3", "--format", "csv"): "77/16,43/4,35/4,5/2\n",
    ("coeffs", "--m", "3", "--format", "json"): '["77/16", "43/4", "35/4", "5/2"]\n',
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT), ids=" ".join)
def test_golden_stdout(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (0, GOLDEN_STDOUT[argv], "")


def _without_times(out):
    """stdout with the time fields masked: started, finished and elapsed in
    JSON, the [seconds] column in the table."""
    out = re.sub(r'"(started|finished|elapsed)": [^,\n]+', r'"\1": T', out)
    return re.sub(r"\[\d+\.\d\ds\]", "[T]", out)


def _doctor_failing_runs(monkeypatch):
    """T(5) = 1, the pair (1, 1), and the hypineq margin -1/7 at (m, x) = (3, 1)."""
    real_t, real_margin = recurrence.t_stepped, conjectures.hyp_inequality_margin
    monkeypatch.setattr(recurrence, "t_stepped", lambda m: (1, 1) if m == 5 else real_t(m))
    monkeypatch.setattr(
        conjectures, "hyp_inequality_margin", lambda m, x: Fraction(-1, 7) if (m, x) == (3, 1) else real_margin(m, x)
    )


VERIFY_T_BOUNDS = ("verify", "--property", "t-bounds", "--max-m", "12")
SCAN_HYPINEQ = ("scan", "hypineq", "--max-m", "3", "--x-grid", "0.5:1:0.5")

# The full stdout of one failing verify and one failing scan, time fields
# masked.
GOLDEN_FAILING_STDOUT = {
    (*VERIFY_T_BOUNDS, "--format", "json"): """\
{
  "schema_version": 1,
  "command": "verify",
  "config": {
    "properties": [
      "t-bounds"
    ],
    "max_m": 12,
    "max_n": null,
    "depth": 3
  },
  "results": [
    {
      "property": "t-bounds",
      "range": "T < 1 on 1 <= m <= 12; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m",
      "verdict": "fail",
      "counterexample": {
        "location": {
          "m": 5,
          "bound": "t-below-one"
        },
        "values": {
          "T": "1"
        }
      },
      "elapsed": T,
      "notes": []
    },
    {
      "property": "binomial-pair-bound",
      "range": "C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= 12",
      "verdict": "pass",
      "counterexample": null,
      "elapsed": T,
      "notes": []
    }
  ],
  "overall": "fail",
  "started": T,
  "finished": T
}
""",
    (*VERIFY_T_BOUNDS, "--format", "table"): """\
fail  t-bounds                      T < 1 on 1 <= m <= 12; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m  [T]
      counterexample at {'m': 5, 'bound': 't-below-one'}: {'T': '1'}
pass  binomial-pair-bound           C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= 12  [T]
overall: FAIL
""",
    (*SCAN_HYPINEQ, "--format", "json"): """\
{
  "schema_version": 1,
  "command": "scan",
  "config": {
    "kind": "hypineq",
    "max_m": 3,
    "x_grid": [
      "1/2",
      "1"
    ]
  },
  "results": [
    {
      "property": "hyp-inequality-scan",
      "range": "2 <= m <= 3, 2 grid points",
      "verdict": "fail",
      "counterexample": {
        "location": {
          "m": 3,
          "x": "1"
        },
        "values": {
          "margin": "-1/7"
        }
      },
      "elapsed": T,
      "notes": []
    }
  ],
  "overall": "fail",
  "started": T,
  "finished": T
}
""",
    (*SCAN_HYPINEQ, "--format", "table"): """\
fail  hyp-inequality-scan           2 <= m <= 3, 2 grid points  [T]
      counterexample at {'m': 3, 'x': '1'}: {'margin': '-1/7'}
overall: FAIL
""",
}


@pytest.mark.parametrize("argv", list(GOLDEN_FAILING_STDOUT), ids=" ".join)
def test_golden_failing_stdout(capsys, monkeypatch, argv):
    _doctor_failing_runs(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert (code, _without_times(out), err) == (1, GOLDEN_FAILING_STDOUT[argv], "")


def test_integral_divergent_is_usage_error(capsys):
    code, _, err = run(capsys, "integral", "--m", "1", "--a", "-2", "--tol", "1e-8")
    assert code == 2
    assert "diverges" in err


@pytest.mark.parametrize("a", ["inf", "-inf", "nan"])
def test_integral_nonfinite_a_is_usage_error(capsys, a):
    with pytest.raises(SystemExit) as exc:
        main(["integral", "--m", "1", f"--a={a}"])
    assert exc.value.code == 2
    assert "finite" in capsys.readouterr().err


def test_scan_rejects_zero_denominator_grid(capsys):
    code, _, err = run(capsys, "scan", "hypineq", "--x-grid", "0.5:1/0:0.5")
    assert code == 2
    assert "denominator" in err


def test_scan_rejects_oversized_grid(capsys):
    # 10^200 points: the margins are counted before any point is built
    cap, _ = cli.CAPS["hypineq margins"]
    err = _usage_error(capsys, "scan", "hypineq", "--x-grid", "0.5:1e100:1e-100")
    assert err.startswith(f"error: the number of margins, (--max-m - 1) x grid points, is capped at {cap},")
    code, out, _ = run(capsys, "scan", "hypineq", "--max-m", "2", "--x-grid", f"1:{cap}:1")
    assert code == 0 and json.loads(out)["results"][0]["range"] == f"2 <= m <= 2, {cap} grid points"
    assert "capped at" in _usage_error(capsys, "scan", "hypineq", "--max-m", "2", "--x-grid", f"1:{cap + 1}:1")


@pytest.mark.parametrize("max_m, grid", [("1", "0.5:1e100:1e-100"), ("2", "1e100000000:1e100000000:1")])
def test_a_huge_grid_exits_2_at_once(max_m, grid):
    # A fold that counted max-m 1 as no rows would build 10^200 points, and a missing
    # exponent bound would make 10^(10^8) in Fraction: a cold process with 1 GiB of
    # address space must exit 2 within 10 s.
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from quartint.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    argv = ["scan", "hypineq", "--max-m", max_m, "--x-grid", grid]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=10)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_integral_convergence_failure_is_internal_error(capsys):
    code, _, err = run(capsys, "integral", "--m", "2", "--a", "1", "--tol", "1e-300")
    assert code == 3
    assert "tol" in err


@pytest.mark.parametrize("m, a", [("200", "100"), ("300", "-0.9"), ("400", "4"), ("180", "-0.99")])
def test_integral_large_m(capsys, m, a):
    code, out, _ = run(capsys, "integral", "--m", m, "--a", a, "--format", "json")
    assert code == 0
    assert json.loads(out)["relative_error"] < 1e-10


@pytest.mark.parametrize("m, a", [("3", "1e12"), ("5", "1e300"), ("200", "1e48"), ("3", "1e308")])
def test_integral_large_a(capsys, m, a):
    # the peak at x = 0 has width about a^(-1/2): one first panel on [0, 1]
    # gave relative error 1.0 at (3, 1e12) and numeric 0.0 at (5, 1e300),
    # and first panels split at a^(-1/2) 2^k in x left 1.2e-3 at (200, 1e48);
    # at (3, 1e308) 2a overflows, so the integrand forms a x^2 before doubling
    code, out, _ = run(capsys, "integral", "--m", m, "--a", a, "--format", "json")
    assert code == 0
    assert json.loads(out)["relative_error"] <= 1e-10


@pytest.mark.parametrize("m, a", [("200", "-0.99"), ("400", "-0.999"), ("180", "-0.99002")])
def test_integral_beyond_float_range_is_stated_error(capsys, m, a):
    # the value at (200, -0.99) is about 1e401; at (180, -0.99002) it is
    # about 1e306, but the panel sums overflow to inf
    code, out, err = run(capsys, "integral", "--m", m, "--a", a)
    assert (code, out) == (3, "")
    assert "float range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, read",
    [
        (("--property", "recurrence", "--max-m", "5"), "--max-n"),
        (("--property", "unimodal", "--max-n", "5"), "--max-m"),
    ],
)
def test_verify_limit_the_suite_does_not_read_is_usage_error(capsys, argv, read):
    code, out, err = run(capsys, "verify", *argv)
    assert (code, out) == (2, "")
    assert f"reads {read}" in err


def test_verify_empty_range_is_usage_error(capsys):
    # recurrence-main-inequality starts at n = 2: --max-n 1 would check nothing
    code, _, err = run(capsys, "verify", "--property", "recurrence", "--max-n", "1")
    assert code == 2
    assert "recurrence-main-inequality: empty range" in err


# ---------------------------------------------------------------------------
# every malformed value of a bounded option is a usage error

LETTERS = st.text("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", min_size=1)
NONFINITE = st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400"])


def _grid(parts):
    return ":".join(str(p) for p in parts)


malformed_grids = st.one_of(
    st.lists(st.integers(1, 5), max_size=5).filter(lambda ps: len(ps) != 3).map(_grid),
    st.tuples(LETTERS, st.integers(0, 2)).map(lambda t: _grid(t[0] if i == t[1] else 1 for i in range(3))),
    st.fractions(max_value=0).map(lambda step: _grid((1, 2, step))),
    st.tuples(st.fractions(1, 10), st.fractions(0, 10).filter(bool)).map(lambda t: _grid((t[0], t[0] - t[1], 1))),
    st.fractions(-20, Fraction(1, 2), max_denominator=50)
    .filter(lambda lo: lo < Fraction(1, 2))
    .map(lambda lo: _grid((lo, lo + 1, Fraction(1, 4)))),
    st.tuples(st.integers(1, 1000), st.integers(0, 10**6)).map(
        lambda t: _grid((1, 1 + Fraction(cli.CAPS["hypineq margins"][0] + t[1], t[0]), Fraction(1, t[0])))
    ),
    st.sampled_from(["1/0:2:1", "1:2/0:1", "1:2:1/0"]),
)
bad_a = st.one_of(st.floats(max_value=-1.0, allow_nan=False).map(repr), NONFINITE, LETTERS)
bad_tol = st.one_of(st.floats(max_value=0.0, allow_nan=False).map(repr), NONFINITE, LETTERS)
bad_count = st.one_of(st.integers(max_value=0).map(str), st.sampled_from(["1.5", "2e3", ""]), LETTERS)
bad_jobs = st.one_of(st.integers(max_value=0).map(str), st.sampled_from(["1.5", ""]), LETTERS)

malformed_invocations = st.one_of(
    malformed_grids.map(lambda g: ["scan", "hypineq", "--max-m", "2", f"--x-grid={g}"]),
    bad_a.map(lambda a: ["integral", "--m", "1", f"--a={a}"]),
    bad_tol.map(lambda t: ["integral", "--m", "1", "--a", "1", f"--tol={t}"]),
    st.tuples(
        st.sampled_from([["verify", "--property", "unimodal"], ["scan", "ilogconcave"], ["tvalues"]]), bad_count
    ).map(lambda t: [*t[0], f"--max-m={t[1]}"]),
    bad_jobs.map(lambda j: ["verify", "--property", "unimodal", "--max-m", "2", f"--jobs={j}"]),
)


@settings(max_examples=300, deadline=None)
@given(malformed_invocations)
def test_malformed_values_exit_with_usage_error(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 2, argv


def test_importing_the_cli_loads_no_process_pool():
    code = "import sys, quartint.cli; print('concurrent.futures.process' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_a_run_loads_no_module_it_does_not_use():
    # dataclasses (with inspect), datetime and traceback cost every process
    # start-up time, and no sweep starts a process pool
    unused = ["dataclasses", "inspect", "datetime", "traceback", "concurrent.futures.process"]
    code = (
        "import sys, quartint.cli\n"
        f"unused = {unused!r}\n"
        "print([m for m in unused if m in sys.modules])\n"
        "assert quartint.cli.main(['coeffs', '--m', '0']) == 0\n"
        "print([m for m in unused if m in sys.modules])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.splitlines() == ["[]", "1", "[]"]
