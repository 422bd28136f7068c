import json

import pytest

from quartint.reports import SCHEMA_VERSION, Counterexample, PropertyReport, RunReport, utc_now_iso


def test_failing_report_requires_counterexample():
    with pytest.raises(ValueError):
        PropertyReport(property="p", range="r", passed=False)
    report = PropertyReport(
        property="p",
        range="r",
        passed=False,
        counterexample=Counterexample({"m": 3}, {"value": "1/2"}),
    )
    assert report.verdict() == "fail"


def test_passing_report_json():
    report = PropertyReport(property="p", range="m <= 5", passed=True, elapsed=0.5, notes=("hi",))
    payload = report.to_jsonable()
    assert payload == {
        "property": "p",
        "range": "m <= 5",
        "verdict": "pass",
        "counterexample": None,
        "elapsed": 0.5,
        "notes": ["hi"],
    }


def test_run_report_overall_and_round_trip():
    ok = PropertyReport(property="a", range="r", passed=True)
    bad = PropertyReport(
        property="b", range="r", passed=False, counterexample=Counterexample({}, {"w": "1"})
    )
    started = utc_now_iso()
    finished = utc_now_iso()
    passing = RunReport("verify", {"k": 1}, (ok,), started, finished)
    failing = RunReport("verify", {"k": 1}, (ok, bad), started, finished)
    assert passing.overall_passed
    assert not failing.overall_passed

    payload = json.loads(failing.to_json())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["overall"] == "fail"
    assert payload["results"][1]["counterexample"]["values"] == {"w": "1"}
    assert payload["started"] <= payload["finished"]


def test_a_result_without_a_verdict_is_not_a_pass():
    report = RunReport("verify", {}, (object(),), utc_now_iso(), utc_now_iso())
    with pytest.raises(AttributeError):
        report.overall_passed
