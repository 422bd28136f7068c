import json
import re
from datetime import datetime

from quartint import cli
from quartint.reports import SCHEMA_VERSION, Counterexample, PropertyReport


def test_the_verdict_is_derived_from_the_counterexample():
    failed = PropertyReport("p", "r", Counterexample({"m": 3}, {"value": "1/2"}))
    assert not failed.passed and failed.verdict() == "fail"
    passed = failed._replace(counterexample=None)
    assert passed.passed and passed.verdict() == "pass"
    assert passed == PropertyReport("p", "r")


def test_passing_report_json():
    report = PropertyReport(property="p", range="m <= 5", elapsed=0.5, notes=("hi",))
    payload = report.to_jsonable()
    assert payload == {
        "property": "p",
        "range": "m <= 5",
        "verdict": "pass",
        "counterexample": None,
        "elapsed": 0.5,
        "notes": ["hi"],
    }


def _verify(monkeypatch, capsys, results, fmt):
    """cli.main on a verify run whose one suite returns ``results``."""
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: list(results))
    code = cli.main(["verify", "--property", "unimodal", "--format", fmt])
    return code, capsys.readouterr().out


def test_run_report_overall_and_round_trip(monkeypatch, capsys):
    ok = PropertyReport(property="a", range="r")
    bad = PropertyReport(property="b", range="r", counterexample=Counterexample({}, {"w": "1"}))
    code, out = _verify(monkeypatch, capsys, [ok], "json")
    assert code == 0
    assert json.loads(out)["overall"] == "pass"
    code, out = _verify(monkeypatch, capsys, [ok, bad], "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["schema_version"] == SCHEMA_VERSION
    assert payload["overall"] == "fail"
    assert payload["results"] == [ok.to_jsonable(), bad.to_jsonable()]
    assert payload["results"][1]["counterexample"]["values"] == {"w": "1"}
    assert payload["started"] <= payload["finished"]
    code, out = _verify(monkeypatch, capsys, [ok, bad], "table")
    assert code == 1
    assert out.endswith("overall: FAIL\n")


def test_a_result_without_a_verdict_is_not_a_pass(monkeypatch, capsys):
    for fmt in ("json", "table"):
        code, _ = _verify(monkeypatch, capsys, [object()], fmt)
        assert code == 3, fmt


def test_run_timestamps_are_iso_8601_utc(capsys):
    assert cli.main(["verify", "--property", "unimodal", "--max-m", "3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("started", "finished"):
        assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00", payload[key]), payload[key]
    started, finished = (datetime.fromisoformat(payload[key]) for key in ("started", "finished"))
    assert started.utcoffset().total_seconds() == 0
    assert started <= finished
