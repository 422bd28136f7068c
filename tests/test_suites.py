import concurrent.futures
import multiprocessing
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from quartint import seqprops, suites, tfunction
from quartint.suites import SUITES, run_suite

forked_pool = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="pool workers see the doctored kernel only when forked"
)


def single(reports):
    assert len(reports) == 1
    return reports[0]


def test_registry_is_complete():
    assert sorted(SUITES) == [
        "delta-signs",
        "ilogconcave",
        "inequality-chain",
        "logconcave",
        "min-functional",
        "monotone-t",
        "ratio-monotone",
        "recurrence",
        "s-monotone",
        "t-bounds",
        "t-crosscheck",
        "unimodal",
    ]


@pytest.mark.parametrize("name", ["unimodal", "logconcave", "delta-signs"])
def test_row_sweeps_pass(name):
    report = single(run_suite(name, max_m=30))
    assert report.passed
    assert report.counterexample is None
    assert "30" in report.range


def test_ilogconcave_suite_uses_depth():
    report = single(run_suite("ilogconcave", max_m=20, depth=4))
    assert report.passed
    assert "depth 4" in report.range


def test_ilogconcave_suite_rejects_depth_zero():
    with pytest.raises(ValueError, match="depth"):
        run_suite("ilogconcave", max_m=10, depth=0)


def test_ratio_monotone_suite():
    assert single(run_suite("ratio-monotone", max_m=40)).passed
    with pytest.raises(ValueError):
        run_suite("ratio-monotone", max_m=1)


def test_min_functional_suite_notes_show_both_variants():
    report = single(run_suite("min-functional", max_m=10))
    assert report.passed
    assert any("3456" in note for note in report.notes)
    assert any("17256" in note for note in report.notes)


def test_inequality_chain_suite():
    assert single(run_suite("inequality-chain", max_m=25)).passed


def test_s_monotone_suite():
    assert single(run_suite("s-monotone", max_m=40)).passed


def test_t_bounds_suite_reports():
    reports = run_suite("t-bounds", max_m=130)
    names = [r.property for r in reports]
    assert names == ["t-bounds", "binomial-pair-bound"]
    assert all(r.passed for r in reports)
    # the pair bound sweep is capped at its documented range
    assert "m <= 120" in reports[1].range


def test_t_crosscheck_suite():
    report = single(run_suite("t-crosscheck", max_m=25))
    assert report.passed
    assert any("-3/4" in note for note in report.notes)


def test_recurrence_suite_reports():
    reports = run_suite("recurrence", max_n=20)
    names = [r.property for r in reports]
    assert names == [
        "recurrence-b-identity",
        "recurrence-residual",
        "recurrence-d-shift",
        "recurrence-ac-ratio",
        "recurrence-main-inequality",
    ]
    assert all(r.passed for r in reports)


def test_monotone_t_suite():
    reports = run_suite("monotone-t", max_m=60)
    assert [r.property for r in reports] == ["t-monotone", "limit-gap"]
    assert all(r.passed for r in reports)
    assert any("1 - ln 2" in note for r in reports for note in r.notes)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("no-such-property", max_m=5)


def test_nonpositive_limit_rejected():
    with pytest.raises(ValueError):
        run_suite("unimodal", max_m=0)


def test_default_ranges_apply_when_limit_omitted():
    report = single(run_suite("min-functional"))
    assert "m <= 40" in report.range


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every process pool a sweep starts."""
    real, started = concurrent.futures.ProcessPoolExecutor, []

    def spy(max_workers):
        started.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    return started


def test_parallel_matches_serial(pools):
    serial = single(run_suite("inequality-chain", max_m=25, jobs=1))
    assert pools == []
    parallel = single(run_suite("inequality-chain", max_m=25, jobs=3))
    assert pools == [3]
    assert serial.passed and parallel.passed
    assert serial.range == parallel.range


@pytest.mark.parametrize("name", sorted(SUITES))
def test_only_the_costly_records_start_a_pool(pools, name):
    # every other record is cheaper serially than a pool's start
    assert all(r.passed for r in run_suite(name, max_m=6, max_n=6, jobs=2))
    assert pools == ([2] if name == "inequality-chain" else [])


def test_sweep_reports_first_counterexample(monkeypatch):
    # sabotage the closed-form minimum so every row from m = 7 up fails
    real = seqprops.minimum_claimed_value
    monkeypatch.setattr(
        suites.seqprops, "minimum_claimed_value", lambda m: real(m) + (m >= 7)
    )
    report = single(run_suite("min-functional", max_m=12))
    assert not report.passed
    assert report.counterexample.location["m"] == 7


def test_recurrence_suite_halts_at_first_bad_residual(monkeypatch):
    from fractions import Fraction

    from quartint import recurrence

    real = recurrence.recurrence_residual
    calls = []

    def doctored(n):
        calls.append(n)
        return Fraction(1, 3) if n == 9 else real(n)

    monkeypatch.setattr(suites.recurrence, "recurrence_residual", doctored)
    reports = run_suite("recurrence", max_n=20)
    residual = next(r for r in reports if r.property == "recurrence-residual")
    assert not residual.passed
    assert residual.counterexample.location == {"n": 9, "oracle": "t_direct"}
    assert residual.counterexample.values == {"residual": "1/3"}
    assert max(calls) == 9  # later n never evaluated


def test_recurrence_suite_checks_the_hypergeometric_oracle(monkeypatch):
    real = suites.tfunction.t_hypergeometric
    monkeypatch.setattr(suites.tfunction, "t_hypergeometric", lambda m: real(m) + Fraction(m == 7, 2))
    reports = run_suite("recurrence", max_n=20)
    residual = next(r for r in reports if r.property == "recurrence-residual")
    assert not residual.passed
    assert residual.counterexample.location == {"n": 5, "oracle": "t_hypergeometric"}


def test_the_chain_suite_computes_no_s_sum(monkeypatch):
    # S_{m,l} < 1 is lhs < rhs_last_term, and s-monotone compares the same
    # integer left sums: a passing run of either makes no S_{m,l}
    def no_s_sum(m, ell):
        raise AssertionError("a row record called s_sum")

    monkeypatch.setattr(tfunction, "s_sum", no_s_sum)
    assert single(run_suite("inequality-chain", max_m=100)).passed
    assert single(run_suite("s-monotone", max_m=100)).passed


def test_no_default_range_is_empty():
    for name, (limit, _, records) in SUITES.items():
        for record in records(limit, 3):
            assert len(record[2]) > 0, (name, record[0])


def test_serial_sweep_stops_at_the_first_failure(monkeypatch):
    real = seqprops.is_unimodal
    calls = []

    def doctored(row):
        calls.append(len(row) - 1)
        return real(row) and len(row) != 8

    monkeypatch.setattr(seqprops, "is_unimodal", doctored)
    report = single(run_suite("unimodal", max_m=30))
    assert report.counterexample.location == {"m": 7}
    assert calls == list(range(8))


def doctor_chain(failing):
    """Make the inequality chain fail at every (m, 0) with m in ``failing``."""
    real = tfunction.inequality_chain_check

    def doctored(m, ell):
        chain = real(m, ell)
        return chain._replace(lhs=chain.rhs_last_term) if m in failing and ell == 0 else chain

    return mock.patch.object(tfunction, "inequality_chain_check", doctored)


@forked_pool
def test_parallel_sweep_reports_the_serial_counterexample(pools):
    with doctor_chain({9, 55}):
        serial = single(run_suite("inequality-chain", max_m=60, jobs=1))
        parallel = single(run_suite("inequality-chain", max_m=60, jobs=2))
    assert pools == [2]
    assert serial.counterexample.location == {"m": 9, "ell": 0}
    assert (parallel.range, parallel.counterexample) == (serial.range, serial.counterexample)


@forked_pool
@settings(max_examples=6, deadline=None)
@given(max_m=st.integers(3, 40), failing=st.sets(st.integers(2, 40), max_size=3))
def test_parallel_and_serial_sweeps_give_the_same_report(max_m, failing):
    with doctor_chain(failing):
        serial, parallel = (single(run_suite("inequality-chain", max_m=max_m, jobs=j)) for j in (1, 2))
    assert parallel._replace(elapsed=0) == serial._replace(elapsed=0)
    assert serial.passed == all(m > max_m for m in failing)
