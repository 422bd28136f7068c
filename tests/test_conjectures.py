from fractions import Fraction

import pytest

from quartint import conjectures, scan_hyp_inequality, scan_infinite_logconcavity, suites
from quartint.coefficients import scaled_row
from quartint.conjectures import (
    default_x_grid,
    hyp_inequality_margin,
    iterated_l_first_negative,
    row_first_negative,
)
from quartint.tfunction import t_direct


def test_default_grid():
    grid = default_x_grid()
    assert grid[0] == Fraction(1, 2)
    assert grid[-1] == 5
    assert len(grid) == 19
    assert all(b - a == Fraction(1, 4) for a, b in zip(grid, grid[1:]))


def test_iterated_l_detects_negativity():
    # L(1, 1, 3) = (1, -2, 9): negative at iteration 1, index 1
    assert iterated_l_first_negative([1, 1, 3], 5) == (1, 1, -2)
    assert iterated_l_first_negative([1, 4, 6, 4, 1], 3) is None


def test_failing_row_reports_the_fraction_row_witness(monkeypatch):
    # A doctored integer row for m = 4 whose L^2 goes negative: L(1,2,3,4,5)
    # = (1,1,1,1,25) and L^2 has -24 at index 3.  The integer path must give
    # the witness the Fraction row b / 4^m gives, -24 / 4^(4*4) = -3/2^29.
    doctored = (1, 2, 3, 4, 5)
    monkeypatch.setattr(conjectures, "scaled_row", lambda m: doctored if m == 4 else scaled_row(m))
    expected = iterated_l_first_negative([Fraction(v, 4**4) for v in doctored], 5)
    assert expected == (2, 3, Fraction(-3, 2**29))
    assert row_first_negative(4, 5) == expected

    location = {"m": 4, "iteration": 2, "index": 3}
    values = {"entry": "-3/536870912"}
    scan = scan_infinite_logconcavity(6, 5)
    assert not scan.passed
    assert (scan.counterexample.location, scan.counterexample.values) == (location, values)
    assert scan.notes == ()
    (suite,) = suites.run_suite("ilogconcave", max_m=6, depth=5, jobs=1)
    assert not suite.passed
    assert (suite.counterexample.location, suite.counterexample.values) == (location, values)


def test_ilogconcave_scan_passes():
    report = scan_infinite_logconcavity(25, 5)
    assert report.passed
    assert report.counterexample is None
    assert "depth 5" in report.range


def test_hyp_margin_positive_on_small_grid():
    for m in range(2, 16):
        for x in (Fraction(1, 2), Fraction(3, 4), 1, 2, 5):
            assert hyp_inequality_margin(m, x) > 0


def test_hyp_scan_passes_and_records_margin():
    report = scan_hyp_inequality(10)
    assert report.passed
    assert any("smallest margin" in note for note in report.notes)


def test_hyp_scan_single_comparison():
    report = scan_hyp_inequality(2, (Fraction(1, 2),))
    assert report.passed
    assert report.notes and "m=2" in report.notes[0]


def test_hyp_scan_grid_validation():
    with pytest.raises(ValueError):
        scan_hyp_inequality(5, (Fraction(1, 4),))
    with pytest.raises(ValueError):
        scan_hyp_inequality(5, ())


def test_hyp_scan_reports_counterexample_with_witnesses(monkeypatch):
    real_margin = conjectures.hyp_inequality_margin

    def doctored(m, x):
        if m == 4 and x == Fraction(3, 4):
            return Fraction(-1, 7)
        return real_margin(m, x)

    monkeypatch.setattr(conjectures, "hyp_inequality_margin", doctored)
    report = scan_hyp_inequality(6, (Fraction(1, 2), Fraction(3, 4)))
    assert not report.passed
    assert report.counterexample.location == {"m": 4, "x": "3/4"}
    assert report.counterexample.values == {"margin": "-1/7"}
    # the smallest margin up to the witness is the witness's own
    assert report.notes == ("smallest margin -1/7 at m=4, x=3/4",)


def test_half_point_equivalence():
    # at x = 1/2 the conjectured inequality is T(m+1) > T(m)
    for m in range(2, 101):
        assert hyp_inequality_margin(m, Fraction(1, 2)) == 2 * (t_direct(m + 1) - t_direct(m))


def test_hyp_scan_max_m_validation():
    with pytest.raises(ValueError):
        scan_hyp_inequality(1, (Fraction(1, 2),))


def test_scans_are_deterministic():
    a = scan_infinite_logconcavity(8, 3)
    b = scan_infinite_logconcavity(8, 3)
    assert (a.passed, a.range, a.counterexample) == (b.passed, b.range, b.counterexample)
