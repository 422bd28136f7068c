from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from quartint import conjectures, scan_hyp_inequality, scan_infinite_logconcavity, seqprops, suites
from quartint.cli import main
from quartint.coefficients import scaled_row
from quartint.conjectures import hyp_inequality_margin, margin_polynomial
from quartint.hypergeometric import hyp2f1, series_coefficients
from quartint.seqprops import iterated_l_first_negative
from quartint.tfunction import t_direct


def pochhammer(x, k):
    """The rising factorial x (x+1) ... (x+k-1), as the literal product."""
    return prod((x + i for i in range(k)), start=Fraction(1))


def literal_coefficients(a, b, c):
    """(a)_k (b)_k / ((c)_k k!) for 0 <= k <= -b, each from rising factorials."""
    return tuple(pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * factorial(k)) for k in range(1 - b))


def literal_margin(m, x):
    """The four series summed at z = 4x, each on its own."""
    z = 4 * Fraction(x)
    left = hyp2f1(Fraction(3, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(3, 2), -m - 1, -4 * m, z)
    right = hyp2f1(Fraction(1, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(1, 2), -m - 1, -4 * m, z)
    return left - 3 * right


# The points of the eight hypineq grids a benchmark pass can draw: 19 points
# x = 1/2 + j/8 + i/4 for each offset j.
MENU_POINTS = sorted({Fraction(1, 2) + Fraction(j, 8) + Fraction(i, 4) for j in range(8) for i in range(19)})


@pytest.fixture
def cold_margins():
    conjectures.margin_polynomial.cache_clear()
    yield
    conjectures.margin_polynomial.cache_clear()


def test_iterated_l_detects_negativity():
    # L(1, 1, 3) = (1, -2, 9): negative at iteration 1, index 1
    assert iterated_l_first_negative([1, 1, 3], 5) == (1, 1, -2)
    assert iterated_l_first_negative([1, 4, 6, 4, 1], 3) is None


def test_failing_row_reports_the_fraction_row_witness(monkeypatch):
    # A doctored integer row for m = 4 whose L^2 goes negative: L(1,2,3,4,5)
    # = (1,1,1,1,25) and L^2 has -24 at index 3.  The integer path must give
    # the witness the Fraction row b / 4^m gives, -24 / 4^(4*4) = -3/2^29.
    doctored = (1, 2, 3, 4, 5)
    monkeypatch.setattr(suites, "scaled_row", lambda m: doctored if m == 4 else scaled_row(m))
    expected = iterated_l_first_negative([Fraction(v, 4**4) for v in doctored], 5)
    assert expected == (2, 3, Fraction(-3, 2**29))
    assert iterated_l_first_negative(doctored, 5) == (2, 3, -24)

    location = {"m": 4, "iteration": 2, "index": 3}
    values = {"entry": "-3/536870912"}
    assert suites._ilogconcave_witness(4, 5) == (location, values)
    scan = scan_infinite_logconcavity(6, 5)
    assert not scan.passed
    assert (scan.counterexample.location, scan.counterexample.values) == (location, values)
    assert scan.notes == ()
    (suite,) = suites.run_suite("ilogconcave", max_m=6, depth=5)
    assert not suite.passed
    assert (suite.counterexample.location, suite.counterexample.values) == (location, values)


def test_rows_stop_iterating_once_certified(monkeypatch):
    # row 60 is 8/3-factor log-concave at L^4, so L^5 is the last image
    # computed; row 3 is already 8/3-factor log-concave itself.  Each image
    # is made from one call of the products that l_operator shares.
    calls = []
    real = seqprops._l_terms

    def counting(seq):
        calls.append(len(seq))
        return real(seq)

    monkeypatch.setattr(seqprops, "_l_terms", counting)
    assert iterated_l_first_negative(scaled_row(60), 7) is None
    assert len(calls) == 5
    calls.clear()
    assert iterated_l_first_negative(scaled_row(3), 7) is None
    assert calls == [4]


def test_ilogconcave_scan_passes():
    report = scan_infinite_logconcavity(25, 5)
    assert report.passed
    assert report.counterexample is None
    assert "depth 5" in report.range


def test_depth_zero_scan_is_an_error():
    # depth 0 applies L to no row, so a pass would have checked nothing
    with pytest.raises(ValueError, match="depth"):
        scan_infinite_logconcavity(10, 0)


def test_hyp_margin_positive_on_small_grid():
    for m in range(2, 16):
        for x in (Fraction(1, 2), Fraction(3, 4), 1, 2, 5):
            assert hyp_inequality_margin(m, x) > 0


def test_hyp_scan_passes_and_records_margin():
    report = scan_hyp_inequality(10, (Fraction(1, 2), 1, 5))
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
    # the margin is in the values, so a failing scan adds no note
    assert report.notes == ()


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


def test_margin_polynomial_equals_the_four_series_on_the_menu_grids():
    assert len(MENU_POINTS) == 44
    for m in range(1, 61):
        for x in MENU_POINTS:
            assert hyp_inequality_margin(m, x) == literal_margin(m, x), (m, x)


@given(
    m=st.integers(1, 60),
    den=st.integers(3, 200).filter(lambda d: d & (d - 1)),
    steps=st.integers(0, 2000),
)
def test_margin_polynomial_equals_the_four_series_off_dyadic_points(m, den, steps):
    x = Fraction(-(-den // 2) + steps, den)  # x >= 1/2
    assert hyp_inequality_margin(m, x) == literal_margin(m, x)


def test_margin_polynomial_is_the_series_combination():
    for m in range(1, 41):
        coeffs, den = margin_polynomial(m)
        assert len(coeffs) == m + 3
        series = [
            (1, literal_coefficients(Fraction(3, 2), -m - 2, -4 * m - 4)),
            (-1, literal_coefficients(Fraction(3, 2), -m - 1, -4 * m)),
            (-3, literal_coefficients(Fraction(1, 2), -m - 2, -4 * m - 4)),
            (3, literal_coefficients(Fraction(1, 2), -m - 1, -4 * m)),
        ]
        for k, coeff in enumerate(coeffs):
            expected = sum(weight * poly[k] for weight, poly in series if k < len(poly))
            assert Fraction(coeff, den) == expected, (m, k)


@pytest.mark.parametrize("k", [0, 1, -1])
def test_a_doctored_coefficient_builder_exits_3_never_1(monkeypatch, capsys, cold_margins, k):
    def doctored(a, b, c):
        coeffs, den = series_coefficients(a, b, c)
        coeffs = list(coeffs)
        coeffs[k] += 1
        return tuple(coeffs), den

    monkeypatch.setattr(conjectures, "series_coefficients", doctored)
    with pytest.raises(ArithmeticError, match="m=2"):
        hyp_inequality_margin(2, 1)
    assert main(["scan", "hypineq", "--max-m", "5", "--format", "json"]) == 3
    assert "internal error" in capsys.readouterr().err
