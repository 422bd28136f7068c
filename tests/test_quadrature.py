import math
from fractions import Fraction

import pytest

from quartint import quadrature
from quartint.coefficients import coefficient_row
from quartint.polynomial import horner
from quartint.quadrature import QuadratureConvergenceError, closed_form, evaluate_quartic_integral


def test_classical_value():
    # integrand (x^2+1)^(-4) at m = 1, a = 1
    value = evaluate_quartic_integral(1, 1.0, 1e-12).numeric
    assert value == pytest.approx(5 * math.pi / 32, rel=1e-10)


def test_closed_form_values():
    assert closed_form(1, 1.0) == pytest.approx(5 * math.pi / 32, rel=1e-14)
    assert closed_form(0, 0.0) == pytest.approx(math.pi / 2**1.5, rel=1e-14)
    assert closed_form(2, 1.0) == pytest.approx(63 * math.pi / 512, rel=1e-14)
    assert closed_form(0, 1.0) == pytest.approx(math.pi / 4, rel=1e-14)


def test_closed_form_exact_rational_argument():
    assert closed_form(3, Fraction(1, 2)) == pytest.approx(closed_form(3, 0.5), rel=1e-14)


def test_numeric_matches_closed_form():
    result = evaluate_quartic_integral(3, 0.0, 1e-10)
    assert result.relative_error < 1e-9
    assert result.evaluations >= 30


def test_grid_accuracy():
    for m in range(0, 9):
        for a in (0.0, 0.5, 1.0, 2.0):
            result = evaluate_quartic_integral(m, a, 1e-10)
            assert result.relative_error < 1e-8, (m, a)


def test_monotone_in_a_and_m():
    for m in range(0, 6):
        values = [closed_form(m, a) for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(x > y for x, y in zip(values, values[1:]))
    for a in (0.5, 1.0, 2.0):
        values = [closed_form(m, a) for m in range(0, 9)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_divergent_and_domain_errors():
    with pytest.raises(ValueError, match=r"^integral diverges for a = -1\.0 <= -1$"):
        evaluate_quartic_integral(1, -1.0, 1e-8)
    with pytest.raises(ValueError, match=r"^integral diverges for a = -2\.5 <= -1$"):
        evaluate_quartic_integral(1, -2.5, 1e-8)
    with pytest.raises(ValueError):
        closed_form(1, -1.0)
    with pytest.raises(ValueError):
        evaluate_quartic_integral(1, 1.0, 0.0)


def test_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "BUDGET", 600)
    with pytest.raises(QuadratureConvergenceError):
        evaluate_quartic_integral(2, 1.0, 1e-30)


def test_one_folded_run_on_the_unit_interval(monkeypatch):
    # the x -> 1/x image of [1, inf) is folded into the integrand on [0, 1],
    # so the whole integral is one adaptive run
    calls = []
    real = quadrature._adaptive

    def recording(f, lo, hi, tol):
        calls.append((lo, hi))
        return real(f, lo, hi, tol)

    monkeypatch.setattr(quadrature, "_adaptive", recording)
    evaluate_quartic_integral(3, 0.5, 1e-10)
    assert calls == [(0.0, 1.0)]


def test_large_a_runs_on_geometric_panels(monkeypatch):
    calls = []
    real = quadrature._panel

    def recording(f, lo, hi):
        calls.append((lo, hi))
        return real(f, lo, hi)

    monkeypatch.setattr(quadrature, "_panel", recording)
    evaluate_quartic_integral(3, 1e12, 1e-10)
    # u = 10^6 x on [0, 10^6], first split at u = 1, 2, 4, ..., 2^19
    assert calls[:21] == [(0.0, 1.0), *((2.0**k, 2.0 ** (k + 1)) for k in range(19)), (2.0**19, 1e6)]


def test_closed_form_receives_the_exact_argument():
    # "-0.9" is the rational -9/10, not the float nearest to it
    assert evaluate_quartic_integral(5, "-0.9", 1e-10).closed_form == closed_form(5, Fraction(-9, 10))


def test_result_record():
    result = evaluate_quartic_integral(1, 1.0, 1e-12)
    assert (result.m, result.a) == (1, 1.0)
    assert result.evaluations % 15 == 0
    assert result.relative_error == abs(result.numeric - result.closed_form) / abs(result.closed_form)


def factor_by_factor_closed_form(m, a):
    """The closed form with each factor converted to float on its own; it
    overflows for large m."""
    a = Fraction(a)
    return math.pi / (2.0 ** (m + 1.5) * float(a + 1) ** (m + 0.5)) * float(horner(coefficient_row(m).values, a))


def test_closed_form_converts_the_exact_rational_once():
    # P_m(a) / (2^m (a+1)^m) as a literal power sum over the rational row,
    # converted to float once: the same rational, so the same float
    for m in range(0, 41):
        for a in (-0.9, -0.5, 0.0, 0.5, 1.0, 4.0):
            exact = Fraction(a)
            p_m = sum(d * exact**ell for ell, d in enumerate(coefficient_row(m).values))
            expected = float(p_m / (2 * (exact + 1)) ** m) * math.pi / (2.0**1.5 * math.sqrt(exact + 1))
            assert closed_form(m, a) == expected, (m, a)


def test_closed_form_matches_factor_by_factor_form():
    points = [(m, float(a)) for m in range(1, 41) for a in ("-0.5", "-0.25", "0", "0.5", "1", "2", "4")]
    for m, a in points + [(50, -0.9)]:
        assert closed_form(m, a) == pytest.approx(factor_by_factor_closed_form(m, a), rel=1e-13), (m, a)
