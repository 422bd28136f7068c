"""Acceptance suite: every criterion at its full stated range, one printed
pass/fail line per criterion (visible with pytest -s).

The library memoizes coefficient rows and T values, so the expensive tables
are built once and shared across criteria within the pytest process.
"""

import functools
import math
import time
from fractions import Fraction
from itertools import zip_longest

import pytest

from quartint import conjectures, scan_hyp_inequality, scan_infinite_logconcavity
from quartint.coefficients import coefficient_row
from quartint.exact import binomial
from quartint.hypergeometric import hyp2f1, series_coefficients
from quartint.quadrature import closed_form, evaluate_quartic_integral
from quartint.polynomial import taylor_shift
from quartint.recurrence import CERTIFICATE, D_SHIFT_REFERENCE, ac_limit, recurrence_residual
from quartint.seqprops import (
    is_logconcave,
    is_ratio_monotone,
    is_unimodal,
    iterated_l_first_negative,
    minimum_claimed_value,
    minimum_functional,
)
from quartint.tfunction import (
    T_LIMIT,
    s_sum,
    t_direct,
    t_hypergeometric,
    t_integral,
    t_via_w,
    inequality_chain_check,
)


def criterion(number, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} {label}: FAIL [{time.perf_counter() - start:.1f}s]")
                raise
            print(f"ACCEPTANCE {number:02d} {label}: PASS [{time.perf_counter() - start:.1f}s]")

        return run

    return wrap


@criterion(1, "coefficient fidelity")
def test_c01_coefficient_fidelity():
    assert coefficient_row(2).values == (Fraction(21, 8), Fraction(15, 4), Fraction(3, 2))
    for m in range(0, 21):
        assert coefficient_row(m).values[m] == Fraction(binomial(2 * m, m), 2**m)


@criterion(2, "unimodality and delta signs")
def test_c02_unimodality():
    for m in range(0, 201):
        assert is_unimodal(coefficient_row(m).values)
    for m in range(1, 121):
        values = coefficient_row(m).values
        for ell in range(m):
            d = values[ell + 1] - values[ell]
            assert d > 0 if ell < m // 2 else d < 0, (m, ell)


@criterion(3, "logconcavity and 3-logconcavity")
def test_c03_logconcavity():
    for m in range(0, 201):
        assert is_logconcave(coefficient_row(m).values)
    for m in range(0, 101):
        row = coefficient_row(m).values
        assert min(row) >= 0 and iterated_l_first_negative(row, 3) is None


@criterion(4, "ratio-monotonicity")
def test_c04_ratio_monotonicity():
    for m in range(2, 121):
        assert is_ratio_monotone(coefficient_row(m).values)


@criterion(5, "minimum functional at l = m")
def test_c05_minimum_functional():
    for m in range(2, 41):
        values = [minimum_functional(m, ell) for ell in range(1, m + 1)]
        assert values[-1] == minimum_claimed_value(m)
        assert min(values) == values[-1]
        assert all(v > values[-1] for v in values[:-1])


@criterion(6, "T values and global bounds")
def test_c06_t_values():
    assert t_direct(1) == Fraction(1, 4)
    assert t_direct(2) == Fraction(1, 4)
    assert t_direct(3) == Fraction(67, 264)
    for m in range(1, 501):
        t = t_direct(m)
        assert t < 1
        if m >= 2:
            assert t <= Fraction(27, 28)


@criterion(7, "representation agreement")
def test_c07_representation_agreement():
    for m in range(1, 101):
        direct = t_direct(m)
        assert t_hypergeometric(m) == direct
        assert t_integral(m) == direct
        assert t_via_w(m) == direct
    for m in range(1, 61):
        assert s_sum(2 * m, m - 1) == t_direct(m)


@criterion(8, "S monotone in l")
def test_c08_s_monotone():
    for m in range(2, 201):
        top = (m - 1) // 2
        values = [s_sum(m, ell) for ell in range(0, top + 1)]
        assert all(a < b for a, b in zip(values, values[1:])), m
        assert values[top] < 1, m


def literal_s(m, ell):
    """S_{m,l} term by term, from its defining binomial sum."""
    return sum(
        Fraction(
            binomial(m - ell, m - k) * binomial(m + k, 2 * k) * (2 * ell + 1 - k),
            binomial(2 * m, 2 * k) * 2 ** (m - k),
        )
        for k in range(ell, min(2 * ell, m) + 1)
    )


@criterion(9, "four-stage inequality chain")
def test_c09_inequality_chain():
    for m in range(2, 101):
        for ell in range(0, m // 2):
            chain = inequality_chain_check(m, ell)
            assert chain.lhs < chain.rhs_last_term <= chain.rhs_unweighted <= chain.rhs_full, (m, ell)
            assert Fraction(chain.lhs, chain.rhs_last_term) == s_sum(m, ell) == literal_s(m, ell), (m, ell)


@criterion(10, "recurrence certificate")
def test_c10_recurrence_certificate():
    start = time.perf_counter()
    assert all(b == a + c + d for a, b, c, d in zip_longest(*CERTIFICATE, fillvalue=0))
    for n in range(1, 101):
        assert recurrence_residual(n) == 0, n
    coeffs = taylor_shift(CERTIFICATE.d, 2)
    assert all(c > 0 for c in coeffs)
    assert coeffs == D_SHIFT_REFERENCE
    assert coeffs[0] == 814627800 and coeffs[-1] == 1858560
    assert ac_limit() == Fraction(27, 16)
    assert time.perf_counter() - start < 60.0


@criterion(11, "monotonicity and limit ordering")
def test_c11_monotonicity_and_limit():
    for m in range(2, 500):
        assert t_direct(m) < t_direct(m + 1), m
    gaps = {m: T_LIMIT - float(t_direct(m)) for m in range(2, 501)}
    assert all(g > 0 for g in gaps.values())
    for m in range(2, 500):
        assert gaps[m] > gaps[m + 1], m
    assert abs(float(t_direct(500)) - T_LIMIT) < abs(float(t_direct(50)) - T_LIMIT) < abs(
        float(t_direct(5)) - T_LIMIT
    )


@criterion(12, "envelope and ratio bounds")
def test_c12_envelope_and_ratio_bounds():
    for m in range(2, 61):
        for t in (Fraction(i, 10) for i in range(21)):
            value = hyp2f1(Fraction(5, 2), 1 - m, 2 - 4 * m, t)
            assert value * value * (3 - t) ** 5 <= 243, (m, t)

    def tripled(b, c):
        """3^k (b)_k / (c)_k: coefficient k of 2F1(1, b; c; z) times 3^k."""
        coeffs, den = series_coefficients(1, b, c)
        return [Fraction(3**k * v, den) for k, v in enumerate(coeffs)]

    for m in range(2, 101):
        b = tripled(1 - m, 2 - 4 * m)
        assert b[0] == 1 and all(0 < later <= earlier for earlier, later in zip(b, b[1:])), m
    # The 3^(-k) tail bound holds for every 3 <= m <= 100; at m = 2 it has the
    # single genuine exception k = 1, where the ratio is 3/8 > 1/3.
    assert [k for k, v in enumerate(tripled(-3, -8)) if v > 1] == [1]
    print("ACCEPTANCE 12 note: tail ratio bound verified with its single true exception (m=2, k=1)")
    for m in range(3, 101):
        assert all(v <= 1 for v in tripled(-1 - m, -4 * m)), m


@criterion(13, "quadrature cross-check")
def test_c13_quadrature():
    spot = evaluate_quartic_integral(1, 1.0, 1e-10)
    assert spot.numeric == pytest.approx(5 * math.pi / 32, rel=1e-8)
    assert closed_form(1, 1.0) == pytest.approx(5 * math.pi / 32, rel=1e-14)
    for m in range(0, 9):
        for a in (0.0, 0.5, 1.0, 2.0):
            result = evaluate_quartic_integral(m, a, 1e-10)
            assert result.relative_error < 1e-8, (m, a)


@criterion(14, "conjecture scans")
def test_c14_conjecture_scans(monkeypatch):
    report = scan_infinite_logconcavity(40, 5)
    assert report.passed, report
    grid = tuple(Fraction(2 + i, 4) for i in range(19))  # x = 1/2, 3/4, ..., 5
    report = scan_hyp_inequality(40, grid)
    assert report.passed, report
    # counterexample plumbing: a failing margin must surface exact witnesses
    monkeypatch.setattr(
        conjectures,
        "hyp_inequality_margin",
        lambda m, x: Fraction(-1, 3) if (m, x) == (5, Fraction(1, 2)) else Fraction(1),
    )
    doctored = scan_hyp_inequality(6, (Fraction(1, 2),))
    assert not doctored.passed
    assert doctored.counterexample.location == {"m": 5, "x": "1/2"}
    assert doctored.counterexample.values == {"margin": "-1/3"}
