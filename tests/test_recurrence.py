from fractions import Fraction
from itertools import zip_longest

import pytest

from quartint import recurrence
from quartint.cli import main
from quartint.exact import binomial
from quartint.polynomial import horner, taylor_shift
from quartint.recurrence import (
    CERTIFICATE,
    D_SHIFT_REFERENCE,
    ac_limit,
    ac_values,
    recurrence_residual,
    t_stepped,
)
from quartint.suites import run_suite
from quartint.tfunction import t_direct, t_direct_pair, t_integral


def test_certificate_shape():
    assert [len(p) - 1 for p in CERTIFICATE] == [9, 9, 9, 7]
    assert CERTIFICATE.a[-1] == 9732096
    assert CERTIFICATE.b[-1] == 15499264
    assert CERTIFICATE.c[-1] == 5767168
    assert CERTIFICATE.d[-1] == 1858560
    assert all(type(c) is int for p in CERTIFICATE for c in p)


def test_b_identity():
    assert all(b == a + c + d for a, b, c, d in zip_longest(*CERTIFICATE, fillvalue=0))
    # spot checks on the extreme coefficients
    assert 7195230 + 3265920 - 799470 == 9661680
    assert 9732096 + 5767168 == 15499264


@pytest.mark.parametrize("k", [0, 7, 8, 9])
def test_b_identity_sees_every_coefficient(monkeypatch, k):
    # k = 8, 9 lie above the degree of d
    b = list(CERTIFICATE.b)
    b[k] += 1
    monkeypatch.setattr(recurrence, "CERTIFICATE", CERTIFICATE._replace(b=tuple(b)))
    report = run_suite("recurrence", max_n=2)[0]
    assert report.property == "recurrence-b-identity"
    assert report.counterexample.location == {"k": k}


def test_residual_at_one_from_frozen_values():
    assert t_direct(1) == Fraction(1, 4)
    assert t_direct(2) == Fraction(1, 4)
    assert t_direct(3) == Fraction(67, 264)
    assert recurrence_residual(1) == 0


def test_residuals_vanish():
    for n in range(1, 26):
        assert recurrence_residual(n) == 0
    assert recurrence_residual(10) == 0
    with pytest.raises(ValueError):
        recurrence_residual(0)


def test_residual_in_integers_equals_the_literal_fraction_form():
    def literal(n, t):
        a, b, c, d = (horner(p, n) for p in CERTIFICATE)
        return a * t(n) - b * t(n + 1) + c * t(n + 2) + d

    def off(m):
        return t_direct(m) + Fraction(1, m + 7)

    for n in range(1, 61):
        assert recurrence_residual(n, t=off) == literal(n, off) != 0
        assert recurrence_residual(n) == literal(n, t_direct) == 0


def test_residuals_vanish_with_integral_oracle():
    for n in range(1, 26):
        assert recurrence_residual(n, t=t_integral) == 0

    def wrong(m):
        return t_integral(m) + (m == 5)

    assert [n for n in range(1, 8) if recurrence_residual(n, t=wrong) != 0] == [3, 4, 5]


def test_d_shift_expansion():
    coeffs = taylor_shift(CERTIFICATE.d, 2)
    assert coeffs[0] == 814627800
    assert coeffs[-1] == 1858560
    assert len(coeffs) == 8
    assert all(c > 0 for c in coeffs)
    assert coeffs == D_SHIFT_REFERENCE


def test_ac_ratio_and_limit():
    assert ac_limit() == Fraction(27, 16)
    assert all(Fraction(*ac_values(n)) > 1 for n in range(2, 501))
    assert abs(Fraction(*ac_values(1000)) - Fraction(27, 16)) < Fraction(1, 100)


def test_certificate_positivity():
    for n in range(1, 1001):
        assert horner(CERTIFICATE.a, n) > 0
        assert horner(CERTIFICATE.c, n) > 0


# The premises of the sign-propagation argument that T rises for m >= 2
# (with Delta_n = T(n+1) - T(n) and U = 1 - T), as far as they hold today.
def monotonicity_premise_failures(certificate):
    """The names of the premises that ``certificate`` fails."""
    a, b, c, d = certificate
    checks = {
        "a - c has positive coefficients": all(x - y > 0 for x, y in zip_longest(a, c, fillvalue=0)),
        "c has positive coefficients": all(x > 0 for x in c),
        "d(1) < 0 < d(2)": horner(d, 1) < 0 < horner(d, 2),
        "b = a + c + d": all(bk == ak + ck + dk for ak, bk, ck, dk in zip_longest(a, b, c, d, fillvalue=0)),
        "c(n) Delta_{n+1} = a(n) Delta_n - d(n) U(n+1) for 1 <= n <= 500": all(
            horner(c, n) * (t_direct(n + 2) - t_direct(n + 1))
            == horner(a, n) * (t_direct(n + 1) - t_direct(n)) - horner(d, n) * (1 - t_direct(n + 1))
            for n in range(1, 501)
        ),
    }
    return [name for name, holds in checks.items() if not holds]


def test_the_monotonicity_premises_hold():
    assert monotonicity_premise_failures(CERTIFICATE) == []
    # the boundary: d(1) < 0 matches T(1) = T(2)
    assert (horner(CERTIFICATE.d, 1), horner(CERTIFICATE.d, 2)) == (-21319200, 814627800)


@pytest.mark.parametrize("k", [0, 9])
def test_a_doctored_b_fails_the_monotonicity_premises(k):
    b = list(CERTIFICATE.b)
    b[k] += 1
    assert monotonicity_premise_failures(CERTIFICATE._replace(b=tuple(b))) == ["b = a + c + d"]


def test_a_negative_coefficient_of_a_minus_c_fails_the_monotonicity_premises():
    # c[3] raised past a[3], and b with it, so that b = a + c + d still holds
    raise_c = CERTIFICATE.a[3] - CERTIFICATE.c[3] + 1
    c = (*CERTIFICATE.c[:3], CERTIFICATE.c[3] + raise_c, *CERTIFICATE.c[4:])
    b = (*CERTIFICATE.b[:3], CERTIFICATE.b[3] + raise_c, *CERTIFICATE.b[4:])
    failures = monotonicity_premise_failures(CERTIFICATE._replace(b=b, c=c))
    assert failures == [
        "a - c has positive coefficients",
        "c(n) Delta_{n+1} = a(n) Delta_n - d(n) U(n+1) for 1 <= n <= 500",
    ]


def power_sum(coeffs, n):
    return sum(c * n**k for k, c in enumerate(coeffs))


def test_integer_evaluation_matches_polynomials():
    for n in (1, 2, 7, 500, 1000, 10**6):
        a, c = power_sum(CERTIFICATE.a, n), power_sum(CERTIFICATE.c, n)
        assert ac_values(n) == (a, c)


def test_main_inequality():
    for n in range(2, 201):
        a_n, c_n = ac_values(n)
        assert a_n * (t_direct(n) - t_direct(n + 1)) <= c_n * (t_direct(n + 1) - t_direct(n + 2)), n


def test_monotonicity_report():
    report = run_suite("monotone-t", max_m=40)[0]
    assert report.property == "t-monotone"
    assert report.passed
    assert report.counterexample is None
    assert any("T(1) = T(2)" in note for note in report.notes)
    assert any("strictly increasing" in note for note in report.notes)
    with pytest.raises(ValueError):
        run_suite("monotone-t", max_m=2)


@pytest.fixture
def cold_stepped():
    recurrence._stepped.clear()
    yield
    recurrence._stepped.clear()


def test_stepped_values_equal_the_direct_sum(cold_stepped):
    assert [Fraction(*t_stepped(m)) for m in range(1, 501)] == [t_direct(m) for m in range(1, 501)]
    for m in (777, 1025, 1500, 2047, 2048):
        assert Fraction(*t_stepped(m)) == t_direct(m), m


def test_stepped_pairs_are_over_the_direct_sums_denominator(cold_stepped):
    # D_m = 2^(m+1) C(4m, m+1), not reduced: T(1) = T(2) = 1/4 are 6/24 and 112/448
    assert t_stepped(1) == (6, 24) and t_stepped(2) == (112, 448)
    for m in range(1, 301):
        assert t_stepped(m)[1] == binomial(4 * m, m + 1) << (m + 1), m


def test_a_cold_stepped_call_at_2000(cold_stepped):
    assert Fraction(*t_stepped(2000)) == t_direct(2000)
    assert len(recurrence._stepped) == 2048
    with pytest.raises(ValueError):
        t_stepped(0)


def doctor_direct_pair(monkeypatch, at, change):
    """The direct pair that the checkpoints read, changed at m = at."""
    monkeypatch.setattr(recurrence, "t_direct_pair", lambda m: change(*t_direct_pair(m)) if m == at else t_direct_pair(m))


def test_no_stepped_value_is_returned_before_its_checkpoint_matches(cold_stepped, monkeypatch):
    doctor_direct_pair(monkeypatch, 128, lambda n, d: (n + 1, d))
    assert Fraction(*t_stepped(64)) == t_direct(64)
    with pytest.raises(ArithmeticError, match=r"T\(128\)"):
        t_stepped(65)
    assert len(recurrence._stepped) == 64


def test_a_checkpoint_compares_the_denominators_too(cold_stepped, monkeypatch):
    # (2N, 2D) is T(64) over another denominator; the stepped pair is over
    # D_64 itself, so the checkpoint fails and keeps nothing
    doctor_direct_pair(monkeypatch, 64, lambda n, d: (2 * n, 2 * d))
    with pytest.raises(ArithmeticError, match=r"T\(64\) differs from the direct sum"):
        t_stepped(1)
    assert recurrence._stepped == []


DOCTORED_CERTIFICATES = {
    "a doubled": CERTIFICATE._replace(a=tuple(2 * x for x in CERTIFICATE.a)),
    "d[0] + 1": CERTIFICATE._replace(d=(CERTIFICATE.d[0] + 1, *CERTIFICATE.d[1:])),
}


@pytest.mark.parametrize("prop", ["monotone-t", "t-bounds"])
@pytest.mark.parametrize("doctored", DOCTORED_CERTIFICATES.values(), ids=list(DOCTORED_CERTIFICATES))
def test_a_wrong_certificate_is_an_internal_error_never_a_counterexample(
    cold_stepped, monkeypatch, capsys, prop, doctored
):
    # either guard may fire first: a step that leaves a remainder (both
    # doctored certificates do at n = 1) or the checkpoint at T(64)
    monkeypatch.setattr(recurrence, "CERTIFICATE", doctored)
    assert main(["verify", "--property", prop]) == 3
    err = capsys.readouterr().err
    assert "T by the recurrence: inexact step at n=" in err or "T(64) differs from the direct sum" in err
    with pytest.raises(ArithmeticError, match="inexact step at n=1$"):
        t_stepped(3)


@pytest.mark.parametrize("suite", ["recurrence", "t-crosscheck"])
def test_the_recurrence_and_crosscheck_read_only_the_literal_routes(monkeypatch, suite):
    def stepped(m):
        raise AssertionError("the stepped T was read")

    monkeypatch.setattr(recurrence, "t_stepped", stepped)
    assert all(report.passed for report in run_suite(suite))
