from fractions import Fraction
from math import comb

import pytest

from quartint import coefficients
from quartint.cli import main
from quartint.coefficients import coefficient_row, delta_direct, scaled_row
from quartint.polynomial import horner, taylor_shift


def test_first_rows():
    assert coefficient_row(0).values == (Fraction(1),)
    assert coefficient_row(1).values == (Fraction(3, 2), Fraction(1))
    assert coefficient_row(2).values == (Fraction(21, 8), Fraction(15, 4), Fraction(3, 2))


def test_single_coefficients():
    assert coefficient_row(1).values[0] == Fraction(3, 2)
    assert coefficient_row(2).values[1] == Fraction(15, 4)


def test_row_tail_closed_form():
    # the k = m term is the only survivor at l = m
    for m in range(0, 21):
        assert coefficient_row(m).values[m] == Fraction(comb(2 * m, m), 2**m)


def test_scaled_rows_are_integers():
    for m in range(0, 121):
        row = coefficient_row(m)
        assert all(type(b) is int for b in scaled_row(m))
        assert len(row.values) == len(scaled_row(m)) == m + 1
        for value, scaled in zip(row.values, scaled_row(m)):
            assert value * 4**m == scaled


def literal_scaled_row(m):
    # b_l(m) = sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m) C(k, l), term by term
    return tuple(
        sum(2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m) * comb(k, ell) for k in range(ell, m + 1))
        for ell in range(m + 1)
    )


def test_scaled_row_matches_the_literal_triple_binomial_sum():
    for m in [*range(0, 61), 150]:
        assert scaled_row(m) == literal_scaled_row(m), m


def test_row_container_protocol():
    row = coefficient_row(2)
    assert len(row.values) == 3
    assert row.values[1] == Fraction(15, 4)
    assert row.values == tuple(Fraction(b, 4**2) for b in scaled_row(2))
    assert row.as_strings() == ["21/8", "15/4", "3/2"]


def test_domain_errors():
    with pytest.raises(ValueError):
        delta_direct(3, 3)


def test_poly_p():
    # P_m(a) = sum_l d_l(m) a^l = 2^(-2m) sum_k 2^k C(2m-2k, m-k) C(m+k, m) (a+1)^k
    assert horner(coefficient_row(1).values, 1) == Fraction(5, 2)
    for m in range(0, 13):
        for a in (Fraction(-1, 2), 0, 1, Fraction(7, 3)):
            form = sum(2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m) * (a + 1) ** k for k in range(m + 1))
            assert horner(coefficient_row(m).values, a) == horner(scaled_row(m), a) / 4**m == form / 4**m


def literal_delta_closed(m, ell):
    # d_{l+1}(m) - d_l(m) as the single sum
    # 2^(-2m) C(m+l, m) sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m+l) (k-2l-1)/(l+1)
    inner = sum(
        Fraction(2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m + ell) * (k - 2 * ell - 1), ell + 1)
        for k in range(ell, m + 1)
    )
    return Fraction(comb(m + ell, m), 4**m) * inner


def test_delta_values():
    assert delta_direct(2, 0) == Fraction(9, 8)
    assert delta_direct(2, 1) == Fraction(-9, 4)
    assert delta_direct(1, 0) == Fraction(-1, 2)
    assert literal_delta_closed(2, 0) == Fraction(9, 8)
    assert literal_delta_closed(2, 1) == Fraction(-9, 4)


def test_delta_closed_matches_direct_everywhere():
    for m in range(1, 61):
        for ell in range(m):
            assert literal_delta_closed(m, ell) == delta_direct(m, ell)


def test_delta_sign_pattern():
    for m in range(1, 61):
        for ell in range(m):
            d = delta_direct(m, ell)
            if ell < m // 2:
                assert d > 0
            else:
                assert d < 0


# ---------------------------------------------------------------------------
# rows stepped by the recurrence in m against the Taylor shift of the weights


def weights(m):
    return [2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m) for k in range(m + 1)]


def taylor_row(m):
    # the checkpoint construction, made here for every m and not through the row cache
    return taylor_shift(weights(m), 1)


@pytest.fixture
def cold_rows():
    coefficients._scaled_row.cache_clear()
    yield
    coefficients._scaled_row.cache_clear()


def test_stepped_rows_match_the_taylor_shift_in_an_increasing_sweep(cold_rows):
    for m in range(301):
        assert scaled_row(m) == taylor_row(m), m


@pytest.mark.parametrize("m", [63, 64, 65, 127, 150, 300])
def test_a_cold_row_matches_the_taylor_shift(cold_rows, m):
    assert scaled_row(m) == taylor_row(m)
    # rows come from the checkpoint at or below m and the steps up to m
    assert coefficients._scaled_row.cache_info().currsize == m % coefficients._ROW_CHECKPOINT + 1


def test_a_cold_row_past_the_recursion_limit(cold_rows):
    # 1500 = 23 * 64 + 28: one Taylor shift at m = 1472, then 28 steps
    m = 1500
    row = scaled_row(m)
    assert len(row) == m + 1
    assert row[0] == sum(weights(m))  # 4^m P_m(0)
    assert row[-1] == 2**m * comb(2 * m, m)  # 4^m d_m(m)
    assert horner(row, 1) == horner(weights(m), 2)  # 4^m P_m(1)


def test_an_inexact_step_is_an_internal_error(cold_rows, monkeypatch, capsys):
    # one unit added to b_0(64) leaves 2 * 259 = 63 (mod 65) in the step to m = 65
    real = coefficients.taylor_shift

    def doctored(weights, c):
        row = real(weights, c)
        return (row[0] + 1, *row[1:]) if len(row) == 65 else row

    monkeypatch.setattr(coefficients, "taylor_shift", doctored)
    with pytest.raises(ArithmeticError, match="m=65, ell=0"):
        scaled_row(65)
    coefficients._scaled_row.cache_clear()
    assert main(["coeffs", "--m", "65"]) == 3
    assert "inexact division" in capsys.readouterr().err
