from fractions import Fraction
from math import comb

import pytest

from quartint import coefficients
from quartint.cli import main
from quartint.coefficients import coefficient_row, scaled_row
from quartint.exact import rational_str
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
    assert [rational_str(v) for v in row.values] == ["21/8", "15/4", "3/2"]


def test_row_fractions_equal_the_reduced_quotients_by_4_to_the_m():
    # the entries are reduced by shifting out trailing zeros; numerator and
    # denominator must be those that Fraction(b, 4^m) reduces to
    for m in [*range(0, 301), 1000]:
        literal = [Fraction(b, 4**m) for b in scaled_row(m)]
        values = coefficient_row(m).values
        assert [(v.numerator, v.denominator) for v in values] == [(v.numerator, v.denominator) for v in literal], m
    assert coefficient_row(1).values == (Fraction(3, 2), Fraction(1, 1))


def test_domain_errors():
    for row in (scaled_row, coefficient_row):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            row(-1)


def test_poly_p():
    # P_m(a) = sum_l d_l(m) a^l = 2^(-2m) sum_k 2^k C(2m-2k, m-k) C(m+k, m) (a+1)^k
    assert horner(coefficient_row(1).values, 1) == Fraction(5, 2)
    for m in range(0, 13):
        for a in (Fraction(-1, 2), 0, 1, Fraction(7, 3)):
            form = sum(2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m) * (a + 1) ** k for k in range(m + 1))
            assert horner(coefficient_row(m).values, a) == horner(scaled_row(m), a) / 4**m == form / 4**m


def delta(m, ell):
    """d_{l+1}(m) - d_l(m), read from the coefficient row."""
    values = coefficient_row(m).values
    return values[ell + 1] - values[ell]


def literal_delta_closed(m, ell):
    # d_{l+1}(m) - d_l(m) as the single sum
    # 2^(-2m) C(m+l, m) sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m+l) (k-2l-1)/(l+1)
    inner = sum(
        Fraction(2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m + ell) * (k - 2 * ell - 1), ell + 1)
        for k in range(ell, m + 1)
    )
    return Fraction(comb(m + ell, m), 4**m) * inner


def test_delta_values():
    assert delta(2, 0) == Fraction(9, 8)
    assert delta(2, 1) == Fraction(-9, 4)
    assert delta(1, 0) == Fraction(-1, 2)
    assert literal_delta_closed(2, 0) == Fraction(9, 8)
    assert literal_delta_closed(2, 1) == Fraction(-9, 4)


def test_delta_closed_matches_direct_everywhere():
    for m in range(1, 61):
        for ell in range(m):
            assert literal_delta_closed(m, ell) == delta(m, ell)


def test_delta_sign_pattern():
    for m in range(1, 61):
        for ell in range(m):
            d = delta(m, ell)
            if ell < m // 2:
                assert d > 0
            else:
                assert d < 0


# ---------------------------------------------------------------------------
# rows stepped down the recurrence in l against the Taylor shift of the weights


def weights(m):
    return [2**k * comb(2 * m - 2 * k, m - k) * comb(m + k, m) for k in range(m + 1)]


def taylor_row(m):
    # the Boros-Moll form: the weights shifted by 1, made here for every m
    return taylor_shift(weights(m), 1)


def moll_next_row(row, m):
    # b_l(m+1) = 2 [2(m+l) b_{l-1}(m) + (4m+2l+3) b_l(m)] / (m+1), with
    # b_{-1}(m) = b_{m+1}(m) = 0 (Kauers and Paule, Proc. AMS 2007)
    padded = (0, *row, 0)
    out = []
    for ell in range(m + 2):
        value, remainder = divmod(2 * (2 * (m + ell) * padded[ell] + (4 * m + 2 * ell + 3) * padded[ell + 1]), m + 1)
        assert remainder == 0, (m, ell)
        out.append(value)
    return tuple(out)


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
    # a row depends on m alone, so a cold row caches only itself
    assert coefficients._scaled_row.cache_info().currsize == 1


@pytest.mark.parametrize("m", [0, 1, 2, 63, 64, 999, 1999, 3999])
def test_moll_recurrence_in_m_maps_each_row_to_the_next(cold_rows, m):
    # R1 relates two rows that are each made from their own m
    assert moll_next_row(scaled_row(m), m) == scaled_row(m + 1)


def test_a_cold_row_far_out_matches_the_weights(cold_rows):
    m = 1500
    row = scaled_row(m)
    assert len(row) == m + 1
    assert row[0] == sum(weights(m))  # 4^m P_m(0)
    assert row[-1] == 2**m * comb(2 * m, m)  # 4^m d_m(m)
    assert horner(row, 1) == horner(weights(m), 2)  # 4^m P_m(1)


def test_an_inexact_step_is_an_internal_error(cold_rows, monkeypatch, capsys):
    # one unit added to C(130, 65) seeds b_65(65) = 2^65 (C(130, 65) + 1); the
    # step to b_64 divides out a 2, and the step to b_63 leaves a remainder
    real = coefficients.binomial
    monkeypatch.setattr(coefficients, "binomial", lambda n, k: real(n, k) + ((n, k) == (130, 65)))
    with pytest.raises(ArithmeticError, match="inexact division at m=65, ell=63"):
        scaled_row(65)
    coefficients._scaled_row.cache_clear()
    assert main(["coeffs", "--m", "65"]) == 3
    assert "inexact division" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["coeffs", "--m", "3"], ["verify", "--property", "unimodal", "--max-m", "3"]])
def test_a_row_with_a_zero_entry_is_an_internal_error(cold_rows, monkeypatch, capsys, argv):
    real = coefficients._scaled_row
    monkeypatch.setattr(coefficients, "_scaled_row", lambda m: (real(m)[0], 0, *real(m)[2:]) if m == 3 else real(m))
    with pytest.raises(ArithmeticError, match="m=3"):
        coefficient_row(3)
    assert main(argv) == 3
    assert "strictly positive" in capsys.readouterr().err
