import json
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartint import tfunction
from quartint.cli import main
from quartint.exact import binomial
from quartint.hypergeometric import hyp2f1, series_coefficients
from quartint.polynomial import horner
from quartint.suites import _s_monotone_witness, run_suite
from quartint.tfunction import (
    T_LIMIT,
    geometric_tail_bound,
    inequality_chain_check,
    integral_prefactor,
    left_sums,
    pair_bound_sides,
    s_sum,
    t_direct,
    t_hypergeometric,
    t_integral,
    t_via_w,
)


# Literal definitions, term by term with the vanishing-binomial convention:
# the reference implementations for the running-ratio kernels.

def literal_t(m):
    return sum(
        Fraction(binomial(2 * r, r) * binomial(m + 1, r) * (r - 1), 2**r * binomial(4 * m, r))
        for r in range(2, m + 2)
    )


def literal_s(m, ell):
    total = Fraction(0)
    for k in range(ell, 2 * ell + 1):
        num = binomial(m - ell, m - k) * binomial(m + k, 2 * k) * (2 * ell + 1 - k)
        if num:
            total += Fraction(num, binomial(2 * m, 2 * k) * 2 ** (m - k))
    return total


def literal_chain(m, ell):
    def term(k):
        return 2**k * binomial(2 * m - 2 * k, m - k) * binomial(m + k, m + ell)

    lhs = sum((2 * ell + 1 - k) * term(k) for k in range(ell, 2 * ell + 1))
    rhs_full = sum((k - 2 * ell - 1) * term(k) for k in range(2 * ell + 2, m + 1))
    rhs_unweighted = sum(term(k) for k in range(2 * ell + 2, m + 1))
    return lhs, rhs_full, rhs_unweighted, 2**m * binomial(2 * m, m + ell)


def literal_b(m, ell):
    """b_l(m) = sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m) C(k, l), term by term."""
    return sum(2**k * binomial(2 * m - 2 * k, m - k) * binomial(m + k, m) * binomial(k, ell) for k in range(ell, m + 1))


def literal_t_integral(m):
    """The prefactor times int_0^2 t sum c_k t^k dt = sum c_k 2^(k+2) / (k+2),
    over the integer coefficients of the integrand series and their denominator."""
    integrand, den = series_coefficients(Fraction(5, 2), 1 - m, 2 - 4 * m)
    return integral_prefactor(m) * sum(Fraction(c * 2 ** (k + 2), den * (k + 2)) for k, c in enumerate(integrand))


def literal_w(m):
    """The Fraction coefficients C(2r,r) C(m+1,r) / C(4m,r) of W_m."""
    return tuple(Fraction(binomial(2 * r, r) * binomial(m + 1, r), binomial(4 * m, r)) for r in range(m + 2))


def derivative(p):
    """The coefficients k p_k of p', literally."""
    return tuple(k * c for k, c in enumerate(p))[1:]


def literal_t_via_w(m):
    """x W'(x) - W(x) + 1 at x = 1/2, on the Fraction coefficients."""
    w, half = literal_w(m), Fraction(1, 2)
    return half * horner(derivative(w), half) - horner(w, half) + 1


def literal_geometric_tail(m):
    return sum(Fraction(r - 1, 2**r) for r in range(2, m + 2))


def chain_holds(m, ell):
    """The chain lhs < rhs_last_term <= rhs_unweighted <= rhs_full at (m, l),
    whose first step is S_{m,l} < 1; lhs/rhs_last_term must be S_{m,l} by
    s_sum and by its literal sum."""
    chain = inequality_chain_check(m, ell)
    assert Fraction(chain.lhs, chain.rhs_last_term) == s_sum(m, ell) == literal_s(m, ell)
    return chain.lhs < chain.rhs_last_term <= chain.rhs_unweighted <= chain.rhs_full


def test_t_direct_matches_literal_sum():
    for m in range(1, 81):
        assert t_direct(m) == literal_t(m)


def test_t_direct_matches_integral_route_at_2000():
    assert t_direct(2000) == t_integral(2000)


def test_t_direct_matches_hypergeometric_route_at_500():
    # every route sums the same terms; the 2F1 route is 2F'(2) - F(2) + 1 summed by hyp2f1
    assert t_direct(500) == t_hypergeometric(500)


@pytest.fixture
def cold_t():
    t_direct.cache_clear()
    yield
    t_direct.cache_clear()


def test_t_direct_inexact_division_is_arithmetic_error(cold_t, monkeypatch):
    # with every binomial 1, g_2 = 6 * 2 and g_3 = 12 * 5 / 18 is not an integer
    monkeypatch.setattr(tfunction, "binomial", lambda n, k: 1)
    with pytest.raises(ArithmeticError, match="inexact division at m=2, r=3"):
        t_direct(2)


def test_integral_and_w_routes_match_literal_forms():
    for m in range(1, 61):
        assert t_integral(m) == literal_t_integral(m)
        assert t_via_w(m) == literal_t_via_w(m)


def test_s_sum_and_chain_match_literal_sums():
    for m in range(0, 61):
        for ell in range(0, m + 1):
            assert s_sum(m, ell) == literal_s(m, ell)
        for ell, (lhs, _) in enumerate(left_sums(m)):
            assert Fraction(lhs, 2**m * binomial(2 * m, m + ell)) == literal_s(m, ell)
        for ell in range(0, m // 2):
            chain = inequality_chain_check(m, ell)
            assert chain == literal_chain(m, ell)
            assert Fraction(chain.lhs, chain.rhs_last_term) == s_sum(m, ell) == literal_s(m, ell)


def test_geometric_tail_matches_literal_sum():
    literal = Fraction(0)
    for m in range(1, 2001):
        literal += Fraction(m, 2 ** (m + 1))  # the term r = m + 1
        assert geometric_tail_bound(m) == literal, m
    assert literal == literal_geometric_tail(2000)
    with pytest.raises(ValueError):
        geometric_tail_bound(0)


@st.composite
def chain_indices(draw):
    m = draw(st.integers(min_value=2, max_value=150))
    return m, draw(st.integers(min_value=0, max_value=m // 2 - 1))


@given(chain_indices())
def test_chain_and_s_sum_match_literal_forms(m_ell):
    m, ell = m_ell
    chain = inequality_chain_check(m, ell)
    assert chain == literal_chain(m, ell)
    assert Fraction(chain.lhs, chain.rhs_last_term) == s_sum(m, ell) == literal_s(m, ell)
    # rhs_full - lhs is the row step, so lhs < rhs_full is exactly b_{l+1} > b_l
    step = Fraction((ell + 1) * (literal_b(m, ell + 1) - literal_b(m, ell)), binomial(m + ell, ell))
    assert chain.rhs_full - chain.lhs == step


def test_chain_row_not_divisible_is_arithmetic_error(monkeypatch, capsys):
    # b_1(10) + 1 leaves 1 (mod C(11, 1)), so (10, 0) passes and (10, 1) raises
    real = tfunction.scaled_row

    def doctored(m):
        row = real(m)
        return (row[0], row[1] + 1, *row[2:]) if m == 10 else row

    monkeypatch.setattr(tfunction, "scaled_row", doctored)
    inequality_chain_check(10, 0)
    with pytest.raises(ArithmeticError, match=r"inexact division by C\(m\+l, l\) at \(m=10, ell=1\)"):
        inequality_chain_check(10, 1)
    assert main(["verify", "--property", "inequality-chain", "--max-m", "12"]) == 3
    assert "(m=10, ell=1)" in capsys.readouterr().err


def test_chain_binomials_are_the_literal_binomials():
    for m in range(2, 401):
        literal = tuple((binomial(m + ell, ell), 2**m * binomial(2 * m, m + ell)) for ell in range(m // 2))
        assert tfunction._chain_binomials.__wrapped__(m) == literal, m
    assert tfunction._chain_binomials.__wrapped__(3) == ((1, 160),)
    assert tfunction._chain_binomials.__wrapped__(1) == ()


@pytest.fixture
def cold_left_sums():
    left_sums.cache_clear()
    tfunction._chain_binomials.cache_clear()
    yield
    left_sums.cache_clear()
    tfunction._chain_binomials.cache_clear()


def test_chain_inexact_carry_is_arithmetic_error(cold_left_sums, monkeypatch, capsys):
    # with every binomial 1, t_0 = 1 in every row m >= 3, and its step to
    # t_1 = m(m+1)/(2m-1) leaves a remainder: 12/5 at m = 3.  The binomials
    # of n <= 4 stay, so m = 2, whose one step is exact whatever t_0 is, holds.
    # The carry makes the whole row at once, so it fails at l = 0, and the
    # literal loop still fails at each (m, l) with its own message.
    real = tfunction.binomial
    monkeypatch.setattr(tfunction, "binomial", lambda n, k: real(n, k) if n <= 4 else 1)
    for m in range(3, 13):
        with pytest.raises(ArithmeticError, match=rf"inexact division for t_1 at \(m={m}, ell=0\)"):
            left_sums(m)
        for ell in range(0, m // 2):
            with pytest.raises(ArithmeticError, match=rf"inexact term division at \(m={m}, ell={ell}\), k="):
                tfunction._left_sum(m, ell)
            with pytest.raises(ArithmeticError, match=rf"inexact division for t_1 at \(m={m}, ell=0\)"):
                inequality_chain_check(m, ell)
    assert len(left_sums(2)) == 1
    # both records that read the left sums stop with an internal error: the
    # exception is caught in main, whose last word is the error itself
    for record in ("inequality-chain", "s-monotone"):
        assert main(["verify", "--property", record, "--max-m", "12"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "internal error: ArithmeticError('S left sums: inexact division for t_1 at (m=3, ell=0)')"


@pytest.mark.parametrize(
    "m, shift, name, ell",
    [(5, 3, "N0", 1), (4, 7, "N1", 1), (6, 11, "e1", 1), (9, 17, "e2", 1)],
)
def test_each_carry_division_is_guarded(cold_left_sums, monkeypatch, m, shift, name, ell):
    # C(2m, m) + shift in place of C(2m, m) scales row m, and the first
    # division it leaves inexact is the one named (t_1 is the test above);
    # the row m = 2 holds.  No scaling was found to trip the hi division
    # first (none with m < 40, 0 < shift < 3000).
    real = tfunction.binomial
    monkeypatch.setattr(tfunction, "binomial", lambda n, k: real(n, k) + shift * (n == 2 * k == 2 * m))
    with pytest.raises(ArithmeticError, match=rf"inexact division for {name} at \(m={m}, ell={ell}\)$"):
        left_sums(m)
    assert left_sums(2) == ((6, 18),)


def test_left_sums_match_the_term_loop():
    for m in range(0, 301):
        assert left_sums.__wrapped__(m) == tuple(tfunction._left_sum(m, ell) for ell in range((m + 1) // 2)), m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=800))
def test_left_sums_match_the_term_loop_up_to_800(m):
    assert left_sums.__wrapped__(m) == tuple(tfunction._left_sum(m, ell) for ell in range((m + 1) // 2))


def test_s_monotone_integer_test_agrees_with_fractions():
    # S(m,l) < S(m,l+1) iff lhs_l (m-l) < lhs_{l+1} (m+l+1): checked on the
    # real left sums, on them swapped, and on S(m,l) = S(m,l+1) = 1
    for m in range(2, 81):
        lhs = [pair[0] for pair in left_sums(m)]
        den = [2**m * binomial(2 * m, m + ell) for ell in range(len(lhs))]
        for ell in range(len(lhs) - 1):
            for x, y in ((lhs[ell], lhs[ell + 1]), (lhs[ell + 1], lhs[ell]), (den[ell], den[ell + 1])):
                assert (x * (m - ell) < y * (m + ell + 1)) == (Fraction(x, den[ell]) < Fraction(y, den[ell + 1]))
            assert literal_s(m, ell) < literal_s(m, ell + 1)
        assert literal_s(m, len(lhs) - 1) < 1
        assert _s_monotone_witness(m) is None


def test_verify_all_makes_each_row_of_left_sums_once(cold_left_sums, monkeypatch, capsys):
    # inequality-chain and s-monotone share the rows 2..100 of left_sums, each
    # made once; the term loop runs only for t-crosscheck's S(2m, m-1), m <= 100
    runs = Counter()
    real = tfunction._left_sum

    def counting(m, ell):
        runs[m, ell] += 1
        return real(m, ell)

    monkeypatch.setattr(tfunction, "_left_sum", counting)
    assert main(["verify", "--all", "--format", "json"]) == 0
    capsys.readouterr()
    assert runs == {(2 * m, m - 1): 1 for m in range(1, 101)}
    made = left_sums.cache_info()
    assert made.misses == made.currsize == 99 and made.hits > 0
    for m in range(2, 101):
        left_sums(m)
    assert left_sums.cache_info().misses == 99
    # the chain's binomials are made once per row too, and only the last row is kept
    made = tfunction._chain_binomials.cache_info()
    assert (made.misses, made.currsize) == (99, 1) and made.hits > 0


def test_s_sum_values():
    assert s_sum(4, 1) == Fraction(1, 4)  # 5/56 + 9/56
    for m in range(1, 12):
        assert s_sum(m, 0) == Fraction(1, 2**m)
    with pytest.raises(ValueError):
        s_sum(3, 4)


def test_t_direct_values():
    assert t_direct(1) == Fraction(1, 4)
    assert t_direct(2) == Fraction(1, 4)
    assert t_direct(3) == Fraction(67, 264)
    with pytest.raises(ValueError):
        t_direct(0)


def test_t_hypergeometric_hand_evaluation():
    # 1 - 7/4 + (2/4) * 2 at m = 1
    assert t_hypergeometric(1) == Fraction(1, 4)
    assert t_hypergeometric(2) == Fraction(1, 4)


def test_t_integral_small():
    # at m = 1 the series is 1, so the integral is just int_0^2 t dt = 2
    assert t_integral(1) == Fraction(1, 4)
    assert t_integral(2) == Fraction(1, 4)
    # the prefactor's own check rejects m < 1
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be at least 1"):
            t_integral(m)


def test_representations_agree():
    for m in range(1, 201):
        direct = t_direct(m)
        assert t_hypergeometric(m) == direct
        assert t_integral(m) == direct
        assert t_via_w(m) == direct


def test_s_sum_specialisation_to_t():
    for m in range(1, 21):
        assert s_sum(2 * m, m - 1) == t_direct(m)


def test_w_coefficients_match_the_defining_sum():
    # W_m(x) = 2F1(1/2, -1-m; -4m; 4x): coefficient r of the series that
    # t_via_w reads, times 4^r, is the defining C(2r,r) C(m+1,r) / C(4m,r)
    for m in range(1, 61):
        coeffs, den = series_coefficients(Fraction(1, 2), -1 - m, -4 * m)
        w = tuple(Fraction(4**r * c, den) for r, c in enumerate(coeffs))
        assert w == literal_w(m)
        assert horner(w, Fraction(1, 2)) == hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 2)
    assert literal_w(1) == (1, 1, 1)  # W_1 = 1 + x + x^2


def test_t_via_w_correction():
    assert t_via_w(1) == Fraction(1, 4)
    # the uncorrected variant W'(1/2)/2 - W(1/2), which t-crosscheck notes
    w, half = literal_w(1), Fraction(1, 2)
    assert half * horner(derivative(w), half) - horner(w, half) == t_via_w(1) - 1 == Fraction(-3, 4)


def test_pair_bound_sides_are_the_literal_binomials():
    for m in range(1, 201):
        literal = [(binomial(2 * r, r) * binomial(m + 1, r), binomial(4 * m, r)) for r in range(2, m + 2)]
        assert pair_bound_sides(m) == literal, m
    assert pair_bound_sides(7)[2] == (4900, 20475)  # r = 4: C(8,4) C(8,4) and C(28,4)


def test_bound_pair():
    assert binomial(6, 3) * binomial(3, 3) == 20 <= binomial(8, 3) == 56  # (m, r) = (2, 3)
    for m in range(1, 61):
        # the r = 2 margin is 5m(m-1)
        assert binomial(4 * m, 2) - binomial(4, 2) * binomial(m + 1, 2) == 5 * m * (m - 1)
    report = run_suite("t-bounds", max_m=60)[1]
    assert (report.property, report.passed) == ("binomial-pair-bound", True)
    assert report.range == "C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= 60"


def test_geometric_tail_bound():
    assert geometric_tail_bound(1) == Fraction(1, 4)
    assert geometric_tail_bound(3) == Fraction(11, 16)
    for m in range(2, 61):
        assert t_direct(m) < geometric_tail_bound(m)


def test_integral_prefactor_bound():
    assert integral_prefactor(2) == Fraction(9, 112)
    for m in range(2, 101):
        assert integral_prefactor(m) <= Fraction(9, 112)


def test_inequality_chain_hand_values():
    chain = inequality_chain_check(2, 0)
    assert chain.lhs == 6
    assert chain.rhs_last_term == 24
    assert chain_holds(2, 0)
    chain = inequality_chain_check(4, 1)
    assert Fraction(chain.lhs, chain.rhs_last_term) == Fraction(1, 4)
    assert chain_holds(4, 1)


def test_inequality_chain_sweep():
    for m in range(2, 31):
        for ell in range(0, m // 2):
            assert chain_holds(m, ell)


def test_inequality_chain_domain():
    with pytest.raises(ValueError):
        inequality_chain_check(4, 2)
    with pytest.raises(ValueError):
        inequality_chain_check(2, 1)


def test_limit_gap():
    assert T_LIMIT - float(t_direct(1)) == pytest.approx(0.0428932188134524, abs=1e-12)
    assert T_LIMIT == pytest.approx((2 - math.sqrt(2)) / 2, abs=0)
    gaps = [T_LIMIT - float(t_direct(m)) for m in range(1, 61)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps[1:], gaps[2:]))


def test_tvalues_json_row_agrees_across_routes(capsys):
    assert main(["tvalues", "--max-m", "3", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][2]
    assert row["m"] == 3
    assert row["direct"] == row["hypergeometric"] == row["integral"] == "67/264"
    assert row["approx"] == pytest.approx(67 / 264)


def test_tvalues_exits_3_when_routes_disagree(monkeypatch, capsys):
    monkeypatch.setattr(tfunction, "t_hypergeometric", lambda m: Fraction(0))
    assert main(["tvalues", "--max-m", "2"]) == 3
    assert "ArithmeticError" in capsys.readouterr().err
