import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quartint import tfunction
from quartint.exact import binomial
from quartint.hypergeometric import hyp2f1
from quartint.polynomial import horner
from quartint.tfunction import (
    T_LIMIT,
    bound_pair_check,
    geometric_tail_bound,
    inequality_chain_check,
    integral_prefactor,
    limit_gap,
    s_sum,
    t_bundle,
    t_direct,
    t_hypergeometric,
    t_integral,
    t_via_w,
    t_via_w_variant,
    w_polynomial,
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


def literal_geometric_tail(m):
    return sum(Fraction(r - 1, 2**r) for r in range(2, m + 2))


def chain_fields(chain):
    return chain.lhs, chain.rhs_full, chain.rhs_unweighted, chain.rhs_last_term


def test_t_direct_matches_literal_sum():
    for m in range(1, 81):
        assert t_direct(m) == literal_t(m)


def test_t_direct_matches_integral_route_at_2000():
    assert t_direct(2000) == t_integral(2000)


def test_s_sum_and_chain_match_literal_sums():
    for m in range(0, 61):
        for ell in range(0, m + 1):
            assert s_sum(m, ell) == literal_s(m, ell)
        for ell in range(0, m // 2):
            chain = inequality_chain_check(m, ell)
            assert chain_fields(chain) == literal_chain(m, ell)
            assert chain.s_value == literal_s(m, ell)


def test_geometric_tail_matches_literal_sum():
    for m in range(1, 201):
        assert geometric_tail_bound(m) == literal_geometric_tail(m)


@st.composite
def chain_indices(draw):
    m = draw(st.integers(min_value=2, max_value=150))
    return m, draw(st.integers(min_value=0, max_value=m // 2 - 1))


@given(chain_indices())
def test_chain_and_s_sum_match_literal_forms(m_ell):
    m, ell = m_ell
    chain = inequality_chain_check(m, ell)
    assert chain_fields(chain) == literal_chain(m, ell)
    assert chain.s_value == s_sum(m, ell) == literal_s(m, ell)


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


def test_representations_agree():
    for m in range(1, 31):
        direct = t_direct(m)
        assert t_hypergeometric(m) == direct
        assert t_integral(m) == direct
        assert t_via_w(m) == direct


def test_s_sum_specialisation_to_t():
    for m in range(1, 21):
        assert s_sum(2 * m, m - 1) == t_direct(m)


def test_w_polynomial_and_function():
    assert w_polynomial(1) == (1, 1, 1)
    # W_m(x) is also the series 2F1(1/2, -1-m; -4m; 4x)
    for m in range(1, 61):
        for x in (0, Fraction(1, 2)):
            assert horner(w_polynomial(m), x) == hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 4 * x)
        assert horner(w_polynomial(m), 0) == 1


def test_t_via_w_correction():
    assert t_via_w(1) == Fraction(1, 4)
    assert t_via_w_variant(1) == Fraction(-3, 4)


def test_bound_pair():
    assert bound_pair_check(2, 3)  # 20 <= 56
    for m in range(1, 61):
        for r in range(2, m + 2):
            assert bound_pair_check(m, r)
        # the r = 2 margin is 5m(m-1)
        assert binomial(4 * m, 2) - binomial(4, 2) * binomial(m + 1, 2) == 5 * m * (m - 1)
    with pytest.raises(ValueError):
        bound_pair_check(3, 1)


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
    assert chain.all_hold()
    chain = inequality_chain_check(4, 1)
    assert chain.s_value == Fraction(1, 4)
    assert chain.all_hold()


def test_inequality_chain_sweep():
    for m in range(2, 31):
        for ell in range(0, m // 2):
            assert inequality_chain_check(m, ell).all_hold()


def test_inequality_chain_domain():
    with pytest.raises(ValueError):
        inequality_chain_check(4, 2)
    with pytest.raises(ValueError):
        inequality_chain_check(2, 1)


def test_limit_gap():
    assert limit_gap(1) == pytest.approx(0.0428932188134524, abs=1e-12)
    assert T_LIMIT == pytest.approx((2 - math.sqrt(2)) / 2, abs=0)
    gaps = [limit_gap(m) for m in range(1, 61)]
    assert all(g > 0 for g in gaps)
    assert all(a > b for a, b in zip(gaps[1:], gaps[2:]))


def test_t_bundle():
    bundle = t_bundle(3)
    assert bundle.direct == Fraction(67, 264)
    assert bundle.hypergeometric == bundle.integral == bundle.direct
    payload = bundle.to_jsonable()
    assert payload["direct"] == "67/264"
    assert payload["approx"] == pytest.approx(67 / 264)


def test_t_bundle_detects_disagreement(monkeypatch):
    monkeypatch.setattr(tfunction, "t_hypergeometric", lambda m: Fraction(0))
    with pytest.raises(ArithmeticError):
        t_bundle(2)
