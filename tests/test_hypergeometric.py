import random
import re
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from quartint.hypergeometric import hyp2f1, hyp2f1_first_moment, series_coefficients
from quartint.polynomial import horner


def pochhammer(x, k):
    """The rising factorial x (x+1) ... (x+k-1), as the literal product."""
    return prod((x + i for i in range(k)), start=Fraction(1))


def literal_coefficients(a, b, c):
    """(a)_k (b)_k / ((c)_k k!) for 0 <= k <= -b, each from rising factorials."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return tuple(pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * factorial(k)) for k in range(1 - int(b)))


def derivative(p):
    """The coefficients k p_k of p', literally."""
    return tuple(k * c for k, c in enumerate(p))[1:]


def pole_message(k, n, c):
    """The exact message of a pole of (c)_k at k before truncation n."""
    return re.escape(f"(c)_k vanishes at k={k} before truncation {n} (c={c})")


def as_fractions(a, b, c):
    """The integer coefficients of series_coefficients over their denominator."""
    coeffs, den = series_coefficients(a, b, c)
    return tuple(Fraction(v, den) for v in coeffs)


def test_terminating_values():
    assert hyp2f1(Fraction(5, 2), 0, -7, 3) == 1
    assert hyp2f1(Fraction(1, 2), -2, -4, 2) == Fraction(7, 4)
    assert hyp2f1(Fraction(3, 2), -1, -3, 2) == 2


def test_non_terminating_rejected():
    with pytest.raises(ValueError, match="^upper parameter b=2 is not a nonpositive integer$"):
        hyp2f1(1, 2, 3, Fraction(1, 2))
    with pytest.raises(ValueError, match="^upper parameter b=-1/2 is not a nonpositive integer$"):
        hyp2f1(1, Fraction(-1, 2), 3, 1)


def test_pole_before_truncation_rejected():
    # (c)_k hits zero at k = 3 <= N = 3
    with pytest.raises(ValueError, match=pole_message(3, 3, -2)):
        hyp2f1(Fraction(1, 2), -3, -2, 1)


@pytest.mark.parametrize("c", [0, -1, -2])
def test_pole_at_or_before_truncation(c):
    # b = -3: (c)_k first vanishes at k = 1 - c <= 3
    with pytest.raises(ValueError, match=pole_message(1 - c, 3, c)):
        hyp2f1(Fraction(1, 2), -3, c, 2)
    with pytest.raises(ValueError, match=pole_message(1 - c, 3, c)):
        series_coefficients(Fraction(1, 2), -3, c)


@pytest.mark.parametrize("c", [-3, -4, Fraction(-5, 2)])
def test_no_pole_past_truncation(c):
    # (c)_k for k <= 3 stays nonzero: the zero of (-3)_k is at k = 4
    for z in (2, Fraction(-3, 7)):
        assert hyp2f1(Fraction(1, 2), -3, c, z) == literal_hyp2f1(Fraction(1, 2), -3, Fraction(c), z)
    assert as_fractions(Fraction(1, 2), -3, c) == literal_coefficients(Fraction(1, 2), -3, c)
    assert len(series_coefficients(Fraction(1, 2), -3, c)[0]) == 4


def test_polynomial_form():
    assert series_coefficients(Fraction(5, 2), 0, -2) == ((1,), 1)
    # m = 2 instance of the integrand series
    assert as_fractions(Fraction(5, 2), -1, -6) == literal_coefficients(Fraction(5, 2), -1, -6) == (1, Fraction(5, 12))


def test_polynomial_matches_evaluator_on_random_specs():
    rng = random.Random(7)
    z = Fraction(3, 7)
    for _ in range(20):
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        n = rng.randint(0, 8)
        c = Fraction(-4 * n - rng.randint(1, 5))
        poly = as_fractions(a, -n, c)
        assert poly == literal_coefficients(a, -n, c)
        assert horner(poly, z) == hyp2f1(a, -n, c, z)
        assert len(poly) == n + 1


def test_series_coefficients_against_pochhammer_products():
    # independent oracle: build each coefficient from rising factorials
    # instead of the running-term recurrence
    rng = random.Random(23)
    for _ in range(15):
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 4)))
        n = rng.randint(0, 9)
        c = Fraction(-4 * n - rng.randint(1, 6))
        coeffs, den = series_coefficients(a, -n, c)
        for k in range(n + 1):
            expected = (
                pochhammer(a, k) * pochhammer(Fraction(-n), k)
                / (pochhammer(c, k) * factorial(k))
            )
            assert Fraction(coeffs[k], den) == expected


def literal_hyp2f1(a, b, c, z):
    # the defining sum, each term from rising factorials: the reference for
    # the common-denominator evaluator
    n = -int(b)
    return sum(
        pochhammer(a, k) * pochhammer(b, k) / (pochhammer(c, k) * factorial(k)) * Fraction(z) ** k
        for k in range(n + 1)
    )


@given(
    a=st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
    b=st.integers(-25, 0),
    c=st.one_of(st.integers(-120, 10).map(Fraction), st.fractions(-50, 50, max_denominator=12)),
    z=st.one_of(st.just(Fraction(0)), st.fractions(-10, 10, max_denominator=30)),
)
def test_hyp2f1_matches_literal_sum(a, b, c, z):
    poles = [j + 1 for j in range(-b) if c + j == 0]
    if poles:
        # the closed-form pole check names the first k with (c)_k = 0
        with pytest.raises(ValueError, match=pole_message(poles[0], -b, c)):
            hyp2f1(a, b, c, z)
        return
    value = hyp2f1(a, b, c, z)
    assert value == literal_hyp2f1(a, b, c, z)
    assert value == horner(as_fractions(a, b, c), z)


@given(
    a=st.integers(-12, 12).map(lambda k: Fraction(k, 2)),
    n=st.integers(0, 25),
    c=st.one_of(st.integers(-120, 10).map(Fraction), st.fractions(-50, 50, max_denominator=12)),
    x=st.fractions(-10, 10, max_denominator=30),
)
def test_first_moment_matches_termwise_integral(a, n, c, x):
    if any(c + j == 0 for j in range(n)):
        with pytest.raises(ValueError, match=pole_message(1 - c, n, c)):
            hyp2f1_first_moment(a, -n, c, x)
        return
    # int_0^x t sum c_k t^k dt = sum c_k x^(k+2) / (k+2)
    termwise = sum(coeff * x ** (k + 2) / (k + 2) for k, coeff in enumerate(literal_coefficients(a, -n, c)))
    assert hyp2f1_first_moment(a, -n, c, x) == termwise


def test_first_moment_values():
    # b = 0: the integrand is t, so the moment is x^2 / 2
    assert hyp2f1_first_moment(Fraction(5, 2), 0, -2, 2) == 2
    # m = 2 integrand 1 + 5t/12: 2 + (5/12)(8/3)
    assert hyp2f1_first_moment(Fraction(5, 2), -1, -6, 2) == Fraction(28, 9)
    with pytest.raises(ValueError, match="^upper parameter b=1/2 is not a nonpositive integer$"):
        hyp2f1_first_moment(1, Fraction(1, 2), 3, 1)


def assert_derivative_relation(a, b, c):
    # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), coefficient by coefficient
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    assert as_fractions(a, b, c) == literal_coefficients(a, b, c)
    left = derivative(as_fractions(a, b, c))
    if b == 0:
        assert left == ()
    else:
        assert left == tuple(a * b / c * r for r in as_fractions(a + 1, b + 1, c + 1))


def test_derivative_relation():
    assert_derivative_relation(Fraction(1, 2), -4, -12)
    assert_derivative_relation(Fraction(3, 2), -5, -19)
    assert_derivative_relation(Fraction(7, 2), 0, -5)


def assert_contiguous_relation(a, b, c, z):
    # 2F1(a+1,b;c;z) = 2F1(a,b;c;z) + (bz/c) 2F1(a+1,b+1;c+1;z); the last
    # series does not terminate at b = 0, where its factor vanishes
    rhs = hyp2f1(a, b, c, z)
    if b != 0:
        rhs += Fraction(b * z, c) * hyp2f1(a + 1, b + 1, c + 1, z)
    assert hyp2f1(a + 1, b, c, z) == rhs


def test_contiguous_relation():
    assert_contiguous_relation(Fraction(1, 2), -5, -16, 2)
    assert_contiguous_relation(Fraction(9, 4), 0, -3, 2)
    rng = random.Random(11)
    for _ in range(30):
        a = Fraction(rng.randint(1, 7), rng.choice((1, 2, 4)))
        n = rng.randint(0, 7)
        c = Fraction(-4 * n - rng.randint(2, 6))
        z = Fraction(rng.randint(1, 5), rng.randint(1, 4))
        assert_contiguous_relation(a, -n, c, z)


def test_pochhammer_ratio_bound():
    # (1-m)_k / (2-4m)_k <= 3^(-k), the bound behind the integrand envelope:
    # 3^k times the ratio starts at 1, stays positive and never rises
    for m in range(2, 101):
        ratios = as_fractions(1, 1 - m, 2 - 4 * m)
        if m <= 40:
            assert ratios == tuple(pochhammer(1 - m, k) / pochhammer(2 - 4 * m, k) for k in range(m))
        tripled = [3**k * r for k, r in enumerate(ratios)]
        assert tripled[0] == 1 and all(0 < later <= earlier for earlier, later in zip(tripled, tripled[1:])), m


def test_companion_ratio_bound_single_known_exception():
    # (-1-m)_k / (-4m)_k <= 3^(-k) fails at k = 1 for m = 2 (3/8 > 1/3), at
    # k = 1, 2 for m = 1 (1/2 > 1/3, 1/6 > 1/9) and nowhere for 3 <= m <= 100
    for m in range(1, 101):
        ratios = as_fractions(1, -1 - m, -4 * m)
        if m <= 40:
            assert ratios == tuple(pochhammer(-1 - m, k) / pochhammer(-4 * m, k) for k in range(m + 2))
        violations = [k for k, r in enumerate(ratios) if 3**k * r > 1]
        assert violations == {1: [1, 2], 2: [1]}.get(m, []), m


def test_envelope_bound_on_grid():
    # [2F1(5/2, 1-m; 2-4m; t)]^2 (3-t)^5 <= 243 = (9 sqrt 3)^2, exactly, at
    # t = i/10 in [0, 2]; equality at t = 0, where the series is 1
    for m in range(2, 61):
        for t in (Fraction(i, 10) for i in range(21)):
            value = hyp2f1(Fraction(5, 2), 1 - m, 2 - 4 * m, t)
            assert value * value * (3 - t) ** 5 <= 243, (m, t)
    assert hyp2f1(Fraction(5, 2), -4, -18, 0) ** 2 * 3**5 == 243


def test_difference_identity():
    # the contiguous relation at z = 2: (m+1)/(4m) 2F1(3/2,-m;1-4m;2) is
    # [2F1(3/2,-1-m;-4m;2) - 2F1(1/2,-1-m;-4m;2)] / 2
    for m in range(1, 101):
        lhs = Fraction(m + 1, 4 * m) * hyp2f1(Fraction(3, 2), -m, 1 - 4 * m, 2)
        rhs = (hyp2f1(Fraction(3, 2), -1 - m, -4 * m, 2) - hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 2)) / 2
        assert lhs == rhs, m
