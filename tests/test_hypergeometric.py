import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, strategies as st

from quartint.exact import pochhammer
from quartint.hypergeometric import (
    NonTerminatingSeriesError,
    SeriesPoleError,
    companion_ratio_bound_violations,
    envelope_bound_check,
    hyp2f1,
    hyp2f1_as_polynomial,
    pochhammer_ratio_bound_check,
)
from quartint.polynomial import derivative, horner


def test_terminating_values():
    assert hyp2f1(Fraction(5, 2), 0, -7, 3) == 1
    assert hyp2f1(Fraction(1, 2), -2, -4, 2) == Fraction(7, 4)
    assert hyp2f1(Fraction(3, 2), -1, -3, 2) == 2


def test_non_terminating_rejected():
    with pytest.raises(NonTerminatingSeriesError):
        hyp2f1(1, 2, 3, Fraction(1, 2))
    with pytest.raises(NonTerminatingSeriesError):
        hyp2f1(1, Fraction(-1, 2), 3, 1)


def test_pole_before_truncation_rejected():
    # (c)_k hits zero at k = 3 <= N = 3
    with pytest.raises(SeriesPoleError):
        hyp2f1(Fraction(1, 2), -3, -2, 1)


def test_polynomial_form():
    assert hyp2f1_as_polynomial(Fraction(5, 2), 0, -2) == (1,)
    # m = 2 instance of the integrand series
    assert hyp2f1_as_polynomial(Fraction(5, 2), -1, -6) == (1, Fraction(5, 12))


def test_polynomial_matches_evaluator_on_random_specs():
    rng = random.Random(7)
    z = Fraction(3, 7)
    for _ in range(20):
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        n = rng.randint(0, 8)
        c = Fraction(-4 * n - rng.randint(1, 5))
        poly = hyp2f1_as_polynomial(a, -n, c)
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
        poly = hyp2f1_as_polynomial(a, -n, c)
        for k in range(n + 1):
            expected = (
                pochhammer(a, k) * pochhammer(Fraction(-n), k)
                / (pochhammer(c, k) * factorial(k))
            )
            assert poly[k] == expected


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
    assume(all(c + j != 0 for j in range(-b)))
    value = hyp2f1(a, b, c, z)
    assert value == literal_hyp2f1(a, b, c, z)
    assert value == horner(hyp2f1_as_polynomial(a, b, c), z)


def assert_derivative_relation(a, b, c):
    # d/dz 2F1(a,b;c;z) = (ab/c) 2F1(a+1,b+1;c+1;z), coefficient by coefficient
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    left = derivative(hyp2f1_as_polynomial(a, b, c))
    if b == 0:
        assert left == ()
    else:
        assert left == tuple(a * b / c * r for r in hyp2f1_as_polynomial(a + 1, b + 1, c + 1))


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
    for m in range(2, 41):
        assert pochhammer_ratio_bound_check(m)


def test_companion_ratio_bound_single_known_exception():
    # the 3^(-k) tail bound fails at exactly (m, k) = (2, 1): 3/8 > 1/3
    assert companion_ratio_bound_violations(2) == [1]
    for m in range(3, 41):
        assert companion_ratio_bound_violations(m) == []


def test_envelope_bound_on_grid():
    grid = [Fraction(i, 10) for i in range(21)]
    for m in range(2, 21):
        for t in grid:
            assert envelope_bound_check(m, t)
    # equality case: the series is 1 at t = 0 and 3^5 = 243
    assert envelope_bound_check(5, 0)


def test_envelope_bound_domain():
    with pytest.raises(ValueError):
        envelope_bound_check(1, Fraction(1, 2))
    with pytest.raises(ValueError):
        envelope_bound_check(3, Fraction(5, 2))


def test_difference_identity():
    # the contiguous relation at z = 2: (m+1)/(4m) 2F1(3/2,-m;1-4m;2) is
    # [2F1(3/2,-1-m;-4m;2) - 2F1(1/2,-1-m;-4m;2)] / 2
    for m in range(1, 101):
        lhs = Fraction(m + 1, 4 * m) * hyp2f1(Fraction(3, 2), -m, 1 - 4 * m, 2)
        rhs = (hyp2f1(Fraction(3, 2), -1 - m, -4 * m, 2) - hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 2)) / 2
        assert lhs == rhs, m
