from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from quartint.exact import binomial, pochhammer, rational_str


def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(7, 9) == 0
    assert binomial(20, 10) == 184756
    assert binomial(0, 0) == 1


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(-3, 2) == 0
    assert binomial(-1, 0) == 0


def test_binomial_pascal_rule():
    for n in range(1, 61):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_generalized_binomial_extends_comb():
    # C(n, k) = (-1)^k (-n)_k / k!, which extends comb to negative n
    def choose(n, k):
        return (-1) ** k * pochhammer(-n, k) / factorial(k)

    for n in range(0, 12):
        for k in range(0, n + 1):
            assert choose(n, k) == comb(n, k)
    assert choose(-1, 2) == 1
    assert choose(-2, 3) == -4


def test_pochhammer_values():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(Fraction(7, 3), 0) == 1
    assert pochhammer(0, 4) == 0


def test_pochhammer_half_closed_form():
    for r in range(0, 31):
        assert pochhammer(Fraction(1, 2), r) == Fraction(factorial(2 * r), 4**r * factorial(r))


def test_pochhammer_negative_order_rejected():
    with pytest.raises(ValueError):
        pochhammer(Fraction(1, 2), -1)


@given(st.fractions(), st.integers(min_value=0, max_value=30))
def test_pochhammer_recurrence(x, k):
    assert pochhammer(x, k + 1) == pochhammer(x, k) * (x + k)


@given(st.fractions())
def test_rational_string_round_trip(q):
    assert Fraction(rational_str(q)) == q


def test_rational_str_forms():
    assert rational_str(Fraction(21, 8)) == "21/8"
    assert rational_str(Fraction(-3, 2)) == "-3/2"
    assert rational_str(Fraction(7, 1)) == "7"
    assert rational_str(5) == "5"
