from fractions import Fraction
from math import comb, factorial, prod

from hypothesis import given, strategies as st

from quartint.exact import binomial, rational_str


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
    # C(n, k) = (-1)^k (-n)_k / k!, which extends comb to negative n; the
    # rising factorial (-n)_k is the literal product
    def choose(n, k):
        return (-1) ** k * prod((-n + i for i in range(k)), start=Fraction(1)) / factorial(k)

    for n in range(0, 12):
        for k in range(0, n + 1):
            assert choose(n, k) == comb(n, k)
    assert choose(-1, 2) == 1
    assert choose(-2, 3) == -4


@given(st.fractions())
def test_rational_string_round_trip(q):
    assert Fraction(rational_str(q)) == q


def test_rational_str_forms():
    assert rational_str(Fraction(21, 8)) == "21/8"
    assert rational_str(Fraction(-3, 2)) == "-3/2"
    assert rational_str(Fraction(7, 1)) == "7"
    assert rational_str(5) == "5"
