from fractions import Fraction
from itertools import zip_longest
from math import comb

from hypothesis import given, strategies as st

from quartint.polynomial import homogeneous_horner, horner, taylor_shift

coeff_lists = st.lists(st.fractions(), max_size=6)
int_lists = st.lists(st.integers(-10**6, 10**6), max_size=8)
points = st.fractions()
shifts = st.one_of(st.integers(-50, 50), st.fractions())


def add(p, q):
    return tuple(x + y for x, y in zip_longest(p, q, fillvalue=0))


def sub(p, q):
    return tuple(x - y for x, y in zip_longest(p, q, fillvalue=0))


def mul(p, q):
    # the Cauchy product, term by term
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def derivative(p):
    """The coefficients k p_k of p', literally."""
    return tuple(k * c for k, c in enumerate(p))[1:]


def scale(p, s):
    return tuple(s * x for x in p)


def test_evaluation():
    p = (Fraction(3, 2), 1)  # 3/2 + x
    assert horner(p, 1) == Fraction(5, 2)
    assert horner(p, Fraction(1, 2)) == 2
    assert horner((), 7) == 0


def test_float_evaluation():
    p = (1, 0, 1)
    assert horner(p, 0.5) == 1.25
    assert isinstance(horner(p, 0.5), float)


def test_entry_type_is_preserved():
    p = (3, -1, 4, 1)
    assert type(horner(p, 5)) is int
    assert all(type(c) is int for c in taylor_shift(p, 2))
    assert type(horner(p, Fraction(1, 3))) is Fraction


def test_coefficient_access():
    # entry k is the coefficient of x^k, and the last entry leads
    p = (5, 0, 7)
    assert horner(p, 0) == p[0] == 5
    shifted = taylor_shift(p, 3)
    assert len(shifted) == len(p)
    assert shifted[0] == horner(p, 3) == 68
    assert shifted[-1] == p[-1] == 7


@given(coeff_lists, coeff_lists, points)
def test_ring_operations_match_pointwise(a, b, x):
    assert horner(add(a, b), x) == horner(a, x) + horner(b, x)
    assert horner(sub(a, b), x) == horner(a, x) - horner(b, x)
    assert horner(mul(a, b), x) == horner(a, x) * horner(b, x)


@given(coeff_lists, points, shifts)
def test_scalar_multiplication(a, x, c):
    assert horner(scale(a, 3), x) == 3 * horner(a, x)
    assert horner(scale(a, Fraction(1, 2)), x) == horner(a, x) / 2
    assert taylor_shift(scale(a, 3), c) == scale(taylor_shift(a, c), 3)


@given(int_lists, st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_homogeneous_horner_is_p_at_s_over_t_times_t_to_the_degree(p, s, t):
    # sum_k p_k s^k t^(n-k), literally, and t^n p(s/t) in Fractions
    n = len(p) - 1
    value = homogeneous_horner(p, s, t)
    assert type(value) is int
    assert value == sum(c * s**k * t ** (n - k) for k, c in enumerate(p))
    if p:
        assert value == t**n * horner(p, Fraction(s, t))


def test_taylor_shift_values():
    assert taylor_shift((0, 0, 1), 1) == (1, 2, 1)  # (x+1)^2
    assert taylor_shift((1, 2, 3), 0) == (1, 2, 3)
    assert taylor_shift((), 3) == ()
    assert taylor_shift((5,), 3) == (5,)


@given(int_lists, st.integers(-20, 20))
def test_taylor_shift_matches_binomial_expansion(p, c):
    # p(x + c) = sum_i p_i sum_j C(i, j) c^(i-j) x^j, expanded literally
    expected = [sum(p[i] * comb(i, j) * c ** (i - j) for i in range(j, len(p))) for j in range(len(p))]
    assert taylor_shift(p, c) == tuple(expected)


@given(coeff_lists, shifts, points)
def test_shift_composes_with_translation(p, c, x):
    assert horner(taylor_shift(p, c), x) == horner(p, x + c)


@given(coeff_lists, points)
def test_derivative_is_the_first_taylor_coefficient(p, x):
    shifted = taylor_shift(p, x)
    assert horner(derivative(p), x) == (shifted[1] if len(p) > 1 else 0)
