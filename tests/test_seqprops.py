from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from quartint.coefficients import coefficient_row, scaled_row
from quartint.seqprops import (
    _squares_dominate,
    is_logconcave,
    is_ratio_monotone,
    is_unimodal,
    iterated_l_first_negative,
    l_operator,
    minimum_claimed_value,
    minimum_functional,
    minimum_functional_uncorrected,
)

positive_rows = st.lists(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000), min_size=1, max_size=12
)


def test_unimodal_examples():
    assert is_unimodal([1, 3, 2])
    assert not is_unimodal([2, 1, 2])
    assert is_unimodal([1])
    assert is_unimodal([1, 1, 2, 2, 1])
    assert not is_unimodal([1, 2, 1, 2])


def test_logconcave_examples():
    assert is_logconcave([1, 4, 6, 4, 1])
    assert not is_logconcave([1, 1, 3])
    assert is_logconcave([5])


def test_l_operator_examples():
    assert l_operator([1, 1, 1]) == [1, 0, 1]
    assert l_operator([1, 4, 6, 4, 1]) == [1, 10, 20, 10, 1]
    assert l_operator([Fraction(1, 2)]) == [Fraction(1, 4)]


def test_l_operator_preserves_entry_type():
    assert all(type(x) is int for x in l_operator([1, 4, 6, 4, 1]))
    assert all(type(x) is Fraction for x in l_operator([Fraction(1, 2), Fraction(3), Fraction(1, 5)]))


def test_l_iterates_of_a_row_scale_from_the_integer_row():
    # L(c x) = c^2 L(x), so L^j(b / 4^m) = L^j(b) / 4^(m 2^j)
    for m in range(0, 26):
        rational, integer = list(coefficient_row(m).values), list(scaled_row(m))
        for j in range(1, 6):
            rational, integer = l_operator(rational), l_operator(integer)
            assert rational == [Fraction(v, 4 ** (m * 2**j)) for v in integer], (m, j)


@given(positive_rows)
def test_l_operator_endpoints_are_squares(row):
    image = l_operator(row)
    assert image[0] == row[0] ** 2
    assert image[-1] == row[-1] ** 2
    assert len(image) == len(row)


@settings(max_examples=1000)
@given(positive_rows)
def test_logconcave_positive_implies_unimodal(row):
    if is_logconcave(row):
        assert is_unimodal(row)


def test_i_logconcave_examples():
    # seq is i-logconcave when seq, L(seq), ..., L^i(seq) are all >= 0;
    # iterated_l_first_negative looks at L^1, ..., L^i only
    assert iterated_l_first_negative([2, 5, 1], 0) is None
    assert iterated_l_first_negative([2, -5, 1], 0) is None
    assert iterated_l_first_negative([1, 1, 3], 1) == (1, 1, -2)
    assert iterated_l_first_negative([1, 4, 6, 4, 1], 3) is None


def literal_iterated_l_first_negative(seq, depth):
    # the definition: apply L depth times and scan every iterate
    current = list(seq)
    for iteration in range(1, depth + 1):
        current = l_operator(current)
        for index, value in enumerate(current):
            if value < 0:
                return iteration, index, value
    return None


@settings(max_examples=500, deadline=None)
# L(-1, 0, 1) = (1, 1, 1) passes 8 L(c)_k >= 5 c_k^2, but c has a negative
# entry and L^3(c) = (1, -1, 1)
@example(seq=[-1, 0, 1], depth=3)
@given(
    seq=st.one_of(
        st.lists(st.integers(-5, 40), min_size=1, max_size=8),
        st.lists(st.fractions(min_value=-5, max_value=40, max_denominator=6), min_size=1, max_size=8),
        st.lists(st.sampled_from([0, 1, 2, 5, 9]), min_size=1, max_size=8),
    ),
    depth=st.integers(0, 6),
)
def test_iterated_l_matches_the_literal_iteration(seq, depth):
    # the early exit once an iterate is 8/3-factor log-concave must give
    # exactly the verdict and witness of the full iteration
    assert iterated_l_first_negative(seq, depth) == literal_iterated_l_first_negative(seq, depth)


def test_the_stop_test_does_not_certify_a_row_below_its_factor():
    # 3 * 14^2 lies between 7 * 9 * 9 and 8 * 9 * 9: the row is 7/3- but not
    # 8/3-factor log-concave, and L^4 of it has a negative entry, which a
    # stop test with 7/3 in place of 8/3 would miss
    assert literal_iterated_l_first_negative((9, 14, 9), 8) == (4, 1, -1851164668121216)
    assert iterated_l_first_negative((9, 14, 9), 8) == (4, 1, -1851164668121216)


def parent_iterated_l_first_negative(seq, depth):
    # the loop before the last iteration was settled from leading bits: every
    # iteration is the exact step, then the 8/3 stop test
    current = list(seq)
    nonnegative = all(value >= 0 for value in current)
    for iteration in range(1, depth + 1):
        image = l_operator(current)
        for index, value in enumerate(image):
            if value < 0:
                return iteration, index, value
        padded = (0, *current, 0)
        if nonnegative and all(3 * x * x >= 8 * l * r for l, x, r in zip(padded, padded[1:], padded[2:])):
            return None
        current, nonnegative = image, True
    return None


def test_iterated_l_equals_the_exact_loop_on_the_rows():
    # the loop above at depth 8 gives every depth d <= 8: its witness if it
    # lies at an iteration <= d, else None; rows past m = 100 stop at depth 4,
    # where depths 5 to 8 would take half a minute
    for m in range(151):
        rows = (scaled_row(m), coefficient_row(m).values) if m <= 30 else (scaled_row(m),)
        for row in rows:
            top = 8 if m <= 100 else 4
            hit = parent_iterated_l_first_negative(row, top)
            for depth in range(1, top + 1):
                expected = hit if hit is not None and hit[0] <= depth else None
                assert iterated_l_first_negative(row, depth) == expected, (m, depth)


def squares_hold(seq):
    padded = (0, *seq, 0)
    return all(x * x >= l * r for l, x, r in zip(padded, padded[1:], padded[2:]))


@st.composite
def near_ties(draw):
    # a nonnegative int sequence around l, x, r with x = isqrt(l r) + (-1, 0 or 1)
    # at 200-4000 bits: |x^2 - l r| <= 2 sqrt(l r) + 1, a relative gap far below 2^-62
    bits = draw(st.integers(200, 4000))
    left = draw(st.integers(2 ** (bits - 1), 2**bits))
    right = draw(st.integers(1, 2**bits))
    root = isqrt(left * right)
    x = draw(st.sampled_from([root - 1, root, root + 1]))
    head = draw(st.lists(st.integers(0, 2**bits), max_size=3))
    tail = draw(st.lists(st.integers(0, 2**bits), max_size=3))
    return [*head, left, x, right, *tail]


@settings(max_examples=300, deadline=None)
@given(seq=st.one_of(near_ties(), st.lists(st.integers(0, 2**4000), min_size=1, max_size=8)))
def test_squares_dominate_only_when_every_square_does(seq):
    if _squares_dominate(seq):
        assert squares_hold(seq)
    # at depth 1 the head test reads seq itself, and a near tie falls back to the exact step
    assert iterated_l_first_negative(seq, 1) == literal_iterated_l_first_negative(seq, 1)


def test_squares_dominate_decides_clear_cases_and_declines_near_ties():
    x = 3**1000
    assert _squares_dominate([x, 2 * x, x]) and _squares_dominate([0, 5, 0]) and _squares_dominate([7])
    assert not _squares_dominate([x, x + 1, x + 2])  # x^2 + 2x + 1 > x^2 + 2x, too close for 62-bit heads
    assert not _squares_dominate([x, x - 1, x])
    assert not _squares_dominate([Fraction(1), Fraction(2), Fraction(1)])  # Fraction entries take the exact step
    # the second iterate of every row m <= 100 is settled from leading bits
    for m in range(101):
        assert _squares_dominate(l_operator(l_operator(scaled_row(m)))), m


def test_ratio_monotone_examples():
    assert is_ratio_monotone([1, 2, 1])
    assert not is_ratio_monotone([3, 1, 1])
    with pytest.raises(ValueError):
        is_ratio_monotone([1, 0, 1])
    with pytest.raises(ValueError):
        is_ratio_monotone([1])


def test_rows_have_all_ordering_properties():
    for m in range(0, 41):
        row = coefficient_row(m).values
        assert is_unimodal(row)
        assert is_logconcave(row)
        assert min(row) >= 0 and iterated_l_first_negative(row, 3) is None
        if m >= 2:
            assert is_ratio_monotone(row)


def test_ratio_monotone_implies_logconcave_on_rows():
    for m in range(2, 121):
        row = coefficient_row(m).values
        assert not is_ratio_monotone(row) or is_logconcave(row)


def test_minimum_functional_hand_value():
    # m = 1: b_0 = 6, b_1 = 4, so 2*36 + 2*16 - 3*24 = 32 = 2^2 * 1 * 2 * C(2,1)^2
    assert minimum_functional(1, 1) == 32
    assert minimum_claimed_value(1) == 32
    assert minimum_functional_uncorrected(1, 1) == 86


def test_minimum_functional_closed_form_at_top():
    for m in range(1, 21):
        assert minimum_functional(m, m) == minimum_claimed_value(m)
        if m >= 2:
            assert minimum_functional_uncorrected(m, m) != minimum_claimed_value(m)


def test_minimum_attained_at_top_index():
    for m in range(2, 21):
        values = [minimum_functional(m, ell) for ell in range(1, m + 1)]
        assert min(values) == values[-1]
        assert all(v > values[-1] for v in values[:-1])


def test_minimum_functional_domain():
    with pytest.raises(ValueError):
        minimum_functional(3, 0)
    with pytest.raises(ValueError):
        minimum_functional(3, 4)
