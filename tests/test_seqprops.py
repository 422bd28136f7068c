from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quartint.coefficients import coefficient_row, scaled_row
from quartint.seqprops import (
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
