"""Exact ordering properties of finite sequences: unimodality, log-concavity,
the squared-difference operator L, iterated log-concavity, ratio-monotonicity,
and the scaled quadratic form whose minimum location certifies log-concavity
of the coefficient rows.

All comparisons are exact; no floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

from .exact import binomial
from .coefficients import scaled_row

Entries = Sequence[Fraction | int]
Entry = TypeVar("Entry", Fraction, int)


def _check_nonempty(seq: Entries) -> None:
    if len(seq) == 0:
        raise ValueError("sequence must be nonempty")


def is_unimodal(seq: Entries) -> bool:
    """True iff the sequence rises (weakly) to some index and falls after it."""
    _check_nonempty(seq)
    i = 0
    while i + 1 < len(seq) and seq[i] <= seq[i + 1]:
        i += 1
    while i + 1 < len(seq) and seq[i] >= seq[i + 1]:
        i += 1
    return i == len(seq) - 1


def is_logconcave(seq: Entries) -> bool:
    """True iff s_j^2 >= s_{j-1} s_{j+1} at every interior index."""
    _check_nonempty(seq)
    return all(seq[j] * seq[j] >= seq[j - 1] * seq[j + 1] for j in range(1, len(seq) - 1))


def l_operator(seq: Sequence[Entry]) -> list[Entry]:
    """The map {x_k} -> {x_k^2 - x_{k-1} x_{k+1}} on same-length sequences.

    Neighbors outside the index range count as 0, so both endpoints map to
    their own squares.  The entry type is preserved: int entries give int
    entries and Fraction entries give Fraction entries.  L is homogeneous of
    degree 2, L(c x) = c^2 L(x), with the same zero padding, so the iterates
    of a row d = b / 4^m are L^j(d) = L^j(b) / 4^(m 2^j) and can be computed
    on the integer row b.
    """
    _check_nonempty(seq)
    n = len(seq)
    out = []
    for k in range(n):
        left = seq[k - 1] if k > 0 else 0
        right = seq[k + 1] if k < n - 1 else 0
        out.append(seq[k] * seq[k] - left * right)
    return out


def iterated_l_first_negative(seq: Sequence[Entry], depth: int) -> tuple[int, int, Entry] | None:
    """Apply L up to depth times; return (iteration, index, value) for the
    first negative entry, or None if all iterates stay nonnegative."""
    current = list(seq)
    for iteration in range(1, depth + 1):
        current = l_operator(current)
        for index, value in enumerate(current):
            if value < 0:
                return iteration, index, value
    return None


def is_ratio_monotone(seq: Entries) -> bool:
    """True iff x_0/x_{m-1} <= x_1/x_{m-2} <= ... <= x_{floor(m/2)-1}/x_{m-floor(m/2)} <= 1.

    Entries must be strictly positive; comparisons are done by
    cross-multiplication so everything stays in exact integers/rationals.
    """
    if len(seq) < 2:
        raise ValueError("ratio-monotonicity needs at least two entries")
    if any(x <= 0 for x in seq):
        raise ValueError("ratio-monotonicity requires strictly positive entries")
    m = len(seq) - 1
    half = m // 2
    for i in range(half - 1):
        # x_i / x_{m-1-i} <= x_{i+1} / x_{m-2-i}
        if seq[i] * seq[m - 2 - i] > seq[i + 1] * seq[m - 1 - i]:
            return False
    if half >= 1 and seq[half - 1] > seq[m - half]:
        return False
    return True


def minimum_functional(m: int, ell: int) -> int:
    """(m+l)(m+1-l) b_{l-1}^2 + l(l+1) b_l^2 - l(2m+1) b_{l-1} b_l with
    b_l = 2^(2m) d_l(m).

    Over 1 <= l <= m the minimum sits at l = m with value
    2^(2m) m (m+1) C(2m, m)^2.  The cross term carries the factor
    b_{l-1} b_l; dropping the b_l factor (see minimum_functional_uncorrected)
    breaks that closed-form minimum.
    """
    b = _b_pair(m, ell)
    return (m + ell) * (m + 1 - ell) * b[0] ** 2 + ell * (ell + 1) * b[1] ** 2 - ell * (2 * m + 1) * b[0] * b[1]


def minimum_functional_uncorrected(m: int, ell: int) -> int:
    """Variant whose cross term is l(2m+1) b_{l-1} alone, without the b_l
    factor.

    At l = m this does not reproduce 2^(2m) m (m+1) C(2m, m)^2 (already wrong
    at m = 1: 86 instead of 32); it is kept so reports can display both values
    side by side.
    """
    b = _b_pair(m, ell)
    return (m + ell) * (m + 1 - ell) * b[0] ** 2 + ell * (ell + 1) * b[1] ** 2 - ell * (2 * m + 1) * b[0]


def minimum_claimed_value(m: int) -> int:
    """The closed-form minimum 2^(2m) m (m+1) C(2m, m)^2 attained at l = m."""
    return 4**m * m * (m + 1) * binomial(2 * m, m) ** 2


def _b_pair(m: int, ell: int) -> tuple[int, int]:
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 1 <= ell <= m:
        raise ValueError(f"need 1 <= ell <= m, got ell={ell}, m={m}")
    row = scaled_row(m)
    return row[ell - 1], row[ell]
