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
    """True iff s_j^2 >= s_{j-1} s_{j+1}, that is L(seq)_j >= 0, at every interior j."""
    return all(value >= 0 for value in l_operator(seq)[1:-1])


def _l_terms(seq: Sequence[Entry]) -> list[tuple[Entry, Entry]]:
    """The products (x_k^2, x_{k-1} x_{k+1}) whose differences L takes, with
    the neighbors outside the index range counted as 0."""
    _check_nonempty(seq)
    padded = (0, *seq, 0)
    return [(x * x, left * right) for left, x, right in zip(padded, padded[1:], padded[2:])]


def l_operator(seq: Sequence[Entry]) -> list[Entry]:
    """The map {x_k} -> {x_k^2 - x_{k-1} x_{k+1}} on same-length sequences.

    Neighbors outside the index range count as 0, so both endpoints map to
    their own squares.  The entry type is preserved: int entries give int
    entries and Fraction entries give Fraction entries.  L is homogeneous of
    degree 2, L(c x) = c^2 L(x), with the same zero padding, so the iterates
    of a row d = b / 4^m are L^j(d) = L^j(b) / 4^(m 2^j) and can be computed
    on the integer row b.
    """
    return [square - cross for square, cross in _l_terms(seq)]


def iterated_l_first_negative(seq: Sequence[Entry], depth: int) -> tuple[int, int, Entry] | None:
    """Apply L up to depth times; return (iteration, index, value) for the
    first negative entry, or None if all iterates stay nonnegative.

    The iteration stops once a lemma of McNamara and Sagan (Adv. Appl. Math.
    2010) proves the rest.  Let c be nonnegative, zero-padded as in
    l_operator, with c_k^2 >= r c_{k-1} c_{k+1} at every k for some
    r >= (3+sqrt 5)/2.  Then b = L(c) is nonnegative and satisfies the same
    inequality, so every iterate of c is nonnegative.  (b_k >= (1-1/r) c_k^2
    and 0 <= b_{k+-1} <= c_{k+-1}^2, so b_k^2 >= (r-1)^2 b_{k-1} b_{k+1}, and
    (r-1)^2 >= r; the padding zeros satisfy every inequality.)

    The test takes r = 8/3, which is sound since 8/3 > (3+sqrt 5)/2: once
    b = L(c) has no negative entry, c >= 0 and 3 c_k^2 >= 8 c_{k-1} c_{k+1}
    for every k return None.  It is exact, reads the two products that L
    formed for b, and runs after the negativity scan of b, so every witness
    is the one the full iteration finds.  It is sufficient, not necessary:
    of the coefficient rows m <= 120, m = 6, 30 and 63 pass it one iteration
    later than the exact test with r = (3+sqrt 5)/2 would.

    At the last iteration, a nonnegative iterate whose image _squares_dominate
    proves nonnegative from leading bits gives None without forming L's
    products; otherwise the exact step runs.
    """
    current = list(seq)
    nonnegative = all(value >= 0 for value in current)
    for iteration in range(1, depth + 1):
        if iteration == depth and nonnegative and _squares_dominate(current):
            return None
        terms = _l_terms(current)
        image = [square - cross for square, cross in terms]
        for index, value in enumerate(image):
            if value < 0:
                return iteration, index, value
        if nonnegative and all(3 * square >= 8 * cross for square, cross in terms):
            return None
        current, nonnegative = image, True
    return None


def _squares_dominate(seq: Sequence[Entry]) -> bool:
    """True only if x_k^2 >= x_{k-1} x_{k+1} at every k of a nonnegative int
    sequence, zero-padded as in l_operator; False for Fraction entries.

    Each entry x is read as its 62-bit head X = x >> s.  Since x^2 >= X^2 2^(2s)
    and l r < (L+1)(R+1) 2^(sl+sr), a head test that holds proves the entry, and
    an entry with a zero neighbour (the two edges among them) holds outright.
    False means only that some head test failed, not that an entry fails.
    """
    if not all(isinstance(value, int) for value in seq):
        return False
    shifts = [max(x.bit_length() - 62, 0) for x in seq]
    heads = [x >> s for x, s in zip(seq, shifts)]
    for k in range(1, len(seq) - 1):
        left, right = heads[k - 1], heads[k + 1]
        if left and right:
            shift = 2 * shifts[k] - shifts[k - 1] - shifts[k + 1]
            if heads[k] ** 2 << max(shift, 0) < (left + 1) * (right + 1) << max(-shift, 0):
                return False
    return True


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
