"""The exact quantities behind the counterexample scans for the two open
questions: whether every coefficient row stays nonnegative under arbitrarily
many applications of the operator L (infinite log-concavity), and whether the
four-series 2F1 inequality holds for every argument x >= 1/2.

The scans themselves are sweeps in ``suites``.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import scaled_row
from .hypergeometric import hyp2f1
from .seqprops import iterated_l_first_negative


def default_x_grid() -> tuple[Fraction, ...]:
    """x = 1/2, 3/4, ..., 5 (step 1/4)."""
    return tuple(Fraction(1, 2) + Fraction(i, 4) for i in range(19))


def row_first_negative(m: int, depth: int) -> tuple[int, int, Fraction] | None:
    """First negative entry of L^j(d(m)), 1 <= j <= depth, as (iteration,
    index, value), or None if all iterates stay nonnegative.

    L is iterated on the integer row b(m) = 4^m d(m); a negative entry v of
    L^j(b) is the entry v / 4^(m 2^j) of L^j(d(m)) (see l_operator).
    """
    hit = iterated_l_first_negative(scaled_row(m), depth)
    if hit is None:
        return None
    iteration, index, value = hit
    return iteration, index, Fraction(value, 4 ** (m * 2**iteration))


def hyp_inequality_margin(m: int, x) -> Fraction:
    """Exact margin L(m,x) - R(m,x) of the conjectured inequality

      2F1(3/2,-m-2;-4m-4;4x) - 2F1(3/2,-m-1;-4m;4x)
        > 3 [2F1(1/2,-m-2;-4m-4;4x) - 2F1(1/2,-m-1;-4m;4x)]

    The conjecture predicts a positive margin for every x >= 1/2."""
    if m < 1:
        raise ValueError("margin needs m >= 1")
    x = Fraction(x)
    z = 4 * x
    left = hyp2f1(Fraction(3, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(3, 2), -m - 1, -4 * m, z)
    right = 3 * (
        hyp2f1(Fraction(1, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(1, 2), -m - 1, -4 * m, z)
    )
    return left - right
