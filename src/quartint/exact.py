"""Exact integer and rational building blocks: binomials and the canonical
"p/q" string form used in reports.

Everything here is arbitrary precision and never rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def binomial(n: int, k: int) -> int:
    """C(n, k) with the combinatorial out-of-range convention.

    Returns 0 whenever k < 0, n < 0, or k > n, so sums over binomials can be
    written with generous index ranges and the vanishing terms drop out.
    """
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


def rational_str(q: Fraction | int) -> str:
    """Canonical decimal form "p/q", or just "p" when the denominator is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"
