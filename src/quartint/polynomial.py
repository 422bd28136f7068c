"""Dense polynomials as coefficient tuples, index equal to degree.

Two operations cover every polynomial in the package, and each keeps the
entry type of its input: int coefficients at an int point give ints,
Fraction coefficients or points give Fractions, a float point gives a float.

    horner(p, x)        p(x)
    taylor_shift(p, c)  the coefficients of p(x + c)

The shift is repeated synthetic division by x - c (Horner's rule applied
n times), so it needs only additions and multiplications by c; this is the
classical O(n^2) Taylor shift of von zur Gathen and Gerhard (ISSAC 1997).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction, float]


def horner(coeffs: Sequence[Scalar], x: Scalar) -> Scalar:
    """p(x) for p = coeffs[0] + coeffs[1] x + ...; the empty tuple is 0."""
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def taylor_shift(coeffs: Sequence[Scalar], c: Scalar) -> tuple[Scalar, ...]:
    """The coefficients of p(x + c), same length as ``coeffs``.

    Round j divides the quotient left by round j - 1, held in entries
    j..n-1, by x - c; its remainder p^(j)(c) / j!, the j-th Taylor
    coefficient at c, lands in entry j.
    """
    out = list(coeffs)
    n = len(out)
    for j in range(n - 1):
        for i in range(n - 2, j - 1, -1):
            out[i] += c * out[i + 1]
    return tuple(out)
