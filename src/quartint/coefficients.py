"""The rational coefficient family d_l(m) of the quartic-integral polynomial
P_m(a) and its integer scaling b_l(m) = 2^(2m) d_l(m).

The defining sum

    d_l(m) = 2^(-2m) * sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m) C(k, l)

is the expansion in powers of a of the Boros-Moll form

    P_m(a) = 2^(-2m) * sum_{k=0}^{m} 2^k C(2m-2k, m-k) C(m+k, m) (a+1)^k.

P_m solves (1-a^2) P'' - (2m+1+2a) P' + m(m+1) P = 0, the differential
equation of a Jacobi polynomial, whose coefficient form on the integer row is

    (m-l)(m+l+1) b_l = (l+1) [(2m+1) b_{l+1} - (l+2) b_{l+2}].

The row is made in one downward pass of it, from b_{m+1} = 0 and the top
entry b_m = 2^m C(2m, m), the only surviving term at l = m.  Each row
depends on m alone, and the division is exact; a nonzero remainder raises
ArithmeticError: an internal error, never a wrong row.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from .exact import binomial


class CoefficientRow(NamedTuple):
    """One full row (d_0(m), ..., d_m(m)).  coefficient_row() guarantees that
    every entry is strictly positive; the type itself does not check it."""

    values: tuple[Fraction, ...]


@lru_cache(maxsize=None)
def _scaled_row(m: int) -> tuple[int, ...]:
    row = [0] * (m + 2)
    row[m] = binomial(2 * m, m) << m
    for ell in range(m - 1, -1, -1):
        step = (ell + 1) * ((2 * m + 1) * row[ell + 1] - (ell + 2) * row[ell + 2])
        row[ell], remainder = divmod(step, (m - ell) * (m + ell + 1))
        if remainder:
            raise ArithmeticError(f"row recurrence: inexact division at m={m}, ell={ell}")
    return tuple(row[:-1])


def dyadic_row(m: int) -> Iterator[tuple[int, int]]:
    """(p, e) with d_l(m) = p / 2^e in lowest terms, for 0 <= l <= m.  A row of
    the wrong length or with an entry that is not positive is an
    ArithmeticError, an internal error.  b and 4^m share the power of two
    s = min(tz(b), 2m), with tz the trailing zero bits, so each entry
    reduces to b >> s over 2^(2m-s) by shifts, with no gcd."""
    row = scaled_row(m)
    if len(row) != m + 1 or any(b <= 0 for b in row):
        raise ArithmeticError(f"row for m={m} must have {m + 1} strictly positive entries")
    shifts = (min((b & -b).bit_length() - 1, 2 * m) for b in row)
    return ((b >> s, 2 * m - s) for b, s in zip(row, shifts))


def coefficient_row(m: int) -> CoefficientRow:
    """All of (d_0(m), ..., d_m(m)) in one shot, from dyadic_row."""
    return CoefficientRow(tuple(Fraction(p, 1 << e) for p, e in dyadic_row(m)))


def scaled_row(m: int) -> tuple[int, ...]:
    """The integer row b_l(m) = 2^(2m) d_l(m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _scaled_row(m)
