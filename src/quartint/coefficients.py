"""The rational coefficient family d_l(m) of the quartic-integral polynomial
P_m(a), its integer scaling b_l(m) = 2^(2m) d_l(m), and the forward
difference d_{l+1}(m) - d_l(m).

The defining sum

    d_l(m) = 2^(-2m) * sum_{k=l}^{m} 2^k C(2m-2k, m-k) C(m+k, m) C(k, l)

is the expansion in powers of a of the Boros-Moll form

    P_m(a) = 2^(-2m) * sum_{k=0}^{m} 2^k C(2m-2k, m-k) C(m+k, m) (a+1)^k,

so the integer row b(m) is the Taylor shift by 1 of the integer weights
w_k = 2^k C(2m-2k, m-k) C(m+k, m), made with additions only.

Consecutive rows satisfy Moll's recurrence in m (Kauers and Paule, "A
computer proof of Moll's log-concavity conjecture", Proc. AMS 2007), which
on the integer rows reads

    b_l(m+1) = 2 [2(m+l) b_{l-1}(m) + (4m+2l+3) b_l(m)] / (m+1),

with b_{-1}(m) = b_{m+1}(m) = 0; the division is exact.  Row m is the Taylor
shift when m is a multiple of 64 (a checkpoint) and one recurrence step from
row m-1 otherwise, so a cold row recurses at most 63 rows deep, well inside
the interpreter's recursion limit, and a sweep in increasing m pays one
Taylor shift per 64 rows.  A nonzero remainder raises ArithmeticError: an
internal error, never a wrong row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import binomial, rational_str
from .polynomial import taylor_shift


@dataclass(frozen=True)
class CoefficientRow:
    """One full row (d_0(m), ..., d_m(m)); every entry is strictly positive."""

    m: int
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.values) != self.m + 1:
            raise ValueError(f"row for m={self.m} must have {self.m + 1} entries")
        if any(v <= 0 for v in self.values):
            raise ValueError("coefficient rows are strictly positive")

    def as_strings(self) -> list[str]:
        return [rational_str(v) for v in self.values]


_ROW_CHECKPOINT = 64


@lru_cache(maxsize=None)
def _scaled_row(m: int) -> tuple[int, ...]:
    if m % _ROW_CHECKPOINT == 0:
        weights = [2**k * binomial(2 * m - 2 * k, m - k) * binomial(m + k, m) for k in range(m + 1)]
        return taylor_shift(weights, 1)
    return _next_row(_scaled_row(m - 1), m - 1)


def _next_row(row: tuple[int, ...], m: int) -> tuple[int, ...]:
    """b(m+1) from b(m) by the recurrence in m."""
    out = []
    below = 0
    for ell, b in enumerate((*row, 0)):
        value, remainder = divmod(2 * (2 * (m + ell) * below + (4 * m + 2 * ell + 3) * b), m + 1)
        if remainder:
            raise ArithmeticError(f"row recurrence: inexact division at m={m + 1}, ell={ell}")
        out.append(value)
        below = b
    return tuple(out)


def coefficient_row(m: int) -> CoefficientRow:
    """All of (d_0(m), ..., d_m(m)) in one shot."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    scale = 4**m
    return CoefficientRow(m, tuple(Fraction(b, scale) for b in _scaled_row(m)))


def scaled_row(m: int) -> tuple[int, ...]:
    """The integer row b_l(m) = 2^(2m) d_l(m)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _scaled_row(m)


def delta_direct(m: int, ell: int) -> Fraction:
    """d_{l+1}(m) - d_l(m), straight from the row."""
    if not 0 <= ell <= m - 1:
        raise ValueError(f"need 0 <= ell <= m-1, got ell={ell}, m={m}")
    row = _scaled_row(m)
    return Fraction(row[ell + 1] - row[ell], 4**m)
