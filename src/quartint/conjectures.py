"""The exact margin of the conjectured four-series 2F1 inequality, whose
counterexample scan asks whether it holds for every argument x >= 1/2.
(The scan for the other open question, infinite log-concavity of the
coefficient rows, runs seqprops.iterated_l_first_negative on the integer
rows.)

For fixed m the margin of that inequality is a polynomial in z = 4x of
degree m + 2.  margin_polynomial builds it once per m as m + 3 integers
over one denominator, from the integer series coefficients of the four
2F1s, and checks its value at x = 1/2 (z = 2) against the four series
summed there; hyp_inequality_margin evaluates it at each grid point by
horner, in integers.

The scans themselves are sweeps in ``suites``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .hypergeometric import hyp2f1, series_coefficients
from .polynomial import horner


def _margin_series(m: int):
    """(weight, a, b, c) of the four series; the margin is sum weight 2F1(a, b; c; z)."""
    for weight, a in ((1, Fraction(3, 2)), (-3, Fraction(1, 2))):
        yield weight, a, -m - 2, -4 * m - 4
        yield -weight, a, -m - 1, -4 * m


@lru_cache(maxsize=None)
def margin_polynomial(m: int) -> tuple[tuple[int, ...], int]:
    """(coeffs, den): the margin of hyp_inequality_margin as the polynomial
    sum_k coeffs[k] z^k / den in z = 4x, with m + 3 integer coefficients over
    the lcm of the four series' denominators.

    Before it is returned, its value at x = 1/2 (z = 2) is compared with
    the four series summed there by hyp2f1; a mismatch is an
    ArithmeticError, so a wrong polynomial is never read as a margin.
    """
    series = [(weight, *series_coefficients(a, b, c)) for weight, a, b, c in _margin_series(m)]
    den = lcm(*(d for _, _, d in series))
    coeffs = [0] * (m + 3)
    for weight, terms, d in series:
        scale = weight * (den // d)
        for k, term in enumerate(terms):
            coeffs[k] += scale * term
    literal = sum(weight * hyp2f1(a, b, c, 2) for weight, a, b, c in _margin_series(m))
    if Fraction(horner(coeffs, 2), den) != literal:
        raise ArithmeticError(f"2F1 margin polynomial at m={m}: differs from the series at x = 1/2")
    return tuple(coeffs), den


def hyp_inequality_margin(m: int, x) -> Fraction:
    """Exact margin L(m,x) - R(m,x) of the conjectured inequality

      2F1(3/2,-m-2;-4m-4;4x) - 2F1(3/2,-m-1;-4m;4x)
        > 3 [2F1(1/2,-m-2;-4m-4;4x) - 2F1(1/2,-m-1;-4m;4x)]

    The conjecture predicts a positive margin for every x >= 1/2.  The
    margin is margin_polynomial(m), a polynomial in z = 4x checked at
    x = 1/2.  Of degree n, at z = zeta/delta it is
    sum_k coeffs[k] delta^(n-k) zeta^k / (den delta^n), so horner runs at
    zeta in integers."""
    if m < 1:
        raise ValueError("margin needs m >= 1")
    coeffs, den = margin_polynomial(m)
    z, n = 4 * Fraction(x), len(coeffs) - 1
    zeta, delta = z.numerator, z.denominator
    return Fraction(horner([coeff * delta ** (n - k) for k, coeff in enumerate(coeffs)], zeta), den * delta**n)
