"""The exact quantities behind the counterexample scans for the two open
questions: whether every coefficient row stays nonnegative under arbitrarily
many applications of the operator L (infinite log-concavity), and whether the
four-series 2F1 inequality holds for every argument x >= 1/2.

For fixed m the margin of that inequality is a polynomial in z = 4x of
degree m + 2.  margin_polynomial builds it once per m as m + 3 integers
over one denominator, from the integer series coefficients of the four
2F1s, and checks its value at x = 1/2 (z = 2) against the four series
summed there; hyp_inequality_margin evaluates it at each grid point.

The scans themselves are sweeps in ``suites``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .coefficients import scaled_row
from .hypergeometric import hyp2f1, series_coefficients
from .seqprops import iterated_l_first_negative


def row_first_negative(m: int, depth: int) -> tuple[int, int, Fraction] | None:
    """First negative entry of L^j(d(m)), 1 <= j <= depth, as (iteration,
    index, value), or None if all iterates stay nonnegative.

    L is iterated on the integer row b(m) = 4^m d(m); a negative entry v of
    L^j(b) is the entry v / 4^(m 2^j) of L^j(d(m)) (see l_operator).  The
    iteration stops early once the lemma restated in iterated_l_first_negative
    shows that every later iterate is nonnegative.  Depth 0 would check
    nothing, so it is a ValueError.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    hit = iterated_l_first_negative(scaled_row(m), depth)
    if hit is None:
        return None
    iteration, index, value = hit
    return iteration, index, Fraction(value, 4 ** (m * 2**iteration))


def _margin_series(m: int):
    """(weight, a, b, c) of the four series; the margin is sum weight 2F1(a, b; c; z)."""
    for weight, a in ((1, Fraction(3, 2)), (-3, Fraction(1, 2))):
        yield weight, a, -m - 2, -4 * m - 4
        yield -weight, a, -m - 1, -4 * m


def _value(poly: tuple[tuple[int, ...], int], z: Fraction) -> Fraction:
    """sum coeffs[k] z^k / den at z = zeta/delta, by Horner in integers:
    delta^n times the sum is sum coeffs[k] zeta^k delta^(n-k)."""
    coeffs, den = poly
    zeta, delta = z.numerator, z.denominator
    acc, power = coeffs[-1], 1
    for coeff in reversed(coeffs[:-1]):
        power *= delta
        acc = acc * zeta + coeff * power
    return Fraction(acc, den * power)


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
    poly = tuple(coeffs), den
    literal = sum(weight * hyp2f1(a, b, c, 2) for weight, a, b, c in _margin_series(m))
    if _value(poly, Fraction(2)) != literal:
        raise ArithmeticError(f"2F1 margin polynomial at m={m}: differs from the series at x = 1/2")
    return poly


def hyp_inequality_margin(m: int, x) -> Fraction:
    """Exact margin L(m,x) - R(m,x) of the conjectured inequality

      2F1(3/2,-m-2;-4m-4;4x) - 2F1(3/2,-m-1;-4m;4x)
        > 3 [2F1(1/2,-m-2;-4m-4;4x) - 2F1(1/2,-m-1;-4m;4x)]

    The conjecture predicts a positive margin for every x >= 1/2.  The
    margin is margin_polynomial(m), a polynomial in z = 4x checked at
    x = 1/2, evaluated at z in integers."""
    if m < 1:
        raise ValueError("margin needs m >= 1")
    return _value(margin_polynomial(m), 4 * Fraction(x))
