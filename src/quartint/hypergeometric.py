"""Terminating Gauss 2F1 series evaluated exactly at rational arguments and
their dense polynomial form.

A series terminates when the upper parameter b is a nonpositive integer; the
truncation order is N = -b and the value is the finite sum

    sum_{k=0}^{N} (a)_k (b)_k / ((c)_k k!) z^k.

After checking up front that (c)_k never vanishes before the truncation
point, evaluation writes a = alpha/da, c = gamma/dc, z = zeta/dz and sums the
nested form 1 + r_0 (1 + r_1 (... (1 + r_{N-1}))) from the inside out with
the exact term ratio

    r_k = (a+k)(b+k) z / ((c+k)(k+1))
        = (alpha + k da)(b+k) zeta dc / ((gamma + k dc)(k+1) dz da),

carrying one integer numerator and denominator and reducing once at the end.
The first moment

    int_0^x t 2F1(a, b; c; t) dt = (x^2/2) 3F2(a, b, 2; c, 3; x)

is summed the same way, with the term ratio r_k (k+2)/(k+3).  The dense
form, series_coefficients, takes the ratios p_k / q_k at z = 1 in integers:
over the one denominator prod q_k, coefficient k is
(prod_{i<k} p_i) (prod_{i>=k} q_i).  It is the one coefficient generator:
the hypineq margin and t_via_w read it.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod


def _validated_order(a: Fraction, b: Fraction, c: Fraction) -> int:
    if b.denominator != 1 or b > 0:
        raise ValueError(f"upper parameter b={b} is not a nonpositive integer")
    n = -int(b)
    # (c)_k = c (c+1) ... (c+k-1) first vanishes at k = 1 - c
    if c.denominator == 1 and -n < c <= 0:
        raise ValueError(f"(c)_k vanishes at k={1 - int(c)} before truncation {n} (c={c})")
    return n


def _term_ratios(a: Fraction, b: Fraction, c: Fraction, z: Fraction, n: int) -> list[tuple[int, int]]:
    """Integer pairs (p_k, q_k) with p_k / q_k = r_k = (a+k)(b+k) z / ((c+k)(k+1))
    for 0 <= k < n; q_k != 0 once _validated_order has passed."""
    alpha, da = a.numerator, a.denominator
    gamma, dc = c.numerator, c.denominator
    b = int(b)
    p_scale, q_scale = z.numerator * dc, z.denominator * da
    return [((alpha + k * da) * (b + k) * p_scale, (gamma + k * dc) * (k + 1) * q_scale) for k in range(n)]


def _nested_sum(ratios: list[tuple[int, int]]) -> tuple[int, int]:
    """Numerator and denominator of 1 + r_0 (1 + r_1 (... (1 + r_{n-1}))),
    unreduced, for r_k = p_k / q_k."""
    num = den = 1
    for p, q in reversed(ratios):
        num = q * den + p * num
        den *= q
    return num, den


def hyp2f1(a, b, c, z) -> Fraction:
    """Exact value of the terminating series 2F1(a, b; c; z), summed over one
    common denominator (see the module docstring)."""
    a, b, c, z = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    return Fraction(*_nested_sum(_term_ratios(a, b, c, z, _validated_order(a, b, c))))


def hyp2f1_first_moment(a, b, c, x) -> Fraction:
    """Exact value of int_0^x t 2F1(a, b; c; t) dt = (x^2/2) 3F2(a, b, 2; c, 3; x),
    summed over one common denominator like hyp2f1."""
    a, b, c, x = Fraction(a), Fraction(b), Fraction(c), Fraction(x)
    ratios = _term_ratios(a, b, c, x, _validated_order(a, b, c))
    num, den = _nested_sum([(p * (k + 2), q * (k + 3)) for k, (p, q) in enumerate(ratios)])
    return x * x * Fraction(num, 2 * den)


def series_coefficients(a, b, c) -> tuple[tuple[int, ...], int]:
    """(coeffs, den): the N + 1 integer coefficients in z over prod q_k (see
    the module docstring); coefficient k + 1 is coefficient k divided exactly
    by q_k, times p_k."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    ratios = _term_ratios(a, b, c, Fraction(1), _validated_order(a, b, c))
    den = prod(q for _, q in ratios)
    coeffs = [den]
    for p, q in ratios:
        coeffs.append(coeffs[-1] // q * p)
    return tuple(coeffs), den

