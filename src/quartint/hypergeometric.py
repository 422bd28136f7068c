"""Terminating Gauss 2F1 series evaluated exactly at rational arguments,
their dense polynomial form, and the 3^(-k) ratio bounds and the integrand
envelope used to control the series tails.

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
"""

from __future__ import annotations

from fractions import Fraction

from .exact import pochhammer


class HypergeometricError(ValueError):
    """Base for invalid terminating-series requests."""


class NonTerminatingSeriesError(HypergeometricError):
    """The upper parameter b is not a nonpositive integer."""


class SeriesPoleError(HypergeometricError):
    """(c)_k vanishes at or before the truncation point."""


def _validated_order(a: Fraction, b: Fraction, c: Fraction) -> int:
    if b.denominator != 1 or b > 0:
        raise NonTerminatingSeriesError(f"upper parameter b={b} is not a nonpositive integer")
    n = -int(b)
    for j in range(n):
        if c + j == 0:
            raise SeriesPoleError(f"(c)_k vanishes at k={j + 1} before truncation {n} (c={c})")
    return n


def _term_ratios(a: Fraction, b: Fraction, c: Fraction, n: int) -> list[tuple[int, int]]:
    """Integer pairs (p_k, q_k) with p_k / q_k = (a+k)(b+k) / ((c+k)(k+1))
    for 0 <= k < n; q_k != 0 once _validated_order has passed."""
    alpha, da = a.numerator, a.denominator
    gamma, dc = c.numerator, c.denominator
    b = int(b)
    return [((alpha + k * da) * (b + k) * dc, (gamma + k * dc) * (k + 1) * da) for k in range(n)]


def hyp2f1(a, b, c, z) -> Fraction:
    """Exact value of the terminating series 2F1(a, b; c; z), summed over one
    common denominator (see the module docstring)."""
    a, b, c, z = Fraction(a), Fraction(b), Fraction(c), Fraction(z)
    n = _validated_order(a, b, c)
    zeta, dz = z.numerator, z.denominator
    num = den = 1
    for p, q in reversed(_term_ratios(a, b, c, n)):
        q *= dz
        num = q * den + p * zeta * num
        den *= q
    return Fraction(num, den)


def hyp2f1_as_polynomial(a, b, c) -> tuple[Fraction, ...]:
    """The terminating series as a coefficient tuple in z, of length
    N + 1; coefficient k is (a)_k (b)_k / ((c)_k k!)."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    n = _validated_order(a, b, c)
    coeffs = [Fraction(1)]
    for p, q in _term_ratios(a, b, c, n):
        coeffs.append(coeffs[-1] * Fraction(p, q))
    return tuple(coeffs)


def pochhammer_ratio_bound_check(m: int) -> bool:
    """b_k = 3^k (1-m)_k / (2-4m)_k stays in (0, 1] and never increases,
    for 1 <= k <= m-1.

    This is the bound (1-m)_k/(2-4m)_k <= 3^(-k) behind the integrand
    envelope.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    prev = Fraction(1)
    for k in range(1, m):
        b_k = 3**k * Fraction(pochhammer(Fraction(1 - m), k), pochhammer(Fraction(2 - 4 * m), k))
        if not (0 < b_k <= 1 and b_k <= prev):
            return False
        prev = b_k
    return True


def companion_ratio_bound_violations(m: int) -> list[int]:
    """All k in 0..m+1 where (-1-m)_k / (-4m)_k exceeds 3^(-k).

    The bound holds for every m >= 3; at m = 2 it fails at exactly k = 1
    (the ratio is 3/8 > 1/3), which callers surface rather than hide.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    bad = []
    ratio = Fraction(1)
    for k in range(0, m + 2):
        if k > 0:
            ratio *= Fraction(-1 - m + (k - 1), -4 * m + (k - 1))
        if ratio > Fraction(1, 3**k):
            bad.append(k)
    return bad


def envelope_bound_check(m: int, t) -> bool:
    """[2F1(5/2, 1-m; 2-4m; t)]^2 (3-t)^5 <= 243 for rational t in [0, 2].

    Both sides are rational (243 = (9 sqrt 3)^2), so the comparison is exact.
    Equality is attained at t = 0.
    """
    t = Fraction(t)
    if m < 2:
        raise ValueError("m must be at least 2")
    if not 0 <= t <= 2:
        raise ValueError("t must lie in [0, 2]")
    value = hyp2f1(Fraction(5, 2), 1 - m, 2 - 4 * m, t)
    return value * value * (3 - t) ** 5 <= 243
