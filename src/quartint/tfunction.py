"""The tail sum T(m) that settles unimodality of the coefficient rows,
computed through four independent routes:

  direct          T(m) = sum_{r=2}^{m+1} C(2r,r) C(m+1,r) (r-1) / (2^r C(4m,r))
  hypergeometric  T(m) = 1 - 2F1(1/2,-1-m;-4m;2) + (m+1)/(4m) 2F1(3/2,-m;1-4m;2)
  integral        T(m) = 3(m+1)/(16(4m-1)) * int_0^2 t 2F1(5/2,1-m;2-4m;t) dt
  weighted sum    T(m) = [x W'(x) - W(x) + 1] at x = 1/2

together with the partial sums S_{m,l}, the four-stage inequality chain they
normalise, the r-term bounds behind T(m) < 1, and float diagnostics for the
limit (2 - sqrt 2)/2.

Every route is exact rational arithmetic; the only floats here are the limit
gaps, which involve sqrt 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import binomial, rational_str
from .hypergeometric import hyp2f1, hyp2f1_as_polynomial
from .polynomial import derivative, horner

# Limit of T(m), and the early incorrect guess 1 - ln 2 kept as a second
# diagnostic constant for context.
T_LIMIT = (2.0 - math.sqrt(2.0)) / 2.0
T_LIMIT_HISTORICAL_GUESS = 1.0 - math.log(2.0)


def s_sum(m: int, ell: int) -> Fraction:
    """S_{m,l} = sum_{k=l}^{2l} C(m-l,m-k) C(m+k,2k) / C(2m,2k) * (2l+1-k)/2^(m-k).

    Evaluated as a weighted Horner form over the terms
    u_k = C(m-l,m-k) C(m+k,2k) / (C(2m,2k) 2^(m-k)), which vanish for k > m,
    through their exact ratio

        u_{k+1}/u_k = (m-k)(m+k+1) / ((k+1-l)(2m-2k-1)),

    with an integer numerator and denominator reduced once at the end.  The
    tests compare it with the literal binomial sum; t-crosscheck compares
    S(2m, m-1) with T(m) from the three independent routes.
    """
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    top = min(2 * ell, m)
    # u_l (w_l + rho_l (w_{l+1} + ... + rho_{top-1} w_top)), w_k = 2l+1-k
    num, den = 2 * ell + 1 - top, 1
    for k in range(top - 1, ell - 1, -1):
        q = (k + 1 - ell) * (2 * m - 2 * k - 1)
        num = (2 * ell + 1 - k) * q * den + (m - k) * (m + k + 1) * num
        den *= q
    return Fraction(binomial(m + ell, 2 * ell) * num, binomial(2 * m, 2 * ell) * 2 ** (m - ell) * den)


@lru_cache(maxsize=None)
def t_direct(m: int) -> Fraction:
    """T(m) by its defining sum over t_r = C(2r,r) C(m+1,r) (r-1) / (2^r C(4m,r)).

    Evaluated in the nested form T = t_2 (1 + rho_2 (1 + rho_3 (... (1 + rho_m))))
    with t_2 = 3(m+1) / (8(4m-1)) and the exact term ratio

        rho_r = t_{r+1}/t_r = (2r+1)(m+1-r) r / ((r+1)(r-1)(4m-r)),

    accumulated as an integer numerator and denominator and reduced once at
    the end.  The tests compare it with the literal sum; t-crosscheck compares
    it with the hypergeometric, integral and weighted-sum routes.
    """
    if m < 1:
        raise ValueError("t_direct requires m >= 1")
    num = den = 1
    for r in range(m, 1, -1):
        q = (r + 1) * (r - 1) * (4 * m - r)
        num = q * den + (2 * r + 1) * (m + 1 - r) * r * num
        den *= q
    return Fraction(3 * (m + 1) * num, 8 * (4 * m - 1) * den)


def t_hypergeometric(m: int) -> Fraction:
    """T(m) from the two-series representation."""
    if m < 1:
        raise ValueError("t_hypergeometric requires m >= 1")
    first = hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 2)
    second = hyp2f1(Fraction(3, 2), -m, 1 - 4 * m, 2)
    return 1 - first + Fraction(m + 1, 4 * m) * second


def t_integral(m: int) -> Fraction:
    """T(m) from the integral route, with the degree-(m-1) integrand
    integrated term by term so the identity stays exact."""
    if m < 1:
        raise ValueError("t_integral requires m >= 1")
    integrand = hyp2f1_as_polynomial(Fraction(5, 2), 1 - m, 2 - 4 * m)
    # int_0^2 t * sum c_k t^k dt = sum c_k 2^(k+2) / (k+2)
    value = sum(c * Fraction(2 ** (k + 2), k + 2) for k, c in enumerate(integrand))
    return integral_prefactor(m) * value


def integral_prefactor(m: int) -> Fraction:
    """3(m+1) / (16(4m-1)); bounded by 9/112 for m >= 2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return Fraction(3 * (m + 1), 16 * (4 * m - 1))


def w_polynomial(m: int) -> tuple[Fraction, ...]:
    """The coefficients of W_m(x) = sum_{r=0}^{m+1} C(2r,r) C(m+1,r) / C(4m,r) x^r."""
    if m < 1:
        raise ValueError("w_polynomial requires m >= 1")
    return tuple(
        Fraction(binomial(2 * r, r) * binomial(m + 1, r), binomial(4 * m, r)) for r in range(m + 2)
    )


def t_via_w(m: int) -> Fraction:
    """T(m) = x W'(x) - W(x) + 1 at x = 1/2, with the exact polynomial
    derivative.

    The superficially similar combination W'(1/2)/2 - W(1/2) (see
    t_via_w_variant) does not reproduce T(m); this corrected form does, for
    every m, and the two are reported together so the difference is visible.
    """
    w = w_polynomial(m)
    half = Fraction(1, 2)
    return half * horner(derivative(w), half) - horner(w, half) + 1


def t_via_w_variant(m: int) -> Fraction:
    """(1/2) W'(1/2) - W(1/2), the uncorrected combination.

    At m = 1 this gives -3/4 where T(1) = 1/4; kept only so reports can show
    both values.
    """
    w = w_polynomial(m)
    half = Fraction(1, 2)
    return half * horner(derivative(w), half) - horner(w, half)


def bound_pair_check(m: int, r: int) -> bool:
    """C(2r,r) C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, the induction step
    behind T(m) < 1."""
    if not 2 <= r <= m + 1:
        raise ValueError(f"need 2 <= r <= m+1, got r={r}, m={m}")
    return binomial(2 * r, r) * binomial(m + 1, r) <= binomial(4 * m, r)


def geometric_tail_bound(m: int) -> Fraction:
    """sum_{r=2}^{m+1} (r-1)/2^r = 1 - (m+2)/2^(m+1), the envelope that
    dominates T(m) once every binomial ratio is replaced by 1.  The sum is
    taken over the common denominator 2^(m+1) and compared with the closed
    form."""
    if m < 1:
        raise ValueError("m must be at least 1")
    num = horner(range(m, 0, -1), 2)  # sum_{r=2}^{m+1} (r-1) 2^(m+1-r)
    total = Fraction(num, 2 ** (m + 1))
    closed = 1 - Fraction(m + 2, 2 ** (m + 1))
    if total != closed:
        raise ArithmeticError("geometric tail bound: sum and closed form disagree")
    return total


@dataclass(frozen=True)
class InequalityChain:
    """The four nested inequalities whose truth gives the positive-difference
    half of unimodality, strongest last.  All three right-hand sides bound the
    same left-hand sum; S_{m,l} is that sum normalised by the final bound."""

    m: int
    ell: int
    lhs: int
    rhs_full: int
    rhs_unweighted: int
    rhs_last_term: int
    s_value: Fraction

    @property
    def task1(self) -> bool:
        return self.lhs < self.rhs_full

    @property
    def task2(self) -> bool:
        return self.lhs < self.rhs_unweighted

    @property
    def task3(self) -> bool:
        return self.lhs < self.rhs_last_term

    @property
    def task4(self) -> bool:
        return self.s_value < 1

    def all_hold(self) -> bool:
        return self.task1 and self.task2 and self.task3 and self.task4


def inequality_chain_check(m: int, ell: int) -> InequalityChain:
    """Evaluate both sides of all four inequalities exactly, checking on the
    way that the right sides really do weaken in order (last term <=
    unweighted sum <= weighted sum) and that S_{m,l} is the normalised form
    of the strongest one.

    The three sums share their terms t_k = 2^k C(2m-2k, m-k) C(m+k, m+l),
    made in one pass over l <= k <= m from t_l = 2^l C(2m-2l, m-l) and the
    term ratio

        t_{k+1} = t_k (m-k)(m+k+1) / ((2m-2k-1)(k+1-l)),

    one small-factor multiply and one division per step, exact because both
    sides are the integer t_{k+1}.  The tests compare all three sums with
    their literal binomial sums; s_value comes from s_sum, computed
    independently.
    """
    if not 0 <= ell < m // 2:
        raise ValueError(f"need 0 <= ell < floor(m/2), got ell={ell}, m={m}")
    lhs = rhs_full = rhs_unweighted = 0
    term = binomial(2 * m - 2 * ell, m - ell) << ell
    for k in range(ell, m + 1):
        if k <= 2 * ell:
            lhs += (2 * ell + 1 - k) * term
        elif k > 2 * ell + 1:
            rhs_full += (k - 2 * ell - 1) * term
            rhs_unweighted += term
        if k < m:
            term = term * ((m - k) * (m + k + 1)) // ((2 * m - 2 * k - 1) * (k + 1 - ell))
    rhs_last_term = 2**m * binomial(2 * m, m + ell)
    s_value = s_sum(m, ell)
    if not rhs_last_term <= rhs_unweighted <= rhs_full:
        raise ArithmeticError(f"strengthening chain out of order at (m={m}, ell={ell})")
    if s_value * rhs_last_term != lhs:
        raise ArithmeticError(f"S_{{{m},{ell}}} is not lhs/rhs_last_term")
    return InequalityChain(m, ell, lhs, rhs_full, rhs_unweighted, rhs_last_term, s_value)


def limit_gap(m: int) -> float:
    """(2 - sqrt 2)/2 - T(m), in floating point; positive and shrinking as
    T(m) climbs toward the limit."""
    return T_LIMIT - float(t_direct(m))


@dataclass(frozen=True)
class TValueBundle:
    """T(m) through every exact route plus the float limit gap."""

    m: int
    direct: Fraction
    hypergeometric: Fraction
    integral: Fraction
    limit_gap: float

    def to_jsonable(self) -> dict:
        return {
            "m": self.m,
            "direct": rational_str(self.direct),
            "hypergeometric": rational_str(self.hypergeometric),
            "integral": rational_str(self.integral),
            "approx": float(self.direct),
            "limit_gap": self.limit_gap,
        }


def t_bundle(m: int) -> TValueBundle:
    """All representations of T(m); raises if any two disagree."""
    direct = t_direct(m)
    hyp = t_hypergeometric(m)
    integral = t_integral(m)
    if not direct == hyp == integral:
        raise ArithmeticError(f"T({m}) representations disagree: {direct}, {hyp}, {integral}")
    return TValueBundle(m, direct, hyp, integral, limit_gap(m))
