"""The tail sum T(m) that settles unimodality of the coefficient rows,
computed through four exact routes:

  direct          T(m) = sum_{r=2}^{m+1} C(2r,r) C(m+1,r) (r-1) / (2^r C(4m,r))
  hypergeometric  T(m) = 1 - 2F1(1/2,-1-m;-4m;2) + (m+1)/(4m) 2F1(3/2,-m;1-4m;2)
  integral        T(m) = 3(m+1)/(16(4m-1)) * int_0^2 t 2F1(5/2,1-m;2-4m;t) dt
  weighted sum    T(m) = [x W'(x) - W(x) + 1] at x = 1/2

Only S(2m, m-1) is a separate identity.  The other routes add up exactly
the terms of the direct sum, generated another way, so they check the code:
F' = (ab/c) 2F1(a+1, b+1; c+1; z) makes the second series 2 F'(2) for
F = 2F1(1/2,-1-m;-4m;z), so the hypergeometric route is the weighted sum's
2 F'(2) - F(2) + 1, summed by hyp2f1.  Also here: the
partial sums S_{m,l}, the four sums of the inequality chain, the r-term
bounds behind T(m) < 1, and float diagnostics for the limit (2 - sqrt 2)/2.
These return values and guard only their exactness; the witnesses in
suites decide every inequality, S < 1 in the chain included.

Every route is exact rational arithmetic, summed in integers over one
common denominator and reduced to a Fraction once at the end: the direct
sum over its natural denominator 2^(m+1) C(4m, m+1), with integer terms
made by their term ratio (t_direct_pair); the two series through hyp2f1;
the integral through hyp2f1_first_moment, the same nested sum with the
term ratio times (k+2)/(k+3); and the weighted sum from series_coefficients,
the generator scan hypineq reads, as W(x) = 2F1(1/2, -1-m; -4m; 4x).  The
integer left sums of S_{m,l} = lhs / (2^m C(2m, m+l)) are carried across l
in two moments of their term window, O(m) steps a row, and kept per row for
the chain and s-monotone (left_sums); a term loop makes the one S of s_sum
and is the reference the carry is tested against (_left_sum).  The chain
reads its right-hand sums off the integer row b_l(m).  The only floats here
are the limit gaps shown by tvalues, which involve sqrt 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .coefficients import scaled_row
from .exact import binomial
from .hypergeometric import hyp2f1, hyp2f1_first_moment, series_coefficients
from .polynomial import horner

# Limit of T(m), and the early incorrect guess 1 - ln 2 kept as a second
# diagnostic constant for context.
T_LIMIT = (2.0 - math.sqrt(2.0)) / 2.0
T_LIMIT_HISTORICAL_GUESS = 1.0 - math.log(2.0)


def _left_sum(m: int, ell: int) -> tuple[int, int]:
    """(lhs, head) for 0 <= l <= m, with S_{m,l} = lhs / (2^m C(2m, m+l)):
    lhs = sum_{k=l}^{2l} (2l+1-k) t_k, summed as running prefix sums, and
    head = t_l + ... + t_{2l+1}, over t_k = 2^k C(2m-2k, m-k) C(m+k, m+l)
    (0 for k > m), stepped by t_{k+1}/t_k = (m-k)(m+k+1) / ((2m-2k-1)(k+1-l));
    a step that leaves a remainder is an ArithmeticError.  The kernel of s_sum,
    which needs l up to m, and the literal reference for left_sums."""
    lhs = head = 0
    term = binomial(2 * m - 2 * ell, m - ell) << ell
    for k in range(ell, 2 * ell + 1):
        head += term
        lhs += head
        term, remainder = divmod(term * ((m - k) * (m + k + 1)), (2 * m - 2 * k - 1) * (k + 1 - ell))
        if remainder:
            raise ArithmeticError(f"S left sum: inexact term division at (m={m}, ell={ell}), k={k + 1}")
    return lhs, head + term


@lru_cache(maxsize=None)
def left_sums(m: int) -> tuple[tuple[int, int], ...]:
    """_left_sum(m, l) over 0 <= l <= floor((m-1)/2), which holds the chain's l < floor(m/2),
    carried across l in O(1) steps.  Only the moments N0 = sum_j t_{l+j} and N1 = sum_j j t_{l+j}
    of the window 0 <= j <= l+1 and its top term hi = t_{2l+1} are kept: lhs = (l+1) N0 - N1 and
    head = N0.  Summing the k-recurrence of _left_sum over the window closes its second moment,

        N2 = (2m+2) N1 - (m-l)(m+l+1) N0 + (m-2l-1)(m+2l+2) hi,

    and with e1 = t_{2l+2}, e2 = t_{2l+3} (two k-steps) and t_k(l+1) = (k-l) t_k(l) / (m+l+1),
    N0' = (N1 + (l+2) e1 + (l+3) e2) / (m+l+1), N1' = (N2 - N1 + (l+1)(l+2) e1 + (l+2)(l+3) e2)
    / (m+l+1) and hi' = (l+3) e2 / (m+l+1).  Each division is a divmod, and a remainder, t_1 at
    l = 0 included, is an ArithmeticError that names the (m, l) being made."""

    def exact(num: int, den: int, name: str, ell: int) -> int:
        quotient, remainder = divmod(num, den)
        if remainder:
            raise ArithmeticError(f"S left sums: inexact division for {name} at (m={m}, ell={ell})")
        return quotient

    t0 = binomial(2 * m, m)
    hi = exact(t0 * (m * (m + 1)), 2 * m - 1, "t_1", 0)
    n0, n1, sums = t0 + hi, hi, []
    for ell in range((m + 1) // 2):
        sums.append(((ell + 1) * n0 - n1, n0))
        if 2 * ell + 3 > m:
            break
        top = hi * ((m - 2 * ell - 1) * (m + 2 * ell + 2))
        e1 = exact(top, (2 * m - 4 * ell - 3) * (ell + 2), "e1", ell + 1)
        e2 = exact(e1 * ((m - 2 * ell - 2) * (m + 2 * ell + 3)), (2 * m - 4 * ell - 5) * (ell + 3), "e2", ell + 1)
        n2 = (2 * m + 2) * n1 - (m - ell) * (m + ell + 1) * n0 + top
        den = m + ell + 1
        n0, n1, hi = (
            exact(n1 + (ell + 2) * e1 + (ell + 3) * e2, den, "N0", ell + 1),
            exact(n2 - n1 + (ell + 1) * (ell + 2) * e1 + (ell + 2) * (ell + 3) * e2, den, "N1", ell + 1),
            exact((ell + 3) * e2, den, "hi", ell + 1),
        )
    return tuple(sums)


def s_sum(m: int, ell: int) -> Fraction:
    """S_{m,l} = sum_{k=l}^{2l} C(m-l,m-k) C(m+k,2k) / C(2m,2k) * (2l+1-k)/2^(m-k),
    from one run of _left_sum; t-crosscheck compares S(2m, m-1), a separate
    identity, with T(m) from the direct sum."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    return Fraction(_left_sum(m, ell)[0], binomial(2 * m, m + ell) << m)


def t_direct_pair(m: int) -> tuple[int, int]:
    """T(m) by its defining sum over t_r = C(2r,r) C(m+1,r) (r-1) / (2^r C(4m,r)),
    as the pair (N, D) over D = 2^(m+1) C(4m, m+1), not reduced.

    Since C(m+1,r)/C(4m,r) = C(4m-r, m+1-r)/C(4m, m+1), the sum is N / D with
    N = sum_{r=2}^{m+1} (r-1) g_r over the integers
    g_r = C(2r,r) C(4m-r, m+1-r) 2^(m+1-r).  They are made from
    g_2 = 6 C(4m-2, m-1) 2^(m-1) by the term ratio

        g_{r+1}/g_r = (2r+1)(m+1-r) / ((r+1)(4m-r)),

    and a division that leaves a remainder is an ArithmeticError.  The
    tests compare it with the literal sum; t-crosscheck compares it with the
    hypergeometric, integral and weighted-sum routes.
    """
    if m < 1:
        raise ValueError("t_direct requires m >= 1")
    num, g = 0, 6 * binomial(4 * m - 2, m - 1) << (m - 1)
    for r in range(2, m + 2):
        num += (r - 1) * g
        g, remainder = divmod(g * ((2 * r + 1) * (m + 1 - r)), (r + 1) * (4 * m - r))
        if remainder:
            raise ArithmeticError(f"T direct sum: inexact division at m={m}, r={r + 1}")
    return num, binomial(4 * m, m + 1) << (m + 1)


@lru_cache(maxsize=None)
def t_direct(m: int) -> Fraction:
    """T(m) from t_direct_pair, reduced."""
    return Fraction(*t_direct_pair(m))


@lru_cache(maxsize=None)
def t_hypergeometric(m: int) -> Fraction:
    """T(m) from the two-series representation."""
    if m < 1:
        raise ValueError("t_hypergeometric requires m >= 1")
    first = hyp2f1(Fraction(1, 2), -1 - m, -4 * m, 2)
    second = hyp2f1(Fraction(3, 2), -m, 1 - 4 * m, 2)
    return 1 - first + Fraction(m + 1, 4 * m) * second


def t_integral(m: int) -> Fraction:
    """T(m) from the integral route: the prefactor times the exact first
    moment of the degree-(m-1) integrand over [0, 2]."""
    return integral_prefactor(m) * hyp2f1_first_moment(Fraction(5, 2), 1 - m, 2 - 4 * m, 2)


def integral_prefactor(m: int) -> Fraction:
    """3(m+1) / (16(4m-1)); bounded by 9/112 for m >= 2."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return Fraction(3 * (m + 1), 16 * (4 * m - 1))


def t_via_w(m: int) -> Fraction:
    """T(m) = x W'(x) - W(x) + 1 at x = 1/2 for W_m(x) = sum_{r=0}^{m+1}
    C(2r,r) C(m+1,r) / C(4m,r) x^r = F(4x), F = 2F1(1/2, -1-m; -4m; z):
    2 F'(2) - F(2) + 1 = 1 + sum_k (k-1) c_k 2^k over the integers c_k and
    denominator of series_coefficients; k - 1 is the direct sum's weight r - 1.

    The superficially similar combination W'(1/2)/2 - W(1/2), which is
    t_via_w(m) - 1, does not reproduce T(m): at m = 1 it gives -3/4 where
    T(1) = 1/4.  t-crosscheck notes both values.
    """
    if m < 1:
        raise ValueError("t_via_w requires m >= 1")
    c, den = series_coefficients(Fraction(1, 2), -1 - m, -4 * m)
    return Fraction(horner([(k - 1) * v for k, v in enumerate(c)], 2) + den, den)


def pair_bound_sides(m: int) -> list[tuple[int, int]]:
    """(C(2r,r) C(m+1,r), C(4m,r)) for 2 <= r <= m+1, the two sides of the
    binomial pair bound, stepped along r from (3m(m+1), 2m(4m-1)) by

        lhs_{r+1} = lhs_r 2(2r+1)(m+1-r) / (r+1)^2,    rhs_{r+1} = rhs_r (4m-r) / (r+1);

    a division that leaves a remainder is an ArithmeticError."""
    lhs, rhs, sides = 3 * m * (m + 1), 2 * m * (4 * m - 1), []
    for r in range(2, m + 2):
        sides.append((lhs, rhs))
        lhs, remainder = divmod(lhs * (2 * (2 * r + 1) * (m + 1 - r)), (r + 1) ** 2)
        rhs, rhs_remainder = divmod(rhs * (4 * m - r), r + 1)
        if remainder or rhs_remainder:
            raise ArithmeticError(f"binomial pair bound: inexact step at m={m}, r={r + 1}")
    return sides


def geometric_tail_bound(m: int) -> Fraction:
    """The envelope of T(m) with every binomial ratio replaced by 1, from the
    identity sum_{r=2}^{m+1} (r-1)/2^r = 1 - (m+2)/2^(m+1)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    return Fraction((1 << (m + 1)) - (m + 2), 1 << (m + 1))


class InequalityChain(NamedTuple):
    """The four sums of the chain lhs < rhs_last_term <= rhs_unweighted <=
    rhs_full, whose truth gives the positive-difference half of unimodality;
    S_{m,l} = lhs / rhs_last_term."""

    lhs: int
    rhs_full: int
    rhs_unweighted: int
    rhs_last_term: int


@lru_cache(maxsize=1)
def _chain_binomials(m: int) -> tuple[tuple[int, int], ...]:
    """(C(m+l, l), 2^m C(2m, m+l)) for 0 <= l < floor(m/2), stepped along l by
    C(m+l+1, l+1) = C(m+l, l) (m+l+1)/(l+1) and C(2m, m+l+1) = C(2m, m+l) (m-l)/(m+l+1);
    a division that leaves a remainder is an ArithmeticError.  The chain reads
    one row at every l in turn, so only the last row is kept."""
    scale, last, row = 1, binomial(2 * m, m) << m, []
    for ell in range(m // 2):
        row.append((scale, last))
        scale, remainder = divmod(scale * (m + ell + 1), ell + 1)
        last, last_remainder = divmod(last * (m - ell), m + ell + 1)
        if remainder or last_remainder:
            raise ArithmeticError(f"inequality chain: inexact binomial step at (m={m}, ell={ell + 1})")
    return tuple(row)


def inequality_chain_check(m: int, ell: int) -> InequalityChain:
    """The four sums of the chain at (m, l), exactly; suites._chain_witness
    decides the chain, and with it S_{m,l} < 1, as lhs < rhs_last_term.

    The sums share the terms t_k of _left_sum, and with C = C(m+l, l) the
    identities C(m+k, m+l) C = C(m+k, m) C(k, l) and
    k C(k, l) = l C(k, l) + (l+1) C(k, l+1) give, over l <= k <= m,

        sum t_k = b_l / C,    sum (k-2l-1) t_k = (l+1)(b_{l+1} - b_l) / C,

    in the integer row b of scaled_row(m).  So with (lhs, head) read from
    left_sums, rhs_unweighted = b_l/C - head and
    rhs_full = lhs + (l+1)(b_{l+1} - b_l)/C, so lhs < rhs_full is exactly
    b_{l+1} > b_l.  C and rhs_last_term = 2^m C(2m, m+l) are read from
    _chain_binomials, made once per row.  A division by C that leaves a
    remainder is an ArithmeticError, the only check made here.
    """
    if not 0 <= ell < m // 2:
        raise ValueError(f"need 0 <= ell < floor(m/2), got ell={ell}, m={m}")
    lhs, head = left_sums(m)[ell]
    row, (scale, last) = scaled_row(m), _chain_binomials(m)[ell]
    total, remainder = divmod(row[ell], scale)
    step, step_remainder = divmod((ell + 1) * (row[ell + 1] - row[ell]), scale)
    if remainder or step_remainder:
        raise ArithmeticError(f"inequality chain: inexact division by C(m+l, l) at (m={m}, ell={ell})")
    return InequalityChain(lhs, lhs + step, total - head, last)
