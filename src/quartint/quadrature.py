"""Floating-point cross-check of the quartic integral against its closed
form:

    int_0^inf dx / (x^4 + 2 a x^2 + 1)^(m+1)
        = pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a),   a > -1.

The improper range is folded onto the unit interval: x -> 1/x maps [1, inf)
onto (0, 1] with x^(4m+2) times the integrand, so the numeric side is one
adaptive Gauss-Kronrod run of (1 + x^(4m+2)) / (x^4 + 2 a x^2 + 1)^(m+1) on
[0, 1].  For a > 1 the integrand falls from its peak at x = 0 within a
width of about a^(-1/2): a first panel on [0, 1] can miss it, and panel
values that small defeat the error estimate of _panel, which is scaled for
values of order one.  So the run is made in u = a^(1/2) x on
[0, a^(1/2)], starting from the panels split at u = 1, 2, 4, ...; for
a <= 1 it is the run on [0, 1], evaluation for evaluation.  The closed
form keeps P_m(a) exact until the final float conversion, which keeps
quadrature error separated from coefficient error.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

from .coefficients import scaled_row
from .polynomial import horner


class QuadratureConvergenceError(RuntimeError):
    """The error target was not met within BUDGET evaluations, or the value or integrand overflows a float."""


# The most integrand evaluations that the integral may spend.
BUDGET = 200_000


# 15-point Kronrod nodes with the embedded 7-point Gauss rule on [-1, 1];
# zero Gauss weight marks Kronrod-only nodes.
_GK15 = (
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
)


def _panel(f, lo: float, hi: float) -> tuple[float, float]:
    """One Gauss-Kronrod pass over [lo, hi]: (Kronrod value, error estimate)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    gauss = 0.0
    kronrod = 0.0
    for node, wg, wk in _GK15:
        fx = f(mid + half * node)
        gauss += wg * fx
        kronrod += wk * fx
    gauss *= half
    kronrod *= half
    # QUADPACK-style rescaled estimate; conservative for smooth integrands.
    # From diff = 1 on it is diff itself, and (200 diff)^1.5 could overflow.
    diff = abs(kronrod - gauss)
    err = min(diff, (200.0 * diff) ** 1.5) if diff < 1 else diff
    return kronrod, err


def _adaptive(f, lo: float, hi: float, tol: float) -> tuple[float, int]:
    """Refine the worst panel until the summed error estimate is at most tol
    times the value (a relative tolerance; the integrands here are positive);
    returns (value, evaluations).  The first panels end at lo + 1, lo + 2,
    lo + 4, ... below hi and at hi: one panel when hi - lo <= 1."""
    points, step = [lo], 1.0
    while step < hi - lo:
        points.append(lo + step)
        step *= 2
    points.append(hi)
    # max-heap on error via negation; counter breaks ties deterministically
    heap = []
    value = total_err = 0.0
    for counter, (a, b) in enumerate(zip(points, points[1:])):
        v, e = _panel(f, a, b)
        heap.append((-e, counter, a, b, v, e))
        value += v
        total_err += e
    heapq.heapify(heap)
    evaluations = 15 * len(heap)
    counter = len(heap)
    while total_err > tol * abs(value):
        if evaluations + 30 > BUDGET:
            raise QuadratureConvergenceError(
                f"error estimate {total_err:.3e} still above relative tol {tol:.3e} "
                f"of value {value:.3e} after {evaluations} evaluations"
            )
        _, _, a, b, v, e = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _panel(f, a, mid)
        v2, e2 = _panel(f, mid, b)
        evaluations += 30
        value += v1 + v2 - v
        total_err += e1 + e2 - e
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
    return value, evaluations


def closed_form(m: int, a) -> float:
    """pi / (2^(m+3/2) (a+1)^(m+1/2)) * P_m(a).

    With P_m(a) = b(m)(a) / 4^m for the integer row b(m), the exact rational
    P_m(a) / (2^m (a+1)^m) = b(m)(a) / (8 (a+1))^m is converted to float
    once and then multiplied by pi / (2^(3/2) sqrt(a+1)): for large m,
    P_m(a) and the powers of 2 and a+1 each overflow a float on their own.
    """
    a_exact = Fraction(a)  # exact also for float input
    if not a_exact > -1:
        raise ValueError(f"closed form requires a > -1, got a = {a}")
    scaled = horner(scaled_row(m), a_exact) / (8 * (a_exact + 1)) ** m
    return float(scaled) * math.pi / (2.0**1.5 * math.sqrt(a_exact + 1))


class QuadratureResult(NamedTuple):
    m: int
    a: float
    numeric: float
    closed_form: float
    relative_error: float
    evaluations: int


def evaluate_quartic_integral(m: int, a, tol: float) -> QuadratureResult:
    """Numeric value, closed form, and their relative error in one record."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if not (a_float := float(a)) > -1:
        raise ValueError(f"integral diverges for a = {a_float} <= -1")
    if not tol > 0:
        raise ValueError("tol must be positive")

    scale = a_float**-0.5 if a_float > 1 else 1.0

    def folded(u: float) -> float:
        x = scale * u
        x2 = x * x
        return (1.0 + x ** (4 * m + 2)) * (x2 * x2 + 2.0 * (a_float * x2) + 1.0) ** -(m + 1)

    try:
        numeric, evaluations = _adaptive(folded, 0.0, 1.0 / scale, tol)
        numeric *= scale
        exact = closed_form(m, a)
    except OverflowError:
        numeric = math.inf
    # panel sums can overflow to inf without an OverflowError, and the
    # positive integrand reads 0 once its denominator overflows
    if not (math.isfinite(numeric) and numeric > 0):
        raise QuadratureConvergenceError(f"the integral at m = {m}, a = {a_float} or its integrand exceeds the float range")
    return QuadratureResult(m, a_float, numeric, exact, abs(numeric - exact) / abs(exact), evaluations)
