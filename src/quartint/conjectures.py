"""Exhaustive exact-arithmetic counterexample scans for the two open
questions: whether every coefficient row stays nonnegative under arbitrarily
many applications of the operator L (infinite log-concavity), and whether the
four-series 2F1 inequality holds for every argument x >= 1/2.

A found counterexample is never summarised away: reports carry the exact
rational witnesses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .coefficients import scaled_row
from .exact import rational_str
from .hypergeometric import hyp2f1
from .reports import Counterexample, PropertyReport
from .seqprops import iterated_l_first_negative
from .tfunction import t_direct


def default_x_grid() -> tuple[Fraction, ...]:
    """x = 1/2, 3/4, ..., 5 (step 1/4)."""
    return tuple(Fraction(1, 2) + Fraction(i, 4) for i in range(19))


@dataclass(frozen=True)
class ScanConfig:
    max_m: int = 40
    depth: int = 5
    x_grid: tuple[Fraction, ...] = field(default_factory=default_x_grid)
    stop_on_failure: bool = False


def row_first_negative(m: int, depth: int) -> tuple[int, int, Fraction] | None:
    """First negative entry of L^j(d(m)), 1 <= j <= depth, as (iteration,
    index, value), or None if all iterates stay nonnegative.

    L is iterated on the integer row b(m) = 4^m d(m); a negative entry v of
    L^j(b) is the entry v / 4^(m 2^j) of L^j(d(m)) (see l_operator).
    """
    hit = iterated_l_first_negative(scaled_row(m), depth)
    if hit is None:
        return None
    iteration, index, value = hit
    return iteration, index, Fraction(value, 4 ** (m * 2**iteration))


def scan_infinite_logconcavity(cfg: ScanConfig) -> PropertyReport:
    """Sweep rows m <= max_m through depth applications of L, reporting the
    first (m, iteration, index) that goes negative."""
    start = time.perf_counter()
    witnesses = []
    for m in range(0, cfg.max_m + 1):
        hit = row_first_negative(m, cfg.depth)
        if hit is not None:
            iteration, index, value = hit
            witnesses.append((m, iteration, index, value))
            if cfg.stop_on_failure:
                break
    if witnesses:
        m, iteration, index, value = witnesses[0]
        return PropertyReport(
            property="infinite-logconcavity-scan",
            range=f"m <= {cfg.max_m}, depth {cfg.depth}",
            passed=False,
            counterexample=Counterexample(
                location={"m": m, "iteration": iteration, "index": index},
                values={"entry": rational_str(value)},
            ),
            elapsed=time.perf_counter() - start,
            notes=(f"{len(witnesses)} failing row(s) found",),
        )
    return PropertyReport(
        property="infinite-logconcavity-scan",
        range=f"m <= {cfg.max_m}, depth {cfg.depth}",
        passed=True,
        elapsed=time.perf_counter() - start,
    )


def hyp_inequality_margin(m: int, x) -> Fraction:
    """Exact margin L(m,x) - R(m,x) of the conjectured inequality

      2F1(3/2,-m-2;-4m-4;4x) - 2F1(3/2,-m-1;-4m;4x)
        > 3 [2F1(1/2,-m-2;-4m-4;4x) - 2F1(1/2,-m-1;-4m;4x)]

    The conjecture predicts a positive margin for every x >= 1/2."""
    if m < 1:
        raise ValueError("margin needs m >= 1")
    x = Fraction(x)
    z = 4 * x
    left = hyp2f1(Fraction(3, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(3, 2), -m - 1, -4 * m, z)
    right = 3 * (
        hyp2f1(Fraction(1, 2), -m - 2, -4 * m - 4, z) - hyp2f1(Fraction(1, 2), -m - 1, -4 * m, z)
    )
    return left - right


def scan_hyp_inequality(cfg: ScanConfig) -> PropertyReport:
    """Check the margin at every (m, x) with 2 <= m <= max_m and x in the
    grid; the smallest margin seen is recorded either way."""
    if any(x < Fraction(1, 2) for x in cfg.x_grid):
        raise ValueError("x grid entries must be >= 1/2")
    if not cfg.x_grid:
        raise ValueError("x grid must be nonempty")
    if cfg.max_m < 2:
        raise ValueError("hyp-inequality scan needs max_m >= 2")
    start = time.perf_counter()
    smallest: tuple[Fraction, int, Fraction] | None = None
    witness = None
    for m in range(2, cfg.max_m + 1):
        for x in cfg.x_grid:
            margin = hyp_inequality_margin(m, x)
            if smallest is None or margin < smallest[0]:
                smallest = (margin, m, x)
            if margin <= 0 and witness is None:
                witness = (m, x, margin)
                if cfg.stop_on_failure:
                    break
        if witness is not None and cfg.stop_on_failure:
            break
    notes = ()
    if smallest is not None:
        margin, m, x = smallest
        notes = (f"smallest margin {rational_str(margin)} at m={m}, x={rational_str(x)}",)
    if witness is not None:
        m, x, margin = witness
        return PropertyReport(
            property="hyp-inequality-scan",
            range=f"2 <= m <= {cfg.max_m}, {len(cfg.x_grid)} grid points",
            passed=False,
            counterexample=Counterexample(
                location={"m": m, "x": rational_str(x)},
                values={"margin": rational_str(margin)},
            ),
            elapsed=time.perf_counter() - start,
            notes=notes,
        )
    return PropertyReport(
        property="hyp-inequality-scan",
        range=f"2 <= m <= {cfg.max_m}, {len(cfg.x_grid)} grid points",
        passed=True,
        elapsed=time.perf_counter() - start,
        notes=notes,
    )


def half_point_equivalence_check(m: int) -> bool:
    """At x = 1/2 the conjectured inequality is the statement T(m+1) > T(m):
    the exact margin equals 2 (T(m+1) - T(m))."""
    return hyp_inequality_margin(m, Fraction(1, 2)) == 2 * (t_direct(m + 1) - t_direct(m))
