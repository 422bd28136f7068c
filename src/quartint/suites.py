"""Named verification suites behind the CLI.

Each suite sweeps a documented range exactly, reporting pass/fail with exact
witnesses for any failure.  The per-m workers are pure module-level
functions, so suites can fan out across a process pool (--jobs) and the
merged outcome is independent of partitioning: the reported counterexample is
always the one with the smallest m.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Optional, Sequence

from . import recurrence, seqprops, tfunction
from .coefficients import coefficient_row, delta_direct
from .conjectures import row_first_negative
from .exact import rational_str
from .reports import Counterexample, PropertyReport

Witness = Optional[tuple[dict, dict]]


def _parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (4 * jobs))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=chunk))


def _sweep(
    name: str,
    range_desc: str,
    ms: Iterable[int],
    worker: Callable[[int], Witness],
    jobs: int,
    notes: tuple[str, ...] = (),
) -> PropertyReport:
    start = time.perf_counter()
    ms = list(ms)
    results = _parallel_map(worker, ms, jobs)
    for res in results:
        if res is not None:
            location, values = res
            return PropertyReport(
                property=name,
                range=range_desc,
                passed=False,
                counterexample=Counterexample(location, values),
                elapsed=time.perf_counter() - start,
                notes=notes,
            )
    return PropertyReport(
        property=name,
        range=range_desc,
        passed=True,
        elapsed=time.perf_counter() - start,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# per-m workers (module level so they pickle)

def _unimodal_witness(m: int) -> Witness:
    row = coefficient_row(m)
    if seqprops.is_unimodal(row.values):
        return None
    return {"m": m}, {"row": ",".join(row.as_strings())}


def _logconcave_witness(m: int) -> Witness:
    row = coefficient_row(m)
    if seqprops.is_logconcave(row.values):
        return None
    return {"m": m}, {"row": ",".join(row.as_strings())}


def _ilogconcave_witness(m: int, depth: int) -> Witness:
    hit = row_first_negative(m, depth)
    if hit is None:
        return None
    iteration, index, value = hit
    return {"m": m, "iteration": iteration, "index": index}, {"entry": rational_str(value)}


def _ratio_monotone_witness(m: int) -> Witness:
    row = coefficient_row(m)
    if seqprops.is_ratio_monotone(row.values):
        return None
    return {"m": m}, {"row": ",".join(row.as_strings())}


def _min_functional_witness(m: int) -> Witness:
    values = [seqprops.minimum_functional(m, ell) for ell in range(1, m + 1)]
    claimed = seqprops.minimum_claimed_value(m)
    if values[-1] != claimed:
        return {"m": m, "ell": m}, {"value": str(values[-1]), "claimed": str(claimed)}
    floor = values[-1]
    for ell, v in enumerate(values[:-1], start=1):
        if v < floor or (m >= 2 and v == floor):
            return {"m": m, "ell": ell}, {"value": str(v), "minimum": str(floor)}
    return None


def _delta_signs_witness(m: int) -> Witness:
    for ell in range(m):
        d = delta_direct(m, ell)
        if (d <= 0) if ell < m // 2 else (d >= 0):
            return {"m": m, "ell": ell}, {"delta": rational_str(d)}
    return None


def _chain_witness(m: int) -> Witness:
    for ell in range(0, m // 2):
        chain = tfunction.inequality_chain_check(m, ell)
        if not chain.all_hold():
            return (
                {"m": m, "ell": ell},
                {
                    "task1": str(chain.task1),
                    "task2": str(chain.task2),
                    "task3": str(chain.task3),
                    "task4": str(chain.task4),
                    "s_value": rational_str(chain.s_value),
                },
            )
    return None


def _s_monotone_witness(m: int) -> Witness:
    top = (m - 1) // 2
    values = [tfunction.s_sum(m, ell) for ell in range(0, top + 1)]
    for ell in range(top):
        if not values[ell] < values[ell + 1]:
            return (
                {"m": m, "ell": ell},
                {"S(m,ell)": rational_str(values[ell]), "S(m,ell+1)": rational_str(values[ell + 1])},
            )
    if not values[top] < 1:
        return {"m": m, "ell": top}, {"S": rational_str(values[top])}
    return None


def _crosscheck_witness(m: int) -> Witness:
    direct = tfunction.t_direct(m)
    routes = {
        "hypergeometric": tfunction.t_hypergeometric(m),
        "integral": tfunction.t_integral(m),
        "via_w": tfunction.t_via_w(m),
    }
    for route, value in routes.items():
        if value != direct:
            return {"m": m, "route": route}, {"direct": rational_str(direct), route: rational_str(value)}
    if tfunction.s_sum(2 * m, m - 1) != direct:
        return (
            {"m": m, "route": "s_sum(2m, m-1)"},
            {"direct": rational_str(direct), "s_sum": rational_str(tfunction.s_sum(2 * m, m - 1))},
        )
    return None


# ---------------------------------------------------------------------------
# suites

def suite_unimodal(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    return [_sweep("unimodal", f"rows m <= {max_m}", range(0, max_m + 1), _unimodal_witness, jobs)]


def suite_logconcave(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    return [_sweep("logconcave", f"rows m <= {max_m}", range(0, max_m + 1), _logconcave_witness, jobs)]


def suite_ilogconcave(max_m: int, depth: int, jobs: int = 1) -> list[PropertyReport]:
    worker = partial(_ilogconcave_witness, depth=depth)
    return [
        _sweep(
            "i-logconcave",
            f"rows m <= {max_m}, depth {depth}",
            range(0, max_m + 1),
            worker,
            jobs,
        )
    ]


def suite_ratio_monotone(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    if max_m < 2:
        raise ValueError("ratio-monotone needs max_m >= 2")
    return [
        _sweep("ratio-monotone", f"rows 2 <= m <= {max_m}", range(2, max_m + 1), _ratio_monotone_witness, jobs)
    ]


def suite_min_functional(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    demo_m = min(max_m, 2)
    notes = (
        f"corrected form at (m,l)=({demo_m},{demo_m}): "
        f"{seqprops.minimum_functional(demo_m, demo_m)} "
        f"(claimed closed form {seqprops.minimum_claimed_value(demo_m)})",
        f"uncorrected cross-term variant at the same point: "
        f"{seqprops.minimum_functional_uncorrected(demo_m, demo_m)}",
    )
    return [
        _sweep(
            "min-functional",
            f"minimum over 1 <= l <= m at l = m, 1 <= m <= {max_m}",
            range(1, max_m + 1),
            _min_functional_witness,
            jobs,
            notes=notes,
        )
    ]


def suite_delta_signs(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    return [
        _sweep(
            "delta-signs",
            f"positive below floor(m/2), negative at and above; m <= {max_m}",
            range(1, max_m + 1),
            _delta_signs_witness,
            jobs,
        )
    ]


def suite_inequality_chain(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    if max_m < 2:
        raise ValueError("inequality-chain needs max_m >= 2")
    return [
        _sweep(
            "inequality-chain",
            f"all (m, l) with 0 <= l < floor(m/2), m <= {max_m}",
            range(2, max_m + 1),
            _chain_witness,
            jobs,
        )
    ]


def suite_s_monotone(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    if max_m < 2:
        raise ValueError("s-monotone needs max_m >= 2")
    return [
        _sweep(
            "s-monotone",
            f"S(m,l) strictly increasing over 0 <= l <= floor((m-1)/2) and max < 1; 2 <= m <= {max_m}",
            range(2, max_m + 1),
            _s_monotone_witness,
            jobs,
        )
    ]


def suite_t_bounds(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    start = time.perf_counter()
    reports = []
    for m in range(1, max_m + 1):
        t = tfunction.t_direct(m)
        if not t < 1:
            reports.append(_fail("t-below-one", f"1 <= m <= {max_m}", {"m": m}, {"T": rational_str(t)}, start))
            break
        if m >= 2 and not t <= Fraction(27, 28):
            reports.append(_fail("t-below-27-28", f"2 <= m <= {max_m}", {"m": m}, {"T": rational_str(t)}, start))
            break
        if m >= 2 and not t < tfunction.geometric_tail_bound(m):
            reports.append(
                _fail(
                    "t-below-geometric-tail",
                    f"2 <= m <= {max_m}",
                    {"m": m},
                    {"T": rational_str(t), "bound": rational_str(tfunction.geometric_tail_bound(m))},
                    start,
                )
            )
            break
        if m >= 2 and not tfunction.integral_prefactor(m) <= Fraction(9, 112):
            reports.append(
                _fail(
                    "integral-prefactor-bound",
                    f"2 <= m <= {max_m}",
                    {"m": m},
                    {"prefactor": rational_str(tfunction.integral_prefactor(m))},
                    start,
                )
            )
            break
    else:
        reports.append(
            PropertyReport(
                property="t-bounds",
                range=f"T < 1 on 1 <= m <= {max_m}; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m",
                passed=True,
                elapsed=time.perf_counter() - start,
            )
        )
    pair_start = time.perf_counter()
    pair_max = min(max_m, 120)
    for m in range(1, pair_max + 1):
        for r in range(2, m + 2):
            if not tfunction.bound_pair_check(m, r):
                reports.append(
                    _fail("binomial-pair-bound", f"2 <= r <= m+1, m <= {pair_max}", {"m": m, "r": r}, {}, pair_start)
                )
                return reports
    reports.append(
        PropertyReport(
            property="binomial-pair-bound",
            range=f"C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= {pair_max}",
            passed=True,
            elapsed=time.perf_counter() - pair_start,
        )
    )
    return reports


def suite_t_crosscheck(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    notes = (
        "identity used: T(m) = [x W'(x) - W(x) + 1] at x = 1/2; "
        f"the variant W'(1/2)/2 - W(1/2) gives {rational_str(tfunction.t_via_w_variant(1))} at m = 1 "
        f"where T(1) = {rational_str(tfunction.t_direct(1))}",
    )
    return [
        _sweep(
            "t-crosscheck",
            f"direct = hypergeometric = integral = via-W and S(2m, m-1) = T(m); 1 <= m <= {max_m}",
            range(1, max_m + 1),
            _crosscheck_witness,
            jobs,
            notes=notes,
        )
    ]


def suite_recurrence(max_n: int, jobs: int = 1) -> list[PropertyReport]:
    reports = []
    start = time.perf_counter()
    identity_ok = recurrence.b_identity_check()
    reports.append(
        PropertyReport(
            property="recurrence-b-identity",
            range="b = a + c + d as exact polynomials",
            passed=identity_ok,
            counterexample=None if identity_ok else Counterexample({}, {"identity": "b != a + c + d"}),
            elapsed=time.perf_counter() - start,
        )
    )

    start = time.perf_counter()
    # A second pass takes T from t_integral, which shares no code with the
    # t_direct kernel, so the certificate is not checked only against the
    # code it certifies.
    ns = range(1, max_n + 1)
    t_integral = lru_cache(maxsize=3)(tfunction.t_integral)  # T(n+1), T(n+2) recur at n+1
    residuals = itertools.chain(
        ((n, "t_direct", recurrence.recurrence_residual(n)) for n in ns),
        ((n, "t_integral", recurrence.recurrence_residual(n, t=t_integral)) for n in ns),
    )
    # one nonzero residual falsifies the transcription; halt there
    nonzero = next((r for r in residuals if r[2] != 0), None)
    if nonzero is not None:
        n, oracle, res = nonzero
        residual_report = PropertyReport(
            property="recurrence-residual",
            range=f"1 <= n <= {max_n} (halted at first nonzero, T from {oracle})",
            passed=False,
            counterexample=Counterexample({"n": n}, {"residual": rational_str(res)}),
            elapsed=time.perf_counter() - start,
        )
    else:
        residual_report = PropertyReport(
            property="recurrence-residual",
            range=f"a(n)T(n) - b(n)T(n+1) + c(n)T(n+2) + d(n) = 0 for 1 <= n <= {max_n}",
            passed=True,
            elapsed=time.perf_counter() - start,
        )
    reports.append(residual_report)

    start = time.perf_counter()
    positive, matches = recurrence.d_shift_check()
    coeffs = recurrence.d_shift_positivity()
    reports.append(
        PropertyReport(
            property="recurrence-d-shift",
            range="d(x+2) expansion: all 8 coefficients positive and equal to the reference list",
            passed=positive and matches,
            counterexample=None
            if (positive and matches)
            else Counterexample({}, {"computed": str(coeffs), "reference": str(list(recurrence.D_SHIFT_REFERENCE))}),
            elapsed=time.perf_counter() - start,
            notes=(f"constant term {coeffs[0]}, leading term {coeffs[-1]}",),
        )
    )

    start = time.perf_counter()
    ratio_ok = recurrence.ac_limit() == Fraction(27, 16)
    ratio_above_one = all(recurrence.ac_ratio(n) > 1 for n in range(2, 501))
    ratio_near_limit = abs(recurrence.ac_ratio(1000) - Fraction(27, 16)) < Fraction(1, 100)
    positivity = all(min(recurrence.ac_values(n)) > 0 for n in range(1, 1001))
    ok = ratio_ok and ratio_above_one and ratio_near_limit and positivity
    reports.append(
        PropertyReport(
            property="recurrence-ac-ratio",
            range="a/c limit 27/16; a(n)/c(n) > 1 on 2..500; |a/c(1000) - 27/16| < 1/100; a, c > 0 on 1..1000",
            passed=ok,
            counterexample=None
            if ok
            else Counterexample(
                {},
                {
                    "limit": rational_str(recurrence.ac_limit()),
                    "ratio_above_one": str(ratio_above_one),
                    "near_limit": str(ratio_near_limit),
                    "positivity": str(positivity),
                },
            ),
            elapsed=time.perf_counter() - start,
        )
    )

    start = time.perf_counter()
    main_report = None
    for n in range(2, max_n + 1):
        if not recurrence.main_inequality_check(n):
            main_report = PropertyReport(
                property="recurrence-main-inequality",
                range=f"2 <= n <= {max_n}",
                passed=False,
                counterexample=Counterexample({"n": n}, {}),
                elapsed=time.perf_counter() - start,
            )
            break
    if main_report is None:
        main_report = PropertyReport(
            property="recurrence-main-inequality",
            range=f"a(n)(T(n)-T(n+1)) <= c(n)(T(n+1)-T(n+2)) for 2 <= n <= {max_n}",
            passed=True,
            elapsed=time.perf_counter() - start,
        )
    reports.append(main_report)
    return reports


def suite_monotone_t(max_m: int, jobs: int = 1) -> list[PropertyReport]:
    reports = [recurrence.monotonicity_check(max_m)]
    start = time.perf_counter()
    gaps = [(m, tfunction.limit_gap(m)) for m in range(1, max_m + 1)]
    bad = None
    for m, gap in gaps:
        if gap <= 0:
            bad = ({"m": m}, {"gap": repr(gap)})
            break
    if bad is None:
        for (m, gap), (_, nxt) in zip(gaps[1:], gaps[2:]):
            if not gap > nxt:
                bad = ({"m": m}, {"gap": repr(gap), "next": repr(nxt)})
                break
    reports.append(
        PropertyReport(
            property="limit-gap",
            range=f"(2 - sqrt 2)/2 - T(m) positive on 1 <= m <= {max_m}, strictly decreasing from m = 2",
            passed=bad is None,
            counterexample=None if bad is None else Counterexample(*bad),
            elapsed=time.perf_counter() - start,
            notes=(
                f"limit {tfunction.T_LIMIT:.9f}; historical (incorrect) guess 1 - ln 2 = "
                f"{tfunction.T_LIMIT_HISTORICAL_GUESS:.9f}",
            ),
        )
    )
    return reports


def _fail(name: str, range_desc: str, location: dict, values: dict, start: float) -> PropertyReport:
    return PropertyReport(
        property=name,
        range=range_desc,
        passed=False,
        counterexample=Counterexample(location, values),
        elapsed=time.perf_counter() - start,
    )


# property name -> (runner, default range, knob)
SUITES: dict[str, tuple[Callable, int, str]] = {
    "unimodal": (suite_unimodal, 100, "max_m"),
    "logconcave": (suite_logconcave, 100, "max_m"),
    "ilogconcave": (suite_ilogconcave, 100, "max_m"),
    "ratio-monotone": (suite_ratio_monotone, 100, "max_m"),
    "min-functional": (suite_min_functional, 40, "max_m"),
    "delta-signs": (suite_delta_signs, 100, "max_m"),
    "inequality-chain": (suite_inequality_chain, 100, "max_m"),
    "s-monotone": (suite_s_monotone, 100, "max_m"),
    "t-bounds": (suite_t_bounds, 500, "max_m"),
    "t-crosscheck": (suite_t_crosscheck, 100, "max_m"),
    "recurrence": (suite_recurrence, 100, "max_n"),
    "monotone-t": (suite_monotone_t, 500, "max_m"),
}


def run_suite(
    name: str,
    max_m: int | None = None,
    max_n: int | None = None,
    depth: int = 3,
    jobs: int = 1,
) -> list[PropertyReport]:
    """Run one named suite with its documented default range when no limit is
    given."""
    if name not in SUITES:
        raise ValueError(f"unknown property {name!r}; choose from {sorted(SUITES)}")
    runner, default_limit, knob = SUITES[name]
    limit = (max_n if knob == "max_n" else max_m)
    if limit is None:
        limit = default_limit
    if limit < 1:
        raise ValueError(f"{knob.replace('_', '-')} must be >= 1")
    if name == "ilogconcave":
        return runner(limit, depth=depth, jobs=jobs)
    return runner(limit, jobs=jobs)
