"""Named verification suites behind the CLI, and the two conjecture scans.

Every property is a record (name, range, items, witness[, notes[, summary]])
that _sweep checks: it calls witness(item) for each item in order and
reports the first failure with its exact witnesses, under the record's own
name, range and notes.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import partial
from itertools import zip_longest
from typing import Callable, NamedTuple, Optional, Sequence

from . import conjectures, recurrence, seqprops, tfunction
from .coefficients import coefficient_row, scaled_row
from .exact import binomial, rational_str
from .polynomial import taylor_shift
from .reports import Counterexample, PropertyReport

# None when an item holds; (location, values) when it fails.
Witness = Optional[tuple]

# The items of a record that checks a single fact.
_ONCE = (None,)


def _sweep(
    name: str,
    range_desc: str,
    items: Sequence,
    witness: Callable,
    notes: tuple[str, ...] = (),
    summary: Optional[Callable[[list], tuple[str, ...]]] = None,
) -> PropertyReport:
    """Check one property over ``items`` and report it.

    witness(item) returns None when the item holds, or a failure
    (location, values).  The sweep stops at the first failure and reports
    it with the record's own name, range and notes.  Any other result is an
    observation of an item that holds: when every item holds, summary(list
    of (item, observation)) gives notes that follow ``notes``.  An empty
    range is a ValueError, because a pass that checked nothing is no pass.
    """
    start = time.perf_counter()
    items = list(items)
    if not items:
        raise ValueError(f"{name}: empty range ({range_desc})")
    seen = []
    for item in items:
        result = witness(item)
        if isinstance(result, tuple):
            return PropertyReport(name, range_desc, Counterexample(*result), time.perf_counter() - start, notes)
        if result is not None:
            seen.append((item, result))
    if summary is not None:
        notes = (*notes, *summary(seen))
    return PropertyReport(name, range_desc, elapsed=time.perf_counter() - start, notes=notes)


# ---------------------------------------------------------------------------
# witnesses (kernels are looked up as module attributes at call time, so
# that a test can doctor one)

def _row_witness(predicate: str, m: int) -> Witness:
    """The predicate on the integer row b(m); unimodality, log-concavity
    and ratio-monotonicity are invariant under the positive scale 4^m, so
    the rational row d(m) is built only for the report of a failure."""
    if getattr(seqprops, predicate)(scaled_row(m)):
        return None
    return {"m": m}, {"row": ",".join(map(rational_str, coefficient_row(m).values))}


def _ilogconcave_witness(m: int, depth: int) -> Witness:
    """The first negative entry of L^j(d(m)), 1 <= j <= depth, found on the integer row
    b(m) = 4^m d(m): an entry v of L^j(b) is v / 4^(m 2^j) of L^j(d(m)) (see l_operator).
    Depth 0 would check nothing, so it is a ValueError."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    hit = seqprops.iterated_l_first_negative(scaled_row(m), depth)
    if hit is None:
        return None
    iteration, index, value = hit
    entry = rational_str(Fraction(value, 4 ** (m * 2**iteration)))
    return {"m": m, "iteration": iteration, "index": index}, {"entry": entry}


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


def _min_functional_notes(m: int) -> tuple[str, ...]:
    """The corrected functional and the uncorrected variant at (m, l) = (m, m)."""
    return (
        f"corrected form at (m,l)=({m},{m}): {seqprops.minimum_functional(m, m)} "
        f"(claimed closed form {seqprops.minimum_claimed_value(m)})",
        f"uncorrected cross-term variant at the same point: {seqprops.minimum_functional_uncorrected(m, m)}",
    )


def _delta_signs_witness(m: int) -> Witness:
    """The sign of d_{l+1}(m) - d_l(m) is that of b_{l+1}(m) - b_l(m)."""
    row = scaled_row(m)
    for ell in range(m):
        step = row[ell + 1] - row[ell]
        if (step <= 0) if ell < m // 2 else (step >= 0):
            return {"m": m, "ell": ell}, {"delta": rational_str(Fraction(step, 4**m))}
    return None


def _chain_witness(m: int) -> Witness:
    """The chain lhs < rhs_last_term <= rhs_unweighted <= rhs_full at every
    0 <= l < floor(m/2).  Its first step is S_{m,l} < 1, decided here and
    not through s_sum; the kernel only guards its exact divisions."""
    for ell in range(0, m // 2):
        chain = tfunction.inequality_chain_check(m, ell)
        if not chain.lhs < chain.rhs_last_term <= chain.rhs_unweighted <= chain.rhs_full:
            return {"m": m, "ell": ell}, {k: str(v) for k, v in chain._asdict().items()}
    return None


def _s_monotone_witness(m: int) -> Witness:
    """S(m,l) = lhs_l / (2^m C(2m, m+l)) rises over 0 <= l <= top and S(m,top) < 1; as C(2m, m+l+1) (m+l+1)
    = C(2m, m+l) (m-l), S(m,l) < S(m,l+1) iff lhs_l (m-l) < lhs_{l+1} (m+l+1).  S is made only for a failure."""
    lhs = [pair[0] for pair in tfunction.left_sums(m)]
    top = (m - 1) // 2

    def s(ell: int) -> str:
        return rational_str(Fraction(lhs[ell], binomial(2 * m, m + ell) << m))

    for ell in range(top):
        if not lhs[ell] * (m - ell) < lhs[ell + 1] * (m + ell + 1):
            return {"m": m, "ell": ell}, {"S(m,ell)": s(ell), "S(m,ell+1)": s(ell + 1)}
    if not lhs[top] < binomial(2 * m, m + top) << m:
        return {"m": m, "ell": top}, {"S": s(top)}
    return None


def _t_bounds_witness(m: int) -> Witness:
    """T < 1 from m = 1, and the three bounds from m = 2, on the pair
    T = N/D that t_stepped returns; a failure names the first bound that
    fails at m."""
    num, den = recurrence.t_stepped(m)
    values = {}
    if not num < den:
        bound = "t-below-one"
    elif m < 2:
        return None
    elif not 28 * num <= 27 * den:
        bound = "t-below-27-28"
    elif not num * (tail := tfunction.geometric_tail_bound(m)).denominator < den * tail.numerator:
        bound, values = "t-below-geometric-tail", {"bound": rational_str(tail)}
    elif not (prefactor := tfunction.integral_prefactor(m)) <= Fraction(9, 112):
        return {"m": m, "bound": "integral-prefactor-bound"}, {"prefactor": rational_str(prefactor)}
    else:
        return None
    return {"m": m, "bound": bound}, {"T": rational_str(Fraction(num, den)), **values}


def _pair_witness(m: int) -> Witness:
    """C(2r,r) C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, the induction step
    behind T(m) < 1."""
    for r, (lhs, rhs) in enumerate(tfunction.pair_bound_sides(m), start=2):
        if lhs > rhs:
            return {"m": m, "r": r}, {"lhs": str(lhs), "rhs": str(rhs)}
    return None


def _crosscheck_witness(m: int) -> Witness:
    direct = tfunction.t_direct(m)
    routes = {
        "hypergeometric": tfunction.t_hypergeometric(m),
        "integral": tfunction.t_integral(m),
        "via_w": tfunction.t_via_w(m),
        "s_sum(2m, m-1)": tfunction.s_sum(2 * m, m - 1),
    }
    for route, value in routes.items():
        if value != direct:
            return {"m": m, "route": route}, {"direct": rational_str(direct), route: rational_str(value)}
    return None


def _b_identity_witness(_) -> Witness:
    """b = a + c + d, coefficient by coefficient."""
    for k, (a, b, c, d) in enumerate(zip_longest(*recurrence.CERTIFICATE, fillvalue=0)):
        if b != a + c + d:
            return {"k": k}, {"b": str(b), "a+c+d": str(a + c + d)}
    return None


def _residual_witness(item: tuple[str, int]) -> Witness:
    """The residual at n with T from the oracle t_direct or t_hypergeometric.

    The 2F1 route adds up the direct sum's terms too (see tfunction), but in
    hyp2f1's own code, so the certificate is checked by two separate kernels.
    """
    oracle, n = item
    if oracle == "t_direct":
        residual = recurrence.recurrence_residual(n)
    else:
        residual = recurrence.recurrence_residual(n, t=tfunction.t_hypergeometric)
    if residual == 0:
        return None
    return {"n": n, "oracle": oracle}, {"residual": rational_str(residual)}


def _d_shift_witness(_) -> Witness:
    """The coefficients of d(x+2), the Taylor shift of d by 2: all eight
    strictly positive, which is what makes d(n) >= 0 for n >= 2, and equal
    to the fixed reference expansion."""
    shift = taylor_shift(recurrence.CERTIFICATE.d, 2)
    if all(c > 0 for c in shift) and shift == recurrence.D_SHIFT_REFERENCE:
        return None
    return {}, {"computed": str(list(shift)), "reference": str(list(recurrence.D_SHIFT_REFERENCE))}


def _ac_ratio_witness(_) -> Witness:
    """a/c -> 27/16 from the leading coefficients; a(n), c(n) > 0 on 1..1000
    and a(n)/c(n) > 1, that is a(n) > c(n), on 2..500; a(1000)/c(1000) within
    1/100 of 27/16.  A failure gives the first of these that fails."""
    limit = recurrence.ac_limit()
    if limit != Fraction(27, 16):
        return {}, {"limit": rational_str(limit)}
    for n in range(1, 1001):
        a_n, c_n = recurrence.ac_values(n)
        if a_n <= 0 or c_n <= 0 or (2 <= n <= 500 and a_n <= c_n):
            return {"n": n}, {"a": str(a_n), "c": str(c_n)}
    ratio = Fraction(*recurrence.ac_values(1000))
    if abs(ratio - Fraction(27, 16)) < Fraction(1, 100):
        return None
    return {"n": 1000}, {"ratio": rational_str(ratio)}


def _main_inequality_witness(n: int) -> Witness:
    """a(n) (T(n) - T(n+1)) <= c(n) (T(n+1) - T(n+2)), the rearranged
    recurrence once T < 1 and d >= 0 are known.  T is the direct sum, not
    t_stepped, so the recurrence is not checked against values it made."""
    a_n, c_n = recurrence.ac_values(n)
    t = tfunction.t_direct
    left, right = a_n * (t(n) - t(n + 1)), c_n * (t(n + 1) - t(n + 2))
    if left <= right:
        return None
    return {"n": n}, {"left": rational_str(left), "right": rational_str(right)}


def _t_step_witness(m: int) -> Witness:
    """A failure unless T(m) < T(m+1), N_m D_{m+1} < N_{m+1} D_m on the pairs
    of t_stepped: T is strictly increasing for m >= 2."""
    (n0, d0), (n1, d1) = recurrence.t_stepped(m), recurrence.t_stepped(m + 1)
    if n0 * d1 < n1 * d0:
        return None
    return {"m": m}, {"T(m)": str(Fraction(n0, d0)), "T(m+1)": str(Fraction(n1, d1))}


def _strictness(seen: list) -> tuple[str, ...]:
    return ("every step 2 <= m < max_m is strictly increasing",)


def _limit_gap_witness(item: tuple[str, int]) -> Witness:
    """The gap (2 - sqrt 2)/2 - T(m) in exact integers.  With T(m) = p/q,
    the gap is positive iff 1 - T(m) > 1/sqrt 2, that is iff q > p and
    2(q - p)^2 > q^2, which a common positive factor of p and q does not
    change, so the pair of t_stepped is read as it is; the gap decreases
    from m to m+1 iff T(m) < T(m+1), the t-monotone step check of
    _t_step_witness."""
    test, m = item
    if test == "decreasing":
        return _t_step_witness(m)
    p, q = recurrence.t_stepped(m)
    return None if q > p and 2 * (q - p) ** 2 > q * q else ({"m": m}, {"T": rational_str(Fraction(p, q))})


def _margin_witness(point: tuple[int, Fraction]) -> Witness | Fraction:
    """A failure if the margin at (m, x) is not positive; else the margin,
    as an observation."""
    m, x = point
    margin = conjectures.hyp_inequality_margin(m, x)
    if margin > 0:
        return margin
    return {"m": m, "x": rational_str(x)}, {"margin": rational_str(margin)}


def _smallest_margin(seen: list) -> tuple[str, ...]:
    (m, x), margin = min(seen, key=lambda s: s[1])
    return (f"smallest margin {rational_str(margin)} at m={m}, x={rational_str(x)}",)


# ---------------------------------------------------------------------------
# records of the suites with more than one property

def _t_bounds(n: int, depth: int) -> list[tuple]:
    pair_max = min(n, 120)
    return [
        (
            "t-bounds",
            f"T < 1 on 1 <= m <= {n}; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m",
            range(1, n + 1),
            _t_bounds_witness,
        ),
        (
            "binomial-pair-bound",
            f"C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= {pair_max}",
            range(1, pair_max + 1),
            _pair_witness,
        ),
    ]


def _recurrence(n: int, depth: int) -> list[tuple]:
    shift = taylor_shift(recurrence.CERTIFICATE.d, 2)
    return [
        ("recurrence-b-identity", "b = a + c + d as exact polynomials", _ONCE, _b_identity_witness),
        (
            "recurrence-residual",
            f"a(n)T(n) - b(n)T(n+1) + c(n)T(n+2) + d(n) = 0 for 1 <= n <= {n}",
            [(oracle, k) for oracle in ("t_direct", "t_hypergeometric") for k in range(1, n + 1)],
            _residual_witness,
        ),
        (
            "recurrence-d-shift",
            "d(x+2) expansion: all 8 coefficients positive and equal to the reference list",
            _ONCE,
            _d_shift_witness,
            (f"constant term {shift[0]}, leading term {shift[-1]}",),
        ),
        (
            "recurrence-ac-ratio",
            "a/c limit 27/16; a(n)/c(n) > 1 on 2..500; |a/c(1000) - 27/16| < 1/100; a, c > 0 on 1..1000",
            _ONCE,
            _ac_ratio_witness,
        ),
        (
            "recurrence-main-inequality",
            f"a(n)(T(n)-T(n+1)) <= c(n)(T(n+1)-T(n+2)) for 2 <= n <= {n}",
            range(2, n + 1),
            _main_inequality_witness,
        ),
    ]


def _monotone_t(n: int, depth: int) -> list[tuple]:
    boundary = ()
    if tfunction.t_direct(1) == tfunction.t_direct(2):
        boundary = ("boundary: T(1) = T(2) = 1/4 (equal, outside the m >= 2 claim)",)
    return [
        ("t-monotone", f"2 <= m < {n}", range(2, n), _t_step_witness, boundary, _strictness),
        (
            "limit-gap",
            f"(2 - sqrt 2)/2 - T(m) positive on 1 <= m <= {n}, strictly decreasing from m = 2",
            [("positive", m) for m in range(1, n + 1)] + [("decreasing", m) for m in range(2, n)],
            _limit_gap_witness,
            (
                f"limit {tfunction.T_LIMIT:.9f}; historical (incorrect) guess 1 - ln 2 = "
                f"{tfunction.T_LIMIT_HISTORICAL_GUESS:.9f}",
            ),
        ),
    ]


class Suite(NamedTuple):
    """A verify suite: the limit it reads and its default, the cap and a cold run's cost
    there on a shared 2-core VM (the row caches keep every row, so memory grows like m^3),
    its records at limit n and depth, and whether it reads --depth."""

    limit: str
    default: int
    cap: tuple[int, str]
    records: Callable[[int, int], list[tuple]]
    reads_depth: bool = False

    @property
    def unread(self) -> tuple[str, ...]:
        """The options of verify --property that this suite does not read."""
        return ("max_n" if self.limit == "max_m" else "max_m",) + (() if self.reads_depth else ("depth",))


DEFAULT_DEPTH = 3  # of L, where --depth is not given
SUITES: dict[str, Suite] = {
    "unimodal": Suite("max_m", 100, (1_500, "3 s and 0.6 GB"), lambda n, depth: [
        ("unimodal", f"rows m <= {n}", range(n + 1), partial(_row_witness, "is_unimodal")),
    ]),
    "logconcave": Suite("max_m", 100, (1_500, "24 s and 0.6 GB"), lambda n, depth: [
        ("logconcave", f"rows m <= {n}", range(n + 1), partial(_row_witness, "is_logconcave")),
    ]),
    "ilogconcave": Suite("max_m", 100, (200, "16 s and 25 MB at any depth"), lambda n, depth: [
        ("i-logconcave", f"rows m <= {n}, depth {depth}", range(n + 1), partial(_ilogconcave_witness, depth=depth)),
    ], reads_depth=True),
    "ratio-monotone": Suite("max_m", 100, (1_500, "13 s and 0.6 GB"), lambda n, depth: [
        ("ratio-monotone", f"rows 2 <= m <= {n}", range(2, n + 1), partial(_row_witness, "is_ratio_monotone")),
    ]),
    "min-functional": Suite("max_m", 40, (1_500, "33 s and 0.6 GB"), lambda n, depth: [
        (
            "min-functional",
            f"minimum over 1 <= l <= m at l = m, 1 <= m <= {n}",
            range(1, n + 1),
            _min_functional_witness,
            _min_functional_notes(min(n, 2)),
        ),
    ]),
    "delta-signs": Suite("max_m", 100, (1_500, "3 s and 0.6 GB"), lambda n, depth: [
        (
            "delta-signs",
            f"positive below floor(m/2), negative at and above; m <= {n}",
            range(1, n + 1),
            _delta_signs_witness,
        ),
    ]),
    "inequality-chain": Suite("max_m", 100, (1_200, "8 s and 0.55 GB"), lambda n, depth: [
        ("inequality-chain", f"all (m, l) with 0 <= l < floor(m/2), m <= {n}", range(2, n + 1), _chain_witness),
    ]),
    "s-monotone": Suite("max_m", 100, (1_500, "4 s and 0.44 GB"), lambda n, depth: [
        (
            "s-monotone",
            f"S(m,l) strictly increasing over 0 <= l <= floor((m-1)/2) and max < 1; 2 <= m <= {n}",
            range(2, n + 1),
            _s_monotone_witness,
        ),
    ]),
    "t-bounds": Suite("max_m", 500, (10_000, "11 s and 70 MB"), _t_bounds),
    "t-crosscheck": Suite("max_m", 100, (1_500, "27 s and 29 MB"), lambda n, depth: [
        (
            "t-crosscheck",
            f"direct = hypergeometric = integral = via-W and S(2m, m-1) = T(m); 1 <= m <= {n}",
            range(1, n + 1),
            _crosscheck_witness,
            (
                "identity used: T(m) = [x W'(x) - W(x) + 1] at x = 1/2; "
                f"the variant W'(1/2)/2 - W(1/2) gives {rational_str(tfunction.t_via_w(1) - 1)} at m = 1 "
                f"where T(1) = {rational_str(tfunction.t_direct(1))}",
            ),
        ),
    ]),
    "recurrence": Suite("max_n", 100, (2_000, "18 s and 19 MB"), _recurrence),
    "monotone-t": Suite("max_m", 500, (10_000, "19 s and 72 MB"), _monotone_t),
}


def run_suite(
    name: str,
    max_m: int | None = None,
    max_n: int | None = None,
    depth: int = DEFAULT_DEPTH,
) -> list[PropertyReport]:
    """Run one named suite with its documented default range when no limit is
    given."""
    if name not in SUITES:
        raise ValueError(f"unknown property {name!r}; choose from {sorted(SUITES)}")
    suite = SUITES[name]
    limit = max_n if suite.limit == "max_n" else max_m
    if limit is None:
        limit = suite.default
    if limit < 1:
        raise ValueError(f"{suite.limit.replace('_', '-')} must be >= 1")
    return [_sweep(*record) for record in suite.records(limit, depth)]


# ---------------------------------------------------------------------------
# conjecture scans

def scan_infinite_logconcavity(max_m: int, depth: int) -> PropertyReport:
    """Rows m <= max_m through depth applications of L; the report stops at
    the first (m, iteration, index) that goes negative."""
    return _sweep(
        "infinite-logconcavity-scan",
        f"m <= {max_m}, depth {depth}",
        range(max_m + 1),
        partial(_ilogconcave_witness, depth=depth),
    )


def scan_hyp_inequality(max_m: int, x_grid: Sequence) -> PropertyReport:
    """The margin at every (m, x) with 2 <= m <= max_m and x in the grid,
    stopping at the first that is not positive; a pass notes the smallest
    margin."""
    if any(x < Fraction(1, 2) for x in x_grid):
        raise ValueError("x grid entries must be >= 1/2")
    return _sweep(
        "hyp-inequality-scan",
        f"2 <= m <= {max_m}, {len(x_grid)} grid points",
        [(m, x) for m in range(2, max_m + 1) for x in x_grid],
        _margin_witness,
        summary=_smallest_margin,
    )
