"""Golden failure reports.

Each check below is made to fail by doctoring the kernel it calls, and the
whole list of reports its suite returns is compared with the expected
content: every field of the JSON report except the timing.
"""

from fractions import Fraction

import pytest

from quartint import coefficients, recurrence, suites, tfunction
from quartint.exact import rational_str
from quartint.suites import run_suite


def content(reports):
    return [{k: v for k, v in r.to_jsonable().items() if k != "elapsed"} for r in reports]


def passing(prop, range_desc, notes=()):
    return {"property": prop, "range": range_desc, "verdict": "pass", "counterexample": None, "notes": list(notes)}


def failing(prop, range_desc, location, values, notes=()):
    return {
        "property": prop,
        "range": range_desc,
        "verdict": "fail",
        "counterexample": {"location": location, "values": values},
        "notes": list(notes),
    }


def doctor(monkeypatch, owner, name, at, value):
    """Replace owner.name by a function that returns value(real, *args) when
    the arguments equal ``at`` and the real result otherwise."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: value(real, *args) if args == at else real(*args))


def doctor_t(monkeypatch, at, value):
    """Doctor T(m) under both names that bind it."""
    real = tfunction.t_direct
    fake = lambda m: value(real) if m == at else real(m)  # noqa: E731
    monkeypatch.setattr(tfunction, "t_direct", fake)
    monkeypatch.setattr(recurrence, "t_direct", fake)


# ---------------------------------------------------------------------------
# t-bounds

T_BOUNDS = passing(
    "t-bounds", "T < 1 on 1 <= m <= 12; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m"
)
PAIR_BOUND = passing("binomial-pair-bound", "C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= 12")


def test_t_below_one_failure(monkeypatch):
    doctor_t(monkeypatch, 5, lambda real: Fraction(1))
    expected = [failing("t-below-one", "1 <= m <= 12", {"m": 5}, {"T": "1"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_t_below_27_28_failure(monkeypatch):
    doctor_t(monkeypatch, 6, lambda real: Fraction(27, 28) + Fraction(1, 1000))
    expected = [failing("t-below-27-28", "2 <= m <= 12", {"m": 6}, {"T": "6757/7000"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_t_below_geometric_tail_failure(monkeypatch):
    t4 = rational_str(tfunction.t_direct(4))
    doctor(monkeypatch, tfunction, "geometric_tail_bound", (4,), lambda real, m: tfunction.t_direct(m))
    expected = [
        failing("t-below-geometric-tail", "2 <= m <= 12", {"m": 4}, {"T": t4, "bound": t4}),
        PAIR_BOUND,
    ]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_integral_prefactor_bound_failure(monkeypatch):
    doctor(monkeypatch, tfunction, "integral_prefactor", (3,), lambda real, m: Fraction(1, 10))
    expected = [failing("integral-prefactor-bound", "2 <= m <= 12", {"m": 3}, {"prefactor": "1/10"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_binomial_pair_bound_failure(monkeypatch):
    # C(8,4) C(8,4) = 4900 against C(28,4) = 20475, doctored to 4899
    doctor(monkeypatch, suites, "binomial", (28, 4), lambda real, n, k: 4899)
    values = {"lhs": "4900", "rhs": "4899"}
    expected = [T_BOUNDS, failing("binomial-pair-bound", "2 <= r <= m+1, m <= 12", {"m": 7, "r": 4}, values)]
    assert content(run_suite("t-bounds", max_m=12)) == expected


# ---------------------------------------------------------------------------
# recurrence

RECURRENCE = [
    passing("recurrence-b-identity", "b = a + c + d as exact polynomials"),
    passing("recurrence-residual", "a(n)T(n) - b(n)T(n+1) + c(n)T(n+2) + d(n) = 0 for 1 <= n <= 10"),
    passing(
        "recurrence-d-shift",
        "d(x+2) expansion: all 8 coefficients positive and equal to the reference list",
        ["constant term 814627800, leading term 1858560"],
    ),
    passing(
        "recurrence-ac-ratio",
        "a/c limit 27/16; a(n)/c(n) > 1 on 2..500; |a/c(1000) - 27/16| < 1/100; a, c > 0 on 1..1000",
    ),
    passing("recurrence-main-inequality", "a(n)(T(n)-T(n+1)) <= c(n)(T(n+1)-T(n+2)) for 2 <= n <= 10"),
]


def recurrence_with(index, report):
    expected = list(RECURRENCE)
    expected[index] = report
    return expected


def test_recurrence_passes():
    assert content(run_suite("recurrence", max_n=10)) == RECURRENCE


def doctor_certificate(monkeypatch, **shifts):
    """Add shifts[p][k] to coefficient k of each named polynomial p."""
    fields = {}
    for name, shift in shifts.items():
        coeffs = list(getattr(recurrence.CERTIFICATE, name))
        for k, delta in shift.items():
            coeffs[k] += delta
        fields[name] = tuple(coeffs)
    monkeypatch.setattr(recurrence, "CERTIFICATE", recurrence.CERTIFICATE._replace(**fields))


def halted_residual(n, residual):
    range_desc = "1 <= n <= 10 (halted at first nonzero, T from t_direct)"
    return failing("recurrence-residual", range_desc, {"n": n}, {"residual": rational_str(residual)})


def test_recurrence_b_identity_failure(monkeypatch):
    # k = 8 lies above the degree of d; the residual moves by -n^8 T(n+1),
    # which is -T(2) = -1/4 at n = 1
    doctor_certificate(monkeypatch, b={8: 1})
    values = {"b": "187269121", "a+c+d": "187269120"}
    expected = recurrence_with(0, failing("recurrence-b-identity", RECURRENCE[0]["range"], {"k": 8}, values))
    expected[1] = halted_residual(1, Fraction(-1, 4))
    assert content(run_suite("recurrence", max_n=10)) == expected


def test_recurrence_residual_failure(monkeypatch):
    doctor(monkeypatch, tfunction, "t_integral", (7,), lambda real, m: real(m) + Fraction(1, 2))
    residual = Fraction(recurrence.ac_values(5)[1], 2)  # c(5) (T(7) + 1/2 - T(7))
    report = failing(
        "recurrence-residual",
        "1 <= n <= 10 (halted at first nonzero, T from t_integral)",
        {"n": 5},
        {"residual": rational_str(residual)},
    )
    assert content(run_suite("recurrence", max_n=10)) == recurrence_with(1, report)


def test_recurrence_d_shift_failure(monkeypatch):
    computed = list(recurrence.D_SHIFT_REFERENCE)
    reference = [*computed[:-1], 1858561]
    monkeypatch.setattr(recurrence, "D_SHIFT_REFERENCE", tuple(reference))
    report = failing(
        "recurrence-d-shift",
        RECURRENCE[2]["range"],
        {},
        {"computed": str(computed), "reference": str(reference)},
        ["constant term 814627800, leading term 1858560"],
    )
    assert content(run_suite("recurrence", max_n=10)) == recurrence_with(2, report)


def test_recurrence_d_shift_positivity_failure(monkeypatch):
    # d(0) and b(0) drop by 10^9, so b = a + c + d still holds; d(x+2) then
    # starts at d(2) = 814627800 - 10^9 < 0, and the reference is made to
    # match, so only positivity fails.  The residual moves by
    # -10^9 (1 - T(n+1)), which is -3/4 10^9 at n = 1.
    drop = 10**9
    doctor_certificate(monkeypatch, b={0: -drop}, d={0: -drop})
    computed = [814627800 - drop, *recurrence.D_SHIFT_REFERENCE[1:]]
    monkeypatch.setattr(recurrence, "D_SHIFT_REFERENCE", tuple(computed))
    report = failing(
        "recurrence-d-shift",
        RECURRENCE[2]["range"],
        {},
        {"computed": str(computed), "reference": str(computed)},
        ["constant term -185372200, leading term 1858560"],
    )
    expected = recurrence_with(2, report)
    expected[1] = halted_residual(1, Fraction(-3 * drop, 4))
    assert content(run_suite("recurrence", max_n=10)) == expected


A_17, C_17 = "2280091501574172000", "1290210221229048000"  # a(17), c(17)


@pytest.mark.parametrize(
    "name, at, value, flags",
    [
        # flags: the location and values of the first failing sub-check
        ("ac_ratio", (17,), lambda real, n: Fraction(1), ({"n": 17}, {"a": A_17, "c": C_17})),
        ("ac_ratio", (1000,), lambda real, n: Fraction(2), ({"n": 1000}, {"ratio": "2"})),
        ("ac_values", (999,), lambda real, n: (5, -1), ({"n": 999}, {"a": "5", "c": "-1"})),
        ("ac_limit", (), lambda real: Fraction(2), ({}, {"limit": "2"})),
    ],
)
def test_recurrence_ac_ratio_failure(monkeypatch, name, at, value, flags):
    doctor(monkeypatch, recurrence, name, at, value)
    report = failing("recurrence-ac-ratio", RECURRENCE[3]["range"], *flags)
    assert content(run_suite("recurrence", max_n=10)) == recurrence_with(3, report)


def test_recurrence_main_inequality_failure(monkeypatch):
    # T(8) = T(7): the inequality holds at n = 6 with right side 0 and fails
    # at n = 7 with left side 0; the residual first moves at n = 6, by
    # c(6) (T(7) - T(8))
    t7, t8, t9 = (tfunction.t_direct(m) for m in (7, 8, 9))
    doctor_t(monkeypatch, 8, lambda real: t7)
    values = {"left": "0", "right": rational_str(recurrence.ac_values(7)[1] * (t7 - t9))}
    expected = recurrence_with(4, failing("recurrence-main-inequality", "2 <= n <= 10", {"n": 7}, values))
    expected[1] = halted_residual(6, recurrence.ac_values(6)[1] * (t7 - t8))
    assert content(run_suite("recurrence", max_n=10)) == expected


# ---------------------------------------------------------------------------
# monotone-t: t-monotone and limit-gap

BOUNDARY = "boundary: T(1) = T(2) = 1/4 (equal, outside the m >= 2 claim)"
LIMIT_NOTE = (
    f"limit {tfunction.T_LIMIT:.9f}; historical (incorrect) guess 1 - ln 2 = "
    f"{tfunction.T_LIMIT_HISTORICAL_GUESS:.9f}"
)
GAP_RANGE = "(2 - sqrt 2)/2 - T(m) positive on 1 <= m <= 20, strictly decreasing from m = 2"
T_MONOTONE = passing("t-monotone", "2 <= m < 20", [BOUNDARY, "every step 2 <= m < max_m is strictly increasing"])
LIMIT_GAP = passing("limit-gap", GAP_RANGE, [LIMIT_NOTE])


def gap(m):
    return tfunction.T_LIMIT - float(tfunction.t_direct(m))


def test_monotone_t_passes():
    assert content(run_suite("monotone-t", max_m=20)) == [T_MONOTONE, LIMIT_GAP]


def test_t_monotone_failure(monkeypatch):
    t7 = tfunction.t_direct(8) + Fraction(1, 1000)
    doctor_t(monkeypatch, 7, lambda real: t7)
    t8 = str(tfunction.t_direct(8))
    expected = [
        failing("t-monotone", "2 <= m < 20", {"m": 7}, {"T(m)": str(t7), "T(m+1)": t8}, [BOUNDARY]),
        failing("limit-gap", GAP_RANGE, {"m": 7}, {"gap": repr(gap(7)), "next": repr(gap(8))}, [LIMIT_NOTE]),
    ]
    assert content(run_suite("monotone-t", max_m=20)) == expected


def test_t_monotone_records_a_non_strict_step(monkeypatch):
    doctor_t(monkeypatch, 9, lambda real: real(10))
    expected = [
        passing("t-monotone", "2 <= m < 20", [BOUNDARY, "non-strict steps at m in [9]"]),
        failing("limit-gap", GAP_RANGE, {"m": 9}, {"gap": repr(gap(10)), "next": repr(gap(10))}, [LIMIT_NOTE]),
    ]
    assert content(run_suite("monotone-t", max_m=20)) == expected


def test_limit_gap_positivity_is_checked_before_decrease(monkeypatch):
    # gap(3) = 1 breaks the decrease at m = 2, but the positivity pass over
    # every m runs first and reports m = 9
    real = tfunction.limit_gap
    monkeypatch.setattr(tfunction, "limit_gap", lambda m: {3: 1.0, 9: -0.5}.get(m) or real(m))
    expected = [T_MONOTONE, failing("limit-gap", GAP_RANGE, {"m": 9}, {"gap": "-0.5"}, [LIMIT_NOTE])]
    assert content(run_suite("monotone-t", max_m=20)) == expected


def test_limit_gap_decrease_failure(monkeypatch):
    doctor(monkeypatch, tfunction, "limit_gap", (5,), lambda real, m: 1e-9)
    expected = [
        T_MONOTONE,
        failing("limit-gap", GAP_RANGE, {"m": 5}, {"gap": "1e-09", "next": repr(gap(6))}, [LIMIT_NOTE]),
    ]
    assert content(run_suite("monotone-t", max_m=20)) == expected


# ---------------------------------------------------------------------------
# inequality-chain


def test_inequality_chain_failure(monkeypatch):
    # lhs raised to rhs_last_term at (m, l) = (7, 2): only lhs < rhs_last_term fails
    raise_lhs = lambda real, m, ell: real(m, ell)._replace(lhs=256256)  # noqa: E731
    doctor(monkeypatch, tfunction, "inequality_chain_check", (7, 2), raise_lhs)
    values = {
        "lhs": "256256",
        "rhs_full": "604032",
        "rhs_unweighted": "347776",
        "rhs_last_term": "256256",
        "s_value": "153/1232",
    }
    range_desc = "all (m, l) with 0 <= l < floor(m/2), m <= 10"
    expected = [failing("inequality-chain", range_desc, {"m": 7, "ell": 2}, values)]
    assert content(run_suite("inequality-chain", max_m=10)) == expected


# ---------------------------------------------------------------------------
# row suites: unimodal, logconcave and delta-signs on a doctored row m = 5

ROW_5 = (17556, 68712, 114576, 99456, 44352, 8064)


def doctor_row_5(monkeypatch, index, value):
    """Replace entry ``index`` of the integer row b(5) under every caller."""
    real = coefficients._scaled_row
    assert real(5) == ROW_5
    row = list(ROW_5)
    row[index] = value
    monkeypatch.setattr(coefficients, "_scaled_row", lambda m: tuple(row) if m == 5 else real(m))
    return ",".join(rational_str(Fraction(b, 4**5)) for b in row)


@pytest.mark.parametrize("name", ["unimodal", "logconcave"])
def test_row_predicate_failure(monkeypatch, name):
    # 114576, 99456, 100000: the row falls and then rises again
    row = doctor_row_5(monkeypatch, 4, 100000)
    assert row == "4389/256,8589/128,7161/64,777/8,3125/32,63/8"
    expected = [failing(name, "rows m <= 8", {"m": 5}, {"row": row})]
    assert content(run_suite(name, max_m=8)) == expected


DELTA_RANGE = "positive below floor(m/2), negative at and above; m <= 8"


def test_delta_signs_failure_in_the_rising_half(monkeypatch):
    # b_1 = b_0 gives delta 0 at l = 0 < floor(5/2)
    doctor_row_5(monkeypatch, 1, ROW_5[0])
    expected = [failing("delta-signs", DELTA_RANGE, {"m": 5, "ell": 0}, {"delta": "0"})]
    assert content(run_suite("delta-signs", max_m=8)) == expected


@pytest.mark.parametrize("b_4, delta", [(100000, "17/32"), (ROW_5[3], "0")])
def test_delta_signs_failure_in_the_falling_half(monkeypatch, b_4, delta):
    # b_4 - b_3 = 544 > 0, then b_4 - b_3 = 0, at l = 3 >= floor(5/2)
    doctor_row_5(monkeypatch, 4, b_4)
    expected = [failing("delta-signs", DELTA_RANGE, {"m": 5, "ell": 3}, {"delta": delta})]
    assert content(run_suite("delta-signs", max_m=8)) == expected
