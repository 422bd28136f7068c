"""Golden failure reports.

Each check below is made to fail by doctoring the kernel it calls, and the
whole list of reports its suite returns is compared with the expected
content: every field of the JSON report except the timing.  A failing
report keeps its record's property, range and notes; only the verdict and
the counterexample change.
"""

import json
from fractions import Fraction

import pytest

from quartint import coefficients, conjectures, recurrence, seqprops, suites, tfunction
from quartint.cli import main
from quartint.exact import binomial, rational_str
from quartint.suites import SUITES, run_suite


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
    """Doctor T(m) as the t-bounds, t-monotone and limit-gap sweeps read it:
    the pairs (N, D) stepped by the recurrence.  value(real) gives T as a
    Fraction, and the pair is 3N/3D, not reduced, as t_stepped's pairs are
    not."""

    def pair(real, m):
        t = value(real)
        return 3 * t.numerator, 3 * t.denominator

    doctor(monkeypatch, recurrence, "t_stepped", (at,), pair)


def doctor_t_direct(monkeypatch, at, value):
    """Doctor the direct sum under both names that bind it, as the
    recurrence records read it."""
    real = tfunction.t_direct
    fake = lambda m: value(real) if m == at else real(m)  # noqa: E731
    monkeypatch.setattr(tfunction, "t_direct", fake)
    monkeypatch.setattr(recurrence, "t_direct", fake)


# ---------------------------------------------------------------------------
# t-bounds

T_BOUNDS_RANGE = "T < 1 on 1 <= m <= 12; T <= 27/28, T < 1-(m+2)/2^(m+1), prefactor <= 9/112 on 2 <= m"
PAIR_RANGE = "C(2r,r)C(m+1,r) <= C(4m,r) for 2 <= r <= m+1, m <= 12"
T_BOUNDS = passing("t-bounds", T_BOUNDS_RANGE)
PAIR_BOUND = passing("binomial-pair-bound", PAIR_RANGE)


def t_bound_failure(m, bound, values):
    return failing("t-bounds", T_BOUNDS_RANGE, {"m": m, "bound": bound}, values)


def test_t_below_one_failure(monkeypatch):
    doctor_t(monkeypatch, 5, lambda real: Fraction(1))
    expected = [t_bound_failure(5, "t-below-one", {"T": "1"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_t_below_27_28_failure(monkeypatch):
    doctor_t(monkeypatch, 6, lambda real: Fraction(27, 28) + Fraction(1, 1000))
    expected = [t_bound_failure(6, "t-below-27-28", {"T": "6757/7000"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_t_below_geometric_tail_failure(monkeypatch):
    t4 = rational_str(tfunction.t_direct(4))
    doctor(monkeypatch, tfunction, "geometric_tail_bound", (4,), lambda real, m: tfunction.t_direct(m))
    expected = [t_bound_failure(4, "t-below-geometric-tail", {"T": t4, "bound": t4}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_integral_prefactor_bound_failure(monkeypatch):
    doctor(monkeypatch, tfunction, "integral_prefactor", (3,), lambda real, m: Fraction(1, 10))
    expected = [t_bound_failure(3, "integral-prefactor-bound", {"prefactor": "1/10"}), PAIR_BOUND]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def pair_bound_failure(monkeypatch, m, r, rhs, values):
    """The stepped sides of row m with the right-hand side at r doctored to rhs."""

    def doctored(real, m):
        sides = real(m)
        sides[r - 2] = (sides[r - 2][0], rhs)
        return sides

    doctor(monkeypatch, tfunction, "pair_bound_sides", (m,), doctored)
    expected = [T_BOUNDS, failing("binomial-pair-bound", PAIR_RANGE, {"m": m, "r": r}, values)]
    assert content(run_suite("t-bounds", max_m=12)) == expected


def test_binomial_pair_bound_failure(monkeypatch):
    # C(8,4) C(8,4) = 4900 against C(28,4) = 20475, doctored to 4899
    pair_bound_failure(monkeypatch, 7, 4, 4899, {"lhs": "4900", "rhs": "4899"})


def test_binomial_pair_bound_failure_at_the_last_r(monkeypatch):
    # r = m+1: C(12,6) C(6,6) = 924 against C(20,6), doctored to 0
    pair_bound_failure(monkeypatch, 5, 6, 0, {"lhs": "924", "rhs": "0"})


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


def bad_residual(n, residual, oracle="t_direct"):
    location = {"n": n, "oracle": oracle}
    return failing("recurrence-residual", RECURRENCE[1]["range"], location, {"residual": rational_str(residual)})


def test_recurrence_b_identity_failure(monkeypatch):
    # k = 8 lies above the degree of d; the residual moves by -n^8 T(n+1),
    # which is -T(2) = -1/4 at n = 1
    doctor_certificate(monkeypatch, b={8: 1})
    values = {"b": "187269121", "a+c+d": "187269120"}
    expected = recurrence_with(0, failing("recurrence-b-identity", RECURRENCE[0]["range"], {"k": 8}, values))
    expected[1] = bad_residual(1, Fraction(-1, 4))
    assert content(run_suite("recurrence", max_n=10)) == expected


def test_recurrence_residual_failure(monkeypatch):
    doctor(monkeypatch, tfunction, "t_hypergeometric", (7,), lambda real, m: real(m) + Fraction(1, 2))
    residual = Fraction(recurrence.ac_values(5)[1], 2)  # c(5) (T(7) + 1/2 - T(7))
    report = bad_residual(5, residual, oracle="t_hypergeometric")
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
    expected[1] = bad_residual(1, Fraction(-3 * drop, 4))
    assert content(run_suite("recurrence", max_n=10)) == expected


C_17 = "1290210221229048000"  # c(17)


@pytest.mark.parametrize(
    "name, at, value, flags",
    [
        # flags: the location and values of the first failing sub-check
        # a(17) = c(17): a tie is a failure
        ("ac_values", (17,), lambda real, n: (real(n)[1],) * 2, ({"n": 17}, {"a": C_17, "c": C_17})),
        # past n = 500 the loop checks positivity only, so the ratio check sees a/c = 2
        ("ac_values", (1000,), lambda real, n: (2, 1), ({"n": 1000}, {"ratio": "2"})),
        ("ac_values", (999,), lambda real, n: (5, -1), ({"n": 999}, {"a": "5", "c": "-1"})),
        ("ac_limit", (), lambda real: Fraction(2), ({}, {"limit": "2"})),
        # the ratio stays 27/16, so only the positivity check at the last n sees it
        ("ac_values", (1000,), lambda real, n: (-27, -16), ({"n": 1000}, {"a": "-27", "c": "-16"})),
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
    doctor_t_direct(monkeypatch, 8, lambda real: t7)
    values = {"left": "0", "right": rational_str(recurrence.ac_values(7)[1] * (t7 - t9))}
    expected = recurrence_with(4, failing("recurrence-main-inequality", RECURRENCE[4]["range"], {"n": 7}, values))
    expected[1] = bad_residual(6, recurrence.ac_values(6)[1] * (t7 - t8))
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


def step_failure(m, t_m, t_next):
    return failing("t-monotone", "2 <= m < 20", {"m": m}, {"T(m)": str(t_m), "T(m+1)": str(t_next)}, [BOUNDARY])


def gap_failure(m, values):
    return failing("limit-gap", GAP_RANGE, {"m": m}, values, [LIMIT_NOTE])


def test_monotone_t_passes():
    assert content(run_suite("monotone-t", max_m=20)) == [T_MONOTONE, LIMIT_GAP]


def test_t_monotone_failure(monkeypatch):
    t7, t8 = tfunction.t_direct(8) + Fraction(1, 1000), tfunction.t_direct(8)
    doctor_t(monkeypatch, 7, lambda real: t7)
    expected = [step_failure(7, t7, t8), gap_failure(7, {"T(m)": rational_str(t7), "T(m+1)": rational_str(t8)})]
    assert content(run_suite("monotone-t", max_m=20)) == expected


def test_t_monotone_fails_at_an_equal_step(monkeypatch):
    # T is strictly increasing for m >= 2, so T(9) = T(10) is a failure
    t10 = tfunction.t_direct(10)
    doctor_t(monkeypatch, 9, lambda real: t10)
    values = {"T(m)": rational_str(t10), "T(m+1)": rational_str(t10)}
    assert content(run_suite("monotone-t", max_m=20)) == [step_failure(9, t10, t10), gap_failure(9, values)]


def test_limit_gap_positivity_is_checked_before_decrease(monkeypatch):
    # T(3) = 1/5 breaks the decrease at m = 2, but the positivity pass over
    # every m runs first and reports T(9) = 1/2 above the limit
    real = recurrence.t_stepped
    monkeypatch.setattr(recurrence, "t_stepped", lambda m: {3: (1, 5), 9: (1, 2)}.get(m) or real(m))
    expected = [step_failure(2, Fraction(1, 4), Fraction(1, 5)), gap_failure(9, {"T": "1/2"})]
    assert content(run_suite("monotone-t", max_m=20)) == expected


def test_limit_gap_decrease_failure(monkeypatch):
    # T(5) = 29/100 stays below the limit 0.29289... but above T(6)
    t6 = tfunction.t_direct(6)
    doctor_t(monkeypatch, 5, lambda real: Fraction(29, 100))
    values = {"T(m)": "29/100", "T(m+1)": rational_str(t6)}
    expected = [step_failure(5, Fraction(29, 100), t6), gap_failure(5, values)]
    assert content(run_suite("monotone-t", max_m=20)) == expected


@pytest.mark.parametrize("t20, passed", [(Fraction(70, 239), True), (Fraction(29, 99), False)])
def test_limit_gap_sign_is_exact(monkeypatch, t20, passed):
    # 70/239 and 29/99, convergents of 1 - 1/sqrt 2 = 0.292893..., lie
    # 6e-6 below and 4e-5 above the limit; T(19) = 0.2793 stays below both
    doctor_t(monkeypatch, 20, lambda real: t20)
    expected = LIMIT_GAP if passed else gap_failure(20, {"T": rational_str(t20)})
    assert content(run_suite("monotone-t", max_m=20)) == [T_MONOTONE, expected]


# ---------------------------------------------------------------------------
# inequality-chain


CHAIN_RANGE = "all (m, l) with 0 <= l < floor(m/2), m <= 10"


def test_inequality_chain_failure(monkeypatch):
    # lhs raised to rhs_last_term at (m, l) = (7, 2): only lhs < rhs_last_term,
    # that is S_{7,2} < 1, fails
    raise_lhs = lambda real, m, ell: real(m, ell)._replace(lhs=256256)  # noqa: E731
    doctor(monkeypatch, tfunction, "inequality_chain_check", (7, 2), raise_lhs)
    values = {"lhs": "256256", "rhs_full": "604032", "rhs_unweighted": "347776", "rhs_last_term": "256256"}
    expected = [failing("inequality-chain", CHAIN_RANGE, {"m": 7, "ell": 2}, values)]
    assert content(run_suite("inequality-chain", max_m=10)) == expected


def test_inequality_chain_out_of_order_failure(monkeypatch, capsys):
    # rhs_unweighted raised above rhs_full at (m, l) = (7, 2): S_{7,2} < 1
    # still holds, but the right-hand sides no longer weaken in order
    raise_unweighted = lambda real, m, ell: real(m, ell)._replace(rhs_unweighted=604033)  # noqa: E731
    doctor(monkeypatch, tfunction, "inequality_chain_check", (7, 2), raise_unweighted)
    values = {"lhs": "31824", "rhs_full": "604032", "rhs_unweighted": "604033", "rhs_last_term": "256256"}
    expected = [failing("inequality-chain", CHAIN_RANGE, {"m": 7, "ell": 2}, values)]
    assert content(run_suite("inequality-chain", max_m=10)) == expected
    assert main(["verify", "--property", "inequality-chain", "--max-m", "10", "--format", "json"]) == 1
    [report] = json.loads(capsys.readouterr().out)["results"]
    assert report["counterexample"] == {"location": {"m": 7, "ell": 2}, "values": values}


# ---------------------------------------------------------------------------
# s-monotone: S(7, l) = lhs_l / (2^7 C(14, 7+l)) over the left sums
# 3432, 12768, 31824, 74752 of row 7


S_RANGE = "S(m,l) strictly increasing over 0 <= l <= floor((m-1)/2) and max < 1; 2 <= m <= 10"


def doctor_left_sum(monkeypatch, ell, lhs):
    """Replace the left sum lhs_l of row 7 under every caller."""
    real = tfunction.left_sums
    assert [pair[0] for pair in real(7)] == [3432, 12768, 31824, 74752]
    row = list(real(7))
    row[ell] = (lhs, row[ell][1])
    monkeypatch.setattr(tfunction, "left_sums", lambda m: tuple(row) if m == 7 else real(m))


@pytest.mark.parametrize(
    "ell, lhs, location, values",
    [
        # 47736 / 384384 = 153/1232 = S(7, 2): a tie is a failure
        (1, 47736, {"m": 7, "ell": 1}, {"S(m,ell)": "153/1232", "S(m,ell+1)": "153/1232"}),
        # 128128 / 128128 = 1 at the top l = 3
        (3, 128128, {"m": 7, "ell": 3}, {"S": "1"}),
    ],
)
def test_s_monotone_failure(monkeypatch, capsys, ell, lhs, location, values):
    doctor_left_sum(monkeypatch, ell, lhs)
    assert content(run_suite("s-monotone", max_m=10)) == [failing("s-monotone", S_RANGE, location, values)]
    assert main(["verify", "--property", "s-monotone", "--max-m", "10", "--format", "json"]) == 1
    [report] = json.loads(capsys.readouterr().out)["results"]
    assert report["counterexample"] == {"location": location, "values": values}


# ---------------------------------------------------------------------------
# t-crosscheck


def test_t_crosscheck_s_sum_route_failure(monkeypatch):
    # S(2m, m-1) off by 1/1000 at m = 3; the three T routes still agree
    doctor(monkeypatch, tfunction, "s_sum", (6, 2), lambda real, m, ell: real(m, ell) + Fraction(1, 1000))
    t3 = tfunction.t_direct(3)
    values = {"direct": rational_str(t3), "s_sum(2m, m-1)": rational_str(t3 + Fraction(1, 1000))}
    [report] = content(run_suite("t-crosscheck", max_m=5))
    assert report["counterexample"] == {"location": {"m": 3, "route": "s_sum(2m, m-1)"}, "values": values}


def test_t_crosscheck_via_w_route_catches_a_doctored_generator(monkeypatch, capsys):
    # coefficient 2 of 2F1(1/2, -5; -16; z) off by 1/den at m = 4 adds
    # 2^2 (2 - 1) / den to T(4); scan hypineq reads its own binding and passes
    def one_off(real, *args):
        coeffs, den = real(*args)
        return coeffs[:2] + (coeffs[2] + 1,) + coeffs[3:], den

    at = (Fraction(1, 2), -5, -16)
    den = tfunction.series_coefficients(*at)[1]
    doctor(monkeypatch, tfunction, "series_coefficients", at, one_off)
    t4 = tfunction.t_direct(4)
    values = {"direct": rational_str(t4), "via_w": rational_str(t4 + Fraction(4, den))}
    [report] = content(run_suite("t-crosscheck", max_m=5))
    assert report["counterexample"] == {"location": {"m": 4, "route": "via_w"}, "values": values}
    conjectures.margin_polynomial.cache_clear()
    assert main(["scan", "hypineq", "--max-m", "5", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["verdict"] == "pass"


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


# ---------------------------------------------------------------------------
# one failure shape: every record, made to fail at its first item, keeps the
# property, range and notes of its record

_claimed = seqprops.minimum_claimed_value

# property -> (owner, attribute, replacement) that fails the record's first item
FIRST_ITEM_FAILS = {
    "unimodal": (seqprops, "is_unimodal", lambda row: False),
    "logconcave": (seqprops, "is_logconcave", lambda row: False),
    "i-logconcave": (seqprops, "iterated_l_first_negative", lambda row, depth: (1, 0, -1)),
    "ratio-monotone": (seqprops, "is_ratio_monotone", lambda row: False),
    # at m = 1 only: the notes are made at m = 2
    "min-functional": (seqprops, "minimum_claimed_value", lambda m: _claimed(m) + (m == 1)),
    "delta-signs": (suites, "scaled_row", lambda m: tuple(range(m + 1))),
    "inequality-chain": (
        tfunction,
        "inequality_chain_check",
        lambda m, ell: tfunction.InequalityChain(1, 0, 0, 0),
    ),
    # S(m, l) = 1 at every l
    "s-monotone": (
        tfunction,
        "left_sums",
        lambda m: tuple((2**m * binomial(2 * m, m + ell), 0) for ell in range((m + 1) // 2)),
    ),
    "t-bounds": (recurrence, "t_stepped", lambda m: (1, 1)),
    "binomial-pair-bound": (tfunction, "pair_bound_sides", lambda m: [(1, 0)]),
    "t-crosscheck": (tfunction, "t_hypergeometric", lambda m: Fraction(-1)),
    "recurrence-b-identity": (recurrence, "CERTIFICATE", recurrence.CERTIFICATE._replace(b=(0,))),
    "recurrence-residual": (recurrence, "recurrence_residual", lambda n, t=None: Fraction(1)),
    "recurrence-d-shift": (recurrence, "D_SHIFT_REFERENCE", ()),
    "recurrence-ac-ratio": (recurrence, "ac_limit", lambda: Fraction(2)),
    "recurrence-main-inequality": (recurrence, "ac_values", lambda n: (-1, 1)),
    "t-monotone": (recurrence, "t_stepped", lambda m: (1, 4)),
    "limit-gap": (recurrence, "t_stepped", lambda m: (1, 1)),
    "infinite-logconcavity-scan": (seqprops, "iterated_l_first_negative", lambda row, depth: (1, 0, -1)),
    "hyp-inequality-scan": (conjectures, "hyp_inequality_margin", lambda m, x: Fraction(0)),
}

SHAPE_LIMIT = 4
SCANS = {
    "infinite-logconcavity-scan": lambda: [suites.scan_infinite_logconcavity(SHAPE_LIMIT, 3)],
    "hyp-inequality-scan": lambda: [suites.scan_hyp_inequality(SHAPE_LIMIT, (Fraction(1, 2), 1))],
}
# (suite or scan, property, the notes of its record)
RECORDS = [
    (name, record[0], tuple(record[4]) if len(record) > 4 else ())
    for name, suite in SUITES.items()
    for record in suite.records(SHAPE_LIMIT, 3)
] + [(name, name, ()) for name in SCANS]


def report_of(suite, prop):
    run = SCANS.get(suite) or (lambda: run_suite(suite, max_m=SHAPE_LIMIT, max_n=SHAPE_LIMIT))
    return next(r for r in run() if r.property == prop)


def test_every_record_can_be_made_to_fail():
    assert sorted(prop for _, prop, _ in RECORDS) == sorted(FIRST_ITEM_FAILS)


@pytest.mark.parametrize("suite, prop, notes", RECORDS, ids=[prop for _, prop, _ in RECORDS])
def test_a_failing_report_keeps_its_records_property_range_and_notes(monkeypatch, suite, prop, notes):
    passed = report_of(suite, prop)
    monkeypatch.setattr(*FIRST_ITEM_FAILS[prop])
    failed = report_of(suite, prop)
    assert passed.passed and not failed.passed
    assert (failed.property, failed.range, failed.notes) == (passed.property, passed.range, notes)
    # a pass may add a summary after the record's notes, a failure never
    assert passed.notes[: len(notes)] == notes
