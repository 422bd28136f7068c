"""Exact-arithmetic computation and verification of the coefficient family
d_l(m) of the quartic integral, the tail sums S_{m,l} and T(m) that control
its unimodality, the three-term recurrence certificate for T, and
counterexample scans for the two open conjectures about the family.
"""

from .coefficients import CoefficientRow, coefficient_row, delta_direct, scaled_row
from .conjectures import default_x_grid, hyp_inequality_margin
from .exact import binomial, pochhammer, rational_str
from .hypergeometric import (
    HypergeometricError,
    NonTerminatingSeriesError,
    SeriesPoleError,
    companion_ratio_bound_violations,
    envelope_bound_check,
    hyp2f1,
    hyp2f1_as_polynomial,
    pochhammer_ratio_bound_check,
)
from .polynomial import derivative, horner, taylor_shift
from .quadrature import (
    DivergentIntegralError,
    QuadratureConvergenceError,
    QuadratureResult,
    closed_form,
    evaluate_quartic_integral,
)
from .recurrence import (
    CERTIFICATE,
    RecurrenceCoefficients,
    ac_limit,
    ac_ratio,
    b_identity_check,
    d_shift_check,
    d_shift_positivity,
    main_inequality_check,
    recurrence_residual,
)
from .reports import Counterexample, PropertyReport, RunReport, SCHEMA_VERSION
from .seqprops import (
    is_logconcave,
    is_ratio_monotone,
    is_unimodal,
    l_operator,
    minimum_claimed_value,
    minimum_functional,
    minimum_functional_uncorrected,
)
from .suites import scan_hyp_inequality, scan_infinite_logconcavity
from .tfunction import (
    InequalityChain,
    T_LIMIT,
    TValueBundle,
    bound_pair_check,
    geometric_tail_bound,
    inequality_chain_check,
    integral_prefactor,
    limit_gap,
    s_sum,
    t_bundle,
    t_direct,
    t_hypergeometric,
    t_integral,
    t_via_w,
    t_via_w_variant,
    w_polynomial,
)

__version__ = "0.1.0"
