"""Exact-arithmetic computation and verification of the coefficient family
d_l(m) of the quartic integral, the tail sums S_{m,l} and T(m) that control
its unimodality, the three-term recurrence certificate for T, and
counterexample scans for the two open conjectures about the family.
"""

from .coefficients import CoefficientRow, coefficient_row, scaled_row
from .conjectures import hyp_inequality_margin
from .exact import binomial, rational_str
from .hypergeometric import (
    hyp2f1,
    hyp2f1_first_moment,
    series_coefficients,
)
from .polynomial import horner, taylor_shift
from .quadrature import (
    QuadratureConvergenceError,
    QuadratureResult,
    closed_form,
    evaluate_quartic_integral,
)
from .recurrence import (
    CERTIFICATE,
    RecurrenceCoefficients,
    ac_limit,
    recurrence_residual,
)
from .reports import Counterexample, PropertyReport, SCHEMA_VERSION
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
    geometric_tail_bound,
    inequality_chain_check,
    integral_prefactor,
    s_sum,
    t_direct,
    t_hypergeometric,
    t_integral,
    t_via_w,
)

__version__ = "0.1.0"
