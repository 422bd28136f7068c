"""Exact-arithmetic computation and verification of the coefficient family
d_l(m) of the quartic integral, the tail sums S_{m,l} and T(m) that control
its unimodality, the three-term recurrence certificate for T, and
counterexample scans for the two open conjectures about the family.

These names are the README's Library section, the whole top-level API;
every other function is imported from its module.
"""

from .coefficients import coefficient_row, scaled_row
from .hypergeometric import hyp2f1, series_coefficients
from .polynomial import horner, taylor_shift
from .recurrence import CERTIFICATE, recurrence_residual
from .seqprops import is_ratio_monotone
from .suites import scan_hyp_inequality, scan_infinite_logconcavity
from .tfunction import t_direct, t_integral

__version__ = "0.1.0"
