"""Three-term recurrence certificate for T(m):

    a(n) T(n) - b(n) T(n+1) + c(n) T(n+2) + d(n) = 0

with fixed integer-coefficient polynomials a, b, c, d (degrees 9, 9, 9, 7),
stored once as coefficient tuples and evaluated in exact integers by
Horner's rule.  The polynomials are transcribed data, not regenerated by
creative telescoping: a vanishing residual against the direct sum certifies
the transcription, and the structural facts (b = a + c + d coefficient by
coefficient, positivity of the d(x+2) expansion, which is the Taylor shift
of d by 2, and a/c -> 27/16 from the leading coefficients) are exactly the
ingredients of the monotonicity argument for T.

The certificate also makes the T values that the t-bounds, t-monotone and
limit-gap sweeps read: t_stepped solves the recurrence for T(n+2), seeded
with the direct sum's pairs at m = 1 and 2, in integers: T(n) = N_n / D_n
over the direct sum's denominator D_n = 2^(n+1) C(4n, n+1).  A stepped
value is checked before it is used: t_stepped returns T(m) only once it has
stepped on to the checkpoint at or above m, the next multiple of
CHECKPOINT, and found its pair (N, D) there equal to the direct sum's pair,
numerator and denominator alike; a mismatch, or a step that leaves a
remainder, is an ArithmeticError.  So a wrong certificate is an internal
error, never a counterexample.  The residual and main-inequality records
and t-crosscheck read the direct sum itself, so the recurrence is never
checked against values it made.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .polynomial import horner
from .tfunction import t_direct, t_direct_pair


class RecurrenceCoefficients(NamedTuple):
    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]
    d: tuple[int, ...]


CERTIFICATE = RecurrenceCoefficients(
    a=(7195230, 87693273, 448856568, 1263033897, 2147597568,
       2279791176, 1502157312, 586779648, 121208832, 9732096),
    b=(9661680, 123557904, 651005760, 1865031680, 3206772480,
       3428727552, 2272235520, 894167040, 187269120, 15499264),
    c=(3265920, 41472576, 217055232, 618806528, 1062162432,
       1139030016, 762052608, 305528832, 66060288, 5767168),
    d=(-799470, -5607945, -14906040, -16808745, -2987520,
       9906360, 8025600, 1858560),
)

# Reference expansion of d(x+2); the certificate requires every entry to be
# strictly positive and the computed shift to reproduce this list verbatim.
D_SHIFT_REFERENCE = (814627800, 2803521195, 3780146130, 2680435095,
                     1098008880, 262332600, 34045440, 1858560)


CHECKPOINT = 64

# (N_n, D_n) for n = 1, 2, ..., k CHECKPOINT: only values that a checkpoint has passed.
_stepped: list[tuple[int, int]] = []


def _ratio(n: int) -> tuple[int, int]:
    """(P_n, Q_n) with D_{n+1} / D_n = P_n / Q_n."""
    return 2 * (4 * n + 1) * (4 * n + 2) * (4 * n + 3) * (4 * n + 4), 3 * n * (3 * n + 1) * (3 * n + 2) * (n + 2)


def t_stepped(m: int) -> tuple[int, int]:
    """T(m) = N_m / D_m by the recurrence, from the direct sum's pairs at 1 and 2,
    as the pair (N_m, D_m) over D_m = 2^(m+1) C(4m, m+1), not reduced.

    With D_{n+1} = D_n P_n / Q_n, c(n) T(n+2) = b(n) T(n+1) - a(n) T(n) - d(n)
    over D_{n+2} is

        c Q_n Q_{n+1} N_{n+2} = b P_{n+1} Q_n N_{n+1} - a P_n P_{n+1} N_n - d Q_n P_{n+1} D_{n+1},

    and each division is a divmod whose remainder is an ArithmeticError.  The
    values are made in increasing m by a loop, up to the checkpoint at or
    above m, and kept only when its pair there is the direct sum's pair;
    otherwise this is an ArithmeticError and nothing new is kept.
    """
    if m < 1:
        raise ValueError("t_stepped requires m >= 1")
    if m > len(_stepped):
        top = -(-m // CHECKPOINT) * CHECKPOINT
        values = list(_stepped) or [t_direct_pair(1), t_direct_pair(2)]
        (n0, _), (n1, d1) = values[-2:]
        p0, q0 = _ratio(len(values) - 1)
        for n in range(len(values) - 1, top - 1):
            a, b, c, d = (horner(p, n) for p in CERTIFICATE)
            p1, q1 = _ratio(n + 1)
            n2, remainder = divmod(b * p1 * q0 * n1 - a * p0 * p1 * n0 - d * q0 * p1 * d1, c * q0 * q1)
            d2, d_remainder = divmod(d1 * p1, q1)
            if remainder or d_remainder:
                raise ArithmeticError(f"T by the recurrence: inexact step at n={n}")
            values.append((n2, d2))
            n0, n1, d1, p0, q0 = n1, n2, d2, p1, q1
        if (n1, d1) != t_direct_pair(top):
            raise ArithmeticError(f"T by the recurrence: T({top}) differs from the direct sum")
        _stepped[:] = values
    return _stepped[m - 1]


def ac_values(n: int) -> tuple[int, int]:
    """(a(n), c(n)) as exact integers."""
    return horner(CERTIFICATE.a, n), horner(CERTIFICATE.c, n)


def recurrence_residual(n: int, t: Callable[[int], Fraction] | None = None) -> Fraction:
    """a(n) T(n) - b(n) T(n+1) + c(n) T(n+2) + d(n), using ``t`` as the T
    oracle (the direct sum when omitted); a correct transcription makes this
    exactly 0.  It is summed in integers over the product of the three
    denominators and reduced once."""
    if n < 1:
        raise ValueError("residual needs n >= 1")
    if t is None:
        t = t_direct
    a, b, c, d = (horner(p, n) for p in CERTIFICATE)
    (p0, q0), (p1, q1), (p2, q2) = ((v.numerator, v.denominator) for v in (t(n), t(n + 1), t(n + 2)))
    return Fraction(a * p0 * q1 * q2 - b * p1 * q0 * q2 + c * p2 * q0 * q1 + d * q0 * q1 * q2, q0 * q1 * q2)


def ac_limit() -> Fraction:
    """Leading-coefficient ratio of a and c, reduced: 27/16."""
    return Fraction(CERTIFICATE.a[-1], CERTIFICATE.c[-1])
