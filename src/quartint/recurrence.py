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
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from typing import Callable, NamedTuple

from .polynomial import horner, taylor_shift
from .tfunction import t_direct


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


def ac_values(n: int) -> tuple[int, int]:
    """(a(n), c(n)) as exact integers."""
    return horner(CERTIFICATE.a, n), horner(CERTIFICATE.c, n)


def recurrence_residual(n: int, t: Callable[[int], Fraction] | None = None) -> Fraction:
    """a(n) T(n) - b(n) T(n+1) + c(n) T(n+2) + d(n), using ``t`` as the T
    oracle (the direct sum when omitted); a correct transcription makes this
    exactly 0."""
    if n < 1:
        raise ValueError("residual needs n >= 1")
    if t is None:
        t = t_direct
    a, b, c, d = (horner(p, n) for p in CERTIFICATE)
    return a * t(n) - b * t(n + 1) + c * t(n + 2) + d


def b_identity_check() -> bool:
    """b = a + c + d, coefficient by coefficient."""
    return all(b == a + c + d for a, b, c, d in zip_longest(*CERTIFICATE, fillvalue=0))


def d_shift_positivity() -> list[int]:
    """Coefficient list of d(x+2), expanded exactly.

    All eight entries are strictly positive, which is what makes d(n) >= 0
    for n >= 2; d_shift_check() compares the list against the fixed
    reference expansion.
    """
    return list(taylor_shift(CERTIFICATE.d, 2))


def d_shift_check() -> tuple[bool, bool]:
    """(all entries positive, matches the reference expansion)."""
    coeffs = d_shift_positivity()
    return all(c > 0 for c in coeffs), tuple(coeffs) == D_SHIFT_REFERENCE


def ac_ratio(n: int) -> Fraction:
    """a(n)/c(n), exactly; c is positive for every n >= 1."""
    if n < 1:
        raise ValueError("ac_ratio needs n >= 1")
    a_n, c_n = ac_values(n)
    return Fraction(a_n, c_n)


def ac_limit() -> Fraction:
    """Leading-coefficient ratio of a and c, reduced: 27/16."""
    return Fraction(CERTIFICATE.a[-1], CERTIFICATE.c[-1])


def main_inequality_check(n: int) -> bool:
    """a(n) (T(n) - T(n+1)) <= c(n) (T(n+1) - T(n+2)), the rearranged
    recurrence once T < 1 and d >= 0 are known."""
    if n < 1:
        raise ValueError("main inequality needs n >= 1")
    a_n, c_n = ac_values(n)
    left = a_n * (t_direct(n) - t_direct(n + 1))
    right = c_n * (t_direct(n + 1) - t_direct(n + 2))
    return left <= right
