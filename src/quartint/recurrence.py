"""Three-term recurrence certificate for T(m):

    a(n) T(n) - b(n) T(n+1) + c(n) T(n+2) + d(n) = 0

with fixed integer-coefficient polynomials a, b, c, d (degrees 9, 9, 9, 7).
The polynomials are transcribed data, not regenerated by creative
telescoping: a vanishing residual against the direct sum certifies the
transcription, and the structural facts (b = a + c + d, positivity of the
d(x+2) expansion, a/c -> 27/16) are exactly the ingredients of the
monotonicity argument for T.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .polynomial import Polynomial
from .tfunction import t_direct

_A = [7195230, 87693273, 448856568, 1263033897, 2147597568,
      2279791176, 1502157312, 586779648, 121208832, 9732096]
_B = [9661680, 123557904, 651005760, 1865031680, 3206772480,
      3428727552, 2272235520, 894167040, 187269120, 15499264]
_C = [3265920, 41472576, 217055232, 618806528, 1062162432,
      1139030016, 762052608, 305528832, 66060288, 5767168]
_D = [-799470, -5607945, -14906040, -16808745, -2987520,
      9906360, 8025600, 1858560]

# Reference expansion of d(x+2); the certificate requires every entry to be
# strictly positive and the computed shift to reproduce this list verbatim.
D_SHIFT_REFERENCE = (814627800, 2803521195, 3780146130, 2680435095,
                     1098008880, 262332600, 34045440, 1858560)


@dataclass(frozen=True)
class RecurrenceCoefficients:
    a: Polynomial
    b: Polynomial
    c: Polynomial
    d: Polynomial


CERTIFICATE = RecurrenceCoefficients(
    a=Polynomial(_A), b=Polynomial(_B), c=Polynomial(_C), d=Polynomial(_D)
)


def _at(coeffs: list[int], n: int) -> int:
    """Horner evaluation of an integer coefficient list at an integer point.

    The certificate is evaluated on the integer lists behind CERTIFICATE
    rather than through Polynomial.__call__, whose Fraction coefficients make
    every step a Fraction operation; the values are the same integers.
    """
    out = 0
    for c in reversed(coeffs):
        out = out * n + c
    return out


def ac_values(n: int) -> tuple[int, int]:
    """(a(n), c(n)) as exact integers."""
    return _at(_A, n), _at(_C, n)


def recurrence_residual(n: int, t: Callable[[int], Fraction] | None = None) -> Fraction:
    """a(n) T(n) - b(n) T(n+1) + c(n) T(n+2) + d(n), using ``t`` as the T
    oracle (the direct sum when omitted); a correct transcription makes this
    exactly 0."""
    if n < 1:
        raise ValueError("residual needs n >= 1")
    if t is None:
        t = t_direct
    return _at(_A, n) * t(n) - _at(_B, n) * t(n + 1) + _at(_C, n) * t(n + 2) + _at(_D, n)


def b_identity_check() -> bool:
    """b - (a + c + d) is identically zero, as exact polynomials."""
    cert = CERTIFICATE
    return (cert.b - (cert.a + cert.c + cert.d)).is_zero()


def d_shift_positivity() -> list[int]:
    """Coefficient list of d(x+2), expanded exactly.

    All eight entries are strictly positive, which is what makes d(n) >= 0
    for n >= 2; d_shift_check() compares the list against the fixed
    reference expansion.
    """
    shifted = CERTIFICATE.d.shift(2)
    return [int(c) for c in shifted.coeffs]


def d_shift_check() -> tuple[bool, bool]:
    """(all entries positive, matches the reference expansion)."""
    coeffs = d_shift_positivity()
    return all(c > 0 for c in coeffs), tuple(coeffs) == D_SHIFT_REFERENCE


def ac_ratio(n: int) -> Fraction:
    """a(n)/c(n), exactly; c is positive for every n >= 1."""
    if n < 1:
        raise ValueError("ac_ratio needs n >= 1")
    a_n, c_n = ac_values(n)
    if c_n == 0:
        raise ZeroDivisionError(f"c({n}) = 0")
    return Fraction(a_n, c_n)


def ac_limit() -> Fraction:
    """Leading-coefficient ratio of a and c, reduced: 27/16."""
    return Fraction(
        int(CERTIFICATE.a.leading_coefficient()), int(CERTIFICATE.c.leading_coefficient())
    )


def main_inequality_check(n: int) -> bool:
    """a(n) (T(n) - T(n+1)) <= c(n) (T(n+1) - T(n+2)), the rearranged
    recurrence once T < 1 and d >= 0 are known."""
    if n < 1:
        raise ValueError("main inequality needs n >= 1")
    a_n, c_n = ac_values(n)
    left = a_n * (t_direct(n) - t_direct(n + 1))
    right = c_n * (t_direct(n + 1) - t_direct(n + 2))
    return left <= right
