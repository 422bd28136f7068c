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
with the direct sum at m = 1 and 2.  A stepped value is checked before it
is used: t_stepped returns T(m) only once it has stepped on to the
checkpoint at or above m, the next multiple of CHECKPOINT, and found the
direct sum there equal to its own value; a mismatch is an ArithmeticError.
So a wrong certificate is an internal error, never a counterexample.  The
residual and main-inequality records and t-crosscheck read the direct sum
itself, so the recurrence is never checked against values it made.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .polynomial import horner
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


CHECKPOINT = 64

# T(1), T(2), ..., T(k CHECKPOINT): only values that a checkpoint has passed.
_stepped: list[Fraction] = []


def t_stepped(m: int) -> Fraction:
    """T(m) by the recurrence, T(n+2) = (b(n) T(n+1) - a(n) T(n) - d(n)) / c(n),
    from T(1) and T(2) of the direct sum.

    The values are made in increasing m by a loop, up to the checkpoint at
    or above m, and kept only when the direct sum agrees there; otherwise
    this is an ArithmeticError and nothing new is kept.
    """
    if m < 1:
        raise ValueError("t_stepped requires m >= 1")
    if m > len(_stepped):
        top = -(-m // CHECKPOINT) * CHECKPOINT
        values = list(_stepped) or [t_direct(1), t_direct(2)]
        for n in range(len(values) - 1, top - 1):
            a, b, c, d = (horner(p, n) for p in CERTIFICATE)
            values.append((b * values[-1] - a * values[-2] - d) / c)
        if values[-1] != t_direct(top):
            raise ArithmeticError(f"T by the recurrence: T({top}) differs from the direct sum")
        _stepped[:] = values
    return _stepped[m - 1]


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


def ac_limit() -> Fraction:
    """Leading-coefficient ratio of a and c, reduced: 27/16."""
    return Fraction(CERTIFICATE.a[-1], CERTIFICATE.c[-1])
