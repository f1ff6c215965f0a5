"""Exact dilatations of pseudo-Anosov 3-braids.

A pA word is a word in sigma_1^-1 and sigma_2 using both letters.  Its train
track transition matrix is the ordered product of two unimodular 2x2 integer
matrices, one per letter: sigma_1^-1 acts by ((1, 1), (0, 1)) and sigma_2 by
((1, 0), (1, 1)).  The assignment is fixed canonically; both choices give
equal traces on every pA word (they are transposes of each other).  The
dilatation is the spectral radius, an exact quadratic algebraic number
determined by the trace.
"""

from __future__ import annotations

import math
from .words import BraidWord, Record


def check_pa_word(word: BraidWord) -> None:
    if word.degree != 3:
        raise ValueError(f"degree {word.degree} != 3")
    if not word.letters:
        raise ValueError("empty word")
    for x in word.letters:
        if x not in (-1, 2):
            raise ValueError(f"letter {x} not in {{-1, 2}}")
    if -1 not in word.letters or 2 not in word.letters:
        raise ValueError("both sigma_1^-1 and sigma_2 must occur")


def transition_matrix(word: BraidWord) -> tuple[tuple[int, int], tuple[int, int]]:
    """Ordered product of the letter matrices over a pA word, as its rows
    ((a, b), (c, d)).

    The product has determinant 1, nonnegative entries and trace >= 3.
    """
    check_pa_word(word)
    a, b, c, d = 1, 0, 0, 1
    for x in word.letters:
        if x == -1:                     # right factor ((1, 1), (0, 1))
            b, d = a + b, c + d
        else:                           # right factor ((1, 0), (1, 1))
            a, c = a + b, c + d
    assert a * d - b * c == 1 and a + d >= 3
    return (a, b), (c, d)


class ExactDilatation(Record):
    """lambda = (tr + sqrt(tr^2 - 4)) / 2 with the trace kept exact."""

    _fields = ("trace",)

    def __init__(self, trace: int):
        self.__dict__.update(trace=trace)

    @property
    def discriminant(self) -> int:
        return self.trace * self.trace - 4

    @property
    def value(self) -> float:
        return (self.trace + math.sqrt(self.discriminant)) / 2

    @property
    def log(self) -> float:
        # log lambda via high-precision sqrt on the integer discriminant
        return _log_quadratic(self.trace)

    def approx(self, digits: int = 30) -> str:
        """lambda truncated to ``digits`` decimals, by integer arithmetic."""
        scale, unit = 10 ** (digits + 5), 10 ** digits
        s = math.isqrt(self.discriminant * scale * scale)
        q = (self.trace * scale + s) * unit // (2 * scale)
        return f"{q // unit}.{q % unit:0{digits}d}"

    def __str__(self) -> str:
        return f"(1/2)*({self.trace} + sqrt({self.discriminant}))"


def exact_dilatation(word: BraidWord) -> ExactDilatation:
    """Exact dilatation of the 3-braid given by a pA word.

    Any 3-braid is conjugate to a pA word up to a full-twist power; the
    twist is central and does not change the dilatation, so pass the pA
    word alone.
    """
    (a, _), (_, d) = transition_matrix(word)
    return ExactDilatation(a + d)


def _log_quadratic(trace: int) -> float:
    """log((tr + sqrt(tr^2 - 4)) / 2), stable for huge traces."""
    if trace.bit_length() > 500:
        # log lambda = log tr - 1/tr^2 - ...; the correction is below
        # 2^-1000, far under one ulp (2^-44) of log tr >= 346
        return math.log(trace)
    scale = 1 << 160
    s = math.isqrt((trace * trace - 4) * scale * scale)
    return math.log(trace * scale + s) - math.log(2 * scale)
