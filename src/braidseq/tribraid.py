"""Exact dilatations of pseudo-Anosov 3-braids.

A pA word is a word in sigma_1^-1 and sigma_2 using both letters.  Its train
track transition matrix is the ordered product of two unimodular 2x2 integer
matrices, one per letter; the dilatation is the spectral radius, an exact
quadratic algebraic number determined by the trace.
"""

from __future__ import annotations

import math
from .words import BraidWord, Record

# Letter matrices: sigma_1^-1 and sigma_2 act by the two elementary
# transvections.  The assignment is fixed canonically; both choices give
# equal traces on every pA word (they are transposes of each other).
_M_INV1 = ((1, 1), (0, 1))   # sigma_1^-1
_M_2 = ((1, 0), (1, 1))      # sigma_2


class NotPAWord(ValueError):
    """Input is not a word in {sigma_1^-1, sigma_2} using both letters."""


class Matrix2(Record):
    """2x2 integer matrix with exact (arbitrary-precision) entries."""

    _fields = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        self.__dict__.update(a=a, b=b, c=c, d=d)

    def __mul__(self, other: "Matrix2") -> "Matrix2":
        return Matrix2(self.a * other.a + self.b * other.c,
                       self.a * other.b + self.b * other.d,
                       self.c * other.a + self.d * other.c,
                       self.c * other.b + self.d * other.d)

    @property
    def trace(self) -> int:
        return self.a + self.d

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.a, self.b), (self.c, self.d))


def check_pa_word(word: BraidWord) -> None:
    if word.degree != 3:
        raise NotPAWord(f"degree {word.degree} != 3")
    if not word.letters:
        raise NotPAWord("empty word")
    for x in word.letters:
        if x not in (-1, 2):
            raise NotPAWord(f"letter {x} not in {{-1, 2}}")
    if -1 not in word.letters or 2 not in word.letters:
        raise NotPAWord("both sigma_1^-1 and sigma_2 must occur")


def transition_matrix(word: BraidWord) -> Matrix2:
    """Ordered product of the letter matrices over a pA word.

    The product has determinant 1, nonnegative entries and trace >= 3.
    """
    check_pa_word(word)
    m = Matrix2(1, 0, 0, 1)
    for x in word.letters:
        m = m * (Matrix2(*_M_INV1[0], *_M_INV1[1]) if x == -1
                 else Matrix2(*_M_2[0], *_M_2[1]))
    assert m.det == 1 and m.trace >= 3
    return m


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
    return ExactDilatation(transition_matrix(word).trace)


def _log_quadratic(trace: int) -> float:
    """log((tr + sqrt(tr^2 - 4)) / 2), stable for huge traces."""
    if trace.bit_length() > 500:
        # log lambda = log tr - 1/tr^2 - ...; the correction is below
        # 2^-1000, far under one ulp (2^-44) of log tr >= 346
        return math.log(trace)
    scale = 1 << 160
    s = math.isqrt((trace * trace - 4) * scale * scale)
    return math.log(trace * scale + s) - math.log(2 * scale)
