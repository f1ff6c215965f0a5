"""Entropy estimation and the word-problem oracle via the integral
piecewise-linear action on coordinatized curve systems.

The action is exact integer arithmetic (see ``_fan``); the entropy of a
braid is the exponential growth rate of the coordinates of an essential
curve system under iteration, extracted with geometric-sequence (Aitken)
acceleration.  The estimator is commissioned against the exact 3-braid
oracle in the test suite.  Two braids are equal when their permutations
and exponent sums agree and they move each of the n-1 curves around
adjacent punctures to the same curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _fan
from ._kernel_py import PureEngine
from .words import BraidWord, DegreeMismatch

_CEngine = None                         # read by perfbench/spans.py

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 512


@dataclass(frozen=True)
class CurveCoordinates:
    """Coordinates of a curve system on the n-punctured disk.

    Two integer sequences of length n-2: ``a[i]`` is half the difference of
    the crossing counts with the up/down rays at puncture i+2, ``b[i]`` half
    the difference of crossings with consecutive walls.  The zero vector is
    the empty system.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise ValueError("a and b must have equal length")
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        object.__setattr__(self, "b", tuple(int(x) for x in self.b))

    @property
    def degree(self) -> int:
        return len(self.a) + 2

    def is_zero(self) -> bool:
        return not any(self.a) and not any(self.b)


def round_curve(n: int, lo: int, hi: int) -> CurveCoordinates:
    """The curve enclosing punctures lo..hi (consecutive block)."""
    a, b = _fan.round_curve_vector(n, lo, hi)
    return CurveCoordinates(a, b)


def default_seed(n: int) -> CurveCoordinates:
    """The curve enclosing punctures {1, 2}."""
    return round_curve(n, 1, 2)


def nested_seed(n: int) -> CurveCoordinates:
    """Disjoint union of the nested curves around {1..k}, k = 2..n-1."""
    a = (0,) * (n - 2)
    b = (1,) * (n - 2)
    return CurveCoordinates(a, b)


def act(word: BraidWord, coords: CurveCoordinates) -> CurveCoordinates:
    """Image of a curve system under the braid; exact integers.

    The rightmost letter acts first, matching the permutation convention.
    """
    n = word.degree
    if coords.degree != n:
        raise DegreeMismatch(
            f"coordinates for degree {coords.degree}, braid degree {n}")
    vec = _fan.decode(n, coords.a, coords.b)
    _fan.apply_word(vec, word.letters, _fan.letter_programs(n))
    a, b = _fan.encode(n, vec)
    return CurveCoordinates(a, b)


@dataclass(frozen=True)
class EntropyEstimate:
    """Converged growth-rate value with iteration diagnostics."""

    value: float
    iterations: int
    last_delta: float
    accumulated_scale: float
    converged: bool
    kernel: str = "pure"

    def require_converged(self) -> "EntropyEstimate":
        if not self.converged:
            raise EstimatorDiverged(
                f"no convergence after {self.iterations} iterations "
                f"(last delta {self.last_delta:.3e})")
        return self


class EstimatorDiverged(RuntimeError):
    """Estimate did not converge within the iteration budget."""


ZERO_FLOOR = 1e-7                       # below any pA entropy at desk scale
CHUNK = 16                              # passes per check and per window


def entropy_estimate(word: BraidWord, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     seed: CurveCoordinates | None = None) -> EntropyEstimate:
    """Growth rate log(lambda) of the braid's action on a seed curve system.

    Iterates the exact action and accelerates the log-norm increments, both
    per pass and averaged over ``CHUNK``-pass windows (the latter damps the
    oscillating transients of barely-stretching braids).  After each chunk
    the last five rates of either kind decide convergence.  An estimate of
    zero is only accepted when the orbit returns to its seed, which
    certifies a periodic mapping class; otherwise zero-looking estimates keep
    iterating.  Non-convergence is reported, not raised; it signals
    reducible-dominated growth or an insufficient budget.
    """
    if max_iter < 1 or not tol > 0:
        raise ValueError(f"need max_iter >= 1 and tol > 0; "
                         f"got max_iter={max_iter}, tol={tol}")
    if word.spherical:
        raise ValueError("estimator acts on disk braids; compare via shift")
    n = word.degree
    if n < 3:
        return EntropyEstimate(0.0, 0, 0.0, 0.0, True)
    if seed is None:
        seed = default_seed(n)
    if seed.is_zero():
        raise ValueError("seed curve system is empty")
    engine = PureEngine(_fan.decode(n, seed.a, seed.b), word.letters,
                        _fan.letter_programs(n))
    lognorms = [engine.lognorm()]
    windows: list[float] = []
    last_delta = math.inf
    while engine.iterations < max_iter:
        start = lognorms[-1]
        todo = min(CHUNK, max_iter - engine.iterations)
        lognorms.extend(engine.advance(todo))
        if engine.periodic_at is not None:
            return EntropyEstimate(0.0, engine.iterations, 0.0,
                                   engine.scale_bits * math.log(2.0), True)
        if todo == CHUNK:
            windows.append((lognorms[-1] - start) / CHUNK)
        tails = []
        if engine.iterations >= 8:
            tail = lognorms[-6:]
            tails.append([b - a for a, b in zip(tail, tail[1:])])
        if len(windows) >= 5:
            tails.append(windows[-5:])
        for d1, d2, value in map(_verdict, tails):
            last_delta = min(last_delta, d1)
            if d1 < tol and d2 < tol and value > ZERO_FLOOR:
                return EntropyEstimate(value, engine.iterations, d1,
                                       engine.scale_bits * math.log(2.0),
                                       True)
    # best effort: growth over the later half of the run
    best = 0.0
    half = len(lognorms) // 2
    if len(lognorms) - 1 > half:
        best = (lognorms[-1] - lognorms[half]) / (len(lognorms) - 1 - half)
    return EntropyEstimate(max(best, 0.0), engine.iterations, last_delta,
                           engine.scale_bits * math.log(2.0), False)


def _verdict(rates: list[float]) -> tuple[float, float, float]:
    """Last two steps and last value of the Aitken sequence of five rates."""
    a0, a1, a2 = _aitken(rates)
    return abs(a2 - a1), abs(a1 - a0), a2


def _aitken(raw: list[float]) -> list[float]:
    """Aitken delta-squared acceleration of the raw estimate sequence."""
    out = []
    for k in range(2, len(raw)):
        d1 = raw[k - 1] - raw[k - 2]
        d2 = raw[k] - raw[k - 1]
        denom = d2 - d1
        if abs(denom) > 1e-14 * (abs(d1) + abs(d2) + 1e-300):
            out.append(raw[k] - d2 * d2 / denom)
        else:
            out.append(raw[k])
    return out


def normalized_entropy(word: BraidWord, tol: float = DEFAULT_TOL,
                       max_iter: int = DEFAULT_MAX_ITER) -> float:
    """(n - 1) * log(lambda) for a degree-n braid; raises on divergence."""
    est = entropy_estimate(word, tol=tol, max_iter=max_iter)
    est.require_converged()
    return (word.degree - 1) * est.value


@dataclass(frozen=True)
class EqualityVerdict:
    equal: bool
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.equal


def curve_suite(n: int) -> list[tuple[str, CurveCoordinates]]:
    """The n-1 curves around adjacent punctures {i, i+1}."""
    return [(f"curve around {{{i}..{i + 1}}}", round_curve(n, i, i + 1))
            for i in range(1, n)]


def braids_equal(b: BraidWord, c: BraidWord) -> EqualityVerdict:
    """Word-problem verdict: compares permutations, exponent sums and the
    action on the curve suite; ``distinct`` comes with a witness.

    The adjacent curves of ``curve_suite`` fill the disk and no three of
    them pairwise intersect.  By the Alexander method (Farb-Margalit,
    *A Primer on Mapping Class Groups*, Prop. 2.8), if ``b c^-1`` fixes
    all of them, it is a finite-order class of the sphere that has the n
    punctures and the collapsed boundary as punctures and fixes each of
    them.  For n >= 3 that is at least 4 fixed punctures, while a
    nontrivial finite-order class of the sphere fixes at most 2; so the
    class is trivial there and ``b c^-1`` is central in B_n, Delta^{2k}.
    Equal exponent sums force k = 0.  For n = 2 the only adjacent curve is
    boundary-parallel and the exponent sum decides.
    """
    if b.degree != c.degree or b.spherical != c.spherical:
        return EqualityVerdict(False, "degree or sphericity mismatch")
    if b.permutation() != c.permutation():
        return EqualityVerdict(False, "permutations differ")
    if b.exponent_sum() != c.exponent_sum():
        return EqualityVerdict(False, "exponent sums differ")
    if b.degree == 2:
        return EqualityVerdict(True)    # exponent sum decides B_2
    for name, coords in curve_suite(b.degree):
        if act(b, coords) != act(c, coords):
            return EqualityVerdict(False, name)
    return EqualityVerdict(True)
