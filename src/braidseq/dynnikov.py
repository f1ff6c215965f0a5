"""Entropy estimation and the word-problem oracle via the integral
piecewise-linear action on coordinatized curve systems.

The action is exact integer arithmetic (see ``_fan``); the entropy of a
braid is the exponential growth rate of the coordinates of an essential
curve system under iteration, extracted with geometric-sequence (Aitken)
acceleration.  The estimator is commissioned against the exact 3-braid
oracle in the test suite.
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

    def norm(self) -> int:
        return sum(abs(x) for x in self.a) + sum(abs(x) for x in self.b)


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


def _make_engine(word: BraidWord, seed: CurveCoordinates):
    n = word.degree
    vec = _fan.decode(n, seed.a, seed.b)
    programs = _fan.letter_programs(n)
    return PureEngine(vec, word.letters, programs)


ZERO_FLOOR = 1e-7                       # below any pA entropy at desk scale


def entropy_estimate(word: BraidWord, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     seed: CurveCoordinates | None = None) -> EntropyEstimate:
    """Growth rate log(lambda) of the braid's action on a seed curve system.

    Iterates the exact action and accelerates the log-norm increments, both
    per step and averaged over windows (the latter damps the oscillating
    transients of barely-stretching braids).  An estimate of zero is only
    accepted when the orbit literally repeats, which certifies a periodic
    mapping class; otherwise zero-looking estimates keep iterating.
    Non-convergence is reported, not raised; it signals reducible-dominated
    growth or an insufficient budget.
    """
    if word.spherical:
        raise ValueError("estimator acts on disk braids; compare via shift")
    n = word.degree
    if n < 3:
        return EntropyEstimate(0.0, 0, 0.0, 0.0, True)
    if seed is None:
        seed = default_seed(n)
    if seed.is_zero():
        raise ValueError("seed curve system is empty")
    engine = _make_engine(word, seed)
    lognorms = [engine.lognorm()]
    last_delta = math.inf
    best = 0.0
    chunk = 16
    w = 16
    while engine.iterations < max_iter:
        todo = min(chunk, max_iter - engine.iterations)
        lognorms.extend(engine.advance(todo))
        if engine.periodic_at is not None:
            return EntropyEstimate(0.0, engine.iterations, 0.0,
                                   engine.scale_bits * math.log(2.0), True)
        raw = [lognorms[k + 1] - lognorms[k] for k in range(len(lognorms) - 1)]
        verdicts = []
        acc = _aitken(raw)
        if len(acc) >= 3 and len(raw) >= 8:
            verdicts.append((abs(acc[-1] - acc[-2]), abs(acc[-2] - acc[-3]),
                             acc[-1]))
        thin = [(lognorms[j * w] - lognorms[(j - 1) * w]) / w
                for j in range(1, len(lognorms) // w + 1)
                if j * w < len(lognorms) + 1]
        tacc = _aitken(thin)
        if len(tacc) >= 3:
            verdicts.append((abs(tacc[-1] - tacc[-2]),
                             abs(tacc[-2] - tacc[-3]), tacc[-1]))
        for d1, d2, value in verdicts:
            last_delta = min(last_delta, d1)
            best = value
            if d1 < tol and d2 < tol and value > ZERO_FLOOR:
                return EntropyEstimate(value, engine.iterations, d1,
                                       engine.scale_bits * math.log(2.0),
                                       True)
    # best effort: growth over the later half of the run
    half = len(lognorms) // 2
    if len(lognorms) - 1 > half:
        best = (lognorms[-1] - lognorms[half]) / (len(lognorms) - 1 - half)
    return EntropyEstimate(max(best, 0.0), engine.iterations, last_delta,
                           engine.scale_bits * math.log(2.0), False)


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
    """Curves around every consecutive puncture block, plus fixed probes."""
    suite = []
    for lo in range(1, n):
        for hi in range(lo + 1, n + 1):
            if lo == 1 and hi == n:
                continue                 # boundary-parallel, coordinates zero
            suite.append((f"curve around {{{lo}..{hi}}}",
                          round_curve(n, lo, hi)))
    rng = _SplitMix(0x9E3779B97F4A7C15 ^ n)
    for t in range(4):
        a = tuple(rng.next_int(-6, 6) for _ in range(n - 2))
        b = tuple(rng.next_int(-6, 6) for _ in range(n - 2))
        suite.append((f"probe system #{t}", CurveCoordinates(a, b)))
    return suite


def braids_equal(b: BraidWord, c: BraidWord) -> EqualityVerdict:
    """Word-problem verdict: compares permutations, exponent sums and the
    action on the curve suite; ``distinct`` comes with a witness."""
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


class _SplitMix:
    """Tiny deterministic generator for reproducible probe systems."""

    def __init__(self, state: int):
        self.state = state & 0xFFFFFFFFFFFFFFFF

    def next_int(self, lo: int, hi: int) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        z = z ^ (z >> 31)
        return lo + z % (hi - lo + 1)
