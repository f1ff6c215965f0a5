"""Entropy estimation and the word-problem oracle via the integral
piecewise-linear action on coordinatized curve systems.

The action is exact integer arithmetic (see ``_fan``); the entropy of a
braid is the exponential growth rate of the coordinates of an essential
curve system under iteration.  The action is piecewise linear, and once
the branches of its passes cycle with period p, p passes of the word are
one integer matrix; the dilatation is certified from an eigenvector of that
matrix that is a measured lamination, which the full action of w^p
stretches by lambda^p.  The estimator is checked against the exact 3-braid
oracle and against 40-digit linear-piece references in the test suite.  Two braids are equal when
their permutations and exponent sums agree and they move each of two
multicurves to the same multicurve: the curves around adjacent punctures
{i, i+1} for odd i, and those for even i.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

from . import _fan
from ._kernel_py import PureEngine
from .words import BraidWord, Record

_CEngine = None                         # read by perfbench/spans.py

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITER = 512


class CurveCoordinates(Record):
    """Coordinates of a curve system on the n-punctured disk.

    Two integer sequences of length n-2: ``a[i]`` is half the difference of
    the crossing counts with the up/down rays at puncture i+2, ``b[i]`` half
    the difference of crossings with consecutive walls.  The zero vector is
    the empty system.  Entries must be integers (``operator.index``); a
    float, string or fraction raises ``ValueError``.
    """

    _fields = ("a", "b")

    def __init__(self, a: tuple[int, ...], b: tuple[int, ...]):
        if len(a) != len(b):
            raise ValueError("a and b must have equal length")
        try:
            a_int = tuple(map(operator.index, a))
            b_int = tuple(map(operator.index, b))
        except TypeError:
            raise ValueError("curve coordinates must be integers, got "
                             f"a={a!r}, b={b!r}") from None
        self.__dict__.update(a=a_int, b=b_int)

    @property
    def degree(self) -> int:
        return len(self.a) + 2

    def is_zero(self) -> bool:
        return not any(self.a) and not any(self.b)


def round_curve(n: int, lo: int, hi: int) -> CurveCoordinates:
    """The curve enclosing punctures lo..hi (consecutive block)."""
    if not 1 <= lo < hi <= n:
        raise ValueError("need 1 <= lo < hi <= degree")
    b = [0] * (n - 2)
    if lo >= 2:
        b[lo - 2] -= 1
    if hi <= n - 1:
        b[hi - 2] += 1
    return CurveCoordinates((0,) * (n - 2), tuple(b))


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
        raise ValueError(
            f"coordinates for degree {coords.degree}, braid degree {n}")
    vec = _fan.decode(n, coords.a, coords.b)
    _fan.apply_word(vec, word.letters, _fan.letter_programs(n))
    a, b = _fan.encode(n, vec)
    return CurveCoordinates(a, b)


class EntropyEstimate(Record):
    """Growth-rate value with iteration diagnostics.

    ``method`` says what decided a converged value: ``linear_piece`` (an
    eigenvector certificate of the linear piece of a cycle of ``cycle``
    passes), ``periodic`` (a return of the orbit to its seed) or ``none``
    (not converged: the value is the growth over the later half of the
    run).  ``cycle`` is None unless the method is ``linear_piece``.
    ``last_delta`` is the certificate's relative residual, 0.0 for a
    periodic orbit, and otherwise the change between the last two per-pass
    growth rates.  ``converged`` is ``method != "none"``, and ``kernel``
    names the one engine, ``PureEngine``.
    """

    _fields = ("value", "iterations", "last_delta", "method", "cycle")
    kernel = "pure"

    def __init__(self, value: float, iterations: int, last_delta: float,
                 method: str, cycle: int | None = None):
        self.__dict__.update(value=value, iterations=iterations,
                             last_delta=last_delta, method=method, cycle=cycle)

    @property
    def converged(self) -> bool:
        return self.method != "none"


def check_budget(tol: float, max_iter: int) -> None:
    """The estimator's budget rule: a finite tol > 0 and max_iter >= 1."""
    if max_iter < 1 or not 0 < tol < math.inf:
        raise ValueError(f"need a finite tol > 0, max_iter >= 1; got {tol}, {max_iter}")


def entropy_estimate(word: BraidWord, tol: float = DEFAULT_TOL,
                     max_iter: int = DEFAULT_MAX_ITER,
                     seed: CurveCoordinates | None = None) -> EntropyEstimate:
    """Growth rate log(lambda) of the braid's action on a seed curve system.

    Iterates the exact action one pass at a time, never rounded.  The flip
    rule is piecewise linear; once a pass takes the same branches as the
    pass p <= ``_kernel_py.MAX_CYCLE`` passes before it (the smallest such
    p), p runs of the word's one compiled pass on the cells of the last p
    branch lists are one integer matrix M, and ``_certify`` looks for an
    eigenvector of M, near the iterate, that is a measured lamination and
    that the p full piecewise-linear runs stretch by lambda_p > 1
    (Bestvina-Handel, *Topology* 1995; Hall-Yurttas, *Topol. Appl.* 2009).
    For a pseudo-Anosov class log(lambda_p)/p is then the entropy; for a
    reducible class it is the entropy of one pseudo-Anosov component, a
    lower bound.  Only such a certificate, or a return of the orbit to its
    seed (zero entropy, a periodic class), makes an estimate converged.  A
    cycle is looked for only at passes where an attempt is due: a failed
    certificate is tried again after 1, 2, 4, ... further passes, so a word
    that cannot be certified costs O(log max_iter) factorizations; an
    attempt over passes that left the norm unchanged fails without one.
    Non-convergence is reported, not raised; it signals reducible-dominated
    growth or an insufficient budget.
    """
    check_budget(tol, max_iter)
    if word.spherical:
        raise ValueError("estimator acts on disk braids; compare via shift")
    n = word.degree
    if n < 3:
        return EntropyEstimate(0.0, 0, 0.0, "periodic")
    if seed is None:
        seed = default_seed(n)
    if seed.is_zero():
        raise ValueError("seed curve system is empty")
    engine = PureEngine(_fan.decode(n, seed.a, seed.b), word.letters,
                        _fan.letter_programs(n))
    lognorms = [engine.lognorm()]
    retry_at, wait = 0, 1
    while engine.iterations < max_iter:
        lognorms += engine.advance(1)
        if engine.periodic_at is not None:
            return EntropyEstimate(0.0, engine.iterations, 0.0, "periodic")
        cells = engine.cycle() if engine.iterations >= retry_at else None
        if cells is not None:
            p = len(cells)
            growth = math.exp(lognorms[-1] - lognorms[-1 - p])
            found = _certify(engine.vals, engine.program, cells, n, growth, tol)
            if found is not None:
                lam, residual = found
                return EntropyEstimate(math.log(lam) / p, engine.iterations,
                                       residual, "linear_piece", p)
            retry_at, wait = engine.iterations + wait, 2 * wait
    # best effort: growth over the later half of the run
    best, last_delta = 0.0, math.inf
    half = len(lognorms) // 2
    if len(lognorms) - 1 > half:
        best = (lognorms[-1] - lognorms[half]) / (len(lognorms) - 1 - half)
    if len(lognorms) >= 3:
        a, b, c = lognorms[-3:]
        last_delta = abs((c - b) - (b - a))
    return EntropyEstimate(max(best, 0.0), engine.iterations, last_delta, "none")


def _certify(vals: list[int], program, cells: list[list[bool]], n: int,
             sigma: float, tol: float) -> tuple[float, float] | None:
    """(lambda, relative residual) certified for ``len(cells)`` runs of the
    compiled pass ``program`` from the iterate ``vals``, or None.

    M is ``_fan.pass_matrix`` of the runs on ``cells``, the branch lists
    their flips are expected to take: for a cycle of p passes, its last p.
    Shift-and-invert from the float-scaled iterate refines an eigenvector x
    of M, starting at the shift ``sigma`` and moving the shift to the
    stretch ratio of the refined vector after each solve.  With x scaled to
    max |x| = 1 and the gate min(tol, max(1e-12, 1e-15 |M|_inf)), lambda is
    accepted when x >= -gate, the weights of x on every triangle of the fan
    satisfy the triangle inequalities up to the gate, lambda > 1, and the
    runs of the full pass (``_fan.run_steps`` on floats, which also check
    that x lies in the cells) stretch x by lambda with a relative
    residual at most the gate.  Then x is, up to the gate, a projectively
    invariant measured lamination stretched by lambda: for a pseudo-Anosov
    class it is the unstable foliation and log(lambda) the entropy; for a
    reducible class lambda is the dilatation of one pseudo-Anosov
    component, a lower bound for the entropy.  The gate scales with |M|,
    since float rounding in the pass grows with the size of its entries.
    A vector the pass fixes shows a residual of about lambda - 1, so
    lambda > 1 is only resolved when lambda - 1 exceeds twice the gate.
    An attempt stops once a solve fails to cut the residual eightfold.
    At sigma = 1.0, a pass that left the norm unchanged, the attempt fails
    at once: the solve there is drawn to a vector the pass fixes.
    """
    if sigma == 1.0:
        return None
    m = _fan.pass_matrix(len(vals), program, cells)
    norm = max(sum(map(abs, row)) for row in m)
    gate = min(tol, max(1e-12, 1e-15 * norm))
    rows = [list(map(float, row)) for row in m]
    shift = max(0, max(vals).bit_length() - 60)
    x = [float(v >> shift) for v in vals]
    last = math.inf
    while True:                 # ends: each solve cuts the residual eightfold
        y = _shifted_solve(rows, sigma, x, 1e-16 * norm)
        top = max(y, key=abs)
        if not top:
            return None
        x = [t / top for t in y]
        total = sum(x)
        if not total > 0:
            return None
        z = list(x)
        for _ in cells:
            _fan.run_steps(z, program)
        lam = sum(z) / total
        if not lam - 1 > 2 * gate:
            return None
        residual = max(abs(u - lam * t) for u, t in zip(z, x)) / lam
        if residual <= gate and min(x) >= -gate and all(
                x[p] + x[q] + x[r] + gate >= 2 * max(x[p], x[q], x[r])
                for p, q, r in _fan.triangles(n)):
            return lam, residual
        if not residual < last / 8:
            return None
        last, sigma = residual, lam


def _shifted_solve(rows: list[list[float]], sigma: float,
                   rhs: list[float], tiny: float) -> list[float]:
    """Solve (M - sigma I) y = rhs, with ``rows`` the rows of M: one LU
    factorization with partial pivoting, done as Gaussian elimination on
    the augmented matrix, updating only where the pivot row is nonzero.
    A zero pivot is nudged to ``tiny``."""
    size = len(rows)
    a = [row + [r] for row, r in zip(rows, rhs)]
    for k in range(size):
        a[k][k] -= sigma
    for k in range(size):
        col = [abs(row[k]) for row in a[k:]]
        p = k + col.index(max(col))
        a[k], a[p] = a[p], a[k]
        pivot_row = a[k]
        pivot = pivot_row[k] = pivot_row[k] or tiny
        tail = [(j, v) for j, v in enumerate(pivot_row[k + 1:], k + 1) if v]
        for row in a[k + 1:]:
            f = row[k]
            if f:
                f /= pivot
                for j, v in tail:
                    row[j] -= f * v
    y = [0.0] * size
    for k in range(size - 1, -1, -1):
        row = a[k]
        y[k] = (row[size] - sum([u * v for u, v in zip(row[k + 1:size], y[k + 1:])])) / row[k]
    return y


class EqualityVerdict(Record):
    _fields = ("equal", "witness")

    def __init__(self, equal: bool, witness: str | None = None):
        self.__dict__.update(equal=equal, witness=witness)

    def __bool__(self) -> bool:
        return self.equal


def curve_suite(n: int) -> list[tuple[str, CurveCoordinates]]:
    """The two multicurves made of disjoint curves around adjacent punctures
    {i, i+1}: one for odd i, one for even i.  Coordinates add over disjoint
    curves, so their charts are a = 0, b_k = (-1)^k and its negation."""
    zero = (0,) * (n - 2)
    odd = tuple((-1) ** k for k in range(n - 2))
    return [("curves around {i, i+1}, i odd", CurveCoordinates(zero, odd)),
            ("curves around {i, i+1}, i even",
             CurveCoordinates(zero, tuple(-x for x in odd)))]


@lru_cache(maxsize=None)
def _suite_vectors(n: int) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """``curve_suite(n)`` as (name, edge vector) pairs, decoded once per
    degree, on first use."""
    return tuple((name, tuple(_fan.decode(n, coords.a, coords.b)))
                 for name, coords in curve_suite(n))


def _image(n: int, program, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Chart of the image of the edge vector ``vec`` under a compiled pass."""
    vals = list(vec)
    _fan.run_steps(vals, program)
    return _fan.encode(n, vals)


def braids_equal(b: BraidWord, c: BraidWord) -> EqualityVerdict:
    """Word-problem verdict: compares permutations, exponent sums and the
    action on the two multicurves of ``curve_suite``; ``distinct`` comes
    with a witness.

    Suppose ``b`` and ``c`` have equal permutations and move both
    multicurves alike, so that c^-1 b fixes both.  Equal permutations make
    c^-1 b a pure braid.  A pure braid maps a curve around {i, i+1} to a
    curve around {i, i+1}; the components of each multicurve enclose
    distinct pairs, so a pure braid that fixes the multicurve fixes each
    component.  So c^-1 b fixes all n-1 curves around adjacent punctures.
    These fill the disk and no three of them pairwise intersect.  By the
    Alexander method (Farb-Margalit, *A Primer on Mapping Class Groups*,
    Prop. 2.8), c^-1 b is then a finite-order class of the sphere that has
    the n punctures and the collapsed boundary as punctures and fixes each
    of them.  For n >= 3 that is at least 4 fixed punctures, while a
    nontrivial finite-order class of the sphere fixes at most 2; so the
    class is trivial there and c^-1 b is central in B_n, Delta^{2k}.  Equal
    exponent sums force k = 0.  For n = 2 the only adjacent curve is
    boundary-parallel and the exponent sum decides.  Two spherical words
    raise ``ValueError``: the argument decides disk braids, and a word that
    is trivial in SB_n, such as s1 s2 s2 s1 in SB_3, moves disk curves.

    Each word's pass is compiled once and run on both multicurves, whose
    edge vectors are decoded once per degree; the images are compared in
    the chart, so ``_fan.encode`` checks the parity of every image.
    """
    if b.degree != c.degree or b.spherical != c.spherical:
        return EqualityVerdict(False, "degree or sphericity mismatch")
    if b.spherical:
        raise ValueError("the curve suite decides disk braids; "
                         "spherical words are not supported")
    if b.permutation() != c.permutation():
        return EqualityVerdict(False, "permutations differ")
    if b.exponent_sum() != c.exponent_sum():
        return EqualityVerdict(False, "exponent sums differ")
    if b.degree == 2:
        return EqualityVerdict(True)    # exponent sum decides B_2
    n = b.degree
    suite = _suite_vectors(n)
    programs = _fan.letter_programs(n)
    size = len(suite[0][1])
    left, right = (_fan.compile_pass(size, w.letters, programs) for w in (b, c))
    for name, vec in suite:
        if _image(n, left, vec) != _image(n, right, vec):
            return EqualityVerdict(False, name)
    return EqualityVerdict(True)
