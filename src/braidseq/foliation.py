"""Boundary slopes, torus intersection numbers, prong counts, closed-orbit
class composition, puncture-fill validity, and the Penner bound.

Closed-orbit classes are not computed from first principles; the module
ships a preset for the 3-braid s1^-1 s2^2 s1^-1 s2^2 together with the
composition rule for full twists, and accepts user-supplied orbit data.
"""

from __future__ import annotations

import math
from math import gcd

from .words import Record


class TorusClass(Record):
    """Homology class of curves on a boundary torus, meridian-longitude basis."""

    _fields = ("p", "q")

    def __init__(self, p: int, q: int):
        self.__dict__.update(p=p, q=q)

    def __add__(self, other: "TorusClass") -> "TorusClass":
        return TorusClass(self.p + other.p, self.q + other.q)


class OrbitData(Record):
    """Closed-orbit classes on the axis torus and the strand torus.

    Every closed orbit travels around the flow direction, so the axis class
    has nonzero meridian coordinate and the strand class nonzero longitude
    coordinate.
    """

    _fields = ("c_axis", "c_strand")

    def __init__(self, c_axis: TorusClass, c_strand: TorusClass):
        if c_axis.p == 0:
            raise ValueError("axis orbit class needs meridian coordinate != 0")
        if c_strand.q == 0:
            raise ValueError("strand orbit class needs longitude coordinate != 0")
        self.__dict__.update(c_axis=c_axis, c_strand=c_strand)


#: closed-orbit classes for b = s1^-1 s2^2 s1^-1 s2^2 in B_3 (3-increasing,
#: u = 2), read off its train track: [c_A] = (1,0), [c_3] = (2,1).
PRESET_SIGMA1I_SQ = OrbitData(TorusClass(1, 0), TorusClass(2, 1))

PRESETS = {"sigma1i-sq": PRESET_SIGMA1I_SQ}


def boundary_slopes(epsilon: int, x: int, y: int) -> tuple[TorusClass, TorusClass]:
    """Boundary classes of the fiber of the primitive class (x, y) of the
    cone: axis (-eps*y, x), strand (-eps*x, y)."""
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +-1")
    if gcd(x, y) != 1:
        raise ValueError(f"({x}, {y}) is not primitive")
    if x < 1 or y < 0:
        raise ValueError("need x >= 1 and y >= 0")
    return TorusClass(-epsilon * y, x), TorusClass(-epsilon * x, y)


def torus_intersection(a: TorusClass, b: TorusClass) -> int:
    """Geometric intersection number |p q' - p' q| on the torus."""
    return abs(a.p * b.q - b.p * a.q)


def prong_counts(orbit: OrbitData, epsilon: int, x: int, y: int) -> tuple[int, int]:
    """Prong counts of the stable foliation at the two boundary tori.

    The foliation of the class (x, y) is i([c], [slope])-pronged at each
    boundary, with the slopes from the orientation convention.  A zero
    count raises: a pseudo-Anosov foliation has a prong at each boundary.
    """
    axis_slope, strand_slope = boundary_slopes(epsilon, x, y)
    counts = (torus_intersection(orbit.c_axis, axis_slope),
              torus_intersection(orbit.c_strand, strand_slope))
    if 0 in counts:
        raise ValueError("prong count must be >= 1")
    return counts


def compose_orbit_full_twist(orbit: OrbitData, k: int) -> OrbitData:
    """Orbit classes of b*Delta^{2k}: the twist adds (0,k) on the axis torus
    and (k,0) on the strand torus."""
    if k < 1:
        raise ValueError("full twist power must be >= 1")
    return OrbitData(orbit.c_axis + TorusClass(0, k),
                     orbit.c_strand + TorusClass(k, 0))


def puncture_fill_validity(prongs: int) -> str:
    """'safe' when filling the boundary keeps the pA type and dilatation.

    Filling a 1-pronged boundary destroys the foliation; two or more prongs
    extend over the disk.
    """
    if prongs < 1:
        raise ValueError("prong count must be >= 1")
    return "safe" if prongs >= 2 else "unsafe"


def penner_bound(g: int, n: int) -> float:
    """log 2 / (12g - 12 + 4n): universal dilatation floor on Sigma_{g,n}."""
    denom = 12 * g - 12 + 4 * n
    if denom <= 0:
        raise ValueError("surface admits no pseudo-Anosov bound "
                         f"(12g - 12 + 4n = {denom} <= 0)")
    return math.log(2) / denom


def braid_penner_floor(degree: int) -> float:
    """Penner floor for a degree-n braid, acting on the (n+1)-punctured sphere."""
    return penner_bound(0, degree + 1)
