"""Integral-class arithmetic on the 2-dimensional subcone spanned by the
fiber class and the disk class: Thurston norm, the two pushforward
isomorphisms, and normalized entropy of classes.
"""

from __future__ import annotations

from math import gcd

from . import dynnikov
from .standard import StandardForm, class_to_braid, odd_continued_fraction, TwistProgram
from .words import Record


class ConeClass(Record):
    """Integer class x*[F] + y*[E]."""

    _fields = ("x", "y")

    def __init__(self, x: int, y: int):
        self.__dict__.update(x=x, y=y)

    def is_interior(self) -> bool:
        return self.x > 0 and self.y > 0

    def is_primitive(self) -> bool:
        return gcd(self.x, self.y) == 1

    def primitive(self) -> tuple["ConeClass", int]:
        """The primitive class on the same ray and the multiplicity."""
        g = gcd(self.x, self.y)
        if g == 0:
            raise ValueError("zero class has no primitive representative")
        return ConeClass(self.x // g, self.y // g), g


class ConeContext(Record):
    """Seed data (n, u) fixing the cone's norm."""

    _fields = ("n", "u")

    def __init__(self, n: int, u: int):
        if n < 3 or u < 1:
            raise ValueError("need n >= 3, u >= 1")
        self.__dict__.update(n=n, u=u)

    @staticmethod
    def of_seed(sf: StandardForm) -> "ConeContext":
        return ConeContext(sf.degree, sf.u)


def thurston_norm(ctx: ConeContext, c: ConeClass) -> int:
    """(n-1)x + u*y; the norm is linear on the closed cone."""
    if c.x < 0 or c.y < 0 or (c.x == 0 and c.y == 0):
        raise ValueError("norm is computed on nonzero classes of the "
                         "closed cone (x, y >= 0)")
    return (ctx.n - 1) * c.x + ctx.u * c.y


def pushforward_disk_twist(p: int, c: ConeClass) -> ConeClass:
    """Linear map fixed by (0,1) -> (0,1) and (1,p) -> (1,0)."""
    return ConeClass(c.x, c.y - p * c.x)


def pushforward_full_twist(k: int, c: ConeClass) -> ConeClass:
    """Linear map fixed by (1,0) -> (1,0) and (k,1) -> (0,1)."""
    return ConeClass(c.x - k * c.y, c.y)


def fiber_class_of_program(prog: TwistProgram) -> ConeClass:
    """The primitive class whose monodromy braid the program constructs.

    Inverse of the odd continued fraction: evaluating the program as a
    continued fraction y/x recovers (x, y).
    """
    if len(prog) % 2 == 0:
        raise ValueError("twist programs of fiber classes have odd length")
    val = prog.value()
    c = ConeClass(val.denominator, val.numerator)
    if odd_continued_fraction(c.x, c.y).entries != prog.entries:
        raise ValueError(f"program {prog.entries} is not an odd expansion")
    return c


def normalized_entropy_of_class(ctx: ConeContext, seed: StandardForm,
                                c: ConeClass,
                                tol: float = dynnikov.DEFAULT_TOL,
                                max_iter: int = dynnikov.DEFAULT_MAX_ITER) -> float:
    """Thurston norm times entropy of the class's monodromy braid.

    Non-primitive classes are reduced to the primitive representative first
    (the value is constant on rays).  Agreement with (degree-1)*log(lambda)
    of the constructed braid is automatic through the degree law.
    """
    prim, _ = c.primitive()
    if not prim.is_interior() and prim.y != 0:
        raise ValueError("class must lie in the closed cone with x >= 1")
    sf = class_to_braid(seed, prim.x, prim.y)
    word = sf.to_braid_word()
    est = dynnikov.entropy_estimate(word, tol=tol, max_iter=max_iter)
    est.require_converged()
    norm = thurston_norm(ctx, prim)
    if norm != word.degree - 1:
        raise AssertionError("norm covariance violated")
    return norm * est.value
