"""Cone-class arithmetic: the Thurston norm on the cone, the pushforward
isomorphisms of the twist steps, and the odd continued fraction as the
composite of those pushforwards."""

import math
from math import gcd

import pytest

from braidseq.dynnikov import entropy_estimate
from braidseq.standard import (StandardForm, class_to_braid, disk_twist_step,
                               full_twist_step, odd_continued_fraction,
                               thurston_norm)

SEED_31 = StandardForm(3, ((-1,),))
SEED_32 = StandardForm(3, ((-1,), (-1,)))


def test_norm_basis_values():
    assert thurston_norm(3, 2, 1, 0) == 2
    assert thurston_norm(3, 2, 0, 1) == 2
    assert thurston_norm(3, 2, 1, 1) == 4


def test_norm_rejects_zero_and_negative():
    with pytest.raises(ValueError, match="closed cone"):
        thurston_norm(3, 2, 0, 0)
    with pytest.raises(ValueError, match="closed cone"):
        thurston_norm(3, 2, -1, 2)


def test_context_validation():
    with pytest.raises(ValueError, match="need n >= 3, u >= 1"):
        thurston_norm(2, 1, 1, 1)
    with pytest.raises(ValueError, match="need n >= 3, u >= 1"):
        thurston_norm(3, 0, 1, 1)


# The disk-twist step's pushforward sends the class (x, y) over b to
# (x, y - p*x) over b[p]; the full-twist step's sends (x, y) over b to
# (x - k*y, y) over b*Delta^2k.  Each pair is one fibered class, so both
# give the same monodromy braid.

def test_disk_twist_pushforward_examples():
    for seed in (SEED_31, SEED_32):
        for p, (x, y) in [(2, (3, 7)), (1, (1, 1)), (3, (1, 3)), (2, (5, 14))]:
            assert (class_to_braid(seed, x, y)
                    == class_to_braid(disk_twist_step(seed, p), x, y - p * x))


def test_full_twist_pushforward_examples():
    for seed in (SEED_31, SEED_32):
        for k, (x, y) in [(2, (7, 3)), (1, (3, 2)), (3, (13, 4)), (2, (14, 5))]:
            assert (class_to_braid(seed, x, y)
                    == class_to_braid(full_twist_step(seed, k), x - k * y, y))


def test_pushforwards_unimodular_and_primitive():
    # every primitive class maps to a primitive class with the same braid
    for x in range(1, 13):
        for y in range(1, 13):
            if gcd(x, y) != 1:
                continue
            braid = class_to_braid(SEED_32, x, y)
            for p in range(1, y // x + 1):
                assert gcd(x, y - p * x) == 1
                assert braid == class_to_braid(disk_twist_step(SEED_32, p),
                                               x, y - p * x)
            for k in range(1, (x - 1) // y + 1):
                assert gcd(x - k * y, y) == 1
                assert braid == class_to_braid(full_twist_step(SEED_32, k),
                                               x - k * y, y)


def test_pushforward_determinants_are_unimodular():
    # the inverse maps are integral too: every primitive class over the
    # twisted seed pulls back to a class over the seed with the same braid
    for x in range(1, 13):
        for y in range(0, 13):
            if gcd(x, y) != 1:
                continue
            for p in range(1, 4):
                assert (class_to_braid(disk_twist_step(SEED_32, p), x, y)
                        == class_to_braid(SEED_32, x, y + p * x))
                if y:
                    assert (class_to_braid(full_twist_step(SEED_32, p), x, y)
                            == class_to_braid(SEED_32, x + p * y, y))


def test_fiber_class_examples():
    assert odd_continued_fraction(1, 3) == (3,)
    assert odd_continued_fraction(5, 4) == (0, 1, 4)
    assert odd_continued_fraction(5, 1) == (0, 4, 1)


def test_fiber_class_round_trip():
    # the inverse pushforwards along the reversed program carry the fiber
    # class (1, 0) back to (x, y)
    for x in range(1, 13):
        for y in range(1, 13):
            if gcd(x, y) != 1:
                continue
            entries = odd_continued_fraction(x, y)
            cx, cy = 1, 0
            for pos in reversed(range(len(entries))):
                p = entries[pos]
                if pos % 2 == 0:
                    cy += p * cx
                else:
                    cx += p * cy
            assert (cx, cy) == (x, y)


def test_fiber_class_rejects_even_length():
    # 3/2 = 1 + 1/2 has the even expansion (1, 2); the fiber class takes
    # the odd one
    assert odd_continued_fraction(2, 3) == (1, 1, 1)


def test_program_composition_sends_class_to_fiber():
    # the composite pushforward along the program maps (x, y) to (1, 0)
    for x, y in [(5, 14), (14, 5), (3, 4), (7, 2)]:
        prog = odd_continued_fraction(x, y)
        cx, cy = x, y
        for pos, p in enumerate(prog):
            if pos % 2 == 0:
                cx, cy = cx, cy - p * cx
            else:
                cx, cy = cx - p * cy, cy
        assert (cx, cy) == (1, 0)


def test_normalized_entropy_of_class_seed_value():
    # the class (1, 0) is the fiber of the seed itself, of norm 2
    word = class_to_braid(SEED_31, 1, 0).to_braid_word()
    est = entropy_estimate(word)
    assert est.converged
    val = thurston_norm(3, 1, 1, 0) * est.value
    assert abs(val - 2 * math.log(2 + math.sqrt(3))) < 1e-8


def test_normalized_entropy_constant_on_rays():
    # Ent = ||a|| ent(a) is constant on rays: the entropy function is
    # homogeneous of degree -1 and the norm of degree 1, which is checked here
    for x, y in [(1, 0), (1, 1), (5, 14), (14, 5)]:
        for k in range(1, 5):
            assert thurston_norm(3, 2, k * x, k * y) == k * thurston_norm(3, 2, x, y)


def test_norm_covariance_with_degree():
    for seed in (SEED_31, SEED_32, StandardForm(4, ((1,), (-2,), (1, 2)))):
        for x in range(1, 8):
            for y in range(0, 8):
                if gcd(x, y) != 1:
                    continue
                word = class_to_braid(seed, x, y).to_braid_word()
                assert thurston_norm(seed.degree, seed.u, x, y) == word.degree - 1
