import math

import pytest

from braidseq.foliation import (OrbitData, PRESET_SIGMA1I_SQ, TorusClass,
                                boundary_slopes, braid_penner_floor,
                                compose_orbit_full_twist, penner_bound,
                                prong_counts, puncture_fill_validity,
                                torus_intersection)


def test_boundary_slopes_shifted_class():
    axis, strand = boundary_slopes(1, 4, 1)        # class (p+1, 1) at p = 3
    assert (axis.p, axis.q) == (-1, 4)
    assert (strand.p, strand.q) == (-4, 1)


def test_boundary_slopes_at_1_1():
    axis, strand = boundary_slopes(1, 1, 1)
    assert (axis.p, axis.q) == (-1, 1)
    assert (strand.p, strand.q) == (-1, 1)


def test_boundary_slopes_decreasing_sign():
    axis, strand = boundary_slopes(-1, 1, 0)
    assert (axis.p, axis.q) == (0, 1)
    assert (strand.p, strand.q) == (1, 0)


def test_boundary_slopes_need_primitive():
    with pytest.raises(ValueError):
        boundary_slopes(1, 2, 4)


def test_boundary_slopes_need_a_class_of_the_cone():
    # each boundary of a pA foliation has a prong: the disk class (0, 1) and
    # classes outside the closed cone have no fiber
    for x, y in [(0, 1), (-1, 1), (1, -3)]:
        with pytest.raises(ValueError, match="need x >= 1 and y >= 0"):
            boundary_slopes(1, x, y)


def test_slopes_are_primitive():
    for x in range(1, 10):
        for y in range(1, 10):
            if math.gcd(x, y) != 1:
                continue
            axis, strand = boundary_slopes(1, x, y)
            assert math.gcd(axis.p, axis.q) == math.gcd(strand.p, strand.q) == 1


def test_torus_intersection_examples():
    assert torus_intersection(TorusClass(1, 1), TorusClass(-1, 4)) == 5
    assert torus_intersection(TorusClass(3, 1), TorusClass(-4, 1)) == 7
    a = TorusClass(2, 5)
    assert torus_intersection(a, a) == 0


def test_torus_intersection_symmetry_and_sign_flip():
    a, b = TorusClass(2, 3), TorusClass(-1, 4)
    assert torus_intersection(a, b) == torus_intersection(b, a)
    assert torus_intersection(TorusClass(-a.p, -a.q), b) == torus_intersection(a, b)


def test_orbit_data_invariants():
    with pytest.raises(ValueError):
        OrbitData(TorusClass(0, 1), TorusClass(2, 1))
    with pytest.raises(ValueError):
        OrbitData(TorusClass(1, 0), TorusClass(2, 0))


def test_compose_full_twist_step_2_values():
    beta_orbit = compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 1)
    assert (beta_orbit.c_axis.p, beta_orbit.c_axis.q) == (1, 1)
    assert (beta_orbit.c_strand.p, beta_orbit.c_strand.q) == (3, 1)


def test_compose_twice():
    orbit = compose_orbit_full_twist(
        compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 1), 2)
    assert (orbit.c_axis.p, orbit.c_axis.q) == (1, 3)
    assert (orbit.c_strand.p, orbit.c_strand.q) == (5, 1)


def test_compose_rejects_zero_power():
    with pytest.raises(ValueError):
        compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 0)


def test_xi_pipeline_prongs():
    orbit = compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 1)
    for p in range(1, 11):
        axis_p, strand_p = prong_counts(orbit, 1, p, 1)
        assert (axis_p, strand_p) == (p + 1, p + 3)


def test_prong_affine_growth():
    orbit = compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 1)
    counts = [prong_counts(orbit, 1, p, 1) for p in range(1, 11)]
    for (a1, s1), (a2, s2) in zip(counts, counts[1:]):
        assert a2 - a1 == 1 and s2 - s1 == 1


def test_prongs_generic_formula():
    orbit = OrbitData(TorusClass(2, -1), TorusClass(1, 3))
    p = 5
    axis_p, strand_p = prong_counts(orbit, 1, p + 1, 1)
    assert axis_p == abs(2 * (p + 1) + (-1))
    assert strand_p == abs(1 + 3 * (p + 1))


def test_prongs_trivial_orbit():
    orbit = OrbitData(TorusClass(1, 0), TorusClass(0, 1))
    assert prong_counts(orbit, 1, 1, 0) == (1, 1)


def test_prong_counts_reject_a_zero_count():
    # each boundary of a pA foliation has a prong: at epsilon -1 the class
    # (1, 1) has both slopes (1, 1), which the orbit class (1, 1) misses
    with pytest.raises(ValueError, match="prong count must be >= 1"):
        prong_counts(OrbitData(TorusClass(1, 1), TorusClass(2, 1)), -1, 1, 1)
    with pytest.raises(ValueError, match="prong count must be >= 1"):
        prong_counts(OrbitData(TorusClass(1, 0), TorusClass(1, 1)), -1, 1, 1)
    assert prong_counts(OrbitData(TorusClass(1, 0), TorusClass(2, 1)), -1, 1, 1) == (1, 1)


def test_puncture_fill_validity():
    assert puncture_fill_validity(2) == "safe"
    assert puncture_fill_validity(1) == "unsafe"
    with pytest.raises(ValueError):
        puncture_fill_validity(0)


def test_xi_family_fill_always_safe():
    orbit = compose_orbit_full_twist(PRESET_SIGMA1I_SQ, 1)
    for p in range(1, 11):
        _, strand_p = prong_counts(orbit, 1, p, 1)
        assert puncture_fill_validity(strand_p) == "safe"


def test_penner_bound_values():
    assert abs(penner_bound(0, 4) - math.log(2) / 4) < 1e-15
    assert abs(penner_bound(2, 0) - math.log(2) / 12) < 1e-15
    assert math.log(2 + math.sqrt(3)) > penner_bound(0, 4)


def test_penner_bound_degenerate():
    with pytest.raises(ValueError):
        penner_bound(1, 0)


def test_braid_penner_floor():
    # degree-n braid acts on the (n+1)-punctured sphere
    assert abs(braid_penner_floor(3) - math.log(2) / 4) < 1e-15
