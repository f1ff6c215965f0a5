import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from braidseq import _fan
from braidseq._kernel_py import PureEngine
from braidseq.dynnikov import (CurveCoordinates, act, braids_equal,
                               curve_suite, default_seed, entropy_estimate,
                               nested_seed, normalized_entropy, round_curve,
                               EstimatorDiverged)
from braidseq.words import BraidWord, delta, full_twist, rho


def letters_strategy(n, max_len=12):
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda j: st.sampled_from([j, -j]))
    return st.lists(letter, max_size=max_len).map(tuple)


def coords_strategy(n, bound=9):
    entry = st.integers(min_value=-bound, max_value=bound)
    return st.tuples(st.lists(entry, min_size=n - 2, max_size=n - 2),
                     st.lists(entry, min_size=n - 2, max_size=n - 2)).map(
        lambda ab: CurveCoordinates(tuple(ab[0]), tuple(ab[1])))


# -- chart ------------------------------------------------------------------

@settings(max_examples=150)
@given(st.integers(min_value=3, max_value=9), st.data())
def test_chart_round_trip(n, data):
    v = data.draw(coords_strategy(n, 20))
    vec = _fan.decode(n, v.a, v.b)
    assert _fan.encode(n, vec) == (v.a, v.b)


def test_round_curve_coordinates():
    c = round_curve(5, 1, 2)
    assert c.a == (0, 0, 0) and c.b == (1, 0, 0)
    c = round_curve(5, 2, 4)
    assert c.b == (-1, 0, 1)
    # the boundary-parallel curve has zero coordinates
    assert round_curve(5, 1, 5).is_zero()


# -- exactness of the action --------------------------------------------------

@settings(max_examples=120)
@given(st.integers(min_value=3, max_value=8), st.data())
def test_act_round_trip_is_bit_exact(n, data):
    b = BraidWord(n, data.draw(letters_strategy(n)))
    v = data.draw(coords_strategy(n))
    assert act(b.inverse(), act(b, v)) == v


@settings(max_examples=80)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_full_twist_acts_trivially(n, data):
    v = data.draw(coords_strategy(n))
    assert act(full_twist(n), v) == v


@settings(max_examples=100)
@given(st.integers(min_value=4, max_value=8), st.data())
def test_braid_relations_on_coordinates(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 2))
    v = data.draw(coords_strategy(n))
    assert act(BraidWord(n, (i, i + 1, i)), v) == \
        act(BraidWord(n, (i + 1, i, i + 1)), v)


@settings(max_examples=80)
@given(st.integers(min_value=5, max_value=8), st.data())
def test_far_commutation_on_coordinates(n, data):
    i = data.draw(st.integers(min_value=1, max_value=n - 3))
    k = data.draw(st.integers(min_value=i + 2, max_value=n - 1))
    v = data.draw(coords_strategy(n))
    assert act(BraidWord(n, (i, k)), v) == act(BraidWord(n, (k, i)), v)


def test_identity_acts_trivially():
    v = CurveCoordinates((3, -2), (0, 5))
    assert act(BraidWord(4, ()), v) == v


def test_round_curve_stabilizers():
    for n in range(3, 8):
        for j in range(1, n):
            c = round_curve(n, j, j + 1)
            assert act(BraidWord(n, (j,)), c) == c
            for k in range(1, n):
                if abs(k - j) >= 2:
                    assert act(BraidWord(n, (k,)), c) == c


def test_degree_mismatch():
    with pytest.raises(Exception):
        act(BraidWord(4, (1,)), CurveCoordinates((0,), (1,)))


# -- estimator ---------------------------------------------------------------

LOG_2_SQRT3 = math.log(2 + math.sqrt(3))


def test_oracle_commissioning_s1inv_s2sq():
    est = entropy_estimate(BraidWord(3, (-1, 2, 2)))
    assert est.converged
    assert abs(est.value - LOG_2_SQRT3) < 1e-9


def test_oracle_commissioning_s1inv_s2():
    est = entropy_estimate(BraidWord(3, (-1, 2)))
    assert est.converged
    assert abs(est.value - math.log((3 + math.sqrt(5)) / 2)) < 1e-9


def test_full_twist_estimates_to_zero():
    for n in (3, 5, 7):
        est = entropy_estimate(full_twist(n))
        assert est.converged and est.value == 0.0


def test_periodic_braids_estimate_to_zero():
    for word in (delta(5), rho(6), delta(4) ** 3):
        est = entropy_estimate(word)
        assert est.converged and est.value == 0.0


def test_reducible_twist_reports_divergence():
    # twist along a curve meeting the seed: linear growth, no convergence
    est = entropy_estimate(BraidWord(3, (2, 2)), max_iter=64)
    assert not est.converged
    with pytest.raises(EstimatorDiverged):
        est.require_converged()


def test_normalized_entropy_factors_chi():
    val = normalized_entropy(BraidWord(3, (-1, 2, 2)))
    assert abs(val - 2 * LOG_2_SQRT3) < 1e-8


def test_seed_independence():
    word = BraidWord(5, (1, 2, 2, 3, 3, 4))     # pA
    seeds = [default_seed(5), nested_seed(5), round_curve(5, 2, 4)]
    vals = [entropy_estimate(word, seed=s).value for s in seeds]
    for v in vals[1:]:
        assert abs(v - vals[0]) < 1e-8


def test_conjugation_invariance():
    rng = random.Random(7)
    b = BraidWord(4, (1, 1, -2, 3))
    base = entropy_estimate(b).value
    for _ in range(3):
        letters = tuple(rng.choice([j for j in range(-3, 4) if j])
                        for _ in range(rng.randint(1, 20)))
        g = BraidWord(4, letters)
        est = entropy_estimate(b.conjugated_by(g), tol=1e-9, max_iter=1024)
        assert est.converged
        assert abs(est.value - base) < 1e-7


def test_full_twist_padding_invariance():
    b = BraidWord(3, (-1, 2, 2))
    padded = b * full_twist(3)
    assert abs(entropy_estimate(padded).value -
               entropy_estimate(b).value) < 1e-8


def test_inverse_symmetry():
    b = BraidWord(4, (1, 1, -2, 3, 2))
    e1 = entropy_estimate(b, tol=1e-9, max_iter=1024)
    e2 = entropy_estimate(b.inverse(), tol=1e-9, max_iter=1024)
    assert e1.converged and e2.converged
    assert abs(e1.value - e2.value) < 1e-8


def test_spherical_input_rejected():
    with pytest.raises(ValueError):
        entropy_estimate(BraidWord(3, (-1, 2), spherical=True))


def test_accumulated_scale_reported():
    # long enough run to trigger renormalization in the engine
    est = entropy_estimate(BraidWord(3, (-1, 2, 2)) ** 4,
                           tol=1e-12, max_iter=160)
    assert est.accumulated_scale >= 0.0


def test_engine_pass_is_one_application_of_the_word():
    b = BraidWord(4, (1, 1, -2, 3, -1, 2))
    seed = default_seed(4)
    engine = PureEngine(_fan.decode(4, seed.a, seed.b), b.letters,
                        _fan.letter_programs(4))
    engine.advance(6)
    coords = seed
    for _ in range(6):
        coords = act(b, coords)
    assert engine.scale_bits == 0
    assert _fan.encode(4, engine.vals) == (coords.a, coords.b)


# -- word problem --------------------------------------------------------------

def test_equal_after_free_insertion():
    b = BraidWord(3, (1, 2, -1))
    c = BraidWord(3, (1, 2, -1, 1, -1))
    assert braids_equal(b, c)


def test_distinct_generators():
    verdict = braids_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))
    assert not verdict and verdict.witness


def test_braid_relation_equality():
    assert braids_equal(BraidWord(4, (1, 2, 1)), BraidWord(4, (2, 1, 2)))
    assert braids_equal(BraidWord(4, (1, 3)), BraidWord(4, (3, 1)))


def test_full_twist_word_forms_agree():
    # Delta^2 = rho^{n-1} = delta^n as braids
    for n in (3, 4, 5):
        ft = full_twist(n)
        assert braids_equal(ft, rho(n) ** (n - 1))
        assert braids_equal(ft, delta(n) ** n)


def test_central_but_not_trivial():
    # Delta^2 commutes with everything yet differs from the identity
    n = 4
    ft = full_twist(n)
    b = BraidWord(n, (1, -2, 3))
    assert braids_equal(ft * b, b * ft)
    assert not braids_equal(ft, BraidWord(n, ()))


def test_exponent_sum_distinguishes_powers():
    assert not braids_equal(BraidWord(3, (1,)), BraidWord(3, (1, 1)))


def test_flag_mismatch_is_distinct():
    assert not braids_equal(BraidWord(3, (1,)),
                            BraidWord(3, (1,), spherical=True))


def test_suite_has_expected_size():
    names = [name for name, _ in curve_suite(5)]
    assert len([n for n in names if n.startswith("curve")]) == 9


def test_remove_strand_commutes_with_free_reduction():
    rng = random.Random(12)
    tried = 0
    while tried < 12:
        n = rng.randint(3, 6)
        letters = []
        for _ in range(rng.randint(1, 8)):
            j = rng.choice([x for x in range(-(n - 1), n) if x])
            letters.append(j)
            if rng.random() < 0.4:
                letters.append(-j)       # plant cancelling pairs
        b = BraidWord(n, tuple(letters))
        fixed = b.permutation().fixed_points()
        if not fixed:
            continue
        i = rng.choice(fixed)
        tried += 1
        removed_then_reduced = b.remove_strand(i).free_reduced()
        reduced_then_removed = b.free_reduced().remove_strand(i)
        assert braids_equal(removed_then_reduced, reduced_then_removed)


def test_free_reduction_preserves_braid():
    rng = random.Random(30)
    for _ in range(15):
        n = rng.randint(3, 6)
        letters = []
        for _ in range(rng.randint(0, 8)):
            j = rng.choice([x for x in range(-(n - 1), n) if x])
            letters.append(j)
            if rng.random() < 0.3:
                letters.append(-j)
        b = BraidWord(n, tuple(letters))
        assert braids_equal(b, b.free_reduced())


def test_generator_handedness_convention():
    # the positive half twist drags a curve attached from the left under the
    # swapped puncture and a curve attached from the right over it: the
    # image of a two-puncture round curve is the over/under variant of the
    # curve around the non-adjacent pair
    c12 = round_curve(3, 1, 2)
    c23 = round_curve(3, 2, 3)
    under = CurveCoordinates((-1,), (0,))
    over = CurveCoordinates((1,), (0,))
    assert act(BraidWord(3, (2,)), c12) == under
    assert act(BraidWord(3, (-2,)), c12) == over
    assert act(BraidWord(3, (1,)), c23) == over
    assert act(BraidWord(3, (-1,)), c23) == under
