import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from braidseq import _fan
from braidseq._kernel_py import PureEngine
from braidseq.dynnikov import (CurveCoordinates, act, braids_equal,
                               curve_suite, default_seed, entropy_estimate,
                               nested_seed, round_curve)
from braidseq.families import (FamilySpec, generate, is_palindromic,
                               is_skew_palindromic)
from braidseq.tribraid import exact_dilatation
from braidseq.words import BraidWord, delta, full_twist, half_twist, rho

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


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


@pytest.mark.parametrize("a, b", [((0.5,), (1.9,)), ((0.7,), (0.2,)),
                                  (("2",), (True,)), ((1,), ("1",)),
                                  ((Fraction(1, 2),), (0,)), ((Fraction(2),), (1,))])
def test_non_integral_coordinates_rejected(a, b):
    # they used to be truncated, so (0.7, 0.2) became the empty system
    with pytest.raises(ValueError, match="must be integers"):
        CurveCoordinates(a, b)


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


def test_degree_two_estimates_to_zero():
    est = entropy_estimate(BraidWord(2, (1, 1, 1)))
    assert (est.value, est.converged, est.method) == (0.0, True, "periodic")


def test_periodic_braids_estimate_to_zero():
    for word in (delta(5), rho(6), delta(4) ** 3):
        est = entropy_estimate(word)
        assert est.converged and est.value == 0.0
        assert est.method == "periodic" and est.last_delta == 0.0


@pytest.mark.parametrize("max_iter", [15, 31, 47, 64])
def test_reducible_twist_reports_divergence(max_iter):
    # twist along a curve meeting the seed: linear growth, no convergence,
    # whatever the budget
    est = entropy_estimate(BraidWord(3, (2, 2)), max_iter=max_iter)
    assert not est.converged and est.iterations == max_iter
    assert est.method == "none" and 0 < est.last_delta < math.inf


@pytest.mark.parametrize("repeats", [737, 740])
def test_dilatation_beyond_float_range_ends_unconverged(repeats):
    # log(lambda) of (-1 2)^k is about 0.96 k: at k = 737 the pass matrix,
    # at k = 740 the growth of one pass does not fit in a float; the first
    # such attempt ends the run with its best-effort value
    word = BraidWord(3, (-1, 2) * repeats)
    est = entropy_estimate(word, max_iter=8)
    assert est.method == "none" and est.iterations < 8
    assert abs(est.value - exact_dilatation(word).log) < 1e-12


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
        est = entropy_estimate(g * b * g.inverse(), tol=1e-9, max_iter=1024)
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


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_non_positive_or_non_finite_tol_rejected(tol):
    with pytest.raises(ValueError):
        entropy_estimate(BraidWord(3, (-1, 2)), tol=tol)


def test_spherical_input_rejected():
    with pytest.raises(ValueError):
        entropy_estimate(BraidWord(3, (-1, 2), spherical=True))


def test_iterate_is_exact_past_2_to_the_512():
    # the iterate is never rounded: past 600 bits it is still the exact
    # image of the seed, and the log-norm still grows by log(2 + sqrt 3)
    word = BraidWord(3, (-1, 2, 2))
    seed = default_seed(3)
    engine = PureEngine(_fan.decode(3, seed.a, seed.b), word.letters,
                        _fan.letter_programs(3))
    lognorms = [engine.lognorm()] + engine.advance(350)
    assert max(engine.vals).bit_length() > 600
    coords = seed
    for _ in range(350):
        coords = act(word, coords)
    assert _fan.encode(3, engine.vals) == (coords.a, coords.b)
    assert abs((lognorms[-1] - lognorms[-6]) / 5 - LOG_2_SQRT3) < 1e-12


def test_engine_pass_is_one_application_of_the_word():
    b = BraidWord(4, (1, 1, -2, 3, -1, 2))
    seed = default_seed(4)
    engine = PureEngine(_fan.decode(4, seed.a, seed.b), b.letters,
                        _fan.letter_programs(4))
    engine.advance(6)
    coords = seed
    for _ in range(6):
        coords = act(b, coords)
    assert _fan.encode(4, engine.vals) == (coords.a, coords.b)


@pytest.mark.parametrize("word, first_return", [
    (full_twist(4), 1), (delta(5), 5), (rho(6), 5), (half_twist(5), 2),
    (delta(4) ** 3, 4)])
def test_periodic_orbit_first_returns_to_its_seed(word, first_return):
    n = word.degree
    seed = default_seed(n)
    engine = PureEngine(_fan.decode(n, seed.a, seed.b), word.letters,
                        _fan.letter_programs(n))
    engine.advance(16)
    assert engine.periodic_at == first_return
    coords = seed
    for _ in range(first_return):
        coords = act(word, coords)
    assert coords == seed


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


def test_spherical_words_rejected():
    # s1 s2 s2 s1 is trivial in SB_3 but moves curves of the disk, so the
    # disk curve suite would call it distinct from 1
    with pytest.raises(ValueError):
        braids_equal(BraidWord(3, (1, 2, 2, 1), spherical=True),
                     BraidWord(3, (), spherical=True))


def reference_equal(b, c):
    """``braids_equal`` as one ``act`` per word and multicurve: a pair's
    (equal, witness)."""
    if b.degree != c.degree or b.spherical != c.spherical:
        return False, "degree or sphericity mismatch"
    if b.permutation() != c.permutation():
        return False, "permutations differ"
    if b.exponent_sum() != c.exponent_sum():
        return False, "exponent sums differ"
    if b.degree == 2:
        return True, None
    for name, coords in curve_suite(b.degree):
        if act(b, coords) != act(c, coords):
            return False, name
    return True, None


def _verdict(b, c):
    v = braids_equal(b, c)
    return v.equal, v.witness


def test_verdicts_match_the_per_curve_reference_on_workload_pairs():
    witnesses = set()
    for seed in range(1, 8):
        for pair in workloads.word_problem_pairs(seed):
            expected = reference_equal(pair.left, pair.right)
            assert _verdict(pair.left, pair.right) == expected
            assert expected[0] == pair.equal
            witnesses.add(expected[1])
    assert None in witnesses and len(witnesses) > 1


@settings(max_examples=100)
@given(st.integers(min_value=3, max_value=8), st.data())
def test_verdicts_match_the_per_curve_reference(n, data):
    b = BraidWord(n, data.draw(letters_strategy(n)))
    x = BraidWord(n, data.draw(letters_strategy(n, max_len=4)))
    other = BraidWord(n, data.draw(letters_strategy(n)))
    padded = b * x * x.inverse()
    assert _verdict(b, padded) == reference_equal(b, padded) == (True, None)
    assert _verdict(b, other) == reference_equal(b, other)


@pytest.mark.parametrize("name", ["xi", "eta", "o", "v"])
def test_braid_level_palindromes_match_the_per_curve_reference(name):
    for p in range(1, 5):
        w = generate(FamilySpec(name, p)).word
        for test, flip in ((is_palindromic, w.rev()), (is_skew_palindromic, w.skew())):
            expected = flip.letters == w.letters or reference_equal(flip, w)[0]
            assert test(w, braid_level=True) == expected, (name, p, test.__name__)


def _componentwise_sum(systems):
    return CurveCoordinates(tuple(map(sum, zip(*(v.a for v in systems)))),
                            tuple(map(sum, zip(*(v.b for v in systems)))))


def _components(n):
    """The round curves of each multicurve of ``curve_suite(n)``, in order."""
    return [[round_curve(n, i, i + 1) for i in range(start, n, 2)]
            for start in (1, 2)]


def test_suite_has_expected_size():
    for n in range(3, 17):
        suite = curve_suite(n)
        assert len(suite) == 2
        for (_, system), parts in zip(suite, _components(n)):
            assert system == _componentwise_sum(parts)


@settings(max_examples=150)
@given(st.integers(min_value=3, max_value=12), st.data())
def test_multicurve_image_is_the_sum_of_component_images(n, data):
    word = BraidWord(n, data.draw(letters_strategy(n, max_len=24)))
    for (_, system), parts in zip(curve_suite(n), _components(n)):
        assert act(word, system) == _componentwise_sum(
            [act(word, v) for v in parts])


def _block_twist(n, lo, hi):
    """Letters of the full twist on strands lo..hi."""
    return tuple(x + lo - 1 for x in full_twist(n, hi - lo + 1).letters)


def _reference_equal(b, c, curves):
    return (b.permutation() == c.permutation()
            and b.exponent_sum() == c.exponent_sum()
            and all(act(b, v) == act(c, v) for v in curves))


@pytest.mark.parametrize("n", range(3, 9))
def test_adjacent_curves_decide_like_a_larger_suite(n):
    # reference: every consecutive-block curve plus seeded random systems
    rng = random.Random(100 + n)
    curves = [round_curve(n, lo, hi) for lo in range(1, n)
              for hi in range(lo + 1, n + 1) if (lo, hi) != (1, n)]
    for _ in range(4):
        curves.append(CurveCoordinates(
            tuple(rng.randint(-6, 6) for _ in range(n - 2)),
            tuple(rng.randint(-6, 6) for _ in range(n - 2))))
    letters = [x for x in range(1 - n, n) if x]
    empty = BraidWord(n, ())
    pairs = []
    # Delta^2 on one block against Delta^2 on another block of equal size
    for size in range(2, n):
        blocks = [(lo, lo + size - 1) for lo in range(1, n - size + 2)]
        for lo, hi in blocks:
            for lo2, hi2 in blocks:
                pairs.append((BraidWord(n, _block_twist(n, lo, hi)) *
                              BraidWord(n, _block_twist(n, lo2, hi2)).inverse(),
                              empty))
            # Delta^2 balanced against a block twist: the exponent sum is
            # zero and only the curves crossing the block's curve move
            p, q = size * (size - 1), n * (n - 1)
            g = math.gcd(p, q)
            pairs.append((full_twist(n) ** (p // g) *
                          BraidWord(n, _block_twist(n, lo, hi)).inverse()
                          ** (q // g), empty))
    # twist differences g s_i^2 g^-1 h s_j^-2 h^-1, some equal by construction
    for _ in range(60):
        g = BraidWord(n, tuple(rng.choice(letters)
                               for _ in range(rng.randint(0, 6))))
        i = rng.randint(1, n - 1)
        kind = rng.randrange(4)
        if kind == 0 and i < n - 1:      # (s_i s_{i+1}) s_i^2 (..)^-1 = s_{i+1}^2
            h, j = g * BraidWord(n, (i, i + 1)), i
            i += 1
        elif kind == 1:                  # s_i commutes with s_i^2
            h, j = g * BraidWord(n, (rng.choice([i, -i]),)), i
        else:
            h = BraidWord(n, tuple(rng.choice(letters)
                                   for _ in range(rng.randint(0, 6))))
            j = rng.randint(1, n - 1)
        twist = g * BraidWord(n, (i, i)) * g.inverse()
        untwist = h * BraidWord(n, (-j, -j)) * h.inverse()
        pairs.append((twist * untwist, empty))
    verdicts = [_reference_equal(b, c, curves) for b, c in pairs]
    assert any(verdicts) and not all(verdicts)
    for (b, c), expected in zip(pairs, verdicts):
        assert bool(braids_equal(b, c)) == expected


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
