import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidseq.dynnikov import braids_equal, entropy_estimate
from braidseq.standard import (StandardForm, apply_program, class_to_braid,
                               decompose_factors, disk_twist_step, ef_gamma,
                               factors_to_braid_word, full_twist_step,
                               odd_continued_fraction)
from braidseq.words import BraidWord, full_twist, linking_profile


SEED_31 = StandardForm(3, ((-1,),))            # standard form of s1^2 s2^-1
SEED_32 = StandardForm(3, ((-1,), (-1,)))      # the 3-braid -1 2 2 -1 2 2


def random_form(rng, max_degree=6, max_blocks=4):
    d = rng.randint(3, max_degree)
    blocks = []
    for _ in range(rng.randint(1, max_blocks)):
        blocks.append(tuple(rng.choice([j for j in range(-(d - 2), d - 1) if j])
                            for _ in range(rng.randint(0, 3))))
    return StandardForm(d, tuple(blocks))


# -- shape ---------------------------------------------------------------------

def test_to_braid_word_golden():
    assert SEED_32.to_braid_word().letters == (-1, 2, 2, -1, 2, 2)


def test_to_braid_word_empty_block():
    assert StandardForm(3, ((),)).to_braid_word().letters == (2, 2)


def test_blocks_reject_reserved_index():
    with pytest.raises(ValueError, match="block letter 2 out of range 1..1"):
        StandardForm(3, ((2,),))


def test_delta_blocks_give_full_twist():
    sf = StandardForm(3, ((1,), (1,)))
    assert braids_equal(sf.to_braid_word(), full_twist(3))


def test_represented_braid_is_degree_increasing():
    rng = random.Random(3)
    for _ in range(20):
        sf = random_form(rng)
        word = sf.to_braid_word()
        prof = linking_profile(word, sf.degree)
        assert prof.u <= sf.u or True    # total |lk| can drop for mixed signs
        assert word.permutation()(sf.degree) == sf.degree


def test_positive_form_has_block_count_u():
    # every block passes one strand through the disk with a positive sign;
    # components that never reach the top position may link zero times
    rng = random.Random(5)
    for _ in range(20):
        d = rng.randint(3, 6)
        blocks = tuple(tuple(rng.randint(1, d - 2)
                             for _ in range(rng.randint(0, 3)))
                       for _ in range(rng.randint(1, 4)))
        sf = StandardForm(d, blocks)
        prof = linking_profile(sf.to_braid_word(), d)
        assert prof.u == sf.u
        assert all(lk >= 0 for _, lk in prof.components)


# -- twist steps ----------------------------------------------------------------

def test_full_twist_step_blocks_golden():
    out = full_twist_step(StandardForm(3, ((-1,),)), 1)
    assert out.blocks == ((-1,), (1,), (1,))


def test_full_twist_step_word_identity():
    rng = random.Random(11)
    for _ in range(8):
        sf = random_form(rng, max_degree=5, max_blocks=3)
        p = rng.randint(1, 2)
        lhs = full_twist_step(sf, p).to_braid_word()
        rhs = sf.to_braid_word() * (full_twist(sf.degree) ** p)
        assert braids_equal(lhs, rhs)


def test_full_twist_step_u_count():
    # u = 1, d = 3, p = 2 -> u' = 5
    assert full_twist_step(SEED_31, 2).u == 5


def test_full_twist_step_twice_equals_double_power():
    once = full_twist_step(full_twist_step(SEED_31, 1), 1)
    twice = full_twist_step(SEED_31, 2)
    assert braids_equal(once.to_braid_word(), twice.to_braid_word())


def test_disk_twist_step_golden():
    out = disk_twist_step(SEED_32, 1)
    assert out.degree == 5
    assert out.blocks == ((-1, 2, 3), (-1, 2, 3))


def test_disk_twist_degree_law():
    sf = StandardForm(4, ((1,), (2,)))
    assert disk_twist_step(sf, 2).degree == 8


def test_disk_twist_preserves_u_and_increasing_strand():
    rng = random.Random(2)
    for _ in range(10):
        sf = random_form(rng)
        p = rng.randint(1, 2)
        out = disk_twist_step(sf, p)
        assert out.u == sf.u
        word = out.to_braid_word()
        assert word.permutation()(out.degree) == out.degree


def test_disk_twist_factorization_oracle():
    out = disk_twist_step(SEED_32, 1)
    assert braids_equal(out.to_braid_word(), factors_to_braid_word(out, 2))


def test_steps_stay_standard():
    rng = random.Random(7)
    for _ in range(15):
        sf = random_form(rng, max_degree=5, max_blocks=3)
        for _ in range(2):
            sf = (full_twist_step(sf, 1) if rng.random() < 0.5
                  else disk_twist_step(sf, 1))
        d = sf.degree
        assert all(abs(x) <= d - 2 for b in sf.blocks for x in b)


# -- programs --------------------------------------------------------------------

def test_program_invariants():
    # entries after the first are powers >= 1, the first may be 0 (no step)
    with pytest.raises(ValueError, match="full twist power must be >= 1"):
        apply_program(SEED_32, (1, 0))
    with pytest.raises(ValueError, match="disk twist power must be >= 1"):
        apply_program(SEED_32, (-1,))
    with pytest.raises(ValueError, match="disk twist power must be >= 1"):
        apply_program(SEED_32, (0, 1, 0))
    assert apply_program(SEED_32, (0,)) == SEED_32


def test_program_0_1_is_full_twist():
    out = apply_program(SEED_32, (0, 1))
    rhs = SEED_32.to_braid_word() * full_twist(3)
    assert braids_equal(out.to_braid_word(), rhs)


def test_program_p_is_disk_twist():
    out = apply_program(SEED_32, (2,))
    assert out.blocks == disk_twist_step(SEED_32, 2).blocks


def test_program_0_p_1():
    out = apply_program(SEED_31, (0, 2, 1))
    manual = disk_twist_step(full_twist_step(SEED_31, 2), 1)
    assert out.blocks == manual.blocks


def test_program_zero_is_identity_step():
    out = apply_program(SEED_32, (0,))
    assert out.blocks == SEED_32.blocks and out.degree == SEED_32.degree


# -- continued fractions ----------------------------------------------------------

def test_cf_golden_5_14():
    assert odd_continued_fraction(5, 14) == (2, 1, 4)


def test_cf_golden_14_5():
    assert odd_continued_fraction(14, 5) == (0, 2, 1, 3, 1)


def test_cf_golden_1_1():
    assert odd_continued_fraction(1, 1) == (1,)


def test_cf_rejects_non_coprime():
    with pytest.raises(ValueError):
        odd_continued_fraction(4, 2)


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=80), st.integers(min_value=1, max_value=80))
def test_cf_odd_length_and_value(x, y):
    g = math.gcd(x, y)
    x, y = x // g, y // g
    entries = odd_continued_fraction(x, y)
    assert len(entries) % 2 == 1
    val = Fraction(entries[-1])     # p_1 + 1/(p_2 + 1/(... + 1/p_j))
    for p in reversed(entries[:-1]):
        val = p + 1 / val
    assert val == Fraction(y, x)


# -- class map --------------------------------------------------------------------

def test_degree_law_seed_3_2():
    for x, y in [(1, 1), (2, 3), (5, 14), (14, 5), (3, 10)]:
        if math.gcd(x, y) != 1:
            continue
        sf = class_to_braid(SEED_32, x, y)
        assert sf.degree - 1 == 2 * x + 2 * y


def test_class_1_1_is_b1():
    out = class_to_braid(SEED_32, 1, 1)
    assert out.blocks == disk_twist_step(SEED_32, 1).blocks


def test_block_count_law():
    rng = random.Random(13)
    for _ in range(12):
        sf = random_form(rng, max_degree=5, max_blocks=3)
        prog_entries = [rng.randint(0, 2)]
        for k in range(rng.randint(0, 3)):
            prog_entries.append(rng.randint(1, 3))
        out = apply_program(sf, tuple(prog_entries))
        nus, m = decompose_factors(out, sf.u)
        assert len(out.blocks) == (sf.u - 1) + m
        assert len(nus) == sf.u


def test_decompose_m_growth():
    fresh = decompose_factors(SEED_32, 2)
    assert fresh[1] == 1
    after_ft = decompose_factors(full_twist_step(SEED_32, 2), 2)
    assert after_ft[1] == 1 + 2 * (3 - 1)
    after_dt = decompose_factors(disk_twist_step(full_twist_step(SEED_32, 2), 1), 2)
    assert after_dt[1] == after_ft[1]


def test_factorization_reproduces_braid():
    rng = random.Random(17)
    for _ in range(6):
        sf = random_form(rng, max_degree=4, max_blocks=2)
        out = apply_program(sf, (0, rng.randint(1, 2), 1))
        assert braids_equal(out.to_braid_word(), factors_to_braid_word(out, sf.u))


# -- gamma ------------------------------------------------------------------------

def test_ef_gamma_two_block_pattern():
    gamma = ef_gamma(SEED_32)
    assert gamma.degree == 5
    assert gamma.letters == (2, 1, 1, 2, 3, 4, -1, 2, 3, -2, -1, 2, -4, -3, 1, 1)


def test_ef_gamma_three_block_pattern():
    sf = StandardForm(3, ((1, 1), (), ()))    # w1 = s1^2, w2 = w3 = empty
    gamma = ef_gamma(sf)
    assert gamma.degree == 6
    assert gamma.letters == (2, 1, 1, 2, 3, 4, 5,
                             1, 1, 2, 3, 4, -3, -2,
                             2, 3, -2,
                             2,
                             -5, -4, -3, 1, 1)


def test_ef_gamma_u1():
    sf = StandardForm(3, ((),))
    gamma = ef_gamma(sf)
    assert gamma.degree == 4
    assert gamma.letters == (2, 1, 1, 2, 3, 2, -3, 1, 1)


def test_ef_gamma_is_degree_increasing():
    gamma = ef_gamma(SEED_32)
    prof = linking_profile(gamma, 3)
    assert prof.verdict == "increasing"


def test_ef_gamma_entropy_matches_xi():
    # gamma for (n,u)=(3,2), w=s1^-1 twice, is conjugate to xi = 1 2 2 3 3 4
    gamma = ef_gamma(SEED_32)
    xi = BraidWord(5, (1, 2, 2, 3, 3, 4))
    eg = entropy_estimate(gamma, tol=1e-9, max_iter=2048)
    ex = entropy_estimate(xi, tol=1e-9, max_iter=2048)
    assert eg.converged and ex.converged
    assert abs(eg.value - ex.value) < 1e-6


def test_degree_law_all_small_seeds():
    # degree - 1 = (n-1)x + u*y for every seed shape n <= 6, u <= 4 and all
    # coprime classes x, y <= 12 (word-level construction, no estimator)
    rng = random.Random(23)
    for n in range(3, 7):
        for u in range(1, 5):
            blocks = tuple(
                tuple(rng.choice([j for j in range(-(n - 2), n - 1) if j])
                      for _ in range(rng.randint(0, 2)))
                for _ in range(u))
            seed = StandardForm(n, blocks)
            for x in range(1, 13):
                for y in range(1, 13):
                    if math.gcd(x, y) != 1:
                        continue
                    out = class_to_braid(seed, x, y)
                    assert out.degree - 1 == (n - 1) * x + u * y


def test_blocks_text_parsing():
    sf = StandardForm.from_blocks_text("-1 | -1")
    assert sf == StandardForm(3, ((-1,), (-1,)))
    sf2 = StandardForm.from_blocks_text("1 2 | | -2")
    assert sf2 == StandardForm(4, ((1, 2), (), (-2,)))


@pytest.mark.parametrize("text, degree", [
    ("-1", 3), ("-1 | -1", 3), ("1 -2 | -1", 4), ("2 | -1 -2", 4),
    ("1 2 | | -2", 4)])
def test_blocks_text_degree_is_the_largest_letter_plus_2(text, degree):
    assert StandardForm.from_blocks_text(text).degree == degree


@pytest.mark.parametrize("text", ["", "|"])
def test_blocks_with_no_letter_are_rejected(text):
    with pytest.raises(ValueError, match="have no letter"):
        StandardForm.from_blocks_text(text)
