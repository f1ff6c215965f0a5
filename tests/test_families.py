import math
import random

import pytest

from braidseq.dynnikov import braids_equal, entropy_estimate
from braidseq.families import (DEFAULT_Z_SEED, FamilySpec, generate,
                               is_palindromic, is_skew_palindromic)
from braidseq.standard import (StandardForm, class_to_braid, disk_twist_step,
                               full_twist_step)
from braidseq.words import BraidWord


def test_xi_1_golden():
    w = generate(FamilySpec("xi", 1)).word
    assert w.degree == 6 and w.letters == (1, 2, 3, 3, 4, 5)


def test_eta_1_golden():
    w = generate(FamilySpec("eta", 1)).word
    assert w.degree == 9
    assert w.letters == (1, 2, 3, 4, 5, 6, 3, 4, 5, 6, 7, 8)


def test_o_1_golden_with_companion():
    member = generate(FamilySpec("o", 1))
    assert member.word.degree == 7
    assert member.word.letters == (1, 2, 3, 4, 5, 6, 3, 4, 5, 6, 6)
    comp = member.companion
    assert comp.degree == 8 and comp.spherical
    assert comp.letters == (2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 7)


def test_v_1_golden_with_companion():
    member = generate(FamilySpec("v", 1))
    assert member.word.degree == 7
    assert member.word.letters == (1, 2, 3, 4, 5, 6, 1, 2, 3, 4, 5, 6, 6, 6, 6)
    assert member.companion.letters == (2, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6, 7, 7, 7, 7)


def test_degree_laws():
    for p in range(1, 11):
        assert generate(FamilySpec("xi", p)).word.degree == 4 + 2 * p
        assert generate(FamilySpec("eta", p)).word.degree == 7 + 2 * p
        assert generate(FamilySpec("o", p)).word.degree == 5 + 2 * p
        assert generate(FamilySpec("v", p)).word.degree == 5 + 2 * p


def test_z_family_degree_law():
    for p in range(1, 9):
        w = generate(FamilySpec("z", p)).word
        assert w.degree == 4 + 2 * p


def test_beta_family_class_degrees():
    # beta_p realizes the class (p+1, p) over the seed: degree 2(p+1)+2p+1
    seed = StandardForm(3, ((-1,), (-1,)))
    for p in range(1, 6):
        w = generate(FamilySpec("beta", p, seed=seed)).word
        assert w.degree == 2 * (p + 1) + 2 * p + 1
    # every seeded member is the monodromy of its class: z_p is (p + 1, 1),
    # beta_p is (p + 1, p), b_p is (1, p); z_p over the seed twisted t times
    # is (p + t + 1, 1) over the seed
    for seed in (DEFAULT_Z_SEED, seed, StandardForm(4, ((-1, 2), (1,)))):
        for p in range(1, 7):
            cases = [(FamilySpec("z", p, full_twist_step(seed, t) if t else seed),
                      (p + t + 1, 1)) for t in range(3)]
            cases += [(FamilySpec("beta", p, seed), (p + 1, p)),
                      (FamilySpec("b_p", p, seed), (1, p))]
            for spec, (x, y) in cases:
                assert generate(spec).word == class_to_braid(seed, x, y).to_braid_word()


def test_b_p_family():
    seed = StandardForm(3, ((-1,), (-1,)))
    for p in range(1, 5):
        w = generate(FamilySpec("b_p", p, seed=seed)).word
        assert w.degree == 3 + 2 * p


def test_seeded_defaults():
    w = generate(FamilySpec("z", 1)).word
    w2 = generate(FamilySpec("z", 1, seed=DEFAULT_Z_SEED)).word
    assert w == w2


def test_spec_validation():
    with pytest.raises(ValueError):
        FamilySpec("xi", 0)
    with pytest.raises(ValueError):
        FamilySpec("nope", 1)
    # the closed-form families take no seed
    for name in ("xi", "eta", "o", "v"):
        with pytest.raises(ValueError, match="takes no seed"):
            FamilySpec(name, 1, seed=DEFAULT_Z_SEED)
    for name in ("z", "beta", "b_p"):
        FamilySpec(name, 1, seed=DEFAULT_Z_SEED)


def test_skew_palindromic_golden_families():
    for p in range(1, 11):
        assert is_skew_palindromic(generate(FamilySpec("xi", p)).word)
        assert is_skew_palindromic(generate(FamilySpec("eta", p)).word)


def test_palindromic_by_construction():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randint(3, 6)
        letters = tuple(rng.choice([j for j in range(-(n - 1), n) if j])
                        for _ in range(rng.randint(1, 6)))
        b = BraidWord(n, letters)
        assert is_palindromic(b * b.rev())
        assert is_skew_palindromic(b * b.skew())


def test_skew_palindromic_at_braid_level_only():
    # s1 s2 s1 skews to s2 s1 s2: a different word, the same braid
    b = BraidWord(3, (1, 2, 1))
    assert not is_skew_palindromic(b)
    assert is_skew_palindromic(b, braid_level=True)


def test_sigma1_sigma2_not_palindromic():
    b = BraidWord(3, (1, 2))
    assert not is_palindromic(b)
    assert not is_palindromic(b, braid_level=True)
    assert not braids_equal(b.rev(), b)


def test_palindromic_bound_check():
    # s1 s2^-2 s1 is palindromic and pseudo-Anosov (conjugate-level square of
    # a pA word); the dilatation floor sqrt(2 + sqrt(5)) must hold, and so
    # must 2 + sqrt(5) for its square, which is pure
    b = BraidWord(3, (1, -2, -2, 1))
    assert is_palindromic(b, braid_level=True)
    assert (b * b).permutation().is_identity()
    est = entropy_estimate(b, tol=1e-7, max_iter=2048)
    est_sq = entropy_estimate(b * b, tol=1e-7, max_iter=2048)
    assert est.converged and est_sq.converged
    assert est.value >= math.log(math.sqrt(2 + math.sqrt(5))) - 1e-7
    assert est_sq.value >= math.log(2 + math.sqrt(5)) - 1e-7


def test_xi_pipeline_from_standard_form():
    # derived standard form of xi = s1 s2^2 s3^2 s4 (conjugate by (s4 s3)^-1)
    sf_xi = StandardForm(5, ((1, 2, 3), (-3, -2, 3)))
    sigma = BraidWord(5, (-4, -3))
    target = sigma * BraidWord(5, (1, 2, 2, 3, 3, 4)) * sigma.inverse()
    assert braids_equal(sf_xi.to_braid_word(), target)
    # removing the tracked strand (the last) from the disk-twisted form agrees
    # with the closed-form family member at conjugacy-grade detail
    for p in (1, 2):
        twisted = disk_twist_step(sf_xi, p)
        removed = twisted.to_braid_word().remove_strand(twisted.degree)
        xi_p = generate(FamilySpec("xi", p)).word
        assert removed.degree == xi_p.degree == 4 + 2 * p
        assert removed.exponent_sum() == xi_p.exponent_sum()
        assert (sorted(len(c) for c in removed.permutation().cycles())
                == sorted(len(c) for c in xi_p.permutation().cycles()))
        er = entropy_estimate(removed, tol=1e-8, max_iter=2048)
        ex = entropy_estimate(xi_p, tol=1e-8, max_iter=2048)
        assert er.converged and ex.converged
        assert abs(er.value - ex.value) < 1e-6
