import random

import pytest

from braidseq.families import FamilySpec, generate
from braidseq.spin import (MappingWord, chain_classes, homology_action,
                           lift_braid, pairing, preserves_form, q0, q1,
                           transvect)
from braidseq.words import BraidWord


def apply_matrix(matrix: tuple[int, ...], v: int) -> int:
    """The image of v under the matrix given by its basis images."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= matrix[i]
        v >>= 1
        i += 1
    return out


def is_symplectic(matrix: tuple[int, ...], g: int) -> bool:
    """Whether the basis images pair as the basis does."""
    for i in range(2 * g):
        for j in range(i + 1, 2 * g):
            want = pairing(1 << i, 1 << j, g)
            if pairing(matrix[i], matrix[j], g) != want:
                return False
    return True


def random_word(rng, g, length):
    return MappingWord(g, tuple(rng.choice([1, -1]) * rng.randint(1, 2 * g + 1)
                                for _ in range(length)))


def test_chain_pairing_matrix():
    for g in range(1, 7):
        chain = chain_classes(g)
        assert len(chain) == 2 * g + 1
        for i, ci in enumerate(chain):
            for j, cj in enumerate(chain):
                want = 1 if abs(i - j) == 1 else 0
                if i != j:
                    assert pairing(ci, cj, g) == want


def test_chain_genus_one_wraps():
    chain = chain_classes(1)
    assert chain[0] == chain[2]


def test_q0_q1_basis_values():
    g = 3
    Q0, Q1 = q0(g), q1(g)
    for i in range(2 * g):
        assert Q0(1 << i) == 0
    assert Q1(1 << 0) == 1 and Q1(1 << 1) == 1
    for i in range(2, 2 * g):
        assert Q1(1 << i) == 0


def test_polarization_rule():
    rng = random.Random(4)
    g = 4
    for q in (q0(g), q1(g)):
        for _ in range(200):
            v = rng.randrange(1 << (2 * g))
            w = rng.randrange(1 << (2 * g))
            assert q(v ^ w) == (q(v) + q(w) + pairing(v, w, g)) % 2


def test_transvections_are_involutions():
    g = 3
    chain = chain_classes(g)
    for k in range(1, 2 * g + 2):
        m = homology_action(MappingWord(g, (k, k)))
        assert m == tuple(1 << i for i in range(2 * g))


def test_action_ignores_twist_sign():
    g = 3
    for k in (1, 4, 7):
        assert homology_action(MappingWord(g, (k,))) == \
            homology_action(MappingWord(g, (-k,)))


def test_action_is_homomorphism():
    rng = random.Random(9)
    g = 3
    for _ in range(40):
        w1 = random_word(rng, g, rng.randint(0, 6))
        w2 = random_word(rng, g, rng.randint(0, 6))
        m1 = homology_action(w1)
        m2 = homology_action(w2)
        m12 = homology_action(MappingWord(g, w1.letters + w2.letters))
        composed = tuple(apply_matrix(m1, m2[i]) for i in range(2 * g))
        assert m12 == composed


def test_action_matrices_are_symplectic():
    rng = random.Random(10)
    for g in (2, 3, 4):
        for _ in range(15):
            w = random_word(rng, g, rng.randint(1, 8))
            assert is_symplectic(homology_action(w), g)


def test_conjugated_transvection_formula():
    g = 3
    chain = chain_classes(g)
    for j in range(1, 2 * g + 1):
        w = MappingWord(g, (j + 1, j, -(j + 1)))
        m = homology_action(w)
        c = chain[j - 1] ^ chain[j]        # transvection along C_j + C_{j+1}
        expect = tuple(transvect(1 << i, c, g) for i in range(2 * g))
        assert m == expect


def test_generator_memberships_q1():
    for g in range(3, 7):
        Q1 = q1(g)
        assert preserves_form(MappingWord(g, (2,)), Q1)
        assert preserves_form(MappingWord(g, (3,)), Q1)
        for j in range(4, 2 * g + 1):
            assert preserves_form(MappingWord(g, (j + 1, j, -(j + 1))), Q1)
        for k in range(1, 2 * g + 2):
            assert preserves_form(MappingWord(g, (k, k)), Q1)


def test_generator_memberships_q0():
    for g in range(3, 7):
        Q0 = q0(g)
        for j in range(1, 2 * g + 1):
            assert preserves_form(MappingWord(g, (j + 1, j, -(j + 1))), Q0)
        for k in range(1, 2 * g + 2):
            assert preserves_form(MappingWord(g, (k, k)), Q0)


def test_odd_family_words_preserve_q1():
    for p in range(1, 5):
        g = p + 2
        letters = ((2, 3) + tuple(range(4, 6 + 2 * p)) * 2 + (5 + 2 * p,))
        assert preserves_form(MappingWord(g, letters), q1(g))


def test_even_family_words_preserve_q0():
    for p in range(1, 5):
        g = p + 2
        letters = (tuple(range(2, 6 + 2 * p)) * 2 + (5 + 2 * p,) * 3)
        assert preserves_form(MappingWord(g, letters), q0(g))


def test_lift_braid_golden():
    lifted = lift_braid(BraidWord(3, (1,)))
    assert lifted.genus == 1 and lifted.letters == (1,)


def test_lift_o_family_companion():
    member = generate(FamilySpec("o", 1))
    lifted = lift_braid(member.companion)
    assert lifted.genus == 3
    assert lifted.letters == (2, 3, 4, 5, 6, 7, 4, 5, 6, 7, 7)


def test_lift_v_family_companion():
    member = generate(FamilySpec("v", 1))
    lifted = lift_braid(member.companion)
    assert lifted.genus == 3
    assert lifted.letters == (2, 3, 4, 5, 6, 7, 2, 3, 4, 5, 6, 7, 7, 7, 7)


def test_lift_rejects_tiny_degree():
    with pytest.raises(ValueError):
        lift_braid(BraidWord(2, (1,)))


def test_mapping_word_range_check():
    with pytest.raises(ValueError):
        MappingWord(2, (6,))
