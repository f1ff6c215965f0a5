import pytest
from hypothesis import given, settings, strategies as st

from braidseq.dynnikov import entropy_estimate
from braidseq.standard import StandardForm, full_twist_step
from braidseq.spin import MappingWord
from braidseq.words import (BraidWord, Permutation, Record, full_twist,
                            half_twist, linking_profile, make_generator)


def letters_strategy(n, max_len=12):
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda j: st.sampled_from([j, -j]))
    return st.lists(letter, max_size=max_len).map(tuple)


braid_strategy = st.integers(min_value=3, max_value=7).flatmap(
    lambda n: letters_strategy(n).map(lambda ls: BraidWord(n, ls)))


# -- generators -------------------------------------------------------------

def test_rho_3_3_is_sigma1_sigma2_squared():
    assert make_generator("rho", 3, 3).letters == (1, 2, 2)


def test_delta_3_2_is_sigma1():
    assert make_generator("delta", 3, 2).letters == (1,)


def test_half_twist_b3():
    assert half_twist(3).letters == (1, 2, 1)


def test_generator_range_errors():
    with pytest.raises(ValueError):
        make_generator("rho", 3, 4)
    with pytest.raises(ValueError):
        make_generator("nonsense", 3, 3)


# -- algebra ----------------------------------------------------------------

def test_invert_reverses_and_flips_signs():
    b = BraidWord(3, (1, 1, -2))
    assert b.inverse().letters == (2, -1, -1)


def test_compose_with_inverse_reduces_to_empty():
    b = BraidWord(4, (1, -3, 2, 2))
    assert (b * b.inverse()).free_reduced().letters == ()


def test_degree_mismatch_raises():
    with pytest.raises(ValueError, match="cannot combine B3 with B4"):
        BraidWord(3, (1,)) * BraidWord(4, (1,))


def test_spherical_flag_blocks_mixed_products():
    with pytest.raises(ValueError, match="cannot combine B3 with B3s"):
        BraidWord(3, (1,)) * BraidWord(3, (1,), spherical=True)


# -- permutations -----------------------------------------------------------

def test_permutation_sigma1inv_sigma2():
    perm = BraidWord(3, (-1, 2)).permutation()
    assert perm.images == (2, 3, 1)


def test_permutation_sigma1sq_sigma2inv_fixes_1():
    perm = BraidWord(3, (1, 1, -2)).permutation()
    assert perm.fixed_points() == (1,)
    assert perm(2) == 3 and perm(3) == 2


def test_empty_word_is_identity():
    assert BraidWord(5, ()).permutation().is_identity()


@settings(max_examples=60)
@given(st.integers(min_value=3, max_value=7), st.data())
def test_permutation_is_homomorphism(n, data):
    b = BraidWord(n, data.draw(letters_strategy(n)))
    c = BraidWord(n, data.draw(letters_strategy(n)))
    assert (b * c).permutation() == b.permutation() * c.permutation()


def test_permutation_inverse():
    b = BraidWord(5, (1, 3, -4, 2, 2))
    assert b.permutation().inverse() == b.inverse().permutation()


# -- symmetry maps ------------------------------------------------------------

def test_rev_golden():
    assert BraidWord(3, (1, -2)).rev().letters == (-2, 1)


def test_skew_golden():
    assert BraidWord(3, (1, -2)).skew().letters == (-1, 2)


def test_shift_golden():
    shifted = BraidWord(3, (1, -2)).shift()
    assert shifted.degree == 4 and shifted.letters == (2, -3)


@settings(max_examples=60)
@given(braid_strategy)
def test_rev_and_skew_are_involutions_on_words(b):
    assert b.rev().rev().letters == b.letters
    assert b.skew().skew().letters == b.letters


@settings(max_examples=60)
@given(braid_strategy)
def test_exponent_sum_symmetries(b):
    s = b.exponent_sum()
    assert b.rev().exponent_sum() == s
    assert b.skew().exponent_sum() == s
    assert b.inverse().exponent_sum() == -s


# -- strand surgery -----------------------------------------------------------

def test_remove_strand_golden():
    b = BraidWord(3, (1, 1, -2))
    assert b.remove_strand(1).letters == (-1,)
    assert b.remove_strand(1).degree == 2


def test_remove_strand_identity():
    assert BraidWord(3, ()).remove_strand(2).letters == ()


def test_remove_strand_requires_fixed_point():
    with pytest.raises(ValueError, match="strand 1 is not fixed"):
        BraidWord(3, (1,)).remove_strand(1)


def test_sphericalize():
    b = BraidWord(3, (1, 2))
    s = b.to_spherical()
    assert s.spherical and s.letters == b.letters


# -- text / json --------------------------------------------------------------

def test_text_round_trip():
    b = BraidWord(3, (1, 1, -2))
    assert b.to_text() == "B3 1 1 -2"
    assert BraidWord.from_text(b.to_text()) == b


def test_spherical_text_round_trip():
    b = BraidWord(8, (2, 3, 7), spherical=True)
    assert BraidWord.from_text(b.to_text()) == b


def test_from_text_bare_letters_with_degree():
    assert BraidWord.from_text("1 1 -2", degree=3).degree == 3


def test_from_text_header_must_agree_with_degree():
    assert BraidWord.from_text("B3 1 -2", degree=3) == BraidWord(3, (1, -2))
    assert BraidWord.from_text("SB4 1", degree=4) == BraidWord(4, (1,), True)
    for text in ("B3 1 -2", "SB3 1 -2"):
        with pytest.raises(ValueError, match="has degree 3, not 4"):
            BraidWord.from_text(text, degree=4)
    # the same holds for spherical; None (the default) takes the header's
    assert BraidWord.from_text("SB3 1 2", spherical=True) == BraidWord(3, (1, 2), True)
    assert BraidWord.from_text("B3 1 2", spherical=False) == BraidWord(3, (1, 2))
    # with no header, None (the default) is a disk braid
    assert BraidWord.from_text("1 2") == BraidWord(3, (1, 2))
    assert BraidWord.from_text("1 2", spherical=True) == BraidWord(3, (1, 2), True)
    assert BraidWord.from_text("SB3 1 2").spherical
    with pytest.raises(ValueError, match="'B3' has spherical=False"):
        BraidWord.from_text("B3 1 -2", spherical=True)
    with pytest.raises(ValueError, match="'SB3' has spherical=True"):
        BraidWord.from_text("SB3 1 -2", degree=3, spherical=False)


# -- linking ------------------------------------------------------------------

def test_full_twist_linking_profile():
    for n in (3, 4, 5, 6):
        for j in range(1, n + 1):
            prof = linking_profile(full_twist(n), j)
            assert prof.u == n - 1
            assert prof.verdict == "increasing"


def test_sigma1sq_sigma2inv_is_1_increasing_u1():
    prof = linking_profile(BraidWord(3, (1, 1, -2)), 1)
    assert prof.u == 1 and prof.verdict == "increasing"
    assert not prof.conclusive              # not a positive word


def test_xi_is_3_increasing_u2():
    prof = linking_profile(BraidWord(5, (1, 2, 2, 3, 3, 4)), 3)
    assert prof.u == 2 and prof.verdict == "increasing"
    assert prof.conclusive


def test_eta_is_4_increasing_u2():
    eta = BraidWord(8, (1, 2, 3, 4, 5, 3, 4, 3, 4, 5, 6, 7))
    prof = linking_profile(eta, 4)
    assert prof.u == 2 and prof.verdict == "increasing"


def test_o_and_v_profiles():
    o = BraidWord(6, (1, 2, 3, 4, 5, 3, 3, 4, 5, 3, 5))
    assert linking_profile(o, 4).u == 2
    v = BraidWord(6, (1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2, 5, 5, 5))
    assert linking_profile(v, 3).u == 2


def test_decreasing_profile():
    prof = linking_profile(BraidWord(3, (-1, -1, 2)), 1)
    assert prof.verdict == "decreasing"


def test_indeterminate_profile_has_no_sign():
    prof = linking_profile(BraidWord(4, (1, 1, -3, -3)), 2)
    assert prof.verdict == "indeterminate" and not prof.conclusive


@settings(max_examples=40)
@given(st.integers(min_value=3, max_value=6), st.data())
def test_linking_u_invariant_under_central_conjugation(n, data):
    # conjugates of the full twist are the full twist; every strand keeps u
    g = BraidWord(n, data.draw(letters_strategy(n, 8)))
    word = g * full_twist(n) * g.inverse()
    for j in range(1, n + 1):
        assert linking_profile(word, j).u == n - 1


def test_free_reduction_idempotent():
    b = BraidWord(4, (1, -1, 2, 3, -3, -2, 2))
    once = b.free_reduced()
    assert once.free_reduced() == once
    assert once.letters == (2,)


def test_power_negative():
    b = BraidWord(3, (1, 2))
    assert (b ** -2) == (b.inverse() * b.inverse())


# -- the value contract -------------------------------------------------------

def test_record_contract():
    # one class with equal fields: equal values with equal hashes
    a, b = BraidWord(3, (1, -2)), BraidWord(3, [1, -2])
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != BraidWord(3, (1, 2))
    # every record built from a list stores a tuple, so it hashes
    for make, items in ((Permutation, [2, 1]),
                        (lambda x: MappingWord(1, x), [1, -2])):
        listed, tupled = make(items), make(tuple(items))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert {tupled: 1}[listed] == 1

    class Twin(Record):
        _fields = BraidWord._fields

        def __init__(self, w):
            self.__dict__.update(degree=w.degree, letters=w.letters,
                                 spherical=w.spherical)

    # another class with the same fields is another value
    assert Twin(a) == Twin(b) and a != Twin(a) and Twin(a) != a
    assert repr(a) == "BraidWord(degree=3, letters=(1, -2), spherical=False)"
    with pytest.raises(AttributeError, match="cannot assign to field 'letters'"):
        a.letters = ()
    with pytest.raises(AttributeError, match="cannot delete field 'degree'"):
        del a.degree
    est = entropy_estimate(BraidWord(3, (-1, 2)))
    with pytest.raises(AttributeError, match="cannot assign to field 'converged'"):
        est.converged = False
    assert est.converged and est.kernel == "pure"
    # a standard form is its degree and blocks, however it was made
    stepped = full_twist_step(StandardForm(3, ((-1,),)), 1)
    assert stepped == StandardForm(3, ((-1,), (1,), (1,)))
    assert hash(stepped) == hash(StandardForm(3, ((-1,), (1,), (1,))))
