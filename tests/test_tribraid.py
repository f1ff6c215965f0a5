import itertools
import math

import pytest

from braidseq.dynnikov import entropy_estimate
from braidseq.tribraid import (ExactDilatation, exact_dilatation,
                               transition_matrix)
from braidseq.words import BraidWord


def pa(letters):
    return BraidWord(3, letters)


def trace(rows):
    return rows[0][0] + rows[1][1]


def test_matrix_golden_s1inv_s2():
    m = transition_matrix(pa((-1, 2)))
    assert m == ((2, 1), (1, 1))


def test_matrix_golden_s1inv_s2sq():
    m = transition_matrix(pa((-1, 2, 2)))
    assert m == ((3, 1), (2, 1))
    assert trace(m) == 4


def test_matrix_golden_square():
    m = transition_matrix(pa((-1, 2, 2, -1, 2, 2)))
    assert m == ((11, 4), (8, 3))
    assert trace(m) == 14


def test_dilatation_2_plus_sqrt3():
    lam = exact_dilatation(pa((-1, 2, 2)))
    assert lam.trace == 4
    assert abs(lam.value - (2 + math.sqrt(3))) < 1e-14


def test_dilatation_golden_ratio_like():
    lam = exact_dilatation(pa((-1, 2)))
    assert lam.trace == 3
    assert abs(lam.value - (3 + math.sqrt(5)) / 2) < 1e-14


def test_square_word_squares_dilatation_exactly():
    # lambda(w^2) = lambda(w)^2 at the algebraic level: tr(M^2) = tr^2 - 2
    for letters in [(-1, 2), (-1, 2, 2), (-1, -1, 2), (-1, 2, -1, 2, 2)]:
        t = trace(transition_matrix(pa(letters)))
        t2 = trace(transition_matrix(pa(letters * 2)))
        assert t2 == t * t - 2


def test_rejects_non_pa_words():
    both = r"both sigma_1\^-1 and sigma_2 must occur"
    with pytest.raises(ValueError, match=both):
        transition_matrix(pa((2, 2)))
    with pytest.raises(ValueError, match=both):
        transition_matrix(pa((-1,)))
    with pytest.raises(ValueError, match="degree 4 != 3"):
        transition_matrix(BraidWord(4, (-1, 2)))
    with pytest.raises(ValueError, match="letter 1 not in"):
        transition_matrix(pa((1, 2)))


def all_pa_words(length):
    for bits in itertools.product((-1, 2), repeat=length):
        if -1 in bits and 2 in bits:
            yield bits


def test_trace_cyclic_invariance_exhaustive():
    for length in range(2, 11):
        for word in all_pa_words(length):
            t = trace(transition_matrix(pa(word)))
            rotated = word[1:] + word[:1]
            assert trace(transition_matrix(pa(rotated))) == t


def test_matrix_structure_on_corpus():
    for word in all_pa_words(7):
        (a, b), (c, d) = transition_matrix(pa(word))
        assert a * d - b * c == 1
        assert a >= 0 and b >= 0 and c >= 0 and d >= 0
        assert a + d >= 3


def test_log_stability_for_huge_traces():
    lam = ExactDilatation(10 ** 50)
    assert abs(lam.log - 50 * math.log(10)) < 1e-9


def test_decimal_expansion():
    lam = exact_dilatation(pa((-1, 2, 2)))
    assert lam.approx(12).startswith("3.732050807568")


@pytest.mark.parametrize("trace, digits", [
    (3, "2.618033988749894848204586834365"),
    (4, "3.732050807568877293527446341505"),
    (18, "17.944271909999158785636694674925"),
    (123456789, "123456788.999999991899999926289998797797"),
    (2 ** 64 + 3, "18446744073709551618.999999999999999999945789891375"),
    (10 ** 40 + 7, "1" + "0" * 39 + "6." + "9" * 30),
])
def test_approx_goldens(trace, digits):
    # truncated, not rounded: every digit comes from integer arithmetic
    assert ExactDilatation(trace).approx(30) == digits


def test_log_of_a_trace_above_500_bits():
    assert repr(ExactDilatation(2 ** 600 + 1).log) == "415.88830833596717"


def test_estimator_agrees_on_sample():
    for letters in [(-1, 2), (-1, 2, 2), (-1, -1, 2, 2), (-1, 2, 2, -1, 2)]:
        exact = exact_dilatation(pa(letters)).log
        est = entropy_estimate(pa(letters))
        assert est.converged
        assert abs(est.value - exact) < 1e-6
