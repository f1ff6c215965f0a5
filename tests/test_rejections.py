"""Library validation that no command line reaches: each input raises
``ValueError`` with its message."""

import re

import pytest

from braidseq import _fan, spin, standard
from braidseq.dynnikov import CurveCoordinates, entropy_estimate, round_curve
from braidseq.standard import StandardForm
from braidseq.words import BraidWord, Permutation

REJECTED = [
    ("chain_classes", lambda: spin.chain_classes(0), "genus must be >= 1"),
    ("odd_continued_fraction", lambda: standard.odd_continued_fraction(0, 1),
     "need x >= 1 and y >= 0"),
    ("StandardForm", lambda: StandardForm(3, ()), "at least one block required"),
    ("Permutation", lambda: Permutation((1, 1)), "not a permutation"),
    ("Permutation.__mul__", lambda: Permutation((1,)) * Permutation((1, 2)),
     "permutation degree mismatch"),
    ("BraidWord", lambda: BraidWord(1), "braid degree must be >= 2"),
    ("remove_strand", lambda: BraidWord(3, (1,)).remove_strand(0), "out of range"),
    ("CurveCoordinates", lambda: CurveCoordinates((0,), ()),
     "a and b must have equal length"),
    ("round_curve", lambda: round_curve(4, 2, 2), "need 1 <= lo < hi <= degree"),
    ("entropy_estimate",
     lambda: entropy_estimate(BraidWord(4, (1, -2)),
                              seed=CurveCoordinates((0, 0), (0, 0))),
     "seed curve system is empty"),
    ("decode", lambda: _fan.decode(4, (0,), (0, 0)),
     "coordinate length must be degree - 2"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in REJECTED],
                         ids=[case[0] for case in REJECTED])
def test_rejected_library_input_raises_value_error(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
