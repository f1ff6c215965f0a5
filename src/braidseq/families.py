"""Named braid families: the skew-palindromic sequences, the spin-group
sequences, and the seeded small-normalized-entropy sequences.

A seeded member is the monodromy braid of a cone class over its seed,
``class_to_braid(seed, x, y)``: z_p is the class (p + 1, 1), beta_p is
(p + 1, p) and b_p is (1, p).  A member is determined by its name,
parameter and seed alone: twisting the seed first only shifts the class,
so z_p over ``full_twist_step(seed, t)`` is z_{p+t} over the seed.

Family outputs are literal words (not conjugacy-normalized), matching the
displayed closed forms; golden tests compare letter-for-letter.
"""

from __future__ import annotations

from . import dynnikov
from .standard import StandardForm, class_to_braid
from .words import BraidWord, Record

SEEDED = ("z", "beta", "b_p")
CLOSED_FORM = ("xi", "eta", "o", "v")

#: default seed for the z family: the standard form of sigma_1^2 sigma_2^-1
DEFAULT_Z_SEED = StandardForm(3, ((-1,),))


class FamilySpec(Record):
    """A family name with its parameter and optional seed data."""

    _fields = ("name", "p", "seed")

    def __init__(self, name: str, p: int, seed: StandardForm | None = None):
        if name not in SEEDED + CLOSED_FORM:
            raise ValueError(f"unknown family {name!r}")
        if p < 1:
            raise ValueError("family parameter must be >= 1")
        if seed is not None and name in CLOSED_FORM:
            raise ValueError(f"family {name} takes no seed")
        self.__dict__.update(name=name, p=p, seed=seed)


class FamilyMember(Record):
    """A generated braid with its optional spherical companion."""

    _fields = ("word", "companion")

    def __init__(self, word: BraidWord, companion: BraidWord | None = None):
        self.__dict__.update(word=word, companion=companion)


def generate(spec: FamilySpec) -> FamilyMember:
    """The family member at parameter p, as a literal word."""
    p = spec.p
    if spec.name == "xi":
        letters = tuple(range(1, 2 + 2 * p)) + tuple(range(3, 4 + 2 * p))
        return FamilyMember(BraidWord(4 + 2 * p, letters))
    if spec.name == "eta":
        letters = tuple(range(1, 5 + 2 * p)) + tuple(range(3, 7 + 2 * p))
        return FamilyMember(BraidWord(7 + 2 * p, letters))
    if spec.name == "o":
        run = tuple(range(3, 5 + 2 * p))
        letters = (1, 2) + run + run + (4 + 2 * p,)
        word = BraidWord(5 + 2 * p, letters)
        return FamilyMember(word, word.shift().to_spherical())
    if spec.name == "v":
        run = tuple(range(1, 5 + 2 * p))
        letters = run + run + (4 + 2 * p,) * 3
        word = BraidWord(5 + 2 * p, letters)
        return FamilyMember(word, word.shift().to_spherical())
    seed = spec.seed if spec.seed is not None else DEFAULT_Z_SEED
    x, y = {"z": (p + 1, 1), "beta": (p + 1, p), "b_p": (1, p)}[spec.name]
    return FamilyMember(class_to_braid(seed, x, y).to_braid_word())


def is_palindromic(b: BraidWord, braid_level: bool = False):
    """Fixed by letter reversal; at braid level via the word-problem oracle.

    A palindromic braid has involutive permutation, which is asserted.
    """
    word_level = b.rev().letters == b.letters
    if word_level and not (b.permutation() * b.permutation()).is_identity():
        raise AssertionError("palindromic braid with non-involutive permutation")
    if not braid_level:
        return word_level
    return word_level or bool(dynnikov.braids_equal(b.rev(), b))


def is_skew_palindromic(b: BraidWord, braid_level: bool = False):
    """Fixed by reversal composed with the index flip j -> n - j."""
    word_level = b.skew().letters == b.letters
    if not braid_level:
        return word_level
    return word_level or bool(dynnikov.braids_equal(b.skew(), b))

