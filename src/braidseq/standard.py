"""Standard forms of d-increasing braids and the twist-step apparatus:
full-twist steps, disk-twist steps, the odd continued fraction map from
cone classes to monodromy braids, the Thurston norm on the cone, and the
gamma word construction.

A standard form with blocks w_1..w_u at degree d represents the braid
(w_1 s_{d-1}^2) ... (w_u s_{d-1}^2), which is d-increasing with
intersection number u.  A form is its degree and blocks, nothing else:
two forms of the same blocks are equal however they were made.  Both
twist steps keep this shape closed: a full-twist step multiplies by the
full twist (appending d-1 blocks per power), a disk-twist step re-embeds
the braid at degree d + p*u.  A twist program is the tuple of the odd
continued fraction of y/x, its entries alternating disk-twist and
full-twist powers.
"""

from __future__ import annotations

from math import gcd

from .words import BraidWord, Record, full_twist, rho


class StandardForm(Record):
    """Block decomposition (w_1 s_{d-1}^2) ... (w_u s_{d-1}^2)."""

    _fields = ("degree", "blocks")

    def __init__(self, degree: int, blocks: tuple[tuple[int, ...], ...]):
        if degree < 3:
            raise ValueError("standard forms need degree >= 3")
        blocks = tuple(tuple(b) for b in blocks)
        if not blocks:
            raise ValueError("at least one block required")
        for b in blocks:
            for x in b:
                if x == 0 or abs(x) > degree - 2:
                    raise ValueError(
                        f"block letter {x} out of range 1..{degree - 2}")
        self.__dict__.update(degree=degree, blocks=blocks)

    @property
    def u(self) -> int:
        """Intersection number of the represented braid with its disk."""
        return len(self.blocks)

    def to_braid_word(self) -> BraidWord:
        """Literal word: each block followed by s_{d-1}^2."""
        d = self.degree
        letters: list[int] = []
        for b in self.blocks:
            letters.extend(b)
            letters.extend((d - 1, d - 1))
        return BraidWord(d, tuple(letters))

    @staticmethod
    def from_blocks_text(text: str) -> "StandardForm":
        """Parse "-1 | -1" style block lists at degree d = the largest
        |letter| + 2.  The degree is forced: at a larger d the blocks never
        use s_{d-2}, so the form is a word in s_1..s_{d-3} times a power of
        s_{d-1}; it keeps the curve around punctures d-1, d and is
        reducible."""
        blocks = tuple(tuple(int(t) for t in chunk.split())
                       for chunk in text.split("|"))
        top = max((abs(x) for b in blocks for x in b), default=0)
        if not top:
            raise ValueError(f"blocks {text!r} have no letter")
        return StandardForm(top + 2, blocks)


def full_twist_step(sf: StandardForm, p: int) -> StandardForm:
    """Multiply by Delta^{2p}: appends p*(d-1) blocks equal to delta_{d-1}.

    Uses Delta^2 = rho^{d-1} with rho = (s_1...s_{d-2}) s_{d-1}^2, so each
    appended block is the word s_1...s_{d-2}.
    """
    if p < 1:
        raise ValueError("full twist power must be >= 1")
    d = sf.degree
    delta_word = tuple(range(1, d - 1))
    blocks = sf.blocks + (delta_word,) * (p * (d - 1))
    return StandardForm(d, blocks)


def disk_twist_step(sf: StandardForm, p: int) -> StandardForm:
    """Disk twist of power p: degree grows to d + p*u, block count fixed.

    Each block w is replaced by w s_{d-1} s_d ... s_{d'-2}, which realizes
    (nu_1 rho_{d'}) ... (nu_u rho_{d'}) with nu_j = w_j (s_1...s_{d-2})^-1.
    """
    if p < 1:
        raise ValueError("disk twist power must be >= 1")
    d = sf.degree
    d_new = d + p * sf.u
    suffix = tuple(range(d - 1, d_new - 1))
    blocks = tuple(b + suffix for b in sf.blocks)
    return StandardForm(d_new, blocks)


def apply_program(sf: StandardForm, entries: tuple[int, ...]) -> StandardForm:
    """Alternate disk twists (odd positions) and full twists (even); a first
    entry 0 means no disk twist."""
    for pos, p in enumerate(entries):
        if pos or p:
            sf = (full_twist_step if pos % 2 else disk_twist_step)(sf, p)
    return sf


def odd_continued_fraction(x: int, y: int) -> tuple[int, ...]:
    """Odd-length continued fraction expansion of y/x (Euclidean algorithm).

    When the plain expansion has even length, the last entry p is replaced
    by (p - 1, 1); the result always re-evaluates to y/x.
    """
    if x < 1 or y < 0:
        raise ValueError("need x >= 1 and y >= 0")
    if gcd(x, y) != 1:
        raise ValueError(f"({x}, {y}) is not primitive")
    entries = []
    num, den = y, x
    while den:
        q, r = divmod(num, den)
        entries.append(q)
        num, den = den, r
    if len(entries) % 2 == 0:
        entries[-1] -= 1
        entries.append(1)
    return tuple(entries)


def thurston_norm(n: int, u: int, x: int, y: int) -> int:
    """Thurston norm (n-1)x + u*y of the class (x, y) in the cone of a seed
    of degree n with u blocks; the norm is linear on the closed cone."""
    if n < 3 or u < 1:
        raise ValueError("need n >= 3, u >= 1")
    if x < 0 or y < 0 or (x == 0 and y == 0):
        raise ValueError("norm is computed on nonzero classes of the "
                         "closed cone (x, y >= 0)")
    return (n - 1) * x + u * y


def class_to_braid(sf: StandardForm, x: int, y: int) -> StandardForm:
    """Standard form of the monodromy braid of the cone class (x, y).

    The resulting degree obeys d - 1 = ||(x, y)||, the Thurston norm for the
    seed's (n, u).
    """
    out = apply_program(sf, odd_continued_fraction(x, y))
    expect = thurston_norm(sf.degree, sf.u, x, y)
    if out.degree - 1 != expect:
        raise AssertionError(
            f"degree law violated: {out.degree - 1} != {expect}")
    return out


def decompose_factors(sf: StandardForm,
                      u0: int) -> tuple[tuple[BraidWord, ...], int]:
    """Reducible/periodic factorization (nu_1 rho)...(nu_{u0} rho^m) of a
    form made from a seed of u0 blocks.

    nu_j = w_j (s_1...s_{d-2})^-1 for the first u0 blocks; every later
    block must literally be the word s_1...s_{d-2} and their number
    determines m = blocks - u0 + 1.
    """
    d = sf.degree
    delta_word = tuple(range(1, d - 1))
    for extra in sf.blocks[u0:]:
        if extra != delta_word:
            raise AssertionError("trailing block is not the periodic word")
    delta_inv = tuple(-j for j in reversed(delta_word))
    nus = tuple(BraidWord(d, b + delta_inv) for b in sf.blocks[:u0])
    m = len(sf.blocks) - u0 + 1
    return nus, m


def factors_to_braid_word(sf: StandardForm, u0: int) -> BraidWord:
    """Rebuild the braid from its (nu_j, rho, m) factorization over a seed
    of u0 blocks."""
    d = sf.degree
    nus, m = decompose_factors(sf, u0)
    out = BraidWord(d, ())
    rho_d = rho(d)
    for nu in nus[:-1]:
        out = out * nu * rho_d
    out = out * nus[-1] * (rho_d ** m)
    return out


def ef_gamma(sf: StandardForm) -> BraidWord:
    """The explicit braid whose F-surface realizes the E-surface of b*Delta^2.

    For a seed of degree n with u blocks, emits
    gamma = k_0 k_1 ... k_{u+1} Delta_{n-1}^2 in B_{n+u}.
    """
    n = sf.degree
    u = sf.u
    deg = n + u
    letters: list[int] = []
    # k_0 = s_{n-1} ... s_1 s_1 s_2 ... s_{n+u-1}
    letters.extend(range(n - 1, 0, -1))
    letters.extend(range(1, n + u))
    # k_j = w_j s_{n-1} s_n ... s_{n+u-j-1} s_{n+u-j-2}^-1 ... s_{n-1}^-1
    for j in range(1, u):
        letters.extend(sf.blocks[j - 1])
        letters.extend(range(n - 1, n + u - j))
        letters.extend(-i for i in range(n + u - j - 2, n - 2, -1))
    # k_u = w_u s_{n-1}
    letters.extend(sf.blocks[u - 1])
    letters.append(n - 1)
    # k_{u+1}
    if u == 1:
        letters.append(-n)
    else:
        letters.extend(-i for i in range(n + u - 1, n - 1, -1))
    gamma = BraidWord(deg, tuple(letters)) * full_twist(deg, n - 1)
    return gamma
