"""Standard forms of d-increasing braids and the twist-step apparatus:
full-twist steps, disk-twist steps, twist programs, the odd continued
fraction map from cone classes to monodromy braids, the Thurston norm on
the cone, and the gamma word construction.

A standard form with blocks w_1..w_u at degree d represents the braid
(w_1 s_{d-1}^2) ... (w_u s_{d-1}^2), which is d-increasing with
intersection number u.  Both twist steps keep this shape closed: a
full-twist step multiplies by the full twist (appending d-1 blocks per
power), a disk-twist step re-embeds the braid at degree d + p*u.
"""

from __future__ import annotations

from math import gcd

from .words import BraidWord, Record, full_twist, rho


class BlockIndexError(ValueError):
    """A block word uses the reserved index d-1 or worse."""


class TwistProgram(Record):
    """Alternating twist instructions p_1, ..., p_j.

    Odd positions are disk-twist steps (p_1 may be 0, meaning none), even
    positions are full-twist powers; entries after the first must be >= 1.
    """

    _fields = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        e = tuple(int(x) for x in entries)
        if not e:
            raise ValueError("empty twist program")
        if e[0] < 0 or any(x < 1 for x in e[1:]):
            raise ValueError(f"malformed twist program {e}")
        self.__dict__.update(entries=e)


class StandardForm(Record):
    """Block decomposition (w_1 s_{d-1}^2) ... (w_u s_{d-1}^2)."""

    _fields = ("degree", "blocks", "seed_blocks")

    def __init__(self, degree: int, blocks: tuple[tuple[int, ...], ...],
                 seed_blocks: int | None = None):
        if degree < 3:
            raise ValueError("standard forms need degree >= 3")
        blocks = tuple(tuple(b) for b in blocks)
        if not blocks:
            raise ValueError("at least one block required")
        for b in blocks:
            for x in b:
                if x == 0 or abs(x) > degree - 2:
                    raise BlockIndexError(
                        f"block letter {x} out of range 1..{degree - 2}")
        if seed_blocks is None:
            seed_blocks = len(blocks)
        self.__dict__.update(degree=degree, blocks=blocks, seed_blocks=seed_blocks)

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
    def from_blocks_text(text: str, degree: int) -> "StandardForm":
        """Parse "-1 | -1" style block lists."""
        blocks = []
        for chunk in text.split("|"):
            blocks.append(tuple(int(t) for t in chunk.split()))
        return StandardForm(degree, tuple(blocks))


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
    return StandardForm(d, blocks, sf.seed_blocks)


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
    return StandardForm(d_new, blocks, sf.seed_blocks)


def apply_program(sf: StandardForm, prog: TwistProgram) -> StandardForm:
    """Alternate disk twists (odd positions) and full twists (even)."""
    out = sf
    for pos, p in enumerate(prog.entries):
        if pos % 2 == 0:
            if pos == 0 and p == 0:
                continue                # b[0] = b
            out = disk_twist_step(out, p)
        else:
            out = full_twist_step(out, p)
    return out


def odd_continued_fraction(x: int, y: int) -> TwistProgram:
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
    return TwistProgram(tuple(entries))


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
    prog = odd_continued_fraction(x, y)
    out = apply_program(sf, prog)
    expect = thurston_norm(sf.degree, sf.u, x, y)
    if out.degree - 1 != expect:
        raise AssertionError(
            f"degree law violated: {out.degree - 1} != {expect}")
    return out


def decompose_factors(sf: StandardForm) -> tuple[tuple[BraidWord, ...], int]:
    """Reducible/periodic factorization (nu_1 rho)...(nu_{u0} rho^m).

    nu_j = w_j (s_1...s_{d-2})^-1 for the first u0 blocks (the seed's block
    count); every later block must literally be the word s_1...s_{d-2} and
    their number determines m = blocks - u0 + 1.
    """
    d = sf.degree
    u0 = sf.seed_blocks
    delta_word = tuple(range(1, d - 1))
    for extra in sf.blocks[u0:]:
        if extra != delta_word:
            raise AssertionError("trailing block is not the periodic word")
    delta_inv = tuple(-j for j in reversed(delta_word))
    nus = tuple(BraidWord(d, b + delta_inv) for b in sf.blocks[:u0])
    m = len(sf.blocks) - u0 + 1
    return nus, m


def factors_to_braid_word(sf: StandardForm) -> BraidWord:
    """Rebuild the braid from its (nu_j, rho, m) factorization."""
    d = sf.degree
    nus, m = decompose_factors(sf)
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
