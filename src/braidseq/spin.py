"""Z2-homology action of hyperelliptic mapping classes via symplectic
transvections, the quadratic forms q0/q1, and spin-subgroup membership.

Vectors in H_1(Sigma_g; Z2) are bitmasks over the basis
x_1, y_1, ..., x_g, y_g (bit 2i is x_{i+1}, bit 2i+1 is y_{i+1}).  A Dehn
twist along a curve with class c acts by the transvection
v -> v + (v, c)_2 * c, so t_j and t_j^-1 agree mod 2.
"""

from __future__ import annotations

from .words import BraidWord, Record


def pairing(v: int, w: int, g: int) -> int:
    """Mod-2 intersection form: sum of v_{x_i} w_{y_i} + v_{y_i} w_{x_i}."""
    acc = 0
    for i in range(g):
        acc ^= ((v >> (2 * i)) & 1) & ((w >> (2 * i + 1)) & 1)
        acc ^= ((v >> (2 * i + 1)) & 1) & ((w >> (2 * i)) & 1)
    return acc


def chain_classes(g: int) -> tuple[int, ...]:
    """Homology classes of the twist curves C_1..C_{2g+1} along the chain.

    Adjacent classes pair to 1 and non-adjacent to 0; the assignment is
    fixed by requiring the documented spin memberships, which pins it up to
    a symplectic change of basis.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    x = [1 << (2 * i) for i in range(g)]
    y = [1 << (2 * i + 1) for i in range(g)]
    classes = [x[0]]
    for i in range(g):
        classes.append(y[i])
        if i + 1 < g:
            classes.append(x[i] ^ x[i + 1])
    classes.append(x[g - 1])
    return tuple(classes)


class QuadraticForm(Record):
    """Form determined by its basis values (bit i is the value on basis
    vector i); evaluation uses the polarization rule
    q(v + w) = q(v) + q(w) + (v, w)_2."""

    _fields = ("basis_values", "genus")

    def __init__(self, basis_values: int, genus: int):
        self.__dict__.update(basis_values=basis_values, genus=genus)

    def __call__(self, v: int) -> int:
        acc = 0
        mask = v & self.basis_values
        while mask:
            acc ^= 1
            mask &= mask - 1
        # cross terms: only symplectic partners pair nontrivially
        for i in range(self.genus):
            acc ^= ((v >> (2 * i)) & 1) & ((v >> (2 * i + 1)) & 1)
        return acc


def q0(g: int) -> QuadraticForm:
    """The even form: zero on every basis vector."""
    return QuadraticForm(0, g)


def q1(g: int) -> QuadraticForm:
    """The odd form: 1 on x_1 and y_1, zero elsewhere."""
    return QuadraticForm(0b11, g)


class MappingWord(Record):
    """A word in the chain twists t_1..t_{2g+1} (signed indices)."""

    _fields = ("genus", "letters")

    def __init__(self, genus: int, letters: tuple[int, ...]):
        letters = tuple(letters)
        for t in letters:
            if t == 0 or abs(t) > 2 * genus + 1:
                raise ValueError(f"twist index {t} out of range for genus "
                                 f"{genus}")
        self.__dict__.update(genus=genus, letters=letters)


def transvect(v: int, c: int, g: int) -> int:
    return v ^ (c if pairing(v, c, g) else 0)


def homology_action(word: MappingWord) -> tuple[int, ...]:
    """Matrix of the word on H_1(Sigma_g; Z2), as the tuple of images of the
    basis vectors.  The rightmost letter acts first."""
    g = word.genus
    chain = chain_classes(g)
    images = []
    for i in range(2 * g):
        v = 1 << i
        for t in reversed(word.letters):
            v = transvect(v, chain[abs(t) - 1], g)
        images.append(v)
    return tuple(images)


def preserves_form(word: MappingWord, q: QuadraticForm) -> bool:
    """Whether q o phi_* = q.  Checking basis vectors suffices: the action
    is symplectic and q obeys the polarization rule."""
    m = homology_action(word)
    return all(q(m[i]) == q(1 << i) for i in range(2 * word.genus))


def lift_braid(b: BraidWord) -> MappingWord:
    """Birman-Hilden lift: sigma_j^+-1 goes to t_j^+-1 letterwise.

    A braid of degree d lifts at genus g = (d - 1) // 2; spherical braids of
    even degree 2g + 2 use all of t_1..t_{2g+1}.
    """
    g = (b.degree - 1) // 2
    if g < 1:
        raise ValueError(f"degree {b.degree} too small to lift")
    return MappingWord(g, b.letters)
