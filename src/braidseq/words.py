"""Braid words for B_n and SB_n: construction, composition, symmetry maps,
strand surgery and linking data.

A braid word is a sequence of nonzero integers: letter j > 0 is the Artin
generator sigma_j (right-handed crossing of strands at positions j, j+1),
letter -j is its inverse.  Words are stored unreduced; free reduction is an
explicit normalizing pass.  Composition of the induced maps (permutations,
curve actions) is function composition: the RIGHTMOST letter acts first,
i.e. the last letter of a word is the bottom crossing of the diagram.
"""

from __future__ import annotations


class Record:
    """An immutable value with the fields named in ``_fields``.

    ``__init__`` checks its arguments and stores them with
    ``self.__dict__.update``; assignment afterwards raises.  Two records are
    equal when they are of the same class with equal fields, and hash
    accordingly, as frozen dataclasses do.  (``dataclasses`` would load
    ``inspect`` at the start of every command.)
    """

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(Record):
    """A permutation of {1..n}, stored as the tuple of images."""

    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        self.__dict__.update(images=images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("permutation degree mismatch")
        return Permutation(tuple(self.images[other.images[i - 1] - 1]
                                 for i in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, img in enumerate(self.images, start=1) if img == i)

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, including fixed points as 1-cycles."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(cyc))
        return out


class BraidWord(Record):
    """A braid word in B_n (or SB_n when ``spherical`` is set).

    Immutable; all operations return new values.
    """

    _fields = ("degree", "letters", "spherical")

    def __init__(self, degree: int, letters: tuple[int, ...] = (),
                 spherical: bool = False):
        if degree < 2:
            raise ValueError("braid degree must be >= 2")
        letters = tuple(letters)
        for x in letters:
            if x == 0 or abs(x) > degree - 1:
                raise ValueError(f"letter {x} out of range for degree {degree}")
        self.__dict__.update(degree=degree, letters=letters, spherical=spherical)

    # -- basic algebra ----------------------------------------------------

    def _check_compatible(self, other: "BraidWord"):
        if self.degree != other.degree or self.spherical != other.spherical:
            raise ValueError(
                f"cannot combine B{self.degree}{'s' if self.spherical else ''} "
                f"with B{other.degree}{'s' if other.spherical else ''}")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """Concatenation; the right factor is applied first as a map."""
        self._check_compatible(other)
        return BraidWord(self.degree, self.letters + other.letters, self.spherical)

    def __pow__(self, k: int) -> "BraidWord":
        if k < 0:
            return self.inverse() ** (-k)
        return BraidWord(self.degree, self.letters * k, self.spherical)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.degree, tuple(-x for x in reversed(self.letters)),
                         self.spherical)

    def free_reduced(self) -> "BraidWord":
        """Delete adjacent (j, -j) pairs until none remain."""
        out: list[int] = []
        for x in self.letters:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return BraidWord(self.degree, tuple(out), self.spherical)

    def exponent_sum(self) -> int:
        return sum(1 if x > 0 else -1 for x in self.letters)

    def is_positive(self) -> bool:
        return all(x > 0 for x in self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    # -- permutation ------------------------------------------------------

    def permutation(self) -> Permutation:
        """Underlying permutation: strand at bottom position i ends at pi(i).

        Letters compose as functions (rightmost acts first), matching the
        convention that sigma_1^-1 sigma_2 in B_3 induces 1->2, 2->3, 3->1.
        """
        p = list(range(1, self.degree + 1))
        for x in self.letters:
            j = abs(x)
            p[j - 1], p[j] = p[j], p[j - 1]
        return Permutation(tuple(p))

    # -- symmetry maps ----------------------------------------------------

    def rev(self) -> "BraidWord":
        """Reverse the letter order (an anti-homomorphism)."""
        return BraidWord(self.degree, tuple(reversed(self.letters)), self.spherical)

    def skew(self) -> "BraidWord":
        """rev followed by the index flip j -> n - j."""
        n = self.degree
        return BraidWord(
            n,
            tuple((n - abs(x)) * (1 if x > 0 else -1) for x in reversed(self.letters)),
            self.spherical)

    def shift(self) -> "BraidWord":
        """Send sigma_j to sigma_{j+1}; the degree grows by one."""
        return BraidWord(self.degree + 1,
                         tuple(x + 1 if x > 0 else x - 1 for x in self.letters),
                         self.spherical)

    def to_spherical(self) -> "BraidWord":
        return BraidWord(self.degree, self.letters, True)

    # -- strand surgery ---------------------------------------------------

    def remove_strand(self, i: int) -> "BraidWord":
        """Delete the strand based at position i (which pi_b must fix).

        The strand's position is tracked through the word from the bottom
        (last letter) up; every crossing involving it is dropped and letters
        strictly to its right are shifted down by one.
        """
        if not 1 <= i <= self.degree:
            raise ValueError(f"strand index {i} out of range")
        if self.permutation()(i) != i:
            raise ValueError(f"strand {i} is not fixed by the permutation")
        pos = i
        kept_reversed: list[int] = []
        for x in reversed(self.letters):
            j = abs(x)
            s = 1 if x > 0 else -1
            if pos == j:
                pos = j + 1
            elif pos == j + 1:
                pos = j
            elif j > pos:
                kept_reversed.append(s * (j - 1))
            else:
                kept_reversed.append(s * j)
        return BraidWord(self.degree - 1, tuple(reversed(kept_reversed)),
                         self.spherical)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        head = f"{'SB' if self.spherical else 'B'}{self.degree}"
        return " ".join([head] + [str(x) for x in self.letters])

    @staticmethod
    def from_text(text: str) -> "BraidWord":
        """Parse "B3 1 1 -2", "SB3 1 2" or a bare letter list: a header
        states the degree and sphericity; a bare list is a disk braid of
        degree its largest |letter| + 1."""
        tokens = text.replace(":", " ").split()
        degree, spherical = None, False
        if tokens and tokens[0][0].upper() in "BS":
            head = tokens[0].upper()
            spherical = head.startswith("SB")
            if not (spherical or head.startswith("B")):
                raise ValueError(f"bad header token {tokens[0]!r}")
            degree, tokens = int(head[2 if spherical else 1:]), tokens[1:]
        letters = tuple(int(t) for t in tokens)
        if degree is None:
            degree = max((abs(x) for x in letters), default=1) + 1
        return BraidWord(degree, letters, spherical)


# -- named generators -----------------------------------------------------

def delta(n: int, j: int | None = None) -> BraidWord:
    """delta_j = sigma_1 ... sigma_{j-1} as an element of B_n."""
    j = n if j is None else j
    _check_sub_index(n, j)
    return BraidWord(n, tuple(range(1, j)))


def rho(n: int, j: int | None = None) -> BraidWord:
    """rho_j = sigma_1 ... sigma_{j-2} sigma_{j-1}^2 as an element of B_n."""
    j = n if j is None else j
    _check_sub_index(n, j)
    return BraidWord(n, tuple(range(1, j)) + (j - 1,))


def half_twist(n: int, j: int | None = None) -> BraidWord:
    """Delta_j = delta_j delta_{j-1} ... delta_2 as an element of B_n."""
    j = n if j is None else j
    _check_sub_index(n, j)
    letters: list[int] = []
    for top in range(j, 1, -1):
        letters.extend(range(1, top))
    return BraidWord(n, tuple(letters))


def full_twist(n: int, j: int | None = None) -> BraidWord:
    """Delta_j^2, the full twist on the first j strands of B_n."""
    h = half_twist(n, j)
    return h * h


_GENERATORS = {"delta": delta, "rho": rho, "half_twist": half_twist,
               "full_twist": full_twist}


def make_generator(kind: str, n: int, j: int) -> BraidWord:
    """Literal word of a named element: delta_j, rho_j, Delta_j, Delta_j^2."""
    try:
        builder = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown generator kind {kind!r}") from None
    return builder(n, j)


def _check_sub_index(n: int, j: int):
    if not 2 <= j <= n:
        raise ValueError(f"sub-index {j} out of range 2..{n}")


# -- linking data ---------------------------------------------------------

class LinkingProfile(Record):
    """Per-component linking numbers of cl(b(i)) with the other closure
    components, the total intersection number u, and the monotonicity verdict.

    ``components`` holds (cycle, linking number) pairs; ``verdict`` is
    "increasing", "decreasing" or "indeterminate".  ``conclusive`` is True
    only for positive words, where an `increasing` verdict is certified
    provided the braid is irreducible; for all other inputs the verdict is a
    necessary-condition check and never aborts construction.
    """

    _fields = ("strand", "components", "verdict", "u", "conclusive")

    def __init__(self, strand: int,
                 components: tuple[tuple[tuple[int, ...], int], ...],
                 verdict: str, u: int, conclusive: bool):
        self.__dict__.update(strand=strand, components=components,
                             verdict=verdict, u=u, conclusive=conclusive)


def linking_profile(b: BraidWord, i: int) -> LinkingProfile:
    """Linking numbers of strand i's closure with each other component.

    lk(cl(b(i)), K) is half the signed crossing count between strand i and
    the strands of K; sigma_j counts +1, its inverse -1.  The verdict is
    ``increasing`` when every linking number is >= 1 and ``decreasing`` when
    every one is <= -1.  For non-positive braids the verdict is a necessary
    condition only (flagged via ``conclusive``).
    """
    if not 1 <= i <= b.degree:
        raise ValueError(f"strand index {i} out of range")
    perm = b.permutation()
    if perm(i) != i:
        raise ValueError(f"strand {i} is not fixed by the permutation")
    # Walk bottom-up: positions hold strand ids, the last letter acts first.
    at = list(range(1, b.degree + 1))       # at[pos-1] = strand id
    crossing_sum = {s: 0 for s in range(1, b.degree + 1)}
    for x in reversed(b.letters):
        j = abs(x)
        s = 1 if x > 0 else -1
        top, bot = at[j - 1], at[j]
        if top == i:
            crossing_sum[bot] += s
        elif bot == i:
            crossing_sum[top] += s
        at[j - 1], at[j] = at[j], at[j - 1]
    components = []
    total = 0
    signs = []
    for cyc in perm.cycles():
        if i in cyc:
            continue
        twice_lk = sum(crossing_sum[s] for s in cyc)
        if twice_lk % 2:
            raise AssertionError("odd crossing sum for a closed component")
        lk = twice_lk // 2
        components.append((cyc, lk))
        total += abs(lk)
        signs.append(lk)
    if signs and all(lk >= 1 for lk in signs):
        verdict = "increasing"
    elif signs and all(lk <= -1 for lk in signs):
        verdict = "decreasing"
    else:
        verdict = "indeterminate"
    return LinkingProfile(strand=i, components=tuple(components),
                          verdict=verdict, u=total,
                          conclusive=b.is_positive() and verdict == "increasing")
