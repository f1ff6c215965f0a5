"""Fan-triangulation coordinates for curve systems on the punctured disk.

The disk with n punctures is modelled as a sphere with punctures
Q_L, P_1..P_n, Q_R and one puncture at infinity; the two padding punctures
Q_L, Q_R are never braided, which keeps every generator's local move away
from the degenerate squares of the triangulation.  A curve system is stored
as its vector of minimal intersection numbers with the 3N-3 edges of the
fan triangulation (N = n + 2 punctures in a row):

    EL    Q_L -- inf
    H_k   k-th axis segment between consecutive punctures, k = 1..N-1
    T_m   upper arc from the m-th puncture to inf, m = 2..N-1
    B_m   lower arc from the m-th puncture to inf, m = 2..N-1
    ER    Q_R -- inf

Each braid generator acts by four edge flips followed by a relabeling of six
edges; a flip updates one entry by the exact tropical rule
``e' = max(b + d, a + c) - e``.  All arithmetic is integer and exact.

The public chart is the classical one: pairs (a_i, b_i), i = 1..n-2, with
a_i half the difference of up/down ray crossings at puncture i+1 and b_i
half the difference of consecutive wall crossings.  ``decode``/``encode``
convert between the chart and the internal edge vector; both directions are
exact and mutually inverse.
"""

from __future__ import annotations

from functools import lru_cache


def edge_count(n: int) -> int:
    """Internal vector length for public degree n."""
    return 3 * (n + 2) - 3


@lru_cache(maxsize=None)
def _layout(N: int):
    """Flat indices of the padded fan edges for N punctures in a row."""
    EL = 0
    H = {k: k for k in range(1, N)}
    T = {m: N + (m - 2) for m in range(2, N)}
    B = {m: 2 * N - 2 + (m - 2) for m in range(2, N)}
    ER = 3 * N - 4
    up = dict(T)
    up[1] = EL
    up[N] = ER
    dn = dict(B)
    dn[1] = EL
    dn[N] = ER
    return EL, H, T, B, ER, up, dn


@lru_cache(maxsize=None)
def letter_programs(n: int):
    """Per-generator flip programs for degree n.

    Returns a dict mapping the signed letter x (1 <= |x| <= n-1) to a pair
    (ops, moves): ops is a tuple of 5-tuples (e, a, b, c, d) of flat indices
    applied in order as  v[e] = max(v[b]+v[d], v[a]+v[c]) - v[e];  moves is a
    tuple of (dst, src) pairs applied simultaneously after the flips.
    """
    N = n + 2
    EL, H, T, B, ER, up, dn = _layout(N)
    programs = {}
    for k in range(1, n):
        j = k + 1                      # padded position of the twist
        ops = (
            (T[j], up[j - 1], H[j - 1], H[j], T[j + 1]),
            (H[j - 1], dn[j - 1], B[j], H[j], T[j]),
            (B[j + 1], H[j], B[j], dn[j + 2], H[j + 1]),
            (H[j + 1], up[j + 2], T[j + 1], H[j], B[j + 1]),
        )
        moves = (
            (H[j - 1], T[j]),
            (T[j], T[j + 1]),
            (B[j], H[j - 1]),
            (T[j + 1], H[j + 1]),
            (B[j + 1], B[j]),
            (H[j + 1], B[j + 1]),
        )
        programs[k] = (ops, moves)
        # inverse letter: undo the relabeling, then replay flips in reverse
        inv_moves = tuple((src, dst) for dst, src in moves)
        inv_ops = tuple(reversed(ops))
        programs[-k] = (inv_ops, inv_moves)
    return programs


def word_steps(letters, programs) -> list:
    """The ``(ops, moves, positive)`` steps of a word in acting order
    (the rightmost letter acts first)."""
    return [programs[x] + (x > 0,) for x in reversed(letters)]


def run_steps(vals: list, steps) -> None:
    """Apply prepared steps in place; the one flip loop.  ``vals`` holds
    exact integers.  A positive letter flips then relabels; its inverse
    undoes the relabeling, then replays the flips in reverse."""
    for ops, moves, positive in steps:
        if not positive:
            grabbed = [vals[src] for _, src in moves]
            for (dst, _), val in zip(moves, grabbed):
                vals[dst] = val
        for e, a, b, c, d in ops:
            x = vals[b] + vals[d]
            y = vals[a] + vals[c]
            vals[e] = (x if x > y else y) - vals[e]
        if positive:
            grabbed = [vals[src] for _, src in moves]
            for (dst, _), val in zip(moves, grabbed):
                vals[dst] = val


def apply_word(vals: list, letters, programs) -> None:
    """Apply a braid word in place; the rightmost letter acts first."""
    run_steps(vals, word_steps(letters, programs))


def decode(n: int, avec, bvec) -> list:
    """Public (a, b) chart -> internal edge vector.  Exact.

    Reconstruction goes through the strand picture per puncture: hook counts
    come straight from b, the over/under through-strand counts from a plus
    the minimal wall-crossing anchor (the representative with no
    boundary-parallel or single-puncture components), and an axis segment is
    crossed by hooks plus the strands forced to switch sides across it.
    """
    if len(avec) != n - 2 or len(bvec) != n - 2:
        raise ValueError("coordinate length must be degree - 2")
    N = n + 2
    EL, H, T, B, ER, up, dn = _layout(N)
    prefix = [0]
    for x in bvec:
        prefix.append(prefix[-1] + x)
    half_v1 = max(0, prefix[n - 2])
    for m in range(2, n):
        i = m - 1
        half_v1 = max(half_v1, prefix[m - 2] + max(bvec[i - 1], 0) + abs(avec[i - 1]))
    v = {k: 2 * half_v1 - 2 * prefix[k - 1] for k in range(1, n)}
    g1, gn = v[1] // 2, v[n - 1] // 2
    # per padded puncture: over/under through strands and left/right hooks
    o = [0] * (N + 1)
    w = [0] * (N + 1)
    L = [0] * (N + 1)
    R = [0] * (N + 1)
    R[2] = g1                          # padded puncture 2 is the left end
    L[N - 1] = gn
    for m in range(2, n):              # interior punctures of the original
        L[m + 1] = max(bvec[m - 2], 0)
        R[m + 1] = max(-bvec[m - 2], 0)
        through = v[m - 1] - 2 * L[m + 1]
        o[m + 1] = through // 2 + avec[m - 2]
        w[m + 1] = through // 2 - avec[m - 2]
        if o[m + 1] < 0 or w[m + 1] < 0:
            raise AssertionError("anchor reconstruction failed")
    vec = [0] * (3 * N - 3)
    for m in range(2, N):
        vec[T[m]] = o[m] + L[m] + R[m]
        vec[B[m]] = w[m] + L[m] + R[m]
    for k in range(1, N):
        switch = abs(o[k] + R[k] - o[k + 1] - L[k + 1])
        vec[H[k]] = L[k] + R[k + 1] + switch
    return vec


def encode(n: int, vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Internal edge vector -> public (a, b) chart.  Exact.

    Hook counts are the smaller of the two corner counts at the puncture
    (the larger may include side-switching through strands).
    """
    N = n + 2
    EL, H, T, B, ER, up, dn = _layout(N)
    avec, bvec = [], []
    for i in range(1, n - 1):
        m = i + 2                      # padded puncture of the pair
        diff = vec[T[m]] - vec[B[m]]
        left2 = min(vec[T[m]] + vec[H[m]] - vec[up[m + 1]],
                    vec[B[m]] + vec[H[m]] - vec[dn[m + 1]])
        right2 = min(vec[T[m]] + vec[H[m - 1]] - vec[up[m - 1]],
                     vec[B[m]] + vec[H[m - 1]] - vec[dn[m - 1]])
        if diff % 2 or left2 % 2 or right2 % 2:
            raise AssertionError("edge vector violates parity")
        avec.append(diff // 2)
        bvec.append((left2 - right2) // 2)
    return tuple(avec), tuple(bvec)


def round_curve_vector(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(a, b) chart of the curve enclosing the consecutive punctures lo..hi."""
    if not 1 <= lo < hi <= n:
        raise ValueError("need 1 <= lo < hi <= degree")
    a = [0] * (n - 2)
    b = [0] * (n - 2)
    if lo >= 2:
        b[lo - 2] -= 1
    if hi <= n - 1:
        b[hi - 2] += 1
    return tuple(a), tuple(b)
