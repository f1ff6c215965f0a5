"""Structural certification of the frozen generator recipes.

Each braid generator acts on the fan-triangulation coordinates by four edge
flips and a relabeling.  These tests replay the frozen programs on the
combinatorial triangulation itself and verify, independently of any
coordinates, that (1) every recorded flip matches the actual square of the
edge being flipped, with the correct opposite-side pairing, and (2) the
final triangulation is the base one with the two braided punctures swapped,
under exactly the frozen relabeling.  A word's compiled pass, which folds
the relabelings into its flip slots, is checked against replaying the
recipes letter by letter and against a per-letter reference compile on
long words, and each estimate, act or word-problem verdict compiles its
word once.
"""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from braidseq import _fan, _kernel_py
from braidseq.dynnikov import CurveCoordinates, act, braids_equal, entropy_estimate
from braidseq.families import generate
from braidseq.words import BraidWord

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

INF = 0


def base_triangulation(N):
    """Corner structure of the fan: ccw triples of (vertex, opposite edge)."""
    EL, H, T, B, ER, up, dn = _fan._layout(N)
    tris = []
    for i in range(1, N):
        tris.append(((i, up[i + 1]), (i + 1, up[i]), (INF, H[i])))
        tris.append(((i, dn[i + 1]), (INF, H[i]), (i + 1, dn[i])))
    return tris


def canon_tri(tri):
    best = min(range(3), key=lambda r: tri[r:] + tri[:r])
    return tri[best:] + tri[:best]


def canon(tris):
    return tuple(sorted(canon_tri(t) for t in tris))


def combinatorial_flip(tris, e):
    """Flip edge e; return (new tris, sides (a, b, c, d)) or raise."""
    inc = [t for t in tris if any(opp == e for _, opp in t)]
    assert len(inc) == 2, f"edge {e} not flippable"
    t1, t2 = inc
    r = next(k for k in range(3) if t1[k][1] == e)
    t1 = t1[r:] + t1[:r]
    r = next(k for k in range(3) if t2[k][1] == e)
    t2 = t2[r:] + t2[:r]
    (w1, _), (u, a), (v, b) = t1
    (w2, _), (v2, c), (u2, d) = t2
    assert (u2, v2) == (u, v), "incompatible orientations across the edge"
    assert len({e, a, b, c, d}) == 5, "degenerate square"
    rest = [t for t in tris
            if canon_tri(t) not in (canon_tri(t1), canon_tri(t2))]
    new1 = ((w1, c), (u, e), (w2, b))
    new2 = ((w1, d), (w2, a), (v, e))
    return rest + [new1, new2], (a, b, c, d)


def test_frozen_programs_replay_on_the_triangulation():
    for n in range(2, 9):
        N = n + 2
        programs = _fan.letter_programs(n)
        base = base_triangulation(N)
        for k in range(1, n):
            ops, moves = programs[k]
            tris = list(base)
            for (e, a, b, c, d) in ops:
                tris, sides = combinatorial_flip(tris, e)
                # value rule max(b+d, a+c) - e needs opposite pairs {a,c},{b,d}
                a2, b2, c2, d2 = sides
                assert {frozenset((a, c)), frozenset((b, d))} == \
                    {frozenset((a2, c2)), frozenset((b2, d2))}, (n, k, e)
            # relabel punctures j <-> j+1 (padded positions k+1, k+2)
            j = k + 1
            vmap = {j: j + 1, j + 1: j}
            swapped = [tuple((vmap.get(v, v), opp) for v, opp in t)
                       for t in tris]
            # frozen moves say base edge dst plays the role of final edge src
            emap = {src: dst for dst, src in moves}
            renamed = [tuple((v, emap.get(opp, opp)) for v, opp in t)
                       for t in swapped]
            assert canon(renamed) == canon(base), (n, k)


def test_inverse_program_is_reverse_with_inverted_relabeling():
    # compile_pass relabels six slots in place by one simultaneous
    # assignment, which needs every letter's moves to permute six edges
    for n in range(2, 10):
        programs = _fan.letter_programs(n)
        size = 3 * (n + 2) - 3
        assert sorted(programs) == [*range(1 - n, 0), *range(1, n)]
        for ops, moves in programs.values():
            assert len(ops) == 4 and len(moves) == 6
            dst = [d for d, _ in moves]
            assert len(set(dst)) == 6 and set(dst) == {s for _, s in moves}
        for k in range(1, n):
            ops, moves = programs[k]
            iops, imoves = programs[-k]
            assert iops == tuple(reversed(ops))
            assert sorted(imoves) == sorted((s, d) for d, s in moves)
            slot = list(range(size))
            for relabel in map(dict, (moves, imoves)):
                slot = [slot[relabel.get(i, i)] for i in range(size)]
            assert slot == list(range(size))


@settings(max_examples=60)
@given(st.integers(min_value=3, max_value=7),
       st.integers(min_value=2, max_value=5), st.data())
def test_action_is_positively_homogeneous(n, scale, data):
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda j: st.sampled_from([j, -j]))
    letters = tuple(data.draw(st.lists(letter, max_size=8)))
    entry = st.integers(min_value=-6, max_value=6)
    a = tuple(data.draw(st.lists(entry, min_size=n - 2, max_size=n - 2)))
    b = tuple(data.draw(st.lists(entry, min_size=n - 2, max_size=n - 2)))
    word = BraidWord(n, letters)
    image = act(word, CurveCoordinates(a, b))
    scaled = act(word, CurveCoordinates(tuple(scale * x for x in a),
                                        tuple(scale * x for x in b)))
    assert scaled.a == tuple(scale * x for x in image.a)
    assert scaled.b == tuple(scale * x for x in image.b)


def replay_letters(vals, letters, programs):
    """Reference for a compiled pass: the recipes applied one letter at a
    time, rightmost first, moving values on every relabeling.  Returns the
    branch bits and the matrix of the pass on their cell."""
    rows = [[int(i == j) for j in range(len(vals))] for i in range(len(vals))]
    bits = []

    def relabel(moves):
        for target in (vals, rows):
            moved = [target[src] for _, src in moves]
            for (dst, _), item in zip(moves, moved):
                target[dst] = item

    for x in reversed(letters):
        ops, moves = programs[x]
        if x < 0:
            relabel(moves)
        for e, a, b, c, d in ops:
            bits.append(vals[b] + vals[d] > vals[a] + vals[c])
            p, q = (b, d) if bits[-1] else (a, c)
            vals[e] = vals[p] + vals[q] - vals[e]
            rows[e] = [u + v - w for u, v, w in zip(rows[p], rows[q], rows[e])]
        if x > 0:
            relabel(moves)
    return bits, rows


@settings(max_examples=80)
@given(st.sampled_from([*range(2, 10), 16]), st.data())  # 16: word_problem
def test_compiled_pass_equals_the_per_letter_action(n, data):
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(
        lambda j: st.sampled_from([j, -j]))
    letters = tuple(data.draw(st.lists(letter, max_size=12)))
    size = 3 * (n + 2) - 3
    ints = data.draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size))
    programs = _fan.letter_programs(n)
    ops, gather = _fan.compile_pass(size, (), programs)
    assert ops == () and list(gather(ints)) == ints
    program = _fan.compile_pass(size, letters, programs)
    for start in ([v / 7 for v in ints], ints):
        vals, expected = list(start), list(start)
        bits = _fan.run_steps(vals, program)
        expected_bits, expected_rows = replay_letters(expected, letters, programs)
        assert vals == expected and bits == expected_bits
        assert len(bits) == 4 * len(letters)
    assert _fan.pass_matrix(size, program, [bits]) == expected_rows
    image = [sum(m * v for m, v in zip(row, ints)) for row in expected_rows]
    assert image == vals                        # the pass is M on its cell
    _fan.apply_word(ints, letters, programs)
    assert ints == vals


def reference_compile(size, letters, programs):
    """A word's pass compiled one letter at a time: a slot list, a copying
    relabel on every letter and one tuple per flip."""
    def relabel(slot, moves):
        out = list(slot)
        for dst, src in moves:
            out[dst] = slot[src]
        return out

    slot, ops = list(range(size)), []
    for x in reversed(letters):
        flips, moves = programs[x]
        if x < 0:
            slot = relabel(slot, moves)
        ops += [tuple(slot[i] for i in op) for op in flips]
        if x > 0:
            slot = relabel(slot, moves)
    return tuple(ops), slot


def test_long_words_compile_like_the_per_letter_reference():
    words = [w for pair in workloads.word_problem_pairs(1)
             for w in (pair.left, pair.right)]
    assert {w.degree for w in words} == {16}
    words += [generate(spec).word for _, _, spec in workloads.reproduce_specs()]
    assert len(words) == 32 + 17
    assert max(len(w) for w in words) >= 300
    for w in words:
        size = 3 * (w.degree + 2) - 3
        programs = _fan.letter_programs(w.degree)
        ops, gather = _fan.compile_pass(size, w.letters, programs)
        expected_ops, expected_slot = reference_compile(size, w.letters, programs)
        assert ops == expected_ops, w.to_text()
        assert list(gather(list(range(size)))) == expected_slot, w.to_text()


def test_each_estimate_and_act_compiles_its_word_once(monkeypatch):
    compiled = []
    compile_pass = _fan.compile_pass

    def counting(size, letters, programs):
        compiled.append(letters)
        return compile_pass(size, letters, programs)

    monkeypatch.setattr(_fan, "compile_pass", counting)
    monkeypatch.setattr(_kernel_py, "compile_pass", counting)
    equal, distinct = workloads.word_problem_pairs(1)[:2]
    assert equal.left.degree == 16
    # each word is compiled once and run on both multicurves
    for pair in (equal, distinct):
        assert bool(braids_equal(pair.left, pair.right)) == pair.equal
        assert sorted(compiled) == sorted([pair.left.letters, pair.right.letters])
        compiled.clear()
    # an early exit compiles nothing
    verdict = braids_equal(BraidWord(4, (1, 2)), BraidWord(4, (2, 1)))
    assert verdict.witness == "permutations differ" and compiled == []
    entropy_estimate(BraidWord(4, (1, -2, 3, -2)))
    assert len(compiled) == 1
    # a cycle of p > 1 passes is certified from the same compiled pass
    for text, p in (("B7 3 1 2 1 -5 4 -6", 4),
                    ("B4 -3 1 1 -1 2 2 -2 2 2 2 2 1", 2)):
        compiled.clear()
        word = BraidWord.from_text(text)
        assert entropy_estimate(word).cycle == p
        assert compiled == [word.letters]
