"""Tests for the benchmark's input generators, checks and span arithmetic.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from braidseq import dynnikov  # noqa: E402
from braidseq._kernel_py import PureEngine  # noqa: E402
from braidseq.tribraid import exact_dilatation  # noqa: E402
from braidseq.words import BraidWord, full_twist  # noqa: E402


@pytest.mark.parametrize("make", [workloads.oracle_corpus, workloads.word_problem_pairs])
def test_same_seed_same_inputs(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_oracle_corpus_shape():
    cases = workloads.oracle_corpus(3)
    lengths = [len(c.word) for c in cases[::2]]
    assert lengths == sorted(lengths) and set(lengths) == set(range(2, 13))
    assert len(lengths) == 11 * workloads.ORACLE_WORDS_PER_LENGTH
    for plain, padded in zip(cases[::2], cases[1::2]):
        assert set(plain.word.letters) == {-1, 2}
        assert plain.pa_word == plain.word == padded.pa_word
        assert padded.word == plain.word * full_twist(3)
        exact_dilatation(plain.pa_word)        # accepted by the oracle


def test_word_problem_pairs_pass_the_early_exits():
    """Both kinds share permutation and exponent sum, so every verdict has
    to come from the curve suite."""
    pairs = workloads.word_problem_pairs(5)
    assert [p.equal for p in pairs] == [k % 2 == 0 for k in range(len(pairs))]
    for pair in pairs:
        assert pair.left.degree == pair.right.degree == workloads.WORD_PROBLEM_DEGREE
        assert pair.left.letters != pair.right.letters
        assert pair.left.permutation() == pair.right.permutation()
        assert pair.left.exponent_sum() == pair.right.exponent_sum()
        assert len(pair.left) == workloads.WORD_PROBLEM_LENGTH
        assert len(pair.right) == len(pair.left) + 20 + 4 * (not pair.equal)


def test_word_problem_verdicts_match_construction():
    for pair in workloads.word_problem_pairs(11)[:4]:
        assert bool(dynnikov.braids_equal(pair.left, pair.right)) == pair.equal


def _reproduce_stdout(reference, target, unconverged_p=None, shift=0.0):
    family = "z" if target == "thm1.1" else "beta"
    lines = ["p,degree,ent,Ent,abs_error,converged"]
    for p in range(1, 9):
        ref = reference[(target, family, p)]
        value = float(ref["log_mpmath"]) + shift
        ent = (ref["degree"] - 1) * value
        lines.append(f"{p},{ref['degree']},{value!r},{ent!r},0.0,{p != unconverged_p}")
    if target == "thm1.1":
        lines.append("# limit 2*log(2+sqrt(3)) = 2.633915793849633")
    else:
        ref = reference[(target, "b_p", 1)]
        lines.append(f"# Ent(b_1) = {(ref['degree'] - 1) * float(ref['log_mpmath'])!r}")
    return "\n".join(lines) + "\n"


def test_check_reproduce_gates():
    reference = workloads.load_reference()
    ok = workloads.check_reproduce("thm5.2", 0, _reproduce_stdout(reference, "thm5.2"),
                                   reference)
    assert len(ok) == 9 and all(o.converged and o.err < 1e-15 for o in ok)
    out = workloads.check_reproduce(
        "thm1.1", 1, _reproduce_stdout(reference, "thm1.1", unconverged_p=8), reference)
    assert [o.converged for o in out] == [True] * 7 + [False]
    small = workloads.check_reproduce(
        "thm1.1", 0, _reproduce_stdout(reference, "thm1.1", shift=5e-8), reference)
    assert all(4e-8 < o.err < 6e-8 for o in small)      # reported, not fatal
    with pytest.raises(workloads.CheckFailed):          # exit code contract
        workloads.check_reproduce("thm1.1", 0, _reproduce_stdout(
            reference, "thm1.1", unconverged_p=8), reference)
    with pytest.raises(workloads.CheckFailed):          # gross miss
        workloads.check_reproduce("thm1.1", 0, _reproduce_stdout(
            reference, "thm1.1", shift=1e-5), reference)
    bad_degree = _reproduce_stdout(reference, "thm1.1").replace("\n1,6,", "\n1,7,")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_reproduce("thm1.1", 0, bad_degree, reference)


def test_layer_metrics_self_time():
    doc = {"names": ["dynnikov.entropy_estimate", "kernel.advance", "fan.decode"],
           "name": [0, 1, 2, 1], "start_ns": [0, 10, 50, 60],
           "end_ns": [100, 40, 55, 90], "parent": [-1, 0, 0, 0], "op": [0] * 4,
           "counters": {"kernel.flips": 8}, "engines": ["pure"]}
    m, layers = spans.layer_metrics(doc, wall_ns=200, rounds=2)
    assert m["dynnikov.estimate_s"] == pytest.approx(50e-9)
    assert m["kernel.advance_s"] == pytest.approx(30e-9)
    assert m["dynnikov.self_s"] == pytest.approx(17.5e-9)     # (100 - 30 - 5 - 30) / 2
    assert layers["unattributed"] == pytest.approx(50e-9)     # (200 - 100) / 2
    assert m["kernel.flips"] == 4


def test_tracer_counts_engine_flips():
    """Installed wrappers see every estimate and count flips exactly."""
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        est = dynnikov.entropy_estimate(BraidWord(3, (-1, 2, 2)))
    finally:
        uninstall()
    assert tracer.counters["kernel.flips"] == est.iterations * 3 * 4
    assert tracer.counters["dynnikov.estimates"] == 1
    assert tracer.names == ["dynnikov.entropy_estimate", "fan.decode",
                            "fan.letter_programs", "kernel.init", "kernel.advance"]
    assert not hasattr(dynnikov.entropy_estimate, "__wrapped__")
    assert dynnikov.PureEngine is PureEngine
