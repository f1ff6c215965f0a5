"""Seeded inputs and output checks for the three benchmark workloads.

* ``reproduce``: the paper's fixed tables, ``braidseq reproduce thm1.1`` and
  ``thm5.2`` at default arguments.  The seed does not apply.  Rows are
  checked against ``reference.json`` (see ``linear_piece.py``).
* ``oracle_corpus``: random pseudo-Anosov 3-braid words over {-1, 2} and
  their full-twist-padded forms, checked against the exact 3-braid oracle.
* ``word_problem``: pairs of degree-16 words that are equal by construction
  (free insertions, inserted relators, far commutation, braid relation;
  fixed lengths 120 and 140, so the cost hardly depends on the seed) or
  distinct by
  construction (right-multiplied by s_j^2 s_{j+1}^-2, which keeps the
  permutation and the exponent sum, so the verdict must come from the curve
  suite).

Inputs depend on the seed alone; the program under test only receives them.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

from braidseq.families import FamilySpec
from braidseq.standard import StandardForm
from braidseq.words import BraidWord, full_twist

HERE = Path(__file__).resolve().parent

#: |est - ref| above this on a converged estimate stops the run
GROSS_ERR = 1e-6

#: words per length 2..12; every seed gets the same length mix, so the cost
#: of a corpus hardly depends on the seed
ORACLE_WORDS_PER_LENGTH = 12
ORACLE_LENGTHS = range(2, 13)
WORD_PROBLEM_PAIRS = 16
WORD_PROBLEM_DEGREE = 16
WORD_PROBLEM_LENGTH = 120
REWRITE_SCHEDULE = (4, 2, 40)


def word_digest(word: BraidWord) -> str:
    return hashlib.sha256(word.to_text().encode()).hexdigest()


# -- reproduce --------------------------------------------------------------

REPRODUCE_TARGETS = ("thm1.1", "thm5.2")
#: degree laws of the two tables: z_p on 4 + 2p strands, beta_p on 4p + 3
DEGREE_LAW = {"z": lambda p: 4 + 2 * p, "beta": lambda p: 4 * p + 3}


def reproduce_specs():
    """(target, family, FamilySpec) for every estimate `reproduce` makes,
    in order; the thm5.2 b_p entry is the footer's Ent(b_1)."""
    for p in range(1, 9):
        yield "thm1.1", "z", FamilySpec("z", p)
    seed = StandardForm(3, ((-1,), (-1,)))
    yield "thm5.2", "b_p", FamilySpec("b_p", 1, seed=seed)
    for p in range(1, 9):
        yield "thm5.2", "beta", FamilySpec("beta", p, seed=seed)


def load_reference() -> dict:
    """Reference rows keyed by (target, family, p)."""
    doc = json.loads((HERE / "reference.json").read_text())
    return {(r["target"], r["row"], r["p"]): r for r in doc["rows"]}


@dataclass
class Outcome:
    """One estimate or verdict, as the checks saw it."""

    converged: bool
    err: float | None = None          # |est - ref|, for estimates


class CheckFailed(Exception):
    """Output that no tolerated miss explains; the run stops."""


def check_reproduce(target: str, returncode: int, stdout: str,
                    reference: dict) -> list[Outcome]:
    """Parse and check one `reproduce` run; one Outcome per estimate."""
    lines = stdout.splitlines()
    if not lines or not lines[-1].startswith("# "):
        raise CheckFailed(f"{target}: no footer line")
    rows = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))
    if len(rows) != 9 or rows[0][:4] != ["p", "degree", "ent", "Ent"]:
        raise CheckFailed(f"{target}: CSV header or row count wrong: {rows[:1]}")
    family = "z" if target == "thm1.1" else "beta"
    outcomes = []
    any_unconverged = False
    for p, row in enumerate(rows[1:], start=1):
        ref = reference[(target, family, p)]
        if int(row[0]) != p or int(row[1]) != DEGREE_LAW[family](p) \
                or int(row[1]) != ref["degree"]:
            raise CheckFailed(f"{target}: row {row} breaks the degree law")
        if row[5] not in ("True", "False"):
            raise CheckFailed(f"{target}: converged column reads {row[5]!r}")
        value, ent = float(row[2]), float(row[3])
        if abs(ent - (ref["degree"] - 1) * value) > 1e-12 * abs(ent):
            raise CheckFailed(f"{target}: Ent != (degree - 1) * ent in {row}")
        converged = row[5] == "True"
        any_unconverged |= not converged
        outcomes.append(_estimate_outcome(target, p, value, converged, ref))
    if target == "thm5.2":
        ref = reference[(target, "b_p", 1)]
        head, _, text = lines[-1].partition(" = ")
        if head != "# Ent(b_1)":
            raise CheckFailed(f"{target}: footer {lines[-1]!r}")
        # the footer carries no converged flag; it is judged by its value
        value = float(text) / (ref["degree"] - 1)
        outcomes.append(_estimate_outcome(target, 0, value, True, ref))
    if returncode != (1 if any_unconverged else 0):
        raise CheckFailed(f"{target}: exit code {returncode} with "
                          f"unconverged rows: {any_unconverged}")
    return outcomes


def _estimate_outcome(target, p, value, converged, ref) -> Outcome:
    err = abs(value - float(ref["log_mpmath"]))
    if converged and err > GROSS_ERR:
        raise CheckFailed(f"{target} p={p}: converged estimate {value!r} "
                          f"off the reference by {err:.3e}")
    return Outcome(converged, err)


# -- oracle_corpus ----------------------------------------------------------

@dataclass(frozen=True)
class OracleCase:
    word: BraidWord           # what the estimator sees
    pa_word: BraidWord        # the pA word the oracle sees


def oracle_corpus(seed: int) -> list[OracleCase]:
    """ORACLE_WORDS_PER_LENGTH random pA words of each length 2..12, each
    followed by its full-twist-padded form."""
    rng = random.Random(seed)
    cases = []
    for length in ORACLE_LENGTHS:
        made = 0
        while made < ORACLE_WORDS_PER_LENGTH:
            letters = tuple(rng.choice((-1, 2)) for _ in range(length))
            if -1 not in letters or 2 not in letters:
                continue
            word = BraidWord(3, letters)
            cases.append(OracleCase(word, word))
            cases.append(OracleCase(word * full_twist(3), word))
            made += 1
    return cases


# -- word_problem -----------------------------------------------------------

@dataclass(frozen=True)
class WordPair:
    left: BraidWord
    right: BraidWord
    equal: bool


def _random_word(rng: random.Random, n: int, length: int) -> list[int]:
    return [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)]


def _rewrite(rng: random.Random, n: int, letters: list[int]) -> list[int]:
    """The same braid, written differently.

    REWRITE_SCHEDULE gives the number of free insertions (x x^-1), of inserted
    braid relators (aba b^-1a^-1b^-1), and of length-neutral moves after them
    (far commutation, or the braid relation aba -> bab where one applies).
    The length of the result depends on the schedule alone.
    """
    w = list(letters)
    frees, relators, neutral = REWRITE_SCHEDULE
    for _ in range(frees):
        x = rng.choice((1, -1)) * rng.randint(1, n - 1)
        i = rng.randint(0, len(w))
        w[i:i] = [x, -x]
    for _ in range(relators):
        a = rng.randint(1, n - 2)
        s = rng.choice((1, -1))
        x, y = (a, a + 1) if rng.random() < 0.5 else (a + 1, a)
        i = rng.randint(0, len(w))
        w[i:i] = [s * x, s * y, s * x, -s * y, -s * x, -s * y]
    for _ in range(neutral):
        braid = [i for i in range(len(w) - 2)
                 if w[i] == w[i + 2] and abs(abs(w[i]) - abs(w[i + 1])) == 1
                 and (w[i] > 0) == (w[i + 1] > 0)]
        if braid and rng.random() < 0.5:
            i = rng.choice(braid)
            w[i:i + 3] = [w[i + 1], w[i], w[i + 1]]
            continue
        far = [i for i in range(len(w) - 1) if abs(abs(w[i]) - abs(w[i + 1])) >= 2]
        i = rng.choice(far)
        w[i], w[i + 1] = w[i + 1], w[i]
    return w


def word_problem_pairs(seed: int) -> list[WordPair]:
    """WORD_PROBLEM_PAIRS pairs of degree WORD_PROBLEM_DEGREE, alternating
    equal and distinct by construction."""
    rng = random.Random(seed)
    n = WORD_PROBLEM_DEGREE
    # The curve suite stops at the first curve that s_j^2 s_{j+1}^-2 moves,
    # which depends on j alone; spreading j evenly over 1..n-2 (in seeded
    # order) keeps the cost of the distinct pairs the same for every seed.
    distinct = WORD_PROBLEM_PAIRS // 2
    js = [1 + (i * (n - 3)) // (distinct - 1) for i in range(distinct)]
    rng.shuffle(js)
    pairs = []
    for k in range(WORD_PROBLEM_PAIRS):
        base = _random_word(rng, n, WORD_PROBLEM_LENGTH)
        other = _rewrite(rng, n, base)
        equal = k % 2 == 0
        if not equal:
            j = js.pop()
            other += [j, j, -(j + 1), -(j + 1)]
        pairs.append(WordPair(BraidWord(n, tuple(base)), BraidWord(n, tuple(other)),
                              equal))
    return pairs
