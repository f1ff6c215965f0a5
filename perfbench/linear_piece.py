#!/usr/bin/env python3
"""Exact log-dilatations for the `reproduce` rows, from the stabilized
linear piece of the flip action.

The flip rule ``e' = max(b + d, a + c) - e`` is piecewise linear.  Iterating
one pass of the word on an exact integer edge vector, we record which branch
every flip takes.  Once two consecutive passes take the same branches, the
pass acts on the iterate as one integer matrix M (size 3n+3).  An
eigenvalue lambda > 1 of M, the largest along which the iterate has a
component, is accepted only when its eigenvector, refined to
40 digits with mpmath, is non-negative and is stretched by exactly lambda
under the full piecewise-linear pass: then it is a projectively invariant
measured foliation with stretch factor > 1, i.e. the unstable foliation, and
log lambda is the log-dilatation.  Otherwise iteration continues.  The
accepted eigenvalue need not be M's spectral radius: M can have a larger
eigenvalue whose eigenvector lies outside the cell (z_3: 8.79 against
lambda = 1.344), so both logs are stored.

The method is first checked against the exact 3-braid oracle
(``tribraid.exact_dilatation``); then every row of ``reproduce thm1.1`` and
``reproduce thm5.2`` (with the b_1 estimate behind the thm5.2 footer) is
computed and written to ``reference.json`` next to this file, with the pass
count, the numpy and the mpmath value.

Run from the repository root:  python3 perfbench/linear_piece.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from braidseq import _fan, dynnikov  # noqa: E402
from braidseq.families import generate  # noqa: E402
from braidseq.tribraid import exact_dilatation  # noqa: E402
from braidseq.words import BraidWord, full_twist  # noqa: E402

import workloads  # noqa: E402

DIGITS = 40
MAX_PASSES = 2000
CERTIFY_RESIDUAL = mpmath.mpf(10) ** (-30)


def pass_steps(word: BraidWord):
    """One pass of the word as (ops, moves, positive) in the engine's order."""
    programs = _fan.letter_programs(word.degree)
    return [programs[x] + (x > 0,) for x in reversed(word.letters)]


def run_pass(vals: list, steps, pattern: list | None = None) -> None:
    """Apply one pass in place with the exact max rule.

    When ``pattern`` is a list, append one bit per flip: True when the
    ``b + d`` branch was strictly larger (the engine's tie rule).
    """
    def flip(ops):
        for e, a, b, c, d in ops:
            x = vals[b] + vals[d]
            y = vals[a] + vals[c]
            if pattern is not None:
                pattern.append(x > y)
            vals[e] = (x if x > y else y) - vals[e]

    def move(moves):
        grabbed = [vals[src] for _, src in moves]
        for (dst, _), val in zip(moves, grabbed):
            vals[dst] = val

    for ops, moves, positive in steps:
        if positive:
            flip(ops)
            move(moves)
        else:
            move(moves)
            flip(ops)


def pass_matrix(size: int, steps, pattern) -> list[list[int]]:
    """Integer matrix of one pass restricted to the cell of ``pattern``."""
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    bits = iter(pattern)

    def flip(ops):
        for e, a, b, c, d in ops:
            p, q = (b, d) if next(bits) else (a, c)
            rows[e] = [u + v - w for u, v, w in zip(rows[p], rows[q], rows[e])]

    def move(moves):
        grabbed = [rows[src] for _, src in moves]
        for (dst, _), row in zip(moves, grabbed):
            rows[dst] = row

    for ops, moves, positive in steps:
        if positive:
            flip(ops)
            move(moves)
        else:
            move(moves)
            flip(ops)
    return rows


def certified_log(rows, steps, iterate):
    """Certified (log lambda numpy, log lambda mpmath, residual, log spectral
    radius of M) for the pass matrix ``rows``, or None.

    lambda is the largest eigenvalue in modulus among those the current
    iterate has a component along; eigenvalues whose eigenvectors lie outside
    the cell (or are never reached from a curve) are skipped that way.
    """
    m = np.array(rows, dtype=float)
    eig, vecs = np.linalg.eig(m)
    radius = float(np.abs(eig).max())
    shift = max(0, max(iterate).bit_length() - 60)
    v = np.array([float(t >> shift) for t in iterate])
    v /= np.abs(v).max()
    coeff = np.linalg.solve(vecs, v) * np.abs(vecs).max(axis=0)
    present = [k for k in np.argsort(-np.abs(eig)) if abs(coeff[k]) > 1e-6]
    if not present:
        return None
    lam0 = eig[present[0]]
    if abs(lam0.imag) > 1e-9 or lam0.real <= 1.0 + 1e-9:
        return None
    x0 = np.real(vecs[:, present[0]])
    if x0.sum() < 0:
        x0 = -x0
    y0 = list(x0)
    run_pass(y0, steps)                          # cheap float screen first
    if x0.min() < -1e-9 * x0.max() or \
            np.abs(np.array(y0) - lam0.real * x0).max() > 1e-8 * x0.max() * lam0.real:
        return None
    with mpmath.workdps(DIGITS + 10):
        a = mpmath.matrix(rows) - mpmath.mpf(float(lam0.real)) * mpmath.eye(len(rows))
        x = mpmath.matrix([mpmath.mpf(float(t)) for t in x0])
        for _ in range(4):                       # inverse iteration
            x = mpmath.lu_solve(a, x)
            x = x / mpmath.fsum(x)
        y = list(x)
        run_pass(y, steps)                       # the full PL pass
        lam = mpmath.fsum(y) / mpmath.fsum(x)
        residual = max(abs(u - lam * t) for u, t in zip(y, x)) / max(x)
        if min(x) < -CERTIFY_RESIDUAL or residual > CERTIFY_RESIDUAL:
            return None
        return (float(np.log(lam0.real)), mpmath.nstr(mpmath.log(lam), DIGITS),
                float(residual), float(np.log(radius)))


def linear_piece_log(word: BraidWord) -> dict:
    """Iterate passes until the branch pattern repeats and certifies."""
    n = word.degree
    seed = dynnikov.default_seed(n)
    vals = _fan.decode(n, seed.a, seed.b)
    steps = pass_steps(word)
    previous = None
    for passes in range(1, MAX_PASSES + 1):
        pattern: list = []
        run_pass(vals, steps, pattern)
        if pattern == previous:
            found = certified_log(pass_matrix(len(vals), steps, pattern), steps, vals)
            if found is not None:
                log_np, log_mp, residual, log_radius = found
                return {"passes": passes, "log_numpy": log_np,
                        "log_mpmath": log_mp, "residual": residual,
                        "log_spectral_radius": log_radius}
        previous = pattern
    raise RuntimeError(f"no certified linear piece after {MAX_PASSES} passes")


def main() -> int:
    t0 = time.perf_counter()
    checks = []
    for letters in [(-1, 2), (-1, 2, 2), (-1, -1, 2, 2, 2), (-1, 2, -1, 2, 2, 2)]:
        word = BraidWord(3, letters)
        trace = exact_dilatation(word).trace
        for form, w in (("plain", word), ("full_twist_padded", word * full_twist(3))):
            got = linear_piece_log(w)
            with mpmath.workdps(DIGITS + 10):
                exact = mpmath.log((trace + mpmath.sqrt(trace * trace - 4)) / 2)
                err = abs(mpmath.mpf(got["log_mpmath"]) - exact)
            if err > mpmath.mpf(10) ** (-(DIGITS - 2)):
                raise SystemExit(f"3-braid cross-check failed for {letters} {form}: {err}")
            checks.append({"letters": list(letters), "form": form,
                           "trace": trace, "log_exact": mpmath.nstr(exact, DIGITS),
                           **got, "abs_err": float(err)})
    rows = []
    for target, label, spec in workloads.reproduce_specs():
        word = generate(spec).word
        t1 = time.perf_counter()
        got = linear_piece_log(word)
        rows.append({"target": target, "row": label, "p": spec.p,
                     "degree": word.degree, "letters": len(word.letters),
                     "word_sha256": workloads.word_digest(word), **got})
        print(f"{target} {label} p={spec.p} deg={word.degree} passes={got['passes']} "
              f"log={got['log_mpmath'][:22]} ({time.perf_counter() - t1:.1f}s)",
              file=sys.stderr)
    doc = {"method": "eigenvalue of the one-pass matrix on the repeated branch "
                     "pattern whose eigenvector is certified under the PL pass",
           "digits": DIGITS, "tribraid_cross_check": checks, "rows": rows}
    out = HERE / "reference.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out} in {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
