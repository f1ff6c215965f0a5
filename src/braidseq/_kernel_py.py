"""Iteration engine for the curve-action growth loop.

The word is compiled once (``_fan.compile_pass``) into a flat run of
flips; each iteration is one ``_fan.run_steps`` over it, which also
returns the branch every flip took.  Once a pass takes the same
branches as the pass before it, the pass acts on the iterate as one integer
matrix (``_fan.pass_matrix``), which the estimator certifies.

Exact arbitrary-precision integers throughout.  Coordinates are renormalized
by an integer right-shift once their total exceeds 2**512; the discarded
power of two is accumulated exactly (in bits) so growth estimates are
unaffected; the rounding can still decide when a pass repeats its branches.
While no renormalization has happened, a return of the orbit to its start
vector is detected, which certifies zero entropy for periodic braids.  The
action is a bijection, so x_i = x_j with i < j implies x_0 = x_{j-i}: the
first repeat of an exact orbit is a return to its start, so the start
vector is the only one kept.  The start vector is a nonempty curve system,
so no iterate is empty and the norm stays positive.
"""

from __future__ import annotations

import math

from ._fan import compile_pass, run_steps

RENORM_BITS = 512
RENORM_TARGET = 256

LOG2 = math.log(2.0)


class PureEngine:
    """Iterates one braid word on an internal edge vector."""

    name = "pure"

    def __init__(self, vals, letters, programs):
        self.vals = list(vals)
        self.program = compile_pass(len(self.vals), letters, programs)
        self.scale_bits = 0
        self._start: list | None = list(self.vals)
        self.periodic_at: int | None = None
        self.iterations = 0
        self.bits: list[bool] | None = None
        self.repeated = False

    def lognorm(self) -> float:
        return math.log(sum(self.vals)) + self.scale_bits * LOG2

    def advance(self, count: int) -> list[float]:
        """Apply the word ``count`` times; return the log-norm after each.

        ``bits`` holds the branches of the last pass, and ``repeated`` says
        whether the pass before it took the same ones.
        """
        out = []
        vals, program = self.vals, self.program
        for _ in range(count):
            bits = run_steps(vals, program)
            self.repeated = bits == self.bits
            self.bits = bits
            self.iterations += 1
            norm = sum(vals)
            out.append(math.log(norm) + self.scale_bits * LOG2)
            if vals == self._start:
                self.periodic_at = self.iterations
                self._start = None
            if norm.bit_length() > RENORM_BITS:
                shift = norm.bit_length() - RENORM_TARGET
                for i, v in enumerate(vals):
                    vals[i] = v >> shift
                self.scale_bits += shift
                self._start = None
        return out
