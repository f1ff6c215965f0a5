"""Iteration engine for the curve-action growth loop.

Each iteration is one pass of ``_fan.run_steps`` over the word's steps.

Exact arbitrary-precision integers throughout.  Coordinates are renormalized
by an integer right-shift once their total exceeds 2**512; the discarded
power of two is accumulated exactly (in bits) so growth estimates are
unaffected.  While no renormalization has happened, exact state repeats are
detected, which certifies zero entropy for periodic braids.
"""

from __future__ import annotations

import math

from ._fan import run_steps, word_steps

RENORM_BITS = 512
RENORM_TARGET = 256

LOG2 = math.log(2.0)


class PureEngine:
    """Iterates one braid word on an internal edge vector."""

    name = "pure"

    def __init__(self, vals, letters, programs):
        self.vals = list(vals)
        self.steps = word_steps(letters, programs)
        self.scale_bits = 0
        self._seen: dict | None = {tuple(self.vals): 0}
        self.periodic_at: int | None = None
        self.iterations = 0

    def lognorm(self) -> float:
        norm = sum(self.vals)
        if norm <= 0:
            return float("-inf")
        return math.log(norm) + self.scale_bits * LOG2

    def advance(self, count: int) -> list[float]:
        """Apply the word ``count`` times; return the log-norm after each."""
        out = []
        vals, steps = self.vals, self.steps
        for _ in range(count):
            run_steps(vals, steps)
            self.iterations += 1
            norm = sum(vals)
            if norm <= 0:
                out.append(float("-inf"))
                continue
            out.append(math.log(norm) + self.scale_bits * LOG2)
            if self._seen is not None:
                key = tuple(vals)
                if key in self._seen:
                    self.periodic_at = self.iterations
                    self._seen = None
                else:
                    self._seen[key] = self.iterations
            if norm.bit_length() > RENORM_BITS:
                shift = norm.bit_length() - RENORM_TARGET
                for i, v in enumerate(vals):
                    vals[i] = v >> shift
                self.scale_bits += shift
                self._seen = None
        return out
