"""Iteration engine for the curve-action growth loop.

The word is compiled once (``_fan.compile_pass``) into a flat run of
flips; each iteration is one ``_fan.run_steps`` over it, which also
returns the pass's branch list: the branch every flip took.  Only this
module reads the lists of the last ``MAX_CYCLE + 1`` passes.  Once a pass
takes the branches of the pass p <= ``MAX_CYCLE`` passes before it,
``cycle`` returns the last p lists: the next p passes are predicted to run
the one compiled pass on their cells in turn, one matrix to certify.

Exact arbitrary-precision integers throughout, never rounded: the integers
grow like lambda^k, so the cost of a pass grows with k.  A return of the
orbit to its start vector is detected at every pass, which certifies zero
entropy for periodic braids.  The action is a bijection, so x_i = x_j with
i < j implies x_0 = x_{j-i}: the first repeat of an exact orbit is a return
to its start, so the start vector is the only one kept.  The start vector
is a nonempty curve system, so no iterate is empty and the norm stays
positive.
"""

from __future__ import annotations

import math
from collections import deque

from ._fan import compile_pass, run_steps

MAX_CYCLE = 8


class PureEngine:
    """Iterates one braid word on an internal edge vector."""

    name = "pure"

    def __init__(self, vals, letters, programs):
        self.vals = list(vals)
        self.program = compile_pass(len(self.vals), letters, programs)
        self._start: list | None = list(self.vals)
        self.periodic_at: int | None = None
        self.iterations = 0
        self.history: deque[list[bool]] = deque(maxlen=MAX_CYCLE + 1)

    def lognorm(self) -> float:
        return math.log(sum(self.vals))

    def advance(self, count: int) -> list[float]:
        """Apply the word ``count`` times; return the log-norm after each.

        ``history`` ends with the branches of the last pass.
        """
        out = []
        vals, program, history = self.vals, self.program, self.history
        for _ in range(count):
            history.append(run_steps(vals, program))
            self.iterations += 1
            out.append(math.log(sum(vals)))
            if vals == self._start:
                self.periodic_at = self.iterations
                self._start = None
        return out

    def cycle(self) -> list[list[bool]] | None:
        """The last p branch lists, oldest first, for the smallest p <=
        ``MAX_CYCLE`` with the last pass equal to the p-th before; or None."""
        history = self.history
        for p in range(1, len(history)):
            if history[-1 - p] == history[-1]:
                return list(history)[-p:]
        return None
