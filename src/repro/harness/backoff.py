"""Exponential backoff with deterministic jitter.

A fabric worker redialling its coordinator retries on this policy:
exponential growth from a base delay, a hard ceiling, and a jitter term
that spreads simultaneous retriers apart so they do not reconverge on
the exact same instant (the classic thundering-herd failure of
un-jittered backoff).

The jitter is *deterministic*: attempt ``n`` under seed ``s`` always
yields the same delay, because the draw comes from a private
``random.Random`` keyed on ``(seed, attempt)`` rather than from shared
global state.  Two workers with different seeds spread apart; one
worker re-running a test produces byte-identical sleep schedules, which
is what lets the reconnect tests assert exact delays instead of
sleeping through real ones.
"""

import random

__all__ = ["BackoffPolicy"]


class BackoffPolicy:
    """``delay(attempt)`` = min(cap, base * factor^(attempt-1)) * jitter.

    ``jitter`` is the maximum *fractional* inflation: the delay is
    multiplied by ``1 + jitter * u`` with ``u`` drawn uniformly from
    ``[0, 1)`` — the deterministic draw described in the module
    docstring.  ``jitter=0`` disables it entirely.
    """

    def __init__(self, base=0.5, factor=2.0, max_delay=30.0,
                 jitter=0.5, seed=0):
        if base <= 0:
            raise ValueError("base delay must be positive")
        if factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if jitter < 0:
            raise ValueError("jitter fraction must be >= 0")
        self.base = float(base)
        self.factor = float(factor)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = seed

    def delay(self, attempt):
        """Seconds to wait before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_delay,
                  self.base * self.factor ** (attempt - 1))
        if not self.jitter:
            return raw
        draw = random.Random(f"{self.seed}:{attempt}").random()
        return raw * (1.0 + self.jitter * draw)
