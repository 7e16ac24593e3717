"""Simulated CPU-cycle accounting.

OS API code charges cycles as it executes (parameter validation, copies,
table walks...).  The cycles charged while a request handler runs are turned
into simulated service time by the server process model, so the *content* of
the executed code — including any mutation — directly shapes the measured
performance.  This is how a mutant that, say, loses a cache-lookup branch
shows up as a throughput regression rather than as an error.

The meter also enforces a per-operation sanity budget: a mutant that turns a
small retry loop into a multi-thousand-iteration spin charges an enormous
number of cycles and trips :class:`~repro.sim.errors.CpuBudgetExceeded`,
which the process model reports as a CPU-hogging worker (the paper's KCP
condition).
"""

from repro.sim.errors import CpuBudgetExceeded

__all__ = ["CpuMeter"]

_UNLIMITED = float("inf")


class CpuMeter:
    """Accumulates simulated CPU cycles for one process.

    Parameters
    ----------
    speed_hz:
        Simulated cycles per simulated second; converts cycles to time.
    operation_budget:
        Maximum cycles a single metered operation may charge before the
        meter raises :class:`CpuBudgetExceeded`.  ``None`` disables the
        check (used by substrate unit tests).
    """

    def __init__(self, speed_hz=50_000_000, operation_budget=None):
        if speed_hz <= 0:
            raise ValueError("speed_hz must be positive")
        self.speed_hz = speed_hz
        self.operation_budget = operation_budget
        self.total_cycles = 0
        # An operation is the span of the running total between these
        # two marks; the end is None while the operation is in progress.
        self._operation_start = 0
        self._operation_end = 0
        # The running total a charge may not exceed: the start plus the
        # budget during a budgeted operation, infinite otherwise.  One
        # comparison per charge stands in for a per-operation sum.
        self._limit = _UNLIMITED

    # ------------------------------------------------------------------
    # Charging
    # ------------------------------------------------------------------
    def charge(self, cycles):
        """Charge ``cycles`` to the meter.

        Negative charges are clamped to zero so a mutated arithmetic
        expression cannot create time out of nothing.
        """
        if cycles < 0:
            cycles = 0
        total = self.total_cycles + int(cycles)
        self.total_cycles = total
        if total > self._limit:
            used = total - self._operation_start
            raise CpuBudgetExceeded(
                f"operation exceeded CPU budget "
                f"({used} > {self.operation_budget})",
                cycles=used,
            )

    # ------------------------------------------------------------------
    # Per-operation bracketing
    # ------------------------------------------------------------------
    def begin_operation(self):
        """Start metering one operation (e.g. handling one HTTP request)."""
        self._operation_start = self.total_cycles
        self._operation_end = None
        if self.operation_budget is not None:
            self._limit = self.total_cycles + self.operation_budget

    def end_operation(self):
        """Stop metering and return the cycles charged by the operation."""
        self._limit = _UNLIMITED
        self._operation_end = self.total_cycles
        return self._operation_end - self._operation_start

    @property
    def operation_cycles(self):
        """Cycles charged by the operation in progress (or the last one)."""
        end = self._operation_end
        if end is None:
            end = self.total_cycles
        return end - self._operation_start

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    def cycles_to_seconds(self, cycles):
        return cycles / self.speed_hz

    def seconds_to_cycles(self, seconds):
        return int(seconds * self.speed_hz)

    def __repr__(self):
        return (
            f"CpuMeter(speed_hz={self.speed_hz}, "
            f"total_cycles={self.total_cycles})"
        )
