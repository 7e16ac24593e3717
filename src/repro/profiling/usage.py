"""Cross-target API usage analysis (the paper's Table 2).

Combines the per-target tracers into one table of usage percentages, then
applies the two selection rules of the methodology:

* only functions used by **all** observed targets are eligible (the
  intersection rule — it keeps the faultload fair across targets);
* functions responsible for a negligible share of the calls are dropped
  (they would contribute faults that almost never activate).
"""

from dataclasses import dataclass, field

__all__ = ["UsageRow", "UsageTable"]

# Percent of a target's API calls at or below which a function's average
# share is negligible.
NEGLIGIBLE_PERCENT = 0.1


@dataclass
class UsageRow:
    """One API function's usage across all profiled targets."""

    module: str
    function: str
    per_target: dict = field(default_factory=dict)

    def average(self):
        if not self.per_target:
            return 0.0
        return sum(self.per_target.values()) / len(self.per_target)

    def used_by_all(self, target_names):
        return all(self.per_target.get(name, 0.0) > 0.0
                   for name in target_names)


class UsageTable:
    """Usage percentages of every observed API function per target."""

    def __init__(self, target_names):
        self.target_names = list(target_names)
        self._rows = {}

    @classmethod
    def from_tracers(cls, tracers):
        """Build a table from ``{target_name: ApiCallTracer}``."""
        table = cls(list(tracers))
        for target_name, tracer in tracers.items():
            for (module, function), pct in tracer.percentages().items():
                row = table._rows.get((module, function))
                if row is None:
                    row = UsageRow(module=module, function=function)
                    table._rows[(module, function)] = row
                row.per_target[target_name] = pct
        return table

    def rows(self):
        """All rows sorted by (module, function) for stable reports."""
        return [self._rows[key] for key in sorted(self._rows)]

    def row(self, module, function):
        """The row for one function, or None when never observed."""
        return self._rows.get((module, function))

    # ------------------------------------------------------------------
    # Selection (the fine-tuning rules)
    # ------------------------------------------------------------------
    def select_relevant(self):
        """Rows passing both rules: used by all targets, non-negligible.

        A function is negligible when its *average* share across targets
        is at or below ``NEGLIGIBLE_PERCENT``.
        """
        selected = []
        for row in self.rows():
            if not row.used_by_all(self.target_names):
                continue
            if row.average() <= NEGLIGIBLE_PERCENT:
                continue
            selected.append(row)
        return selected

    def selected_function_names(self):
        """Names of the selected functions (the FIT subset)."""
        return [row.function for row in self.select_relevant()]

    def total_call_coverage(self):
        """Average share of all calls covered by the selected set.

        The paper reports 68.34% for the four web servers — the headline
        that a small function set still dominates the OS traffic.
        """
        return sum(row.average() for row in self.select_relevant())

    def __len__(self):
        return len(self._rows)

    def __repr__(self):
        return (
            f"UsageTable(targets={self.target_names}, "
            f"functions={len(self._rows)})"
        )
