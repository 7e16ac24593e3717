"""Fault locations.

A :class:`FaultLocation` is one entry of the fault-location map G-SWFIT's
scanning step produces: a specific construct inside a specific function of
the fault injection target where a specific fault type can be emulated.
Locations are plain serializable records — the injection step re-derives
the concrete mutation from ``(module, function, site_key)``, so a faultload
saved to JSON is portable across processes and runs, which is what makes
the experiments repeatable.
"""

from dataclasses import dataclass

from repro.faults.types import FaultType, lookup_fault_type

__all__ = ["FaultLocation"]


@dataclass(frozen=True)
class FaultLocation:
    """One injectable fault.

    Attributes
    ----------
    module:
        Importable python module path of the FIT code
        (e.g. ``repro.ossim.modules.ntdll50``).
    display_module:
        The OS-module name shown in reports (``Ntdll`` / ``Kernel32``).
    function:
        Name of the FIT function containing the site.
    fault_type:
        One of the twelve :class:`~repro.faults.types.FaultType` members.
    site_key:
        Operator-defined stable key identifying the construct within the
        function (survives re-scanning of unchanged source).
    lineno:
        Source line of the construct (1-based, absolute in the file).
    description:
        Human-readable account of the mutation this location produces.
    """

    # A class flag, not a field (ids, ``to_dict`` and equality ignore
    # it): a slot compiles this fault's mutant and plants a probe.
    mutates_code = True

    module: str
    display_module: str
    function: str
    fault_type: FaultType
    site_key: str
    lineno: int = 0
    description: str = ""

    @property
    def fault_id(self):
        """Globally unique, stable identifier for this location."""
        return (
            f"{self.module}:{self.function}:"
            f"{self.fault_type.value}:{self.site_key}"
        )

    def to_dict(self):
        return {
            "module": self.module,
            "display_module": self.display_module,
            "function": self.function,
            "fault_type": self.fault_type.value,
            "site_key": self.site_key,
            "lineno": self.lineno,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            module=data["module"],
            display_module=data["display_module"],
            function=data["function"],
            fault_type=lookup_fault_type(data["fault_type"]),
            site_key=data["site_key"],
            lineno=data.get("lineno", 0),
            description=data.get("description", ""),
        )

    def __str__(self):
        return self.fault_id
