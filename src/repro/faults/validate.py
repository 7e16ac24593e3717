"""Faultload validation — the paper's Section 4 properties, as code.

A faultload shipped as a benchmark artifact must be *usable*: every
location must resolve against the current FIT code, rescanning must find
it again (stability), and the mix must look like a software faultload
(fault types present, missing-construct faults dominating).  This module
turns those properties into machine-checkable findings, used by the CLI
(``repro-bench scan --output``) and available to library users before
they commit a faultload to a long campaign.
"""

from dataclasses import dataclass

from repro.faults.types import ConstructNature, fault_type_info

__all__ = ["ValidationFinding", "ValidationReport", "validate_faultload"]


@dataclass(frozen=True)
class ValidationFinding:
    """One validation problem (or informational note)."""

    severity: str  # "error" | "warning"
    code: str
    detail: str

    def __str__(self):
        return f"[{self.severity}] {self.code}: {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of validating one faultload."""

    faultload_name: str
    checked: int
    findings: list

    @property
    def ok(self):
        return not any(f.severity == "error" for f in self.findings)

    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    def warnings(self):
        return [f for f in self.findings if f.severity == "warning"]

    def __str__(self):
        state = "OK" if self.ok else "INVALID"
        lines = [
            f"faultload {self.faultload_name!r}: {state} "
            f"({self.checked} locations, {len(self.errors())} errors, "
            f"{len(self.warnings())} warnings)"
        ]
        lines.extend(str(finding) for finding in self.findings)
        return "\n".join(lines)


def validate_faultload(faultload):
    """Validate ``faultload``; returns a :class:`ValidationReport`.

    Checks, in order of severity:

    * every location's mutant builds against the current FIT source;
    * no duplicate fault ids;
    * the empty faultload is flagged;
    * type-mix sanity (warnings): all locations of a single type, or a
      mix where wrong-construct faults outnumber missing-construct ones,
      does not look like a field-data-representative software faultload.
    """
    from repro.gswfit.mutator import MutantError, build_mutant

    findings = []
    locations = list(faultload)
    if not locations:
        findings.append(ValidationFinding(
            "error", "empty", "the faultload contains no locations"
        ))
        return ValidationReport(faultload.name, 0, findings)

    seen = set()
    for location in locations:
        if location.fault_id in seen:
            findings.append(ValidationFinding(
                "error", "duplicate",
                f"{location.fault_id} appears more than once",
            ))
        seen.add(location.fault_id)

    for location in locations:
        try:
            build_mutant(location)
        except MutantError as exc:
            findings.append(ValidationFinding(
                "error", "unresolvable",
                f"{location.fault_id}: {exc}",
            ))
        except Exception as exc:  # anything else is a library bug
            findings.append(ValidationFinding(
                "error", "mutant-failure",
                f"{location.fault_id}: {type(exc).__name__}: {exc}",
            ))

    counts = faultload.counts_by_type()
    present = [ft for ft, count in counts.items() if count > 0]
    if len(present) == 1:
        findings.append(ValidationFinding(
            "warning", "single-type",
            f"only {present[0].value} faults present — fine for targeted "
            f"studies, not representative of field data",
        ))
    missing_total = sum(
        count for ft, count in counts.items()
        if fault_type_info(ft).nature is ConstructNature.MISSING
    )
    wrong_total = sum(
        count for ft, count in counts.items()
        if fault_type_info(ft).nature is ConstructNature.WRONG
    )
    if wrong_total > missing_total:
        findings.append(ValidationFinding(
            "warning", "mix-inverted",
            f"wrong-construct faults ({wrong_total}) outnumber "
            f"missing-construct faults ({missing_total}); field data "
            f"shows the opposite",
        ))
    return ValidationReport(faultload.name, len(locations), findings)
