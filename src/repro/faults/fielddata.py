"""Field-data statistics behind the fault model.

The numbers come from the field study the paper builds on (Durães &
Madeira, DSN 2003): the share each fault type holds in the total population
of real residual software faults found in deployed programs.  They drive
Table 1 of the paper and the representativeness argument of the faultload.
"""

from repro.faults.types import (
    ConstructNature,
    fault_type_info,
    iter_fault_types,
)

__all__ = [
    "FIELD_COVERAGE",
    "total_field_coverage",
    "coverage_by_odc_type",
    "coverage_by_nature",
]

FIELD_COVERAGE = {
    fault_type: fault_type_info(fault_type).field_coverage_percent
    for fault_type in iter_fault_types()
}


def total_field_coverage():
    """Share of all field faults covered by the twelve types (~50.69%)."""
    return sum(FIELD_COVERAGE.values())


def coverage_by_odc_type():
    """Field coverage aggregated by ODC defect type."""
    totals = {}
    for fault_type in iter_fault_types():
        info = fault_type_info(fault_type)
        key = info.odc_type
        totals[key] = totals.get(key, 0.0) + info.field_coverage_percent
    return totals


def coverage_by_nature():
    """Field coverage aggregated by construct nature.

    Extraneous-construct faults are reported as 0: the field study found
    them too rare to justify inclusion in the faultload.
    """
    totals = {nature: 0.0 for nature in ConstructNature}
    for fault_type in iter_fault_types():
        info = fault_type_info(fault_type)
        totals[info.nature] += info.field_coverage_percent
    return totals
