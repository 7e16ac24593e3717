"""Mutation operator library.

One operator per fault type of the paper's Table 1, each compiled from
its declarative spec in :mod:`repro.gswfit.dsl.builtin_specs`: a search
pattern (``find_sites``) plus a mutation rule (``mutate``) with the
preconditions that keep the emulation representative (e.g. MIFS never
removes an ``if`` whose body returns, MVI only removes initializations
of variables that are used later).  Every operator is a
:class:`~repro.gswfit.dsl.compile.MutationOperator`.

The library is extensible at runtime: :func:`register_operator` overlays
operators compiled from specs a user installs (DESIGN.md §16) on top of
the Table 1 twelve, either *replacing* a built-in (a re-expression keeps
its fault type, fault ids and digests) or *adding* a new dynamic fault
type.  :func:`operator_provenance` tells the two apart.
:func:`registry_generation` is a counter the cache layer folds into its
memo keys so fingerprints never go stale across registrations.
"""

import functools

from repro.faults.types import FaultType, lookup_fault_type
from repro.gswfit.operators.base import Site, collect_sites

__all__ = [
    "Site",
    "collect_sites",
    "operator_for",
    "operator_library",
    "operator_provenance",
    "register_operator",
    "registry_generation",
    "reset_dynamic_operators",
]


@functools.cache
def _builtin_operators():
    """The Table 1 operators in Table 1 order, compiled on first use.

    Imported here rather than at module level: the DSL compiler imports
    :mod:`repro.gswfit.operators.base`, so importing it while this
    package initializes would be a cycle.
    """
    from repro.gswfit.dsl.builtin_specs import BUILTIN_SPECS
    from repro.gswfit.dsl.compile import compile_spec

    return {
        fault_type: compile_spec(BUILTIN_SPECS[fault_type.value])
        for fault_type in FaultType
    }


#: Dynamic overlay: operators compiled from installed specs, keyed by
#: fault type.  A Table 1 key is a re-expression of that built-in; any
#: other key is a new dynamic fault type (appended after the Table 1
#: twelve in library order).
_DYNAMIC = {}

#: Bumped on every overlay change; cache memo keys include it.
_generation = 0


def registry_generation():
    """Monotonic counter that changes whenever the overlay changes."""
    return _generation


def operator_library():
    """The full operator library, keyed by fault type.

    Table 1 order first (built-ins, with any installed re-expression
    applied in place), then dynamic fault types in registration order.
    """
    library = dict(_builtin_operators())
    library.update(_DYNAMIC)
    return library


def operator_for(fault_type):
    """The operator implementing ``fault_type`` (accepts the enum or name)."""
    if isinstance(fault_type, str):
        fault_type = lookup_fault_type(fault_type)
    if fault_type in _DYNAMIC:
        return _DYNAMIC[fault_type]
    return _builtin_operators()[fault_type]


def operator_provenance(fault_type):
    """``"builtin"`` for a shipped spec, ``"dsl"`` for an installed one."""
    try:
        operator = operator_for(fault_type)
    except (KeyError, ValueError):
        return "unknown"
    return "dsl" if operator.fault_type in _DYNAMIC else "builtin"


def register_operator(operator, replace=False):
    """Overlay ``operator`` onto the library under its fault type.

    ``replace=True`` is required to shadow a built-in Table 1 operator
    (the deliberate act of a ``"replaces": true`` spec); without it a
    built-in collision raises ``ValueError``.  Returns the live
    operator: registering a spec whose digest is already overlaid keeps
    the existing operator and changes nothing, so the campaign parent
    and every worker can install the same specs unconditionally.  Any
    other change bumps :func:`registry_generation`, invalidating
    fingerprint memos.
    """
    global _generation
    fault_type = operator.fault_type
    if fault_type in _builtin_operators() and not replace:
        raise ValueError(
            f"operator for {fault_type.value} would shadow the built-in "
            "Table 1 operator; pass replace=True (spec: \"replaces\": "
            "true) to re-express it"
        )
    current = _DYNAMIC.get(fault_type)
    if current is not None and current.spec.digest == operator.spec.digest:
        return current
    _DYNAMIC[fault_type] = operator
    _generation += 1
    return operator


def reset_dynamic_operators():
    """Drop the whole dynamic overlay (test isolation)."""
    global _generation
    if _DYNAMIC:
        _DYNAMIC.clear()
        _generation += 1
