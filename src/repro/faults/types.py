"""The representative software fault types (the paper's Table 1).

The classification combines the *construct nature* (missing / wrong /
extraneous construct — how the defect relates to the programming-language
constructs of the program text) with the ODC defect type.  The twelve types
below are the ones the field-data study behind the paper found to account
for roughly half of all residual software faults; extraneous-construct
faults were too rare to justify inclusion, so none appear here.

Beyond Table 1, the registry is *extensible*: declarative operator specs
(DESIGN.md §16) can introduce new fault types at runtime.  A dynamic type
is an interned :class:`DynamicFaultType` token that quacks like a
:class:`FaultType` member (it has a ``.value``, it is hashable, identity
is equality), so faultloads, reports and campaign plumbing treat both
uniformly.  ``lookup_fault_type`` resolves names across both worlds and
``iter_fault_types`` appends dynamic types, in registration order, after
the Table 1 twelve.
"""

import enum
from dataclasses import dataclass

__all__ = [
    "ConstructNature",
    "DynamicFaultType",
    "FaultType",
    "FaultTypeInfo",
    "ODCType",
    "fault_type_info",
    "iter_fault_types",
    "lookup_fault_type",
    "register_fault_type",
    "reset_dynamic_fault_types",
]


class ConstructNature(enum.Enum):
    """How the defect relates to the program text."""

    MISSING = "missing"
    WRONG = "wrong"
    EXTRANEOUS = "extraneous"


class ODCType(enum.Enum):
    """Orthogonal Defect Classification defect types used by the paper."""

    ASSIGNMENT = "Assignment"
    CHECKING = "Checking"
    ALGORITHM = "Algorithm"
    INTERFACE = "Interface"
    FUNCTION = "Function"


class FaultType(enum.Enum):
    """The twelve fault types of the faultload (paper Table 1)."""

    MVI = "MVI"
    MVAV = "MVAV"
    MVAE = "MVAE"
    MIA = "MIA"
    MLAC = "MLAC"
    MFC = "MFC"
    MIFS = "MIFS"
    MLPC = "MLPC"
    WVAV = "WVAV"
    WLEC = "WLEC"
    WAEP = "WAEP"
    WPFV = "WPFV"


class DynamicFaultType:
    """An interned fault-type token for spec-defined fault types.

    Tokens are interned by ``value``: constructing the same name twice
    yields the same object, so the enum-style identity comparisons used
    throughout the codebase (``location.fault_type is stratum.fault_type``,
    dict keys, set membership) keep working.  Interning survives pickling
    (``__reduce__`` routes through the constructor), which is what lets
    fault locations for dynamic types cross the worker-process boundary.
    """

    __slots__ = ("value",)
    _interned = {}

    def __new__(cls, value):
        token = cls._interned.get(value)
        if token is None:
            token = super().__new__(cls)
            token.value = value
            cls._interned[value] = token
        return token

    def __repr__(self):
        return f"<DynamicFaultType.{self.value}>"

    def __reduce__(self):
        """Unpickle through ``__new__`` so interning is preserved."""
        return (DynamicFaultType, (self.value,))


@dataclass(frozen=True)
class FaultTypeInfo:
    """Static metadata for one fault type."""

    fault_type: FaultType
    description: str
    nature: ConstructNature
    odc_type: ODCType
    field_coverage_percent: float


_INFOS = {
    FaultType.MVI: FaultTypeInfo(
        FaultType.MVI,
        "Missing variable initialization",
        ConstructNature.MISSING,
        ODCType.ASSIGNMENT,
        2.25,
    ),
    FaultType.MVAV: FaultTypeInfo(
        FaultType.MVAV,
        "Missing variable assignment using a value",
        ConstructNature.MISSING,
        ODCType.ASSIGNMENT,
        2.25,
    ),
    FaultType.MVAE: FaultTypeInfo(
        FaultType.MVAE,
        "Missing variable assignment using an expression",
        ConstructNature.MISSING,
        ODCType.ASSIGNMENT,
        3.0,
    ),
    FaultType.MIA: FaultTypeInfo(
        FaultType.MIA,
        'Missing "if (cond)" surrounding statement(s)',
        ConstructNature.MISSING,
        ODCType.CHECKING,
        4.32,
    ),
    FaultType.MLAC: FaultTypeInfo(
        FaultType.MLAC,
        'Missing "AND EXPR" in expression used as branch condition',
        ConstructNature.MISSING,
        ODCType.CHECKING,
        7.89,
    ),
    FaultType.MFC: FaultTypeInfo(
        FaultType.MFC,
        "Missing function call",
        ConstructNature.MISSING,
        ODCType.ALGORITHM,
        8.64,
    ),
    FaultType.MIFS: FaultTypeInfo(
        FaultType.MIFS,
        'Missing "If (cond) { statement(s) }"',
        ConstructNature.MISSING,
        ODCType.ALGORITHM,
        9.96,
    ),
    FaultType.MLPC: FaultTypeInfo(
        FaultType.MLPC,
        "Missing small and localized part of the algorithm",
        ConstructNature.MISSING,
        ODCType.ALGORITHM,
        3.19,
    ),
    FaultType.WVAV: FaultTypeInfo(
        FaultType.WVAV,
        "Wrong value assigned to a variable",
        ConstructNature.WRONG,
        ODCType.ASSIGNMENT,
        2.44,
    ),
    FaultType.WLEC: FaultTypeInfo(
        FaultType.WLEC,
        "Wrong logical expression used as branch condition",
        ConstructNature.WRONG,
        ODCType.CHECKING,
        3.0,
    ),
    FaultType.WAEP: FaultTypeInfo(
        FaultType.WAEP,
        "Wrong arithmetic expression used in parameter of function call",
        ConstructNature.WRONG,
        ODCType.INTERFACE,
        2.25,
    ),
    FaultType.WPFV: FaultTypeInfo(
        FaultType.WPFV,
        "Wrong variable used in parameter of function call",
        ConstructNature.WRONG,
        ODCType.INTERFACE,
        1.5,
    ),
}

#: Metadata for dynamic (spec-defined) fault types, keyed by token,
#: in registration order (dicts preserve insertion order).
_DYNAMIC_INFOS = {}

_BUILTIN_NAMES = frozenset(member.value for member in FaultType)


def register_fault_type(name, description, nature, odc_type,
                        field_coverage_percent=0.0):
    """Register a dynamic fault type and return its interned token.

    ``nature`` and ``odc_type`` may be enum members or their string
    values.  Registering the same name again with identical metadata is
    a no-op (workers re-install operator specs idempotently); new
    metadata for an existing name replaces it.  A name colliding with a
    built-in :class:`FaultType` member raises ``ValueError`` — built-ins
    are re-expressed via ``"replaces": true`` operator specs, never
    shadowed by a new type.
    """
    if name in _BUILTIN_NAMES:
        raise ValueError(
            f"fault type {name!r} collides with a built-in fault type; "
            'use an operator spec with "replaces": true to re-express '
            "the built-in, or pick a new id"
        )
    token = DynamicFaultType(name)
    info = FaultTypeInfo(
        token,
        description,
        ConstructNature(nature),
        ODCType(odc_type),
        float(field_coverage_percent),
    )
    _DYNAMIC_INFOS[token] = info
    return token


def reset_dynamic_fault_types():
    """Drop every dynamic fault type registration (test isolation)."""
    _DYNAMIC_INFOS.clear()


def lookup_fault_type(fault_type):
    """Resolve ``fault_type`` (name, enum member, or token) to its object.

    Accepts a built-in :class:`FaultType` member, a registered
    :class:`DynamicFaultType` token, or the name of either.  Unknown
    names raise ``ValueError`` with a pointer at operator specs, the
    mechanism that introduces non-Table-1 types.
    """
    if isinstance(fault_type, (FaultType, DynamicFaultType)):
        return fault_type
    try:
        return FaultType(fault_type)
    except ValueError:
        pass
    token = DynamicFaultType._interned.get(fault_type)
    if token is not None and token in _DYNAMIC_INFOS:
        return token
    raise ValueError(
        f"unknown fault type {fault_type!r}: not one of the Table 1 "
        "twelve and no operator spec has registered it (dynamic fault "
        "types must be installed — e.g. via --operator-spec — before "
        "their faultloads are loaded)"
    )


def fault_type_info(fault_type):
    """Return the :class:`FaultTypeInfo` for ``fault_type`` (or its name)."""
    if isinstance(fault_type, str):
        fault_type = lookup_fault_type(fault_type)
    if isinstance(fault_type, DynamicFaultType):
        return _DYNAMIC_INFOS[fault_type]
    return _INFOS[fault_type]


def iter_fault_types():
    """All fault types: Table 1 order, then dynamic registration order."""
    return [
        FaultType.MVI,
        FaultType.MVAV,
        FaultType.MVAE,
        FaultType.MIA,
        FaultType.MLAC,
        FaultType.MFC,
        FaultType.MIFS,
        FaultType.MLPC,
        FaultType.WVAV,
        FaultType.WLEC,
        FaultType.WAEP,
        FaultType.WPFV,
        *_DYNAMIC_INFOS,
    ]
