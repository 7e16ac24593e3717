"""The twelve Table 1 mutation operators, as declarative specs.

Each entry is one G-SWFIT fault type of the paper's Table 1 — a search
pattern, the preconditions that keep the emulation representative, and
a mutation rule — and :func:`~repro.gswfit.operators.operator_library`
compiles them into the scanner's operator library.  Every spec is
``"replaces": true``, so the same dict installed by a user (e.g. through
``--operator-spec``) re-expresses the built-in under its own fault type.

``tests/gswfit/golden_operators.json`` pins what these specs produce on
both OS builds: every fault id, site order, line number, description
and mutant source.
"""

import json

__all__ = [
    "BUILTIN_SPECS",
    "builtin_spec",
    "builtin_spec_names",
]

#: fault type name → raw spec dict, in Table 1 order (validated when
#: the library is first compiled).
BUILTIN_SPECS = {
    "MVI": {
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "in-init-block"},
            {"kind": "simple-constant-assign"},
            {"kind": "name-read-later"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove initialization '{name} = {value}'",
        },
    },
    "MVAV": {
        "fault_type": "MVAV",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "simple-constant-assign"},
            {"kind": "not-in-init-block"},
            {"kind": "distinguishable-constant"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove assignment '{name} = {value}'",
        },
    },
    "MVAE": {
        "fault_type": "MVAE",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "value-not-constant"},
            {"kind": "single-name-target"},
            {"kind": "value-has-no-call"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove assignment to '{target}'",
        },
    },
    "MIA": {
        "fault_type": "MIA",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "no-else"},
            {"kind": "has-body"},
        ],
        "mutation": {
            "kind": "replace-with-body",
            "description":
                "remove condition 'if {test}:' (keep body)",
        },
    },
    "MLAC": {
        "fault_type": "MLAC",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "test-is-and-chain"},
        ],
        "mutation": {
            "kind": "remove-bool-operand",
            "field": "test",
            "description":
                "remove 'and {clause}' from branch condition",
        },
    },
    "MFC": {
        "fault_type": "MFC",
        "replaces": True,
        "pattern": {"node_types": ["Expr"]},
        "preconditions": [
            {"kind": "is-call-statement"},
            {"kind": "fit-boundary"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description": "remove call '{call}'",
        },
    },
    "MIFS": {
        "fault_type": "MIFS",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "preconditions": [
            {"kind": "no-else"},
            {"kind": "body-size", "min": 1, "max": 5},
            {"kind": "no-control-transfer"},
        ],
        "mutation": {
            "kind": "delete-node",
            "description":
                "remove 'if {test}:' and its {body_count} statement(s)",
        },
    },
    "MLPC": {
        "fault_type": "MLPC",
        "replaces": True,
        "pattern": {"scans_blocks": True},
        "mutation": {
            "kind": "remove-statement-run",
            "description":
                "remove {count} consecutive statement(s) "
                "starting with '{first}'",
        },
    },
    "WVAV": {
        "fault_type": "WVAV",
        "replaces": True,
        "pattern": {"node_types": ["Assign"]},
        "preconditions": [
            {"kind": "simple-constant-assign"},
            {"kind": "interesting-constant"},
        ],
        "mutation": {
            "kind": "perturb-constant",
            "field": "value",
            "description":
                "'{name} = {old}' becomes '{name} = {new}'",
        },
    },
    "WLEC": {
        "fault_type": "WLEC",
        "replaces": True,
        "pattern": {"node_types": ["If"]},
        "mutation": {
            "kind": "swap-comparison-boundary",
            "description": "boundary swap in '{comparison}'",
        },
    },
    "WAEP": {
        "fault_type": "WAEP",
        "replaces": True,
        "pattern": {"node_types": ["Call"]},
        "preconditions": [
            {"kind": "fit-boundary"},
        ],
        "mutation": {
            "kind": "swap-argument-operator",
            "description": "perturb argument '{argument}' of '{func}(...)'",
        },
    },
    "WPFV": {
        "fault_type": "WPFV",
        "replaces": True,
        "pattern": {"node_types": ["Call"]},
        "preconditions": [
            {"kind": "fit-boundary"},
        ],
        "mutation": {
            "kind": "swap-argument-variable",
            "description":
                "argument '{argument}' of '{func}(...)' becomes "
                "'{replacement}'",
        },
    },
}


def builtin_spec_names():
    """The Table 1 fault type names, in Table 1 order."""
    return list(BUILTIN_SPECS)


def builtin_spec(name):
    """A deep copy of the raw spec dict for ``name`` (e.g. ``"MVI"``)."""
    return json.loads(json.dumps(BUILTIN_SPECS[name]))
