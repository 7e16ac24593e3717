"""Single-pass scanner equivalence (tier-1).

The single-pass scanner is a pure optimisation: for every function of
both OS builds it must emit byte-identical fault locations — same sites,
same ``site_key`` values, same deterministic order — as the per-operator
reference scan (:func:`scan_function_per_operator`, one full AST
traversal per Table-1 operator, the historical implementation).
"""

import json

from repro.gswfit import scanner
from repro.gswfit.scanner import (
    scan_build,
    scan_function,
    scan_function_per_operator,
)


def _fit_functions(build):
    for display_name, module in build.modules:
        names = list(module.__exports__)
        names.extend(getattr(module, "__internal__", []))
        for name in names:
            yield display_name, module, getattr(module, name)


def _as_json(locations):
    return json.dumps([loc.to_dict() for loc in locations])


def test_single_pass_matches_reference_per_function(build):
    for display_name, module, function in _fit_functions(build):
        fast = scan_function(
            function,
            module_name=module.__name__,
            display_module=display_name,
        )
        reference = scan_function_per_operator(
            function,
            module_name=module.__name__,
            display_module=display_name,
        )
        assert _as_json(fast) == _as_json(reference), function.__qualname__


def test_scan_build_byte_identical_to_reference(build, monkeypatch):
    fast = scan_build(build)
    monkeypatch.setattr(scanner, "scan_function", scan_function_per_operator)
    reference = scan_build(build)
    assert fast.os_codename == reference.os_codename
    assert _as_json(fast.locations) == _as_json(reference.locations)
