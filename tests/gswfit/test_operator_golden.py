"""Golden record of the operator library's output on both OS builds.

``golden_operators.json`` holds, per ``(build, fault type)``, the site
count and a sha256 over the scan-ordered ``(fault_id, lineno,
description, ast.unparse(mutant))`` tuples.  It was generated from the
original class implementation of the twelve Table 1 operators, so any
rewrite of an operator — or of the scanner, the mutator or the DSL
vocabulary underneath — must reproduce every fault id, site order, line
number, description and mutant source exactly.

Mutants are compared as ``ast.unparse`` text, not bytecode: bytecode
depends on the interpreter, and marshal output on refcounts.  The
pinned end-to-end ``faultload`` digest covers bytecode on the pinned
interpreter.

Regenerate (only when a change of faultload is intended)::

    PYTHONPATH=src python tests/gswfit/test_operator_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.types import FaultType
from repro.gswfit.mutator import mutated_source
from repro.gswfit.scanner import scan_build
from repro.ossim.builds import NT50, NT51

GOLDEN = Path(__file__).with_name("golden_operators.json")


def golden_record(build):
    """``{fault type: {"sites": n, "sha256": hex}}`` for one build."""
    hashers = {fault_type: hashlib.sha256() for fault_type in FaultType}
    counts = dict.fromkeys(FaultType, 0)
    for location in scan_build(build):
        entry = json.dumps([
            location.fault_id,
            location.lineno,
            location.description,
            mutated_source(location),
        ])
        hashers[location.fault_type].update(entry.encode("utf-8") + b"\n")
        counts[location.fault_type] += 1
    return {
        fault_type.value: {
            "sites": counts[fault_type],
            "sha256": hashers[fault_type].hexdigest(),
        }
        for fault_type in FaultType
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_operator_library_matches_golden_record(build, golden):
    assert golden_record(build) == golden[build.codename]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {build.codename: golden_record(build) for build in (NT50, NT51)},
        indent=2,
    ) + "\n", encoding="utf-8")
