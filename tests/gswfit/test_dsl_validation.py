"""Operator-spec validation, compilation and registry edge cases."""

import json

import pytest

from repro.faults.types import (
    iter_fault_types,
    lookup_fault_type,
    reset_dynamic_fault_types,
)
from repro.gswfit.dsl import (
    OperatorSpec,
    SpecValidationError,
    compile_spec,
    install_spec_operators,
)
from repro.gswfit.dsl.builtin_specs import builtin_spec, builtin_spec_names
from repro.gswfit.operators import (
    operator_library,
    reset_dynamic_operators,
)


@pytest.fixture
def dsl_registry():
    yield
    reset_dynamic_operators()
    reset_dynamic_fault_types()
    from repro.gswfit.cache import clear_scan_cache

    clear_scan_cache()


def _new_type_spec(**overrides):
    spec = {
        "fault_type": "WBOC",
        "description": "Wrong boolean operator in branch condition",
        "nature": "wrong",
        "odc_type": "Checking",
        "pattern": {"node_types": ["If"]},
        "preconditions": [{"kind": "test-is-bool-chain"}],
        "mutation": {
            "kind": "swap-bool-operator",
            "description": "'{old_op}' becomes '{new_op}' in "
                           "'if {test}:'",
        },
    }
    spec.update(overrides)
    return spec


def _error(data):
    with pytest.raises(SpecValidationError) as excinfo:
        OperatorSpec.from_dict(data)
    return excinfo.value


def test_unknown_node_type_is_path_precise():
    exc = _error(_new_type_spec(
        pattern={"node_types": ["If", "Assgn"]}
    ))
    assert exc.path == "$.pattern.node_types[1]"
    assert "unknown AST node type 'Assgn'" in str(exc)


def test_unknown_predicate_kind_lists_the_vocabulary():
    # No aliases (e.g. 'not-infra-call' for 'fit-boundary'): two
    # spellings of one behaviour would give identical specs different
    # digests.
    for kind in ("has-els", "not-infra-call"):
        exc = _error(_new_type_spec(
            preconditions=[{"kind": kind}]
        ))
        assert exc.path == "$.preconditions[0].kind"
        assert f"unknown predicate {kind!r}" in str(exc)
        assert "has-else" in str(exc)


def test_predicate_arity_unknown_parameter():
    exc = _error(_new_type_spec(
        preconditions=[{"kind": "body-size", "max": 5, "depth": 2}]
    ))
    assert exc.path == "$.preconditions[0].depth"
    assert "accepts no parameter 'depth'" in str(exc)


def test_predicate_arity_missing_required_parameter():
    exc = _error(_new_type_spec(
        preconditions=[{"kind": "body-size"}]
    ))
    assert "requires parameter 'max'" in str(exc)


def test_predicate_arity_wrong_parameter_type():
    exc = _error(_new_type_spec(
        preconditions=[{"kind": "body-size", "max": "five"}]
    ))
    assert exc.path == "$.preconditions[0].max"
    assert "expected int" in str(exc)


def test_template_referencing_absent_field_rejected():
    exc = _error(_new_type_spec(
        mutation={
            "kind": "swap-bool-operator",
            "description": "turn {bogus} around",
        }
    ))
    assert exc.path == "$.mutation.description"
    assert "{bogus}" in str(exc)
    assert "old_op" in str(exc)  # the error teaches the vocabulary


def test_duplicate_fault_type_colliding_with_builtin():
    exc = _error(_new_type_spec(fault_type="MVI"))
    assert exc.path == "$.fault_type"
    assert '"replaces": true' in str(exc)


def test_replaces_true_requires_a_builtin_name():
    spec = _new_type_spec(replaces=True)
    # Metadata keys are for new types only; a legitimate replaces spec
    # omits them, so strip before asserting on the replaces/name check.
    for key in ("description", "nature", "odc_type"):
        spec.pop(key)
    exc = _error(spec)
    assert exc.path == "$.replaces"


def test_scans_blocks_specs_are_rejected():
    """A block-scanning spec pairs a block rule with nothing else."""
    block_rule = {"kind": "remove-statement-run", "description": ""}
    cases = [
        ({"pattern": {"node_types": ["If"], "scans_blocks": True}},
         "$.pattern.scans_blocks", "not supported"),
        ({"pattern": {"scans_blocks": True}, "preconditions": []},
         "$.mutation.kind", "anchors on AST nodes"),
        ({"mutation": block_rule},
         "$.mutation.kind", "anchors on statement blocks"),
        ({"pattern": {"scans_blocks": True}, "mutation": block_rule},
         "$.preconditions", "take no preconditions"),
        ({"pattern": {"scans_blocks": True}, "preconditions": [],
          "mutation": {**block_rule, "description": "{test}"}},
         "$.mutation.description", "unknown placeholder {test}"),
    ]
    for overrides, path, message in cases:
        exc = _error(_new_type_spec(**overrides))
        assert exc.path == path
        assert message in str(exc)
    spec = OperatorSpec.from_dict(_new_type_spec(
        pattern={"scans_blocks": True}, preconditions=[],
        mutation=block_rule,
    ))
    assert spec.pattern == {"node_types": [], "scans_blocks": True}


def test_new_type_requires_metadata():
    spec = _new_type_spec()
    del spec["nature"]
    exc = _error(spec)
    assert exc.path == "$.nature"


def test_injected_source_is_syntax_checked():
    exc = _error(_new_type_spec(
        mutation={
            "kind": "wrap-condition",
            "source": "if if",
            "description": "",
        }
    ))
    assert exc.path == "$.mutation.source"


def test_round_trip_spec_compile_to_dict_stable():
    raw = _new_type_spec()
    spec = OperatorSpec.from_dict(raw)
    operator = compile_spec(spec)
    canonical = operator.spec.to_dict()
    again = OperatorSpec.from_dict(canonical)
    assert again.to_dict() == canonical
    assert again.digest == spec.digest
    # Canonicalization makes default spelling irrelevant to the digest.
    explicit = OperatorSpec.from_dict(_new_type_spec(
        replaces=False, field_coverage_percent=0.0
    ))
    assert explicit.digest == spec.digest


def test_malformed_json_file_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"fault_type": "WBOC",\n  "pattern": }\n')
    with pytest.raises(SpecValidationError) as excinfo:
        OperatorSpec.load(path)
    message = str(excinfo.value)
    assert str(path) in message
    assert "line 2" in message


def test_spec_file_round_trip(tmp_path):
    path = tmp_path / "wboc.json"
    path.write_text(json.dumps(_new_type_spec()))
    spec = OperatorSpec.load(path)
    assert spec.fault_type_name == "WBOC"
    assert not spec.replaces


def test_new_fault_type_registers_end_to_end(build, dsl_registry):
    from repro.gswfit.scanner import scan_build

    install_spec_operators([_new_type_spec()])
    token = lookup_fault_type("WBOC")
    assert token in iter_fault_types()
    assert token in operator_library()
    faultload = scan_build(build)
    counts = faultload.counts_by_type()
    assert counts[token] > 0
    wboc = [loc for loc in faultload if loc.fault_type is token]
    assert all("becomes" in loc.description for loc in wboc)
    # The locations survive a JSON round trip (dynamic type lookup).
    from repro.faults.location import FaultLocation

    restored = FaultLocation.from_dict(wboc[0].to_dict())
    assert restored.fault_type is token


def test_unsuppliable_placeholder_fails_the_scan_not_the_mutant(
        dsl_registry):
    """A ``{test}`` placeholder on an ``Expr`` anchor validates (the key
    is known) but no call statement has a test: the scan, which reads
    every description, raises the pointed error; relocating the site for
    its mutant does not read it."""
    from repro.faults.location import FaultLocation
    from repro.gswfit.astutils import FunctionImage
    from repro.gswfit.mutator import FunctionSites, build_mutant
    from repro.gswfit.operators import collect_sites
    from repro.gswfit.scanner import scan_build, scan_module
    from repro.ossim.builds import NT50

    (operator,) = install_spec_operators([_new_type_spec(
        fault_type="XPLH",
        pattern={"node_types": ["Expr"]},
        preconditions=[],
        mutation={"kind": "delete-node",
                  "description": "drops a call under 'if {test}:'"},
    )])
    pointed = (r"operator spec 'XPLH': description placeholder \{test\} "
               r"is undefined for the Expr node at this site")
    with pytest.raises(ValueError, match=pointed):
        scan_build(NT50)
    _display_name, module = NT50.modules[0]
    function = getattr(module, module.__exports__[0])
    image = FunctionImage(function, module_name=module.__name__)
    site = collect_sites(image, [operator])[operator][0]
    location = FaultLocation(
        module=module.__name__, display_module="", function=function.__name__,
        fault_type=operator.fault_type, site_key=site.key,
        lineno=site.lineno,
    )
    found, relocated = FunctionSites(location).find(location)
    assert found is operator
    assert relocated.key == site.key
    _original, code = build_mutant(location, probed=True)
    assert code.co_name == function.__name__
    with pytest.raises(ValueError, match=pointed):
        relocated.description
    with pytest.raises(ValueError, match=pointed):
        scan_module(module)


def test_install_is_idempotent_by_digest(dsl_registry):
    first = install_spec_operators([_new_type_spec()])
    second = install_spec_operators([_new_type_spec()])
    assert first[0] is second[0]


def test_dynamic_type_pickles_to_the_same_token(dsl_registry):
    import pickle

    install_spec_operators([_new_type_spec()])
    token = lookup_fault_type("WBOC")
    assert pickle.loads(pickle.dumps(token)) is token


def test_builtin_replacement_via_register_requires_replace_flag(
        dsl_registry):
    from repro.gswfit.dsl import compile_spec
    from repro.gswfit.operators import register_operator

    operator = compile_spec(builtin_spec("MVI"))
    with pytest.raises(ValueError):
        register_operator(operator, replace=False)


def test_single_pass_scan_identical_with_dsl_replacements(
        build, dsl_registry):
    """Installing the shipped specs as user specs flips their provenance
    to ``dsl`` and leaves the scan byte-identical (JSON)."""
    from repro.gswfit.operators import operator_provenance
    from repro.gswfit.scanner import scan_build

    def as_json(faultload):
        return json.dumps([loc.to_dict() for loc in faultload.locations])

    names = builtin_spec_names()
    reference = as_json(scan_build(build))
    assert {operator_provenance(name) for name in names} == {"builtin"}
    install_spec_operators([builtin_spec(name) for name in names])
    assert {operator_provenance(name) for name in names} == {"dsl"}
    assert as_json(scan_build(build)) == reference


def test_shipped_example_spec_validates_and_scans(dsl_registry):
    """The README walkthrough's spec file stays valid and productive."""
    import pathlib

    from repro.gswfit.scanner import scan_build
    from repro.ossim.builds import NT50

    path = (
        pathlib.Path(__file__).resolve().parents[2]
        / "examples" / "operator_specs" / "wrong_boolean_operator.json"
    )
    raw = json.loads(path.read_text(encoding="utf-8"))
    install_spec_operators([raw])
    token = lookup_fault_type("WBOC")
    faultload = scan_build(NT50)
    assert faultload.counts_by_type()[token] > 0
