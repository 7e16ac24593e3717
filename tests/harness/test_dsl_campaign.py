"""Operator specs through the campaign stack (tier-1).

``operator_specs`` in the campaign key, in service specs, and the CLI's
rc-2 validation path.
"""

import json

import pytest

from repro.faults.types import reset_dynamic_fault_types
from repro.gswfit.dsl.builtin_specs import builtin_spec
from repro.gswfit.operators import reset_dynamic_operators
from repro.harness.campaign import campaign_key
from tests.harness.configs import tiny_config


@pytest.fixture
def dsl_registry():
    yield
    reset_dynamic_operators()
    reset_dynamic_fault_types()
    from repro.gswfit.cache import clear_mutant_cache, clear_scan_cache

    clear_scan_cache()
    clear_mutant_cache()


def test_campaign_key_sensitive_to_operator_specs(dsl_registry):
    from repro.harness.experiment import WebServerExperiment

    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    base_key = campaign_key(config, faultload)
    config.operator_specs = (builtin_spec("MVI"),)
    assert campaign_key(config, faultload) != base_key


def test_service_spec_accepts_operator_specs_list(tmp_path):
    from repro.harness.service.spec import namespace_from_spec

    paths = []
    for name in ("MVI", "WLEC"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(builtin_spec(name)))
        paths.append(path)
    args = namespace_from_spec({
        "server": "apache",
        "faults": 8,
        "operator_specs": [str(path) for path in paths],
    })
    assert args.operator_specs == [str(path) for path in paths]


def test_service_spec_rejects_bad_spec_file(tmp_path):
    from repro.harness.service.spec import SpecError, namespace_from_spec

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assgn"]},
        "mutation": {"kind": "delete-node"},
    }))
    with pytest.raises(SpecError, match=r"\$\.pattern\.node_types\[0\]"):
        namespace_from_spec({
            "server": "apache",
            "operator_specs": [str(bad)],
        })


def test_service_spec_rejects_non_scalar_list_items():
    from repro.harness.service.spec import SpecError, namespace_from_spec

    with pytest.raises(SpecError, match="must be scalars"):
        namespace_from_spec({
            "server": "apache",
            "operator_specs": [{"nested": "object"}],
        })


def test_cli_campaign_rejects_malformed_spec_rc2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "fault_type": "MVI",
        "replaces": True,
        "pattern": {"node_types": ["Assgn"]},
        "mutation": {"kind": "delete-node"},
    }))
    for argv in (
        ["campaign", "--faults", "8", "--workers", "1",
         "--no-baseline", "--no-profile"],
        ["scan"],
    ):
        code = main(argv + ["--operator-spec", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "$.pattern.node_types[0]" in err
        assert "unknown AST node type 'Assgn'" in err
        assert str(bad) in err


def test_cli_campaign_rejects_missing_spec_file_rc2(capsys):
    from repro.cli import main

    code = main([
        "campaign", "--operator-spec", "/nonexistent/spec.json",
    ])
    assert code == 2
    assert "--operator-spec" in capsys.readouterr().err


def test_cli_campaign_rejects_duplicate_fault_type_rc2(
        tmp_path, capsys):
    from repro.cli import main

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(builtin_spec("MVI")))
    b.write_text(json.dumps(builtin_spec("MVI")))
    code = main([
        "campaign",
        "--operator-spec", str(a), "--operator-spec", str(b),
    ])
    assert code == 2
    assert "duplicate spec" in capsys.readouterr().err


def test_cli_scan_with_operator_spec(tmp_path, capsys, dsl_registry):
    from repro.cli import main

    (tmp_path / "mvi.json").write_text(
        json.dumps(builtin_spec("MVI"))
    )
    code = main([
        "scan", "--os", "nt50",
        "--operator-spec", str(tmp_path / "mvi.json"),
    ])
    assert code == 0
    assert "fault locations" in capsys.readouterr().out
