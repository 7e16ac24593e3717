"""Smoke tests for the example scripts and cross-process determinism."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    """Every example imports as a module (its ``main()`` runs only as a
    script), so one that names a public item that no longer exists
    fails here."""
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def _run(script, *args, timeout=240):
    return subprocess.run(
        [sys.executable, script, *args],
        capture_output=True, text=True, timeout=timeout, check=False,
    )


@pytest.mark.slow
def test_quickstart_example_runs():
    result = _run("examples/quickstart.py")
    assert result.returncode == 0, result.stderr
    assert "Scanned" in result.stdout
    assert "errors accumulated" in result.stdout
    assert "pristine again" in result.stdout


@pytest.mark.slow
def test_custom_faultload_example_runs():
    result = _run("examples/custom_faultload.py")
    assert result.returncode == 0, result.stderr
    assert "Saved and reloaded" in result.stdout
    assert "--- pristine" in result.stdout


@pytest.mark.slow
def test_cli_run_command_small():
    """A CLI campaign with its baseline and profile-mode phases prints
    Table 5 and the dependability metrics."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "--server", "abyss",
         "--faults", "8", "--connections", "6", "--workers", "1"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert result.returncode == 0, result.stderr
    assert "Table 5" in result.stdout
    assert "Dependability metrics" in result.stdout


def test_scan_is_identical_across_processes(tmp_path):
    """Saved faultloads are portable: two fresh interpreters scanning the
    same build must produce byte-identical JSON (the site-key stability
    the whole save/load workflow rests on)."""
    snippet = (
        "from repro.gswfit.scanner import scan_build;"
        "from repro.ossim.builds import NT50;"
        "import sys; sys.stdout.write(scan_build(NT50).to_json())"
    )
    outputs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    assert len(parsed["locations"]) > 200


def test_experiment_identical_across_processes():
    """A whole baseline run is bit-repeatable across interpreters."""
    snippet = (
        "from repro.harness import ExperimentConfig, WebServerExperiment;"
        "m = WebServerExperiment(ExperimentConfig.smoke()).run_baseline();"
        "print(m.total_ops, round(m.thr, 9), round(m.rtm_ms, 9))"
    )
    outputs = set()
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, timeout=120, check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1
