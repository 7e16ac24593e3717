"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in ("scan", "profile", "faultload", "run", "tables"):
        args = parser.parse_args(
            [command] if command != "run" else ["run"]
        )
        assert args.command == command


def test_scan_command_prints_counts(capsys):
    assert main(["scan", "--os", "nt50"]) == 0
    out = capsys.readouterr().out
    assert "fault locations" in out
    assert "MIA" in out


def test_scan_command_writes_faultload(tmp_path, capsys):
    output = tmp_path / "fl.json"
    assert main(["scan", "--os", "nt51", "--output", str(output)]) == 0
    from repro.faults.faultload import Faultload

    faultload = Faultload.load(output)
    assert faultload.os_codename == "nt51"
    assert len(faultload) > 300


def test_invalid_os_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["scan", "--os", "win95"])


def test_run_defaults():
    args = build_parser().parse_args(["run"])
    assert args.server == "apache"
    assert args.faults == 96
    assert args.connections == 16


def test_campaign_supervision_defaults():
    args = build_parser().parse_args(["campaign"])
    assert args.shard_timeout is None
    assert args.max_retries == 2
    assert args.manifest is None
    assert args.telemetry is None
    assert not args.no_baseline
    assert not args.no_profile


def test_campaign_command_writes_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "run.manifest.json"
    code = main([
        "campaign", "--faults", "8", "--connections", "4",
        "--workers", "1", "--no-baseline", "--no-profile",
        "--manifest", str(manifest_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics digest:" in out
    import json

    payload = json.loads(manifest_path.read_text())
    assert payload["workers"] == 1
    assert payload["supervision"]["degraded"] is False
    assert len(payload["metrics_digest"]) == 64


# ----------------------------------------------------------------------
# Campaign flag validation (up-front, one clear line, exit code 2)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["campaign", "--resume"], "--resume requires --journal"),
        (["campaign", "--workers", "0"], "--workers must be >= 1"),
        (["campaign", "--slots-per-shard", "0"],
         "--slots-per-shard must be >= 1"),
        (["campaign", "--shard-timeout", "-1"],
         "--shard-timeout must be positive"),
        (["campaign", "--max-retries", "-1"],
         "--max-retries must be >= 0"),
        (["campaign", "--fabric-listen", "no-port"],
         "must be host:port"),
        (["campaign", "--fabric-listen", "127.0.0.1:9",
          "--workers", "-1"],
         "--workers must be >= 0"),
        (["campaign", "--workers", "0"], "(0 needs --fabric-listen)"),
        (["campaign", "--adaptive-slots", "--no-inject"],
         "--adaptive-slots cannot be combined with --no-inject"),
    ],
)
def test_campaign_flag_validation(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_campaign_backend_defaults():
    args = build_parser().parse_args(["campaign"])
    assert args.workers is None
    assert args.fabric_listen is None


def test_campaign_rejects_unknown_backend():
    """There is one multi-worker backend: the flags that chose between
    two are parse errors.  So are the removed switches for epoch
    snapshots and activation probes, on both ``run`` and ``campaign``."""
    for argv in (["--backend", "fabric"], ["--fabric-loopback", "2"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", *argv])
    for command in ("run", "campaign"):
        for flag in ("--no-snapshot-epochs", "--no-track-activation"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, flag])


def test_campaign_resume_of_another_campaigns_journal_exits_2(
        tmp_path, capsys):
    journal = tmp_path / "campaign.jsonl"
    argv = [
        "campaign", "--faults", "4", "--connections", "2",
        "--workers", "1", "--no-baseline", "--no-profile",
        "--journal", str(journal),
    ]
    assert main([*argv, "--seed", "2004"]) == 0
    capsys.readouterr()
    assert main([*argv, "--seed", "7", "--resume"]) == 2
    err = capsys.readouterr().err
    assert "belongs to a different campaign" in err
    assert "Traceback" not in err


def test_campaign_resume_of_another_versions_journal_exits_2(
        tmp_path, capsys):
    journal = tmp_path / "campaign.jsonl"
    argv = [
        "campaign", "--faults", "4", "--connections", "2",
        "--workers", "1", "--no-baseline", "--no-profile",
        "--journal", str(journal),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    import json

    lines = journal.read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] -= 1
    lines[0] = json.dumps(header, sort_keys=True)
    journal.write_text("\n".join(lines) + "\n")
    assert main([*argv, "--resume"]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"journal {journal} is version {header['version']}, current "
        f"{header['version'] + 1}: rerun without --resume\n"
    )


def test_campaign_worker_parses_address():
    args = build_parser().parse_args(
        ["campaign-worker", "10.0.0.5:7000", "--name", "w7"]
    )
    assert args.address == "10.0.0.5:7000"
    assert args.name == "w7"


def test_campaign_worker_rejects_bad_address(capsys):
    assert main(["campaign-worker", "nocolonhere"]) == 2
    assert "host:port" in capsys.readouterr().err


@pytest.mark.slow
def test_campaign_fabric_backend_end_to_end(tmp_path, capsys):
    manifest_path = tmp_path / "run.manifest.json"
    code = main([
        "campaign", "--faults", "8", "--connections", "4",
        "--workers", "2",
        "--no-baseline", "--no-profile",
        "--manifest", str(manifest_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "metrics digest:" in out
    assert "fabric:" in out
    import json

    payload = json.loads(manifest_path.read_text())
    assert payload["fabric"]["backend"] == "fabric"
    assert payload["fabric"]["results"] >= 1
    assert len(payload["metrics_digest"]) == 64
