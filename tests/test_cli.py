"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import _campaign_config, build_parser, main
from repro.harness.jsonl import read_jsonl


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_knows_all_subcommands(capsys):
    parser = build_parser()
    for command in ("scan", "profile", "faultload", "campaign", "tables"):
        args = parser.parse_args([command])
        assert args.command == command
    # One campaign engine: the unsharded ``run`` subcommand is gone, and
    # so is the campaign service daemon ``serve``.
    for retired in ("run", "serve"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args([retired])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{retired}'" in capsys.readouterr().err


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


def test_campaign_rejects_unknown_backend():
    """There is one multi-worker backend, forked on this host: the flags
    that chose between two are parse errors, and so are the external
    workers' listen address and subcommand.  So are the removed
    switches for epoch snapshots and activation probes, the disk cache
    directory, and the sequential slot floor and ceiling."""
    for argv in (["--backend", "fabric"], ["--fabric-loopback", "2"],
                 ["--fabric-listen", "127.0.0.1:7044"],
                 ["--no-snapshot-epochs"], ["--no-track-activation"],
                 ["--cache-dir", "cache"],
                 ["--sequential", "--min-slots", "4"],
                 ["--sequential", "--max-slots", "8"]):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", *argv])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["campaign-worker", "127.0.0.1:7044"])


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


def test_campaign_telemetry_is_one_stream_per_campaign(tmp_path, capsys):
    """A fresh run on an existing journal starts a new telemetry stream;
    a resumed run numbers on from the stream it continues."""
    journal = tmp_path / "campaign.jsonl"
    telemetry = journal.with_suffix(".telemetry.jsonl")
    argv = [
        "campaign", "--faults", "4", "--connections", "2",
        "--workers", "1", "--no-baseline", "--no-profile",
        "--journal", str(journal),
    ]
    for _ in range(2):
        assert main(argv) == 0
    events = [entry for _lineno, entry in read_jsonl(telemetry)]
    kinds = [event["event"] for event in events]
    assert kinds.count("telemetry_open") == 1
    assert kinds.count("campaign_end") == 1
    assert [event["seq"] for event in events] == list(range(len(events)))
    assert main([*argv, "--resume"]) == 0
    capsys.readouterr()
    resumed = [entry for _lineno, entry in read_jsonl(telemetry)]
    assert resumed[:len(events)] == events
    assert [event["event"] for event in resumed].count(
        "telemetry_open") == 2
    assert [event["seq"] for event in resumed] == list(range(len(resumed)))


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
    assert "campaign: 2 worker(s)" in out
    assert "metrics digest:" in out
    payload = json.loads(manifest_path.read_text())
    assert payload["workers"] == 2
    assert payload["supervision"]["pool_rebuilds"] == 0
    assert "fabric" not in payload
    assert len(payload["metrics_digest"]) == 64


#: Three shards of two slots, three iterations: nine journal units that
#: two loopback workers finish in a few seconds.
SIGKILL_CAMPAIGN = [
    "campaign", "--os", "nt51", "--server", "apache", "--faults", "6",
    "--connections", "2", "--seed", "2004", "--workers", "2",
    "--slots-per-shard", "2", "--no-baseline", "--no-profile",
]


def _await(predicate, deadline, message):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


def _journal_units(journal):
    """The (iteration, shard) key of every shard record, in file order
    (the reader drops a final line the campaign is still appending)."""
    return [(entry["iteration"], entry["shard"])
            for _lineno, entry in read_jsonl(journal)
            if entry["kind"] == "shard"]


def _group_gone(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


@pytest.mark.slow
def test_sigkilled_campaign_leaves_no_workers_and_resumes_to_its_digest(
        tmp_path, capsys):
    """SIGKILL a real campaign process mid-run.  Its loopback workers
    must exit by themselves once their supervisor is gone, and a
    ``--resume`` must finish with the uninterrupted run's digest,
    running no journaled unit twice."""
    journal = tmp_path / "killed" / "journal.jsonl"
    argv = SIGKILL_CAMPAIGN + ["--journal", str(journal)]
    repo = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(repo / "src"), env.get("PYTHONPATH"))
        if part
    )
    # Its own session, so the campaign leads a process group that also
    # holds the workers it forks.
    with open(tmp_path / "killed.log", "w") as log:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=log, stderr=subprocess.STDOUT, cwd=repo, env=env,
            start_new_session=True,
        )
    try:
        _await(lambda: _journal_units(journal), deadline=60.0,
               message="the first shard record")
        # Kill the campaign alone: its workers lose their supervisor.
        os.kill(process.pid, signal.SIGKILL)
        process.wait(10)
        _await(lambda: _group_gone(process.pid), deadline=30.0,
               message="the orphaned workers to exit by themselves")
    finally:
        if not _group_gone(process.pid):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait(10)
    killed = _journal_units(journal)

    assert main(argv + ["--resume"]) == 0
    direct = tmp_path / "direct" / "journal.jsonl"
    assert main(SIGKILL_CAMPAIGN + ["--journal", str(direct)]) == 0
    capsys.readouterr()

    units = _journal_units(journal)
    assert len(killed) < len(units) == len(_journal_units(direct))
    assert units[:len(killed)] == killed
    assert len(units) == len(set(units))

    def digest(journal_path):
        manifest = journal_path.with_suffix(".manifest.json")
        return json.loads(manifest.read_text())["metrics_digest"]

    assert digest(journal) == digest(direct)


def test_tables_command_prints_tables_1_3_and_5(capsys):
    assert main(["tables", "--faults", "4", "--connections", "4"]) == 0
    out = capsys.readouterr().out
    for title in ("Table 1", "Table 3", "Table 5"):
        assert title in out
    # Table 3 shows the fine-tuned faultloads, as EXPERIMENTS.md and the
    # Table 3 bench do, not the raw scans (394 and 610 locations).
    table3 = out.split("Table 3")[1].split("\n\n")[0]
    totals = [row.split("|")[-1].strip()
              for row in table3.splitlines()[3:]]
    assert totals == ["314", "464"]
    # Every Table 5 row is a campaign with its metrics digest.
    digests = out.split("metrics digests:\n")[1].split()
    assert digests[0::2] == ["nt50/apache:", "nt50/abyss:",
                             "nt51/apache:", "nt51/abyss:"]
    assert all(len(digest) == 64 for digest in digests[1::2])


OLTP_TABLE = """\
fine-tuning the faultload for the OLTP domain...
OLTP dependability benchmark
Engine | Row         | TPS   | RTM(ms) | ER%  | violations | MIS | KNS | KCP
-------+-------------+-------+---------+------+------------+-----+-----+----
walnut | baseline    | 216.9 | 6.5     | 0.00 | 0          | 0   | 0   | 0
walnut | iteration 1 | 107.0 | 12.5    | 2.78 | 0          | 5   | 0   | 0
breezy | baseline    | 253.9 | 3.7     | 0.00 | 0          | 0   | 0   | 0
breezy | iteration 1 | 173.4 | 5.1     | 1.57 | 14         | 10  | 0   | 0
metrics digests:
  walnut: cf0630d7ae6ac86800590bd5657cc3bbe403361fb75824ec1a76d5973532b08f
  breezy: 7098616989f2bedff321c9f51901e02b3b0190431c6c417953cbe0149658ecdc
"""


def test_oltp_command_prints_the_pinned_table(capsys):
    """The OLTP case study's numbers and each engine's campaign digest,
    pinned as the command prints them (the same text on Python 3.10 to
    3.13; the table pads its last column, so trailing blanks are not
    compared): a change to how the engines are booted, injected or
    measured shows up here first."""
    assert main(["oltp", "--faults", "4", "--connections", "4",
                 "--seconds", "3"]) == 0
    out = capsys.readouterr().out
    assert [line.rstrip() for line in out.splitlines()] == (
        OLTP_TABLE.splitlines()
    )


@pytest.mark.parametrize("os_codename", ["nt50", "nt51"])
@pytest.mark.parametrize("server", ["apache", "abyss"])
def test_experiments_command_lines_build_the_bench_config(
        monkeypatch, os_codename, server):
    """EXPERIMENTS.md gives each measured Table 5 row as a ``repro
    campaign`` command line; it must run the very campaign the paper
    benches run, so its digest is the row's."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from _bench_common import bench_config

    args = build_parser().parse_args([
        "campaign", "--server", server, "--os", os_codename,
        "--faults", "72", "--connections", "12", "--seed", "2004",
    ])
    assert _campaign_config(args) == bench_config(server, os_codename)
