"""Tier-1 tests for the shard supervisor.

The supervisor is generic over the task it runs, which is what these
tests exploit: a top-level ``_behave`` task interprets a behaviour
encoded in each shard's fault ids (``ok``, ``crash``, ``kill``,
``hang``, ``slow``, plus ``*_once`` transient variants that leave a
marker file so the retry succeeds) and simulates every failure mode the
supervisor
must absorb — without a campaign underneath.  With ``workers=2`` the
shards run on the default backend: two loopback fabric workers.
"""

import os
import signal
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import pytest

from repro.harness.campaign import CampaignShard
from repro.harness.fabric.backend import CHAOS_KILL_ENV
from repro.harness.supervisor import ShardSupervisor, SupervisionInterrupted
from repro.harness.telemetry import TelemetryWriter, read_telemetry


@dataclass(frozen=True)
class FakeLocation:
    fault_id: str


def make_shard(index, behaviour="ok"):
    return CampaignShard(
        index=index,
        first_slot=index * 2,
        locations=(
            FakeLocation(f"{behaviour}#{index}#a"),
            FakeLocation(f"{behaviour}#{index}#b"),
        ),
    )


def _behave(marker_dir, shard):
    """Worker task: act out the behaviour named in the shard's fault ids."""
    behaviour = shard.locations[0].fault_id.split("#")[0]
    if behaviour.endswith("_once"):
        marker = Path(marker_dir) / f"once-{shard.index}"
        if marker.exists():
            behaviour = "ok"
        else:
            marker.write_text("tried")
            behaviour = behaviour[: -len("_once")]
    if behaviour == "crash":
        raise ValueError(f"boom in shard {shard.index}")
    if behaviour == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    if behaviour == "hang":
        (Path(marker_dir) / f"hang-{shard.index}.pid").write_text(
            str(os.getpid()))
        time.sleep(60.0)
    if behaviour == "slow":
        time.sleep(0.25)
    return {"shard": shard.index, "pid": os.getpid()}


def _report_pid(shard):
    """Worker task: take a moment, then say which process ran it."""
    time.sleep(0.2)
    return {"shard": shard.index, "pid": os.getpid()}


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def run_supervised(tmp_path, shards, **kwargs):
    kwargs.setdefault("poll_seconds", 0.02)
    with ShardSupervisor(**kwargs) as supervisor:
        return supervisor.run(shards, partial(_behave, str(tmp_path)))


# ----------------------------------------------------------------------
# Healthy paths
# ----------------------------------------------------------------------
def test_all_shards_complete_in_pool_mode(tmp_path):
    shards = [make_shard(i) for i in range(4)]
    report = run_supervised(tmp_path, shards, workers=2)
    assert sorted(report.outcomes) == [0, 1, 2, 3]
    assert report.quarantined == []
    assert report.retries == 0
    assert not report.degraded


def test_all_shards_complete_serially(tmp_path):
    shards = [make_shard(i) for i in range(3)]
    report = run_supervised(tmp_path, shards, workers=1)
    assert sorted(report.outcomes) == [0, 1, 2]
    assert not report.degraded


def test_on_outcome_called_per_completion(tmp_path):
    seen = []
    shards = [make_shard(i) for i in range(3)]
    with ShardSupervisor(workers=1) as supervisor:
        supervisor.run(shards, partial(_behave, str(tmp_path)),
                       on_outcome=seen.append)
    assert sorted(outcome["shard"] for outcome in seen) == [0, 1, 2]


def test_empty_shard_list(tmp_path):
    report = run_supervised(tmp_path, [], workers=2)
    assert report.outcomes == {}
    assert not report.degraded


# ----------------------------------------------------------------------
# Crash: a worker task that raises
# ----------------------------------------------------------------------
def test_transient_crash_is_retried_to_success(tmp_path):
    shards = [make_shard(0, "crash_once"), make_shard(1), make_shard(2)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=2)
    assert sorted(report.outcomes) == [0, 1, 2]
    assert report.retries == 1
    assert report.quarantined == []


def test_persistent_crash_is_quarantined(tmp_path):
    shards = [make_shard(0, "crash"), make_shard(1), make_shard(2)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=1)
    assert sorted(report.outcomes) == [1, 2]
    assert len(report.quarantined) == 1
    poisoned = report.quarantined[0]
    assert poisoned.shard_index == 0
    assert poisoned.attempts == 2  # initial try + 1 retry
    assert all("crash" in failure for failure in poisoned.failures)
    assert poisoned.fault_ids == ("crash#0#a", "crash#0#b")
    assert report.degraded


def test_serial_mode_also_quarantines(tmp_path):
    shards = [make_shard(0, "crash"), make_shard(1)]
    report = run_supervised(tmp_path, shards, workers=1, max_retries=0)
    assert sorted(report.outcomes) == [1]
    assert [q.shard_index for q in report.quarantined] == [0]


# ----------------------------------------------------------------------
# Worker death: SIGKILL takes down one loopback worker
# ----------------------------------------------------------------------
def test_killed_worker_recovers_on_rebuilt_pool(tmp_path):
    shards = [make_shard(0, "kill_once"), make_shard(1), make_shard(2),
              make_shard(3)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=2)
    assert sorted(report.outcomes) == [0, 1, 2, 3]
    assert report.quarantined == []
    assert report.pool_rebuilds >= 1


def test_poison_kill_quarantines_only_the_offender(tmp_path):
    """A worker runs one shard at a time, so the shard that keeps
    killing its worker is the only one charged for the deaths."""
    shards = [make_shard(0, "kill"), make_shard(1), make_shard(2),
              make_shard(3)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=1,
                            max_pool_rebuilds=10)
    assert sorted(report.outcomes) == [1, 2, 3]
    assert [q.shard_index for q in report.quarantined] == [0]
    poisoned = report.quarantined[0]
    assert poisoned.attempts == 2
    assert all("worker died" in failure for failure in poisoned.failures)
    assert report.degraded


def test_repeated_pool_loss_falls_back_to_serial(tmp_path):
    shards = [make_shard(0, "kill_once"), make_shard(1, "slow"),
              make_shard(2, "slow"), make_shard(3, "slow")]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=3,
                            max_pool_rebuilds=0)
    # The first kill spends the rebuild budget: the other worker
    # finishes the shard it is running, and the rest (including the
    # killer's now-marked retry) are withdrawn and run in-process.
    assert sorted(report.outcomes) == [0, 1, 2, 3]
    assert report.serial_fallback
    assert report.quarantined == []
    assert report.pool_rebuilds == 1
    on_workers = [index for index, outcome in report.outcomes.items()
                  if outcome["pid"] != os.getpid()]
    assert 0 not in on_workers
    assert len(on_workers) <= 1


# ----------------------------------------------------------------------
# Hang: a shard that exceeds its wall-clock deadline
# ----------------------------------------------------------------------
def test_hung_shard_is_quarantined_others_survive(tmp_path):
    shards = [make_shard(0, "hang"), make_shard(1), make_shard(2)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=0,
                            shard_timeout=0.5)
    assert sorted(report.outcomes) == [1, 2]
    assert [q.shard_index for q in report.quarantined] == [0]
    assert any("hang" in failure
               for failure in report.quarantined[0].failures)
    assert report.pool_rebuilds >= 1


def test_transient_hang_is_retried(tmp_path):
    shards = [make_shard(0, "hang_once"), make_shard(1)]
    report = run_supervised(tmp_path, shards, workers=2, max_retries=1,
                            shard_timeout=0.5)
    assert sorted(report.outcomes) == [0, 1]
    assert report.retries == 1
    assert report.quarantined == []


def test_hung_worker_is_killed_and_replaced_during_the_run(tmp_path):
    """The worker stuck in a hung shard is killed while the run goes on,
    so close() has no straggler to wait out."""
    shards = [make_shard(0, "hang_once"), make_shard(1), make_shard(2)]
    supervisor = ShardSupervisor(workers=2, max_retries=1,
                                 shard_timeout=0.5, poll_seconds=0.02)
    try:
        report = supervisor.run(shards, partial(_behave, str(tmp_path)))
        hung_pid = int((tmp_path / "hang-0.pid").read_text())
        assert not _alive(hung_pid)
    finally:
        started = time.monotonic()
        supervisor.close()
    assert time.monotonic() - started < 1.5
    assert sorted(report.outcomes) == [0, 1, 2]
    assert report.retries == 1
    assert report.pool_rebuilds == 1


def test_chaos_killed_loopback_worker_is_replaced_once(tmp_path,
                                                       monkeypatch):
    """The chaos hook arms only the first loopback-0: it dies on its
    first assignment, and its replacement runs later shards."""
    monkeypatch.setenv(CHAOS_KILL_ENV, "1")
    telemetry_path = tmp_path / "events.jsonl"
    with TelemetryWriter(telemetry_path) as telemetry:
        with ShardSupervisor(workers=2, poll_seconds=0.02,
                             telemetry=telemetry) as supervisor:
            report = supervisor.run(
                [make_shard(i) for i in range(10)], _report_pid)
            stats = supervisor.backend_stats()
    registered = [
        event["pid"] for event in read_telemetry(telemetry_path)
        if event["event"] == "fabric_worker_register"
        and event["worker"] == "loopback-0"
    ]
    assert len(registered) == 2
    first, replacement = registered
    ran_on = {outcome["pid"] for outcome in report.outcomes.values()}
    assert replacement in ran_on
    assert first not in ran_on
    assert sorted(report.outcomes) == list(range(10))
    assert report.retries == 1
    assert report.pool_rebuilds == 1
    assert stats["worker_deaths"] == 1


# ----------------------------------------------------------------------
# Graceful stop: unstarted shards are withdrawn, running ones finish
# ----------------------------------------------------------------------
def test_stop_withdraws_shards_no_worker_has_started(tmp_path):
    stop = threading.Event()
    shards = [make_shard(i, "slow") for i in range(12)]
    with ShardSupervisor(workers=2, poll_seconds=0.02,
                         stop_event=stop) as supervisor:
        with pytest.raises(SupervisionInterrupted) as interrupted:
            supervisor.run(shards, partial(_behave, str(tmp_path)),
                           on_outcome=lambda _outcome: stop.set())
    completed = len(interrupted.value.report.outcomes)
    assert completed >= 1
    assert completed + interrupted.value.remaining == 12
    assert interrupted.value.remaining >= 6


# ----------------------------------------------------------------------
# Parameter validation + telemetry
# ----------------------------------------------------------------------
def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ShardSupervisor(workers=2, shard_timeout=0.0)
    with pytest.raises(ValueError):
        ShardSupervisor(workers=2, max_retries=-1)


def test_supervision_events_are_streamed(tmp_path):
    shards = [make_shard(0, "crash_once"), make_shard(1)]
    telemetry_path = tmp_path / "events.jsonl"
    with TelemetryWriter(telemetry_path) as telemetry:
        with ShardSupervisor(workers=2, max_retries=2,
                             poll_seconds=0.02,
                             telemetry=telemetry) as supervisor:
            supervisor.run(shards, partial(_behave, str(tmp_path)))
    events = read_telemetry(telemetry_path)
    kinds = [event["event"] for event in events]
    assert kinds.count("shard_done") == 2
    assert "shard_retry" in kinds
    assert "shard_dispatch" in kinds
    # Sequence numbers are monotone: the stream is replayable in order.
    assert [event["seq"] for event in events] == list(range(len(events)))
