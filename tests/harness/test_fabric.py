"""Tier-1 tests for the socket-pair campaign fabric.

Three layers, in rising order of integration:

* the frame protocol (roundtrip, clean EOF vs torn stream, size guard);
* the coordinator's supervision protocol, driven directly with toy
  tasks on forked workers.  Death, hang and corrupt frames are acted
  out by scripted workers: the test patches the module's worker entry
  point before the fork, and a scripted worker misbehaves only in its
  first incarnation (a marker file remembers it), so its re-fork is a
  real worker.  The coordinator acts only inside ``drain``, so every
  test drains it while it waits;
* the full campaign's fabric telemetry and manifest surface.

Fabric campaigns landing on the digests of serial runs — with a worker
chaos-killed mid-campaign — are rows of ``test_parity.py``: that is
what makes the fabric an executor rather than a different experiment.
The supervision scenarios (crash, kill, hang, serial fallback) on real
workers are in ``test_supervisor.py``.
"""

import json
import multiprocessing
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.harness.fabric.coordinator as coordinator_module
from repro.harness.campaign import (
    CampaignShard,
    ParallelCampaign,
    ShardOutcome,
)
from repro.harness.fabric.coordinator import (
    CHAOS_KILL_ENV,
    FabricCoordinator,
)
from repro.harness.fabric.protocol import (
    FrameError,
    recv_frame,
    send_frame,
)
from repro.harness.supervisor import ShardSupervisor
from tests.harness.configs import tiny_config


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        message = {"type": "result", "ticket": 3,
                   "outcome": {"mis": 1, "nested": [1, 2, {"a": "b"}]}}
        send_frame(left, message)
        assert recv_frame(right) == message
    finally:
        left.close()
        right.close()


def test_frame_bytes_are_sorted_and_deterministic():
    left, right = socket.socketpair()
    try:
        send_frame(left, {"b": 1, "a": 2})
        send_frame(left, {"a": 2, "b": 1})
        left.close()
        raw = b""
        while True:
            chunk = right.recv(4096)
            if not chunk:
                break
            raw += chunk
        half = len(raw) // 2
        assert raw[:half] == raw[half:]  # same content, same bytes
    finally:
        right.close()


def test_recv_frame_clean_eof_is_none():
    left, right = socket.socketpair()
    left.close()
    try:
        assert recv_frame(right) is None
    finally:
        right.close()


def test_recv_frame_torn_mid_frame_raises():
    left, right = socket.socketpair()
    try:
        import struct

        left.sendall(struct.pack(">I", 100) + b'{"type"')
        left.close()
        with pytest.raises(FrameError):
            recv_frame(right)
    finally:
        right.close()


def test_recv_frame_rejects_oversized_length():
    left, right = socket.socketpair()
    try:
        import struct

        left.sendall(struct.pack(">I", 2**31))
        with pytest.raises(FrameError):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_send_frame_rejects_oversized_payload(monkeypatch):
    import repro.harness.fabric.protocol as protocol

    monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
    left, right = socket.socketpair()
    try:
        with pytest.raises(FrameError):
            protocol.send_frame(left, {"blob": "x" * 200})
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# Coordinator protocol, driven directly
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FakeLocation:
    fault_id: str


def _shard(index):
    return CampaignShard(
        index=index, first_slot=index * 2,
        locations=(FakeLocation(f"f#{index}"),),
    )


def _ok_task(shard):
    return {"shard": shard.index}


def _slow_task(shard):
    time.sleep(0.2)
    return {"shard": shard.index}


def _drain_until(source, predicate, deadline=15.0, events=()):
    """Collect events (after ``events``, drained earlier) until
    ``predicate(events)`` or the deadline."""
    events = list(events)
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        events.extend(source.drain(0.05))
        if predicate(events):
            return events
    raise AssertionError(f"timed out waiting; got {events}")


def _steal(conn):
    """A scripted worker's steal: ask until a shard is assigned."""
    while True:
        send_frame(conn, {"type": "steal"})
        if recv_frame(conn)["type"] == "assign":
            return
        time.sleep(0.02)


def _script_first_worker(monkeypatch, tmp_path, script):
    """Patch the worker entry point before the fork: the first forked
    worker takes a shard and then runs ``script(conn)`` on its socket;
    every later fork (the re-fork after its reap) is a real worker."""
    real_main = coordinator_module._loopback_worker_main
    marker = tmp_path / "scripted-worker-ran"

    def entry(conn, inherited, *args):
        if marker.exists():
            real_main(conn, inherited, *args)
            return
        marker.touch()
        for sock in inherited:
            sock.close()
        _steal(conn)
        script(conn)

    monkeypatch.setattr(coordinator_module, "_loopback_worker_main",
                        entry)


def _stolen(events):
    """The shard tickets the fabric reports as assigned."""
    return [e.fields["shard"] for e in events
            if e.kind == "info" and e.event == "fabric_steal"]


def test_coordinator_completes_work_and_counts_steals():
    coordinator = FabricCoordinator(workers=1)
    try:
        for index in range(3):
            coordinator.submit_shard(index, _shard(index), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: sum(e.kind == "done" for e in es) == 3,
        )
        done = sorted(e.ticket for e in events if e.kind == "done")
        assert done == [0, 1, 2]
        for event in events:
            if event.kind == "done":
                assert event.outcome == {"shard": event.ticket}
        stats = coordinator.stats()
        assert stats["steals"] == 3
        assert stats["results"] == 3
        assert stats["worker_deaths"] == 0
        assert stats["roster"][0]["name"] == "loopback-0"
        assert stats["roster"][0]["shards_done"] == 3
        kinds = {e.event for e in events if e.kind == "info"}
        assert "fabric_worker_register" in kinds
        assert "fabric_steal" in kinds
    finally:
        coordinator.shutdown()


def test_each_worker_exits_once_its_coordinator_end_closes():
    """A worker reads EOF once every copy of its pair's coordinator end
    is closed.  The fork hands each worker a copy of its own pair's end
    and of every end held for the workers forked before it; one left
    open keeps that worker alive after its coordinator is gone, as an
    orphan of a killed campaign.  So closing the coordinator's ends one
    at a time must end exactly that worker each time."""
    coordinator = FabricCoordinator(workers=3)
    try:
        for name in ("loopback-0", "loopback-1", "loopback-2"):
            worker = coordinator._workers[name]
            worker.conn.close()
            process = worker.process
            process.join(timeout=5.0)
            assert not process.is_alive(), (
                f"{name} still runs with its coordinator end closed")
    finally:
        coordinator.shutdown()


def test_undecodable_fragment_is_charged_and_never_merged():
    """A fragment the decoder rejects is a charged failure, never a
    ``done``: a plain dict is not a ShardOutcome.  Under a retry budget
    of one, the shard is quarantined after two attempts and nothing it
    returned reaches the outcomes."""
    coordinator = FabricCoordinator(workers=1,
                                    decoder=ShardOutcome.from_dict)
    try:
        coordinator.submit_shard(4, _shard(4), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 4
        assert "undecodable fragment" in failed[0].reason
        assert not any(e.kind == "done" for e in events)
    finally:
        coordinator.shutdown()
    supervisor = ShardSupervisor(
        workers=1,
        poll_seconds=0.02,
        max_retries=1,
        backend_factory=lambda: FabricCoordinator(
            workers=1, decoder=ShardOutcome.from_dict),
    )
    with supervisor:
        report = supervisor.run([_shard(4)], _ok_task)
    [quarantined] = report.quarantined
    assert quarantined.shard_index == 4
    assert quarantined.attempts == 2
    assert all("undecodable fragment" in reason
               for reason in quarantined.failures)
    assert 4 not in report.outcomes


def _exits(conn):
    """Die mid-assignment: the process ends and its socket closes."""


def _heartbeats_forever(conn):
    while True:
        send_frame(conn, {"type": "heartbeat"})
        time.sleep(0.1)


def _falls_silent(conn):
    time.sleep(60)


def test_coordinator_charges_shard_of_dead_worker(monkeypatch, tmp_path):
    _script_first_worker(monkeypatch, tmp_path, _exits)
    coordinator = FabricCoordinator(workers=1)
    try:
        coordinator.submit_shard(5, _shard(5), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        assert _stolen(events) == [5]
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 5
        assert "died" in failed[0].reason
        stats = coordinator.stats()
        assert stats["worker_deaths"] == 1
        assert stats["requeues"] == 1
        assert any(e.event == "fabric_worker_dead"
                   for e in events if e.kind == "info")
    finally:
        coordinator.shutdown()


def test_coordinator_charges_hung_shard_despite_heartbeats(monkeypatch,
                                                           tmp_path):
    """Heartbeats prove liveness, not progress: a shard past its
    wall-clock deadline is charged even while its worker heartbeats."""
    _script_first_worker(monkeypatch, tmp_path, _heartbeats_forever)
    coordinator = FabricCoordinator(workers=1, shard_timeout=0.4)
    try:
        coordinator.submit_shard(2, _shard(2), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        assert _stolen(events) == [2]
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 2
        assert "hang" in failed[0].reason
        assert coordinator.stats()["heartbeats"] >= 1
    finally:
        coordinator.shutdown()


def test_coordinator_reaps_worker_with_stale_heartbeat(monkeypatch,
                                                       tmp_path):
    """A worker that stops heartbeating mid-shard is dead even if its
    socket stays open: the shard must come back."""
    _script_first_worker(monkeypatch, tmp_path, _falls_silent)
    coordinator = FabricCoordinator(workers=1, shard_timeout=60.0,
                                    heartbeat_seconds=0.1,
                                    heartbeat_grace=0.5)
    try:
        coordinator.submit_shard(1, _shard(1), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        assert _stolen(events) == [1]
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 1
        assert "heartbeat" in failed[0].reason
    finally:
        coordinator.shutdown()


# ----------------------------------------------------------------------
# Supervisor over the fabric
# ----------------------------------------------------------------------
def _fabric_supervisor(workers, **fabric_kwargs):
    return ShardSupervisor(
        workers=workers,
        poll_seconds=0.02,
        backend_factory=lambda: FabricCoordinator(
            workers=workers, **fabric_kwargs),
    )


def test_supervisor_completes_over_loopback_fabric():
    shards = [_shard(i) for i in range(6)]
    with _fabric_supervisor(2) as supervisor:
        report = supervisor.run(shards, _ok_task)
        stats = supervisor.backend_stats()
    assert sorted(report.outcomes) == list(range(6))
    assert report.quarantined == []
    assert stats["backend"] == "fabric"
    assert stats["workers"] == 2
    assert stats["results"] == 6


def test_supervisor_survives_chaos_killed_loopback_worker():
    shards = [_shard(i) for i in range(6)]
    with _fabric_supervisor(2, chaos_kill_after=2) as supervisor:
        report = supervisor.run(shards, _slow_task)
        stats = supervisor.backend_stats()
    assert sorted(report.outcomes) == list(range(6))
    assert report.quarantined == []
    assert report.retries >= 1
    assert stats["worker_deaths"] >= 1
    assert stats["requeues"] >= 1


def test_loopback_workers_fork_from_a_single_threaded_parent(
        monkeypatch):
    """Every loopback fork — the first two and the re-fork after a chaos
    kill — happens with no more threads than the parent had before the
    fabric was built: the coordinator serves its sockets from the
    supervisor's thread, and forking a threaded process may deadlock
    the child."""
    start = multiprocessing.Process.start
    threads_at_fork = []

    def counting_start(process):
        threads_at_fork.append(threading.active_count())
        start(process)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    before = threading.active_count()
    with _fabric_supervisor(2, chaos_kill_after=2) as supervisor:
        report = supervisor.run([_shard(i) for i in range(6)], _slow_task)
    assert sorted(report.outcomes) == list(range(6))
    assert len(threads_at_fork) == 3
    assert max(threads_at_fork) <= before


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="Python 3.12 is the first to warn on fork()")
@pytest.mark.parametrize("chaos_kill_after", [None, "1"],
                         ids=["no-death", "chaos-kill"])
def test_loopback_workers_are_forked_before_any_thread_starts(
        chaos_kill_after):
    """A campaign forks its loopback workers, and re-forks a dead one,
    from a process with no thread but its own: forking a threaded
    process may deadlock the child, and Python 3.12+ warns when it
    happens."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    env.pop(CHAOS_KILL_ENV, None)
    if chaos_kill_after is not None:
        env[CHAOS_KILL_ENV] = chaos_kill_after
    run = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m",
         "repro", "campaign", "--faults", "8", "--connections", "4",
         "--workers", "2", "--no-baseline", "--no-profile"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "multi-threaded" not in run.stderr


def _never_steals(conn, inherited, *args):
    time.sleep(60)


def test_supervisor_serial_fallback_when_fabric_starves(monkeypatch):
    """Workers that never steal must not wedge the campaign: once their
    heartbeat grace passes, each is reaped as silent (uncharged: it held
    no shard), the supervisor burns its rebuild budget, and the work
    finishes serially in-process."""
    monkeypatch.setattr(coordinator_module, "_loopback_worker_main",
                        _never_steals)
    shards = [_shard(i) for i in range(3)]
    supervisor = ShardSupervisor(
        workers=2,
        poll_seconds=0.02,
        max_pool_rebuilds=0,
        backend_factory=lambda: FabricCoordinator(workers=2,
                                                  heartbeat_grace=0.3),
    )
    with supervisor:
        report = supervisor.run(shards, _ok_task)
    assert sorted(report.outcomes) == list(range(3))
    assert report.serial_fallback
    assert report.pool_rebuilds >= 1
    assert report.retries == 0  # a silent idle worker charges nobody


# ----------------------------------------------------------------------
# Campaign surface
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_fabric_telemetry_and_manifest_surface(tmp_path):
    campaign = ParallelCampaign(
        tiny_config(), workers=2,
        journal_path=tmp_path / "fabric" / "journal.jsonl",
    )
    campaign.run(include_baseline=False, include_profile_mode=False)
    manifest = campaign.manifest
    telemetry_path = tmp_path / "fabric" / "journal.telemetry.jsonl"
    events = [json.loads(line)
              for line in telemetry_path.read_text().splitlines()]
    names = {event["event"] for event in events}
    assert "fabric_worker_register" in names
    assert "fabric_steal" in names
    assert "fabric_summary" in names
    summary = [e for e in events if e["event"] == "fabric_summary"][-1]
    assert summary["backend"] == "fabric"
    roster = {worker["name"] for worker in manifest.fabric["roster"]}
    assert roster == {"loopback-0", "loopback-1"}
    assert manifest.manifest_version >= 5


# ----------------------------------------------------------------------
# Protocol hardening: corrupt frames are errors, not crashes
# ----------------------------------------------------------------------
def test_recv_frame_rejects_non_object_payload():
    left, right = socket.socketpair()
    try:
        send_frame(left, [1, 2, 3])  # valid JSON, wrong shape
        with pytest.raises(FrameError, match="JSON object"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def _send_torn_frame(conn):
    conn.sendall(struct.pack(">I", 64) + b'{"torn')
    conn.close()


def _send_oversized_length(conn):
    conn.sendall(struct.pack(">I", 2**31))


def _send_invalid_json(conn):
    conn.sendall(struct.pack(">I", 7) + b"notjson")


def _send_non_object(conn):
    send_frame(conn, ["not", "an", "object"])


@pytest.mark.parametrize("corrupt", [
    _send_torn_frame,
    _send_oversized_length,
    _send_invalid_json,
    _send_non_object,
], ids=["torn-frame", "oversized-length", "invalid-json", "non-object"])
def test_coordinator_requeues_shard_on_protocol_error(corrupt, monkeypatch,
                                                     tmp_path):
    """Garbage on the wire from a worker holding a shard must become a
    clean protocol error that charges + reclaims the shard — never an
    unhandled exception in the coordinator's read loop."""

    def vandal(conn):
        corrupt(conn)
        time.sleep(60)  # until the reap kills it

    _script_first_worker(monkeypatch, tmp_path, vandal)
    coordinator = FabricCoordinator(workers=1)
    try:
        coordinator.submit_shard(9, _shard(9), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        assert _stolen(events) == [9]
        failed = [e for e in events if e.kind == "failed"][0]
        assert failed.ticket == 9
        assert "protocol error" in failed.reason
        # the coordinator survived: resubmit the reclaimed shard and the
        # worker re-forked in the vandal's place completes it on the
        # same coordinator
        coordinator.submit_shard(9, _shard(9), _ok_task)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "done" for e in es),
        )
        assert any(e.kind == "done" and e.ticket == 9 for e in events)
    finally:
        coordinator.shutdown()
