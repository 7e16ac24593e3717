"""Tier-1 tests for the socket campaign fabric.

Three layers, in rising order of integration:

* the frame protocol (roundtrip, clean EOF vs torn stream, size guard,
  address parsing);
* the coordinator's supervision protocol, driven directly with toy
  tasks and scripted workers — real :class:`FabricWorker` threads for
  the happy/skew paths, raw sockets for death and hang (a raw socket is
  the only honest way to act out a worker that takes a shard and
  vanishes);
* the full campaign's fabric telemetry and manifest surface.

Loopback fabric campaigns landing on the digests of serial runs — with
a worker chaos-killed mid-campaign — are rows of ``test_parity.py``:
that is what makes the fabric an executor rather than a different
experiment.  The supervision scenarios (crash, kill, hang, serial
fallback) on loopback workers are in ``test_supervisor.py``.
"""

import json
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

from repro.harness.campaign import (
    JOURNAL_VERSION,
    CampaignShard,
    ParallelCampaign,
)
from repro.harness.fabric.backend import FabricExecutorBackend
from repro.harness.fabric.coordinator import FabricCoordinator
from repro.harness.fabric.protocol import (
    PROTOCOL_VERSION,
    FrameError,
    parse_address,
    recv_frame,
    send_frame,
)
from repro.harness.fabric.worker import FabricWorker
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


def test_parse_address():
    assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_address("host.example:1") == ("host.example", 1)
    for bad in ("nohost", ":123", "host:", "host:abc", "host:70000"):
        with pytest.raises(ValueError):
            parse_address(bad)


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


def _drain_until(source, predicate, deadline=15.0):
    """Collect events until ``predicate(events)`` or the deadline."""
    events = []
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        events.extend(source.drain(0.05))
        if predicate(events):
            return events
    raise AssertionError(f"timed out waiting; got {events}")


def _worker_thread(coordinator, **kwargs):
    host, port = coordinator.address
    worker = FabricWorker(host, port, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return worker, thread


def test_coordinator_completes_work_and_counts_steals():
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    try:
        for index in range(3):
            coordinator.submit(index, _shard(index), _ok_task)
        _worker_thread(coordinator, name="w0",
                       journal_version=JOURNAL_VERSION)
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
        assert stats["roster"][0]["name"] == "w0"
        assert stats["roster"][0]["shards_done"] == 3
        kinds = {e.event for e in events if e.kind == "info"}
        assert "fabric_worker_register" in kinds
        assert "fabric_steal" in kinds
    finally:
        coordinator.stop()


def test_worker_round_trips_do_not_wait_on_delayed_acks(monkeypatch):
    """A worker sends each result and its next steal back to back; with
    Nagle's algorithm on, the steal would sit out the coordinator's
    delayed ACK (40 ms on Linux) once per shard.  So the worker's
    socket must have Nagle off."""
    opened = []
    create_connection = socket.create_connection

    def recording_create_connection(*args, **kwargs):
        conn = create_connection(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(socket, "create_connection",
                        recording_create_connection)
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    try:
        coordinator.submit(0, _shard(0), _ok_task)
        _worker_thread(coordinator, name="w0",
                       journal_version=JOURNAL_VERSION)
        _drain_until(coordinator,
                     lambda es: any(e.kind == "done" for e in es))
        [conn] = opened
        assert conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        coordinator.stop()


def test_coordinator_rejects_version_skewed_fragments():
    """A worker built against another journal version must have its
    fragments discarded and the shard charged — never merged."""
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    try:
        coordinator.submit(0, _shard(0), _ok_task)
        _worker_thread(coordinator, name="skewed", journal_version=999)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        failed = [e for e in events if e.kind == "failed"]
        assert "version skew" in failed[0].reason
        assert not any(e.kind == "done" for e in events)
        assert coordinator.stats()["version_skew"] >= 1
        kinds = {e.event for e in events if e.kind == "info"}
        assert "fabric_version_skew" in kinds
    finally:
        coordinator.stop()


def test_coordinator_stop_wakes_the_accept_thread():
    """stop() must not wait out its 2 s join deadline on a thread still
    blocked in accept(), nor leave that thread running."""
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    time.sleep(0.1)  # let the accept thread block in accept()
    started = time.monotonic()
    coordinator.stop()
    assert time.monotonic() - started < 1.0
    assert not coordinator._accept_thread.is_alive()


def _raw_register_and_steal(coordinator, name="raw"):
    """Minimal hand-rolled worker: register, steal, return the live
    socket and the assignment message."""
    conn = socket.create_connection(coordinator.address)
    send_frame(conn, {
        "type": "register", "name": name, "pid": 1, "host": "test",
        "protocol": PROTOCOL_VERSION,
        "journal_version": JOURNAL_VERSION,
    })
    ack = recv_frame(conn)
    assert ack["type"] == "registered"
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        send_frame(conn, {"type": "steal"})
        message = recv_frame(conn)
        if message["type"] == "assign":
            return conn, message
        time.sleep(0.02)
    raise AssertionError("never got an assignment")


def test_coordinator_charges_shard_of_dead_worker():
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    try:
        coordinator.submit(5, _shard(5), _ok_task)
        conn, assignment = _raw_register_and_steal(coordinator)
        assert assignment["ticket"] == 5
        conn.close()  # die mid-assignment, no goodbye
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 5
        assert "died" in failed[0].reason
        stats = coordinator.stats()
        assert stats["worker_deaths"] == 1
        assert stats["requeues"] == 1
        assert any(e.event == "fabric_worker_dead"
                   for e in events if e.kind == "info")
    finally:
        coordinator.stop()


def test_coordinator_charges_hung_shard_despite_heartbeats():
    """Heartbeats prove liveness, not progress: a shard past its
    wall-clock deadline is charged even while its worker heartbeats."""
    coordinator = FabricCoordinator(
        journal_version=JOURNAL_VERSION, shard_timeout=0.4)
    coordinator.start()
    try:
        coordinator.submit(2, _shard(2), _ok_task)
        conn, assignment = _raw_register_and_steal(coordinator)
        assert assignment["ticket"] == 2
        stop = threading.Event()

        def heartbeat():
            while not stop.wait(0.1):
                try:
                    send_frame(conn, {"type": "heartbeat"})
                except OSError:
                    return

        thread = threading.Thread(target=heartbeat, daemon=True)
        thread.start()
        try:
            events = _drain_until(
                coordinator,
                lambda es: any(e.kind == "failed" for e in es),
            )
        finally:
            stop.set()
            thread.join()
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 2
        assert "hang" in failed[0].reason
        assert coordinator.stats()["heartbeats"] >= 1
    finally:
        coordinator.stop()
        conn.close()


def test_coordinator_reaps_worker_with_stale_heartbeat():
    """A worker that stops heartbeating mid-shard is dead even if its
    TCP connection lingers: the shard must come back."""
    coordinator = FabricCoordinator(
        journal_version=JOURNAL_VERSION, shard_timeout=60.0,
        heartbeat_seconds=0.1, heartbeat_grace=0.5)
    coordinator.start()
    try:
        coordinator.submit(1, _shard(1), _ok_task)
        conn, assignment = _raw_register_and_steal(coordinator)
        assert assignment["ticket"] == 1
        # ...and now send nothing at all.
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        failed = [e for e in events if e.kind == "failed"]
        assert failed[0].ticket == 1
        assert "heartbeat" in failed[0].reason
    finally:
        coordinator.stop()
        conn.close()


# ----------------------------------------------------------------------
# Supervisor over the fabric backend
# ----------------------------------------------------------------------
def _fabric_supervisor(loopback, **backend_kwargs):
    return ShardSupervisor(
        workers=loopback,
        poll_seconds=0.02,
        backend_factory=lambda: FabricExecutorBackend(
            loopback_workers=loopback,
            journal_version=JOURNAL_VERSION,
            **backend_kwargs,
        ),
    )


def test_supervisor_completes_over_loopback_fabric():
    shards = [_shard(i) for i in range(6)]
    with _fabric_supervisor(2) as supervisor:
        report = supervisor.run(shards, _ok_task)
        stats = supervisor.backend_stats()
    assert sorted(report.outcomes) == list(range(6))
    assert report.quarantined == []
    assert stats["backend"] == "fabric"
    assert stats["loopback_workers"] == 2
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


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="Python 3.12 is the first to warn on fork()")
def test_loopback_workers_are_forked_before_any_thread_starts():
    """The backend binds, forks its loopback workers, and only then
    starts the coordinator's threads: forking a threaded process may
    deadlock the child, and Python 3.12+ warns when it happens."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    run = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m",
         "repro", "campaign", "--faults", "8", "--connections", "4",
         "--workers", "2", "--no-baseline", "--no-profile"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "multi-threaded" not in run.stderr


def test_supervisor_serial_fallback_when_fabric_starves():
    """A fabric with no workers at all must not wedge the campaign: the
    starvation timeout hands the shards back, the supervisor burns its
    rebuild budget, and the work finishes serially in-process."""
    shards = [_shard(i) for i in range(3)]
    supervisor = ShardSupervisor(
        workers=2,
        poll_seconds=0.02,
        max_pool_rebuilds=0,
        backend_factory=lambda: FabricExecutorBackend(
            listen=("127.0.0.1", 0),
            journal_version=JOURNAL_VERSION,
            worker_grace=0.3,
        ),
    )
    with supervisor:
        report = supervisor.run(shards, _ok_task)
    assert sorted(report.outcomes) == list(range(3))
    assert report.serial_fallback
    assert report.pool_rebuilds >= 1
    assert report.retries == 0  # starvation charges nobody


def test_external_worker_via_listen_address():
    """The `campaign-worker host:port` shape: backend listens, a worker
    we run ourselves supplies all the capacity."""
    backend = FabricExecutorBackend(
        listen=("127.0.0.1", 0), journal_version=JOURNAL_VERSION)
    try:
        host, port = backend.address
        worker = FabricWorker(host, port, name="external-0",
                              journal_version=JOURNAL_VERSION)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        for index in range(3):
            backend.submit_shard(index, _shard(index), _ok_task)
        events = _drain_until(
            backend, lambda es: sum(e.kind == "done" for e in es) == 3)
        assert sorted(e.ticket for e in events
                      if e.kind == "done") == [0, 1, 2]
        roster = backend.stats()["roster"]
        assert [w["name"] for w in roster] == ["external-0"]
    finally:
        backend.shutdown()


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
# Worker reconnect
# ----------------------------------------------------------------------
def test_worker_reconnect_backoff_is_bounded_and_deterministic(
        monkeypatch):
    """An unreachable coordinator costs exactly max_reconnects redials,
    each preceded by the policy's deterministic backoff delay."""
    import repro.harness.fabric.worker as worker_module
    from repro.harness.backoff import BackoffPolicy

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()  # nothing listens here now

    delays = []
    monkeypatch.setattr(worker_module, "_sleep", delays.append)
    policy = BackoffPolicy(base=0.1, factor=2.0, max_delay=1.0,
                           jitter=0.5, seed="w0")
    worker = FabricWorker(
        "127.0.0.1", port, name="w0", max_reconnects=3,
        backoff=policy, journal_version=JOURNAL_VERSION,
    )
    assert worker.run() == 0
    assert worker.reconnects == 3
    assert delays == [policy.delay(1), policy.delay(2), policy.delay(3)]


def test_worker_default_dies_on_first_loss(monkeypatch):
    import repro.harness.fabric.worker as worker_module

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    delays = []
    monkeypatch.setattr(worker_module, "_sleep", delays.append)
    worker = FabricWorker("127.0.0.1", port,
                          journal_version=JOURNAL_VERSION)
    assert worker.run() == 0
    assert worker.reconnects == 0
    assert delays == []


def test_worker_redials_after_drop_and_reregisters(monkeypatch):
    """A dropped connection redials and re-registers with the attempt
    count; a clean shutdown never redials."""
    import repro.harness.fabric.worker as worker_module

    monkeypatch.setattr(worker_module, "_sleep", lambda seconds: None)
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    registers = []

    def scripted_coordinator():
        # session 1: accept, ack, then drop mid-conversation
        conn, _ = listener.accept()
        registers.append(recv_frame(conn))
        send_frame(conn, {"type": "registered",
                          "heartbeat_seconds": 0.5})
        recv_frame(conn)  # the worker's first steal
        conn.close()      # no shutdown, no goodbye — a real drop
        # session 2: the redial — ack, then dismiss cleanly
        conn, _ = listener.accept()
        registers.append(recv_frame(conn))
        send_frame(conn, {"type": "registered",
                          "heartbeat_seconds": 0.5})
        recv_frame(conn)  # steal
        send_frame(conn, {"type": "shutdown"})
        recv_frame(conn)  # goodbye
        conn.close()

    thread = threading.Thread(target=scripted_coordinator, daemon=True)
    thread.start()
    host, port = listener.getsockname()
    worker = FabricWorker(host, port, name="redial", max_reconnects=5,
                          journal_version=JOURNAL_VERSION)
    try:
        assert worker.run() == 0
        thread.join(5)
        assert worker.reconnects == 1  # shutdown ended it, not budget
        assert registers[0]["reconnects"] == 0
        assert registers[1]["reconnects"] == 1
    finally:
        listener.close()


def test_coordinator_emits_worker_reconnected_event():
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    conn = None
    try:
        conn = socket.create_connection(coordinator.address)
        send_frame(conn, {
            "type": "register", "name": "phoenix", "pid": 1,
            "host": "test", "protocol": PROTOCOL_VERSION,
            "journal_version": JOURNAL_VERSION, "reconnects": 2,
        })
        assert recv_frame(conn)["type"] == "registered"
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "info"
                           and e.event == "worker_reconnected"
                           for e in es),
        )
        event = next(e for e in events
                     if e.event == "worker_reconnected")
        assert event.fields["worker"] == "phoenix"
        assert event.fields["reconnects"] == 2
    finally:
        if conn is not None:
            conn.close()
        coordinator.stop()


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
def test_coordinator_requeues_shard_on_protocol_error(corrupt):
    """Garbage on the wire from a worker holding a shard must become a
    clean protocol error that charges + reclaims the shard — never an
    unhandled exception in the coordinator's read loop."""
    coordinator = FabricCoordinator(journal_version=JOURNAL_VERSION)
    coordinator.start()
    conn = None
    try:
        coordinator.submit(9, _shard(9), _ok_task)
        conn, assignment = _raw_register_and_steal(
            coordinator, name="vandal"
        )
        assert assignment["ticket"] == 9
        corrupt(conn)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "failed" for e in es),
        )
        failed = [e for e in events if e.kind == "failed"][0]
        assert failed.ticket == 9
        assert "protocol error" in failed.reason
        # the coordinator survived: resubmit the reclaimed shard and a
        # healthy worker completes it on the same coordinator
        coordinator.submit(9, _shard(9), _ok_task)
        _worker_thread(coordinator, name="healthy",
                       journal_version=JOURNAL_VERSION)
        events = _drain_until(
            coordinator,
            lambda es: any(e.kind == "done" for e in es),
        )
        assert any(e.kind == "done" and e.ticket == 9 for e in events)
    finally:
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        coordinator.stop()
