"""Tier-1 tests for the supervisor's forked workers and their sockets.

Three layers, in rising order of integration:

* the frame protocol (roundtrip, clean EOF vs torn or stalled stream,
  size guard);
* the supervision protocol on forked workers, driven with toy tasks.
  The tests named for the *coordinator* drive the supervisor's side of
  the socket pairs.  A task acts out a hang or a silent worker; death
  and corrupt frames are acted out by scripted workers: the test
  patches the module's worker entry point before the fork, the initial
  workers each take one shard and run the script, and every re-fork is
  a real worker;
* the full campaign's fabric telemetry and manifest surface.

Pool campaigns landing on the digests of serial runs — with a worker
chaos-killed mid-campaign — are rows of ``test_parity.py``: that is
what makes the worker pool an executor rather than a different
experiment.  The supervision scenarios (crash, kill, hang, serial
fallback) on real workers are in ``test_supervisor.py``.
"""

import json
import multiprocessing
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

import repro.harness.supervisor as supervisor_module
from repro.harness.campaign import CampaignShard, ParallelCampaign
from repro.harness.supervisor import (
    CHAOS_KILL_ENV,
    FrameError,
    ShardSupervisor,
    recv_frame,
    send_frame,
)
from tests.harness.configs import tiny_config


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def test_frame_roundtrip():
    left, right = socket.socketpair()
    try:
        message = ("result", {"mis": 1, "nested": [1, 2, {"a": "b"}]})
        send_frame(left, message)
        assert recv_frame(right) == message
    finally:
        left.close()
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
        left.sendall(struct.pack(">I", 100) + b"\x80\x05")
        left.close()
        with pytest.raises(FrameError, match="closed mid-frame"):
            recv_frame(right)
    finally:
        right.close()


def test_recv_frame_rejects_oversized_length():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 2**31))
        with pytest.raises(FrameError, match="too large"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_recv_frame_times_out_on_a_stalled_frame():
    """A peer stopped mid-frame costs the reader one socket timeout,
    then a clean error — never a blocked read."""
    left, right = socket.socketpair()
    right.settimeout(0.2)
    try:
        left.sendall(struct.pack(">I", 100) + b"\x80\x05")
        with pytest.raises(FrameError, match="stalled"):
            recv_frame(right)
    finally:
        left.close()
        right.close()


def test_send_frame_rejects_oversized_payload(monkeypatch):
    monkeypatch.setattr(supervisor_module, "MAX_FRAME_BYTES", 64)
    left, right = socket.socketpair()
    try:
        with pytest.raises(FrameError):
            send_frame(left, {"blob": "x" * 200})
    finally:
        left.close()
        right.close()


# ----------------------------------------------------------------------
# The supervisor's side of the socket pairs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FakeLocation:
    fault_id: str


def _shard(index):
    return CampaignShard(
        index=index, first_slot=index * 2,
        locations=(FakeLocation(f"f#{index}"),),
    )


class _Recorder:
    """A telemetry sink that keeps every event in memory."""

    def __init__(self):
        self.events = []

    def emit(self, event, **fields):
        self.events.append((event, fields))

    def named(self, event):
        return [fields for name, fields in self.events if name == event]


def _ok_task(shard):
    return {"shard": shard.index}


def _slow_task(shard):
    time.sleep(0.2)
    return {"shard": shard.index}


def _hang_task(shard):
    time.sleep(60)


def _stop_task(shard):
    """Freeze the whole worker, heartbeat thread included: its socket
    stays open, but it sends nothing more."""
    os.kill(os.getpid(), signal.SIGSTOP)


def _unpicklable_task(shard):
    return threading.Lock()


def _script_initial_workers(monkeypatch, script, count=2):
    """Patch the worker entry point before the fork: each of the first
    ``count`` forked workers says it is ready, takes one shard and then
    runs ``script(conn)`` on its socket; every later fork (a re-fork
    after a reap) is a real worker.  A real worker says it is ready only
    once every scripted one has taken its shard (or after 2 s), so a
    scripted worker slow to start never loses its shard to a re-fork."""
    real_main = supervisor_module._worker_main
    real_fork = ShardSupervisor._fork
    forks = []
    taken = multiprocessing.get_context("fork").Value("i", 0)

    def fork(self, name, kill_after=None):
        forks.append(name)
        real_fork(self, name, kill_after)

    def entry(conn, inherited, kill_after):
        # This child's copy of ``forks`` ends with its own fork.
        if len(forks) > count:
            deadline = time.monotonic() + 2.0
            while taken.value < count and time.monotonic() < deadline:
                time.sleep(0.01)
            real_main(conn, inherited, kill_after)
            return
        for sock in inherited:
            sock.close()
        send_frame(conn, ("heartbeat", None))
        recv_frame(conn)
        with taken.get_lock():
            taken.value += 1
        script(conn)

    monkeypatch.setattr(ShardSupervisor, "_fork", fork)
    monkeypatch.setattr(supervisor_module, "_worker_main", entry)


def _retry_reasons(recorder):
    return [fields["reason"] for fields in recorder.named("shard_retry")]


def test_coordinator_completes_work_and_counts_steals():
    """Each shard is stolen once: one ``shard_dispatch`` per shard,
    naming the worker that took it."""
    recorder = _Recorder()
    with ShardSupervisor(workers=2, telemetry=recorder) as supervisor:
        report = supervisor.run([_shard(i) for i in range(3)], _ok_task)
    assert report.outcomes == {i: {"shard": i} for i in range(3)}
    assert report.pool_rebuilds == 0
    workers = [fields["worker"]
               for fields in recorder.named("fabric_worker_register")]
    assert workers == ["loopback-0", "loopback-1"]
    dispatches = recorder.named("shard_dispatch")
    assert sorted(fields["shard"] for fields in dispatches) == [0, 1, 2]
    assert {fields["worker"] for fields in dispatches} <= set(workers)


def test_each_worker_exits_once_its_coordinator_end_closes():
    """A worker reads EOF once every copy of its pair's supervisor end
    is closed.  The fork hands each worker a copy of its own pair's end
    and of every end held for the workers forked before it; one left
    open keeps that worker alive after its supervisor is gone, as an
    orphan of a killed campaign.  So closing the supervisor's ends one
    at a time must end exactly that worker each time."""
    supervisor = ShardSupervisor(workers=3)
    try:
        supervisor.run([_shard(i) for i in range(3)], _ok_task)
        for name in ("loopback-0", "loopback-1", "loopback-2"):
            worker = supervisor._workers[name]
            worker.conn.close()
            worker.process.join(timeout=5.0)
            assert not worker.process.is_alive(), (
                f"{name} still runs with its supervisor end closed")
    finally:
        supervisor.close()


def test_unpicklable_outcome_is_charged_and_never_merged():
    """An outcome the worker cannot pickle comes back as a charged
    ``error``, never as a result: under a retry budget of one, the
    shard is quarantined after two attempts and nothing it returned
    reaches the outcomes."""
    with ShardSupervisor(workers=2, max_retries=1) as supervisor:
        report = supervisor.run([_shard(4)], _unpicklable_task)
    [quarantined] = report.quarantined
    assert quarantined.shard_index == 4
    assert quarantined.attempts == 2
    assert all(reason.startswith("crash: unsendable outcome")
               for reason in quarantined.failures)
    assert report.outcomes == {}
    assert report.pool_rebuilds == 0


def _exits(conn):
    """Die mid-assignment: the process ends and its socket closes."""


def test_coordinator_charges_shard_of_dead_worker(monkeypatch):
    _script_initial_workers(monkeypatch, _exits)
    recorder = _Recorder()
    with ShardSupervisor(workers=2, telemetry=recorder) as supervisor:
        report = supervisor.run([_shard(5), _shard(6)], _ok_task)
    assert sorted(report.outcomes) == [5, 6]
    reasons = _retry_reasons(recorder)
    assert len(reasons) == 2
    assert all(reason.startswith("worker died: loopback-")
               and reason.endswith("(connection lost)")
               for reason in reasons)
    assert report.retries == 2
    assert report.pool_rebuilds == 2
    assert sorted(
        (fields["worker"], fields["reason"])
        for fields in recorder.named("pool_rebuild")
    ) == [("loopback-0", "connection lost"),
          ("loopback-1", "connection lost")]


def test_coordinator_charges_hung_shard_despite_heartbeats(monkeypatch):
    """Heartbeats prove liveness, not progress: a shard past its
    wall-clock deadline is charged as hung.  Its worker outlives the
    silence grace twice over first, so only its heartbeats, arriving
    while the shard ran, spared it a silence reap."""
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_SECONDS", 0.05)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_GRACE", 1.0)
    with ShardSupervisor(workers=2, shard_timeout=2.0,
                         max_retries=0) as supervisor:
        report = supervisor.run([_shard(2)], _hang_task)
    [quarantined] = report.quarantined
    assert quarantined.shard_index == 2
    assert quarantined.failures == ("hang: exceeded 2.0s deadline",)
    assert report.pool_rebuilds == 1


def test_coordinator_reaps_worker_with_stale_heartbeat(monkeypatch):
    """A worker that falls silent while it holds a shard is dead even
    if its socket stays open: the shard is charged and comes back.  The
    idle worker beside it keeps heartbeating and is left alone."""
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_SECONDS", 0.05)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_GRACE", 1.0)
    with ShardSupervisor(workers=2, shard_timeout=60.0,
                         max_retries=0) as supervisor:
        report = supervisor.run([_shard(1)], _stop_task)
    [quarantined] = report.quarantined
    assert quarantined.shard_index == 1
    [failure] = quarantined.failures
    assert failure.startswith("worker died: loopback-")
    assert failure.endswith("(heartbeat lost)")
    assert report.pool_rebuilds == 1


# ----------------------------------------------------------------------
# Supervisor over its workers
# ----------------------------------------------------------------------
def test_supervisor_completes_over_loopback_fabric():
    shards = [_shard(i) for i in range(6)]
    recorder = _Recorder()
    with ShardSupervisor(workers=2, telemetry=recorder) as supervisor:
        report = supervisor.run(shards, _ok_task)
    assert sorted(report.outcomes) == list(range(6))
    assert report.quarantined == []
    assert report.pool_rebuilds == 0
    assert len(recorder.named("fabric_worker_register")) == 2
    assert len(recorder.named("shard_dispatch")) == 6


def test_supervisor_survives_chaos_killed_loopback_worker(monkeypatch):
    monkeypatch.setenv(CHAOS_KILL_ENV, "2")
    shards = [_shard(i) for i in range(6)]
    with ShardSupervisor(workers=2) as supervisor:
        report = supervisor.run(shards, _slow_task)
    assert sorted(report.outcomes) == list(range(6))
    assert report.quarantined == []
    assert report.retries >= 1
    assert report.pool_rebuilds >= 1


def _count_forks(monkeypatch):
    """Record the parent's thread count at every worker fork."""
    start = multiprocessing.process.BaseProcess.start
    threads_at_fork = []

    def counting_start(process):
        threads_at_fork.append(threading.active_count())
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        counting_start)
    return threads_at_fork


def test_loopback_workers_fork_from_a_single_threaded_parent(
        monkeypatch):
    """Every worker fork — the first two and the re-fork after a chaos
    kill — happens with no more threads than the parent had before the
    supervisor ran: it serves its sockets from its own thread, and
    forking a threaded process may deadlock the child."""
    monkeypatch.setenv(CHAOS_KILL_ENV, "2")
    threads_at_fork = _count_forks(monkeypatch)
    before = threading.active_count()
    with ShardSupervisor(workers=2) as supervisor:
        report = supervisor.run([_shard(i) for i in range(6)], _slow_task)
    assert sorted(report.outcomes) == list(range(6))
    assert len(threads_at_fork) == 3
    assert max(threads_at_fork) <= before


MARK = "set at import"


def _read_mark(shard):
    return MARK


def test_workers_are_forked_whatever_the_default_start_method(
        monkeypatch):
    """Workers are forked even where the default start method is not
    fork (``forkserver`` from Python 3.14 on Linux): they must see the
    parent's memory as it stands at the first run, which a re-imported
    module does not."""
    monkeypatch.setattr(sys.modules[__name__], "MARK", "set in the parent")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("spawn", force=True)
    try:
        with ShardSupervisor(workers=2) as supervisor:
            report = supervisor.run([_shard(0), _shard(1)], _read_mark)
    finally:
        multiprocessing.set_start_method(previous, force=True)
    assert report.outcomes == {0: "set in the parent",
                               1: "set in the parent"}


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="Python 3.12 is the first to warn on fork()")
@pytest.mark.parametrize("kill_after", [None, "1"],
                         ids=["no-death", "chaos-kill"])
def test_loopback_workers_are_forked_before_any_thread_starts(kill_after):
    """A campaign forks its workers, and re-forks a dead one, from a
    process with no thread but its own: forking a threaded process may
    deadlock the child, and Python 3.12+ warns when it happens."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(src), env.get("PYTHONPATH")) if part
    )
    env.pop(CHAOS_KILL_ENV, None)
    if kill_after is not None:
        env[CHAOS_KILL_ENV] = kill_after
    run = subprocess.run(
        [sys.executable, "-W", "always::DeprecationWarning", "-m",
         "repro", "campaign", "--faults", "8", "--connections", "4",
         "--workers", "2", "--no-baseline", "--no-profile"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert "multi-threaded" not in run.stderr


def _never_sends(conn, inherited, kill_after):
    time.sleep(60)


def test_supervisor_serial_fallback_when_fabric_starves(monkeypatch):
    """Workers that never say they are ready must not wedge the
    campaign: none is assigned a shard, so once the silence grace
    passes each is killed uncharged, the rebuild budget is spent, and
    the work finishes serially in-process."""
    monkeypatch.setattr(supervisor_module, "_worker_main", _never_sends)
    monkeypatch.setattr(supervisor_module, "HEARTBEAT_GRACE", 0.3)
    monkeypatch.setattr(supervisor_module, "MAX_POOL_REBUILDS", 0)
    shards = [_shard(i) for i in range(3)]
    with ShardSupervisor(workers=2) as supervisor:
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
    registered = {event["worker"] for event in events
                  if event["event"] == "fabric_worker_register"}
    assert registered == {"loopback-0", "loopback-1"}
    dispatched = {event["worker"] for event in events
                  if event["event"] == "shard_dispatch"}
    assert dispatched and dispatched <= registered
    assert manifest.supervision["pool_rebuilds"] == 0
    assert "fabric" not in manifest.to_dict()
    assert manifest.manifest_version >= 9


# ----------------------------------------------------------------------
# Protocol hardening: corrupt frames are errors, not crashes
# ----------------------------------------------------------------------
def _send_torn_frame(conn):
    conn.sendall(struct.pack(">I", 64) + b"\x80\x05torn")
    conn.close()


def _send_oversized_length(conn):
    conn.sendall(struct.pack(">I", 2**31))


def _send_invalid_json(conn):
    # Bytes no decoder takes: they unpickle no more than they parse.
    conn.sendall(struct.pack(">I", 7) + b"notjson")


def _send_non_object(conn):
    # A well-formed pickle, but a list, not a worker message.
    send_frame(conn, ["not", "an", "object"])


def _send_stalled_frame(conn):
    conn.sendall(struct.pack(">I", 64) + b"\x80\x05")


@pytest.mark.parametrize("corrupt", [
    _send_torn_frame,
    _send_oversized_length,
    _send_invalid_json,
    _send_non_object,
    _send_stalled_frame,
], ids=["torn-frame", "oversized-length", "invalid-json", "non-object",
        "stalled"])
def test_coordinator_requeues_shard_on_protocol_error(corrupt, monkeypatch):
    """Garbage on the wire from a worker holding a shard must become a
    clean protocol error that charges and reclaims the shard — never an
    unhandled exception in the supervisor's read loop, which goes on to
    the other worker's garbage and then to the re-forked workers that
    complete both shards."""

    def vandal(conn):
        corrupt(conn)
        time.sleep(60)  # until the reap kills it

    monkeypatch.setattr(supervisor_module, "READ_TIMEOUT", 0.3)
    _script_initial_workers(monkeypatch, vandal)
    recorder = _Recorder()
    with ShardSupervisor(workers=2, telemetry=recorder) as supervisor:
        report = supervisor.run([_shard(9), _shard(10)], _ok_task)
    assert sorted(report.outcomes) == [9, 10]
    reasons = _retry_reasons(recorder)
    assert len(reasons) == 2
    assert all("protocol error" in reason for reason in reasons)
    assert len(recorder.named("fabric_protocol_error")) == 2
