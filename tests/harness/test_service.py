"""Tier-1 tests for the campaign service daemon.

Four layers, in rising order of integration:

* spec validation — a JSON spec is valid exactly when the equivalent
  ``campaign`` command line is, managed keys refused;
* the durable queue — fsync'd replay, torn-tail tolerance, bounded
  admission;
* the daemon state machine, driven with an injected runner — retry
  with backoff, budget interrupt, graceful drain, restart recovery at
  every lifecycle stage (the satellite-3 matrix), exactly-once
  scheduling;
* the HTTP surface and, under the ``slow`` marker, the full chaos
  scenario: a real daemon subprocess SIGKILLed mid-campaign must, after
  restart, finish with a ``metrics_digest`` byte-identical to an
  uninterrupted run — with no slot executed twice.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.harness.campaign import CampaignInterrupted, ParallelCampaign
from repro.harness.service import (
    CampaignDaemon,
    QueueFull,
    SpecError,
    SpecQueue,
    make_server,
    namespace_from_spec,
    recover_queue,
)

#: A campaign small enough to finish in about a second, used whenever a
#: test runs the real engine.
SPEC = {
    "os": "nt51", "server": "apache", "faults": 6, "connections": 2,
    "seed": 2004, "workers": 2, "slots-per-shard": 2,
    "no-baseline": True, "no-profile": True,
}


# ----------------------------------------------------------------------
# Spec validation
# ----------------------------------------------------------------------
def test_spec_parses_to_campaign_namespace():
    args = namespace_from_spec(SPEC)
    assert args.server == "apache"
    assert args.os_codename == "nt51"
    assert args.faults == 6
    assert args.workers == 2
    assert args.slots_per_shard == 2
    assert args.no_baseline and args.no_profile


def test_spec_accepts_underscores_and_faults_zero():
    args = namespace_from_spec({"os_codename": "nt50", "faults": 0})
    assert args.os_codename == "nt50"
    assert args.faults is None  # 0 means the full faultload, like main()


@pytest.mark.parametrize("spec,fragment", [
    ({"journal": "x"}, "managed by the service"),
    ({"resume": True}, "managed by the service"),
    ({"export": "x"}, "managed by the service"),
    ({"bogus": 1}, "unknown spec key"),
    ({"workers": 0}, "--workers must be >= 1"),
    ({"ci-target": 0.1}, "requires --sequential"),
    ({"fabric-listen": "nohost"}, "must be host:port"),
    ({"server": "nope"}, "invalid choice"),
    ({"workers": "two"}, "invalid int value"),
    ({"workers": True}, "expects a value"),
    ({"no-baseline": 1}, "must be a boolean"),
    ("not a dict", "must be a JSON object"),
    ({"snapshot-cache": 4}, "unknown spec key"),
    ({"no-warm-mutants": True}, "unknown spec key"),
    ({"backend": "fabric"}, "unknown spec key"),
    ({"fabric-loopback": 0}, "unknown spec key"),
    ({"no-snapshot-epochs": True}, "unknown spec key"),
    ({"no-track-activation": True}, "unknown spec key"),
])
def test_spec_rejections(spec, fragment):
    with pytest.raises(SpecError, match=re.escape(fragment)):
        namespace_from_spec(spec)


# ----------------------------------------------------------------------
# The durable queue
# ----------------------------------------------------------------------
def test_queue_replay_roundtrip(tmp_path):
    path = tmp_path / "queue.jsonl"
    queue = SpecQueue(path, capacity=4)
    first = queue.submit({"server": "apache"})
    second = queue.submit({"server": "nullsrv"})
    queue.mark(first.id, "running", attempts=1)
    queue.mark(first.id, "done", metrics_digest="abc")
    queue.close()

    replayed = SpecQueue(path, capacity=4)
    assert [entry.id for entry in replayed.in_order()] == \
        [first.id, second.id]
    assert replayed.get(first.id).state == "done"
    assert replayed.get(first.id).detail["metrics_digest"] == "abc"
    assert replayed.get(second.id).state == "queued"
    assert replayed.next_queued().id == second.id
    # seq continues past the replayed entries: ids never collide
    third = replayed.submit({"server": "apache"})
    assert third.seq == 2
    assert third.id != first.id
    replayed.close()


def test_queue_sheds_at_capacity_with_retry_hint(tmp_path):
    queue = SpecQueue(tmp_path / "queue.jsonl", capacity=2)
    queue.submit({"a": 1})
    running = queue.submit({"a": 2})
    queue.mark(running.id, "running")  # running still counts as active
    with pytest.raises(QueueFull) as excinfo:
        queue.submit({"a": 3}, retry_after=7.0)
    assert excinfo.value.retry_after == 7.0
    # terminal states free capacity
    queue.mark(running.id, "failed", error="x")
    queue.submit({"a": 3})
    queue.close()


def test_queue_tolerates_torn_final_line(tmp_path):
    path = tmp_path / "queue.jsonl"
    queue = SpecQueue(path, capacity=4)
    entry = queue.submit({"server": "apache"})
    queue.mark(entry.id, "running")
    queue.close()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "state", "id": "' + entry.id + '", "st')
    replayed = SpecQueue(path, capacity=4)
    assert replayed.get(entry.id).state == "running"  # torn line dropped
    replayed.close()


def test_queue_torn_interior_line_raises(tmp_path):
    path = tmp_path / "queue.jsonl"
    path.write_text('{"kind": "spec", "id": "a", "seq"\n'
                    '{"kind": "state", "id": "a", "state": "done"}\n')
    with pytest.raises(json.JSONDecodeError):
        SpecQueue(path)


def test_queue_state_for_unseen_spec_is_skipped(tmp_path):
    # A state line whose spec record was torn away must not crash replay.
    path = tmp_path / "queue.jsonl"
    path.write_text('{"kind": "state", "id": "ghost", "state": "done"}\n')
    queue = SpecQueue(path)
    assert len(queue) == 0
    queue.close()


def test_recover_queue_requeues_only_running(tmp_path):
    queue = SpecQueue(tmp_path / "queue.jsonl", capacity=8)
    queued = queue.submit({"a": 1})
    running = queue.submit({"a": 2})
    done = queue.submit({"a": 3})
    queue.mark(running.id, "running", attempts=1)
    queue.mark(done.id, "done")
    summary = recover_queue(queue)
    assert summary["requeued"] == [running.id]
    assert queue.get(running.id).state == "queued"
    assert queue.get(running.id).detail["recovered"] is True
    assert queue.get(queued.id).state == "queued"
    assert queue.get(done.id).state == "done"
    queue.close()
    # the requeue itself is durable: a second crash changes nothing
    replayed = SpecQueue(tmp_path / "queue.jsonl")
    assert replayed.get(running.id).state == "queued"
    replayed.close()


# ----------------------------------------------------------------------
# The daemon state machine (injected runner)
# ----------------------------------------------------------------------
def _await(predicate, deadline=10.0, message="condition"):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


def _daemon(tmp_path, runner, **kwargs):
    kwargs.setdefault("poll_seconds", 0.005)
    return CampaignDaemon(tmp_path / "home", runner=runner, **kwargs)


def test_daemon_runs_submission_to_done(tmp_path):
    calls = []

    def runner(entry, stop_event):
        calls.append(entry.id)
        return {"metrics_digest": "d1", "campaign_key": "k1"}

    daemon = _daemon(tmp_path, runner)
    daemon.start()
    entry = daemon.submit(SPEC)
    _await(lambda: daemon.status(entry.id)["state"] == "done",
           message="done")
    status = daemon.status(entry.id)
    assert status["metrics_digest"] == "d1"
    assert status["attempts"] == 1
    assert calls == [entry.id]  # exactly once
    daemon.drain()
    assert daemon.wait_drained(5)
    daemon.close()


def test_daemon_rejects_bad_spec_before_enqueue(tmp_path):
    daemon = _daemon(tmp_path, lambda entry, stop: {})
    with pytest.raises(SpecError):
        daemon.submit({"bogus": 1})
    assert len(daemon.queue) == 0
    daemon.close()


def test_daemon_retries_with_backoff_then_succeeds(tmp_path):
    from repro.harness.backoff import BackoffPolicy

    attempts = []

    def runner(entry, stop_event):
        attempts.append(entry.id)
        if len(attempts) < 3:
            raise RuntimeError(f"flake {len(attempts)}")
        return {"metrics_digest": "d2"}

    daemon = _daemon(
        tmp_path, runner, max_attempts=3,
        backoff=BackoffPolicy(base=0.001, max_delay=0.002, jitter=0.0,
                              seed="t"),
    )
    daemon.start()
    entry = daemon.submit(SPEC)
    _await(lambda: daemon.status(entry.id)["state"] == "done",
           message="retried to done")
    assert len(attempts) == 3
    assert daemon.status(entry.id)["attempts"] == 3
    daemon.drain()
    daemon.wait_drained(5)
    daemon.close()


def test_daemon_fails_after_max_attempts(tmp_path):
    from repro.harness.backoff import BackoffPolicy

    def runner(entry, stop_event):
        raise RuntimeError("always broken")

    daemon = _daemon(
        tmp_path, runner, max_attempts=2,
        backoff=BackoffPolicy(base=0.001, max_delay=0.002, jitter=0.0,
                              seed="t"),
    )
    daemon.start()
    entry = daemon.submit(SPEC)
    _await(lambda: daemon.status(entry.id)["state"] == "failed",
           message="failed")
    status = daemon.status(entry.id)
    assert "always broken" in status["error"]
    assert status["attempts"] == 2
    daemon.drain()
    daemon.wait_drained(5)
    daemon.close()


def test_daemon_budget_interrupt_marks_failed(tmp_path):
    def runner(entry, stop_event):
        assert stop_event.wait(10), "budget timer never fired"
        raise CampaignInterrupted("key", completed=3, remaining=5)

    daemon = _daemon(tmp_path, runner, campaign_budget=0.02)
    daemon.start()
    entry = daemon.submit(SPEC)
    _await(lambda: daemon.status(entry.id)["state"] == "failed",
           message="budget failure")
    status = daemon.status(entry.id)
    assert status["error"] == "budget_exceeded"
    assert status["completed_shards"] == 3
    assert status["remaining_shards"] == 5
    daemon.drain()
    daemon.wait_drained(5)
    daemon.close()


def test_daemon_drain_requeues_active_campaign(tmp_path):
    started = threading.Event()

    def runner(entry, stop_event):
        started.set()
        assert stop_event.wait(10), "drain never interrupted us"
        raise CampaignInterrupted("key", completed=2, remaining=6)

    daemon = _daemon(tmp_path, runner)
    daemon.start()
    entry = daemon.submit(SPEC)
    assert started.wait(10)
    daemon.drain()
    assert daemon.wait_drained(10)
    # the interrupted campaign went back to queued, durably
    assert daemon.status(entry.id)["state"] == "queued"
    assert daemon.status(entry.id)["interrupted"] is True
    with pytest.raises(Exception, match="draining"):
        daemon.submit(SPEC)
    daemon.close()

    # the next daemon generation picks it up and finishes it
    def finish(entry, stop_event):
        return {"metrics_digest": "after-drain"}

    second = _daemon(tmp_path, finish)
    second.start()
    _await(lambda: second.status(entry.id)["state"] == "done",
           message="finish after drain")
    assert second.status(entry.id)["metrics_digest"] == "after-drain"
    second.drain()
    second.wait_drained(5)
    second.close()


# ----------------------------------------------------------------------
# Restart recovery at each lifecycle stage (real campaign engine)
# ----------------------------------------------------------------------
def _journal_units(journal_path):
    """The (iteration, shard) keys of every shard record, in file order.

    Tolerates a torn final line because some callers poll the journal
    while the campaign is still appending to it.
    """
    units = []
    for line in Path(journal_path).read_text().splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if record.get("kind") == "shard":
            units.append((record["iteration"], record["shard"]))
    return units


_DIRECT_DIGEST = {}


def _direct_digest(tmp_path_factory):
    """The uninterrupted-run digest for SPEC, computed once per session."""
    if "digest" not in _DIRECT_DIGEST:
        from repro.cli import _campaign_config, _campaign_kwargs

        args = namespace_from_spec(SPEC)
        kwargs = _campaign_kwargs(args)
        base = tmp_path_factory.mktemp("direct")
        kwargs["journal_path"] = str(base / "journal.jsonl")
        kwargs["cache_dir"] = str(base / "cache")
        campaign = ParallelCampaign(_campaign_config(args), **kwargs)
        campaign.run(include_baseline=False, include_profile_mode=False)
        _DIRECT_DIGEST["digest"] = campaign.manifest.metrics_digest
    return _DIRECT_DIGEST["digest"]


def _finish_and_check(tmp_path, entry_id, expected_digest,
                      pre_restart_units):
    """Restart a real-runner daemon on ``tmp_path`` and assert the
    campaign completes exactly once with the uninterrupted digest."""
    daemon = CampaignDaemon(tmp_path / "home", poll_seconds=0.005)
    daemon.start()
    _await(lambda: daemon.status(entry_id)["state"] == "done",
           deadline=60.0, message="recovery to done")
    status = daemon.status(entry_id)
    assert status["metrics_digest"] == expected_digest
    units = _journal_units(
        daemon.campaign_dir(entry_id) / "journal.jsonl"
    )
    # exactly once: every unit journaled a single time, and completed
    # pre-crash work was replayed, not re-executed
    assert len(units) == len(set(units))
    assert units[:len(pre_restart_units)] == pre_restart_units
    daemon.drain()
    daemon.wait_drained(10)
    daemon.close()
    return status


@pytest.mark.slow
def test_recovery_stage_spec_accepted(tmp_path, tmp_path_factory):
    """Death after the 202, before any run: the spec alone recovers."""
    first = CampaignDaemon(tmp_path / "home")  # scheduler never started
    entry = first.submit(SPEC)
    first.close()
    status = _finish_and_check(
        tmp_path, entry.id, _direct_digest(tmp_path_factory), [],
    )
    assert status["attempts"] == 1  # never ran before the crash


@pytest.mark.slow
def test_recovery_stage_shard_in_flight(tmp_path, tmp_path_factory):
    """Death mid-campaign: completed rounds replay, the rest runs."""
    first = CampaignDaemon(tmp_path / "home")
    entry = first.submit(SPEC)
    first.queue.mark(entry.id, "running", attempts=1)
    # act out the crashed attempt: a real campaign on the daemon's
    # journal, interrupted cooperatively after at least one shard round
    stop = threading.Event()
    journal = first.campaign_dir(entry.id) / "journal.jsonl"

    def _interrupt_after_first_shard():
        _await(lambda: journal.exists() and _journal_units(journal),
               deadline=30.0, message="first shard record")
        stop.set()

    watcher = threading.Thread(target=_interrupt_after_first_shard)
    watcher.start()
    from repro.cli import _campaign_config, _campaign_kwargs

    args = namespace_from_spec(SPEC)
    kwargs = _campaign_kwargs(args)
    kwargs["journal_path"] = str(journal)
    kwargs["resume"] = True
    kwargs["cache_dir"] = str((tmp_path / "home") / "cache")
    campaign = ParallelCampaign(
        _campaign_config(args), stop_event=stop, **kwargs
    )
    with pytest.raises(CampaignInterrupted) as excinfo:
        campaign.run(include_baseline=False, include_profile_mode=False)
    watcher.join()
    assert excinfo.value.completed >= 1
    pre = _journal_units(journal)
    assert pre  # the crash left real completed work behind
    first.close()  # die without marking anything further

    status = _finish_and_check(
        tmp_path, entry.id, _direct_digest(tmp_path_factory), pre,
    )
    assert status["recovered"] is True
    assert status["attempts"] == 2


@pytest.mark.slow
def test_recovery_stage_report_pending(tmp_path, tmp_path_factory):
    """Death after the last shard, before the done record: the rerun
    replays the whole journal (no slot re-executes) and re-derives the
    identical digest."""
    first = CampaignDaemon(tmp_path / "home")
    entry = first.submit(SPEC)
    first.queue.mark(entry.id, "running", attempts=1)
    journal = first.campaign_dir(entry.id) / "journal.jsonl"
    from repro.cli import _campaign_config, _campaign_kwargs

    args = namespace_from_spec(SPEC)
    kwargs = _campaign_kwargs(args)
    kwargs["journal_path"] = str(journal)
    kwargs["resume"] = True
    kwargs["cache_dir"] = str((tmp_path / "home") / "cache")
    campaign = ParallelCampaign(_campaign_config(args), **kwargs)
    campaign.run(include_baseline=False, include_profile_mode=False)
    pre = _journal_units(journal)
    first.close()  # die with every unit journaled but no done record

    status = _finish_and_check(
        tmp_path, entry.id, _direct_digest(tmp_path_factory), pre,
    )
    assert status["recovered"] is True
    # replay only: not a single new shard record was appended
    final = _journal_units(journal)
    assert final == pre


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
def _http(port, method, path, payload=None):
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, response.read(), dict(response.headers)
    except urllib.error.HTTPError as error:
        return error.code, error.read(), dict(error.headers)


@pytest.fixture
def served(tmp_path):
    """A daemon with a controllable runner behind a live HTTP server."""
    gate = threading.Event()
    gate.set()  # runner completes immediately unless a test clears it

    def runner(entry, stop_event):
        gate.wait(10)
        telemetry = (Path(daemon.campaign_dir(entry.id))
                     / "journal.telemetry.jsonl")
        telemetry.parent.mkdir(parents=True, exist_ok=True)
        telemetry.write_text('{"event": "phase_start"}\n')
        export = daemon.campaign_dir(entry.id) / "export"
        export.mkdir(parents=True, exist_ok=True)
        (export / "campaign.json").write_text(
            json.dumps({"server": "apache", "iterations": []})
        )
        (export / "run_manifest.json").write_text(
            json.dumps({"metrics_digest": "served-digest"})
        )
        return {"metrics_digest": "served-digest"}

    daemon = CampaignDaemon(
        tmp_path / "home", runner=runner, queue_capacity=2,
        retry_after=3.0, poll_seconds=0.005,
    )
    server = make_server(daemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    daemon.start()
    try:
        yield daemon, server.server_address[1], gate
    finally:
        daemon.drain()
        daemon.wait_drained(10)
        server.shutdown()
        server.server_close()
        daemon.close()


def test_http_submit_status_report_roundtrip(served):
    daemon, port, _gate = served
    code, body, _ = _http(port, "POST", "/submit", SPEC)
    assert code == 202
    campaign_id = json.loads(body)["id"]
    _await(lambda: daemon.status(campaign_id)["state"] == "done",
           message="done over http")
    code, body, _ = _http(port, "GET", f"/status/{campaign_id}")
    assert code == 200
    assert json.loads(body)["metrics_digest"] == "served-digest"
    code, body, _ = _http(port, "GET", f"/report/{campaign_id}")
    assert code == 200
    report = json.loads(body)
    assert report["manifest"]["metrics_digest"] == "served-digest"
    code, body, _ = _http(port, "GET", f"/telemetry/{campaign_id}")
    assert code == 200
    assert b"phase_start" in body
    code, body, _ = _http(port, "GET", "/healthz")
    assert code == 200
    assert json.loads(body)["status"] == "ok"


def test_http_error_mapping(served):
    daemon, port, gate = served
    assert _http(port, "POST", "/submit", {"bogus": 1})[0] == 400
    # valid JSON, wrong shape
    assert _http(port, "POST", "/submit", "not a dict")[0] == 400
    # not JSON at all (bypass the helper's json.dumps)
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/submit", data=b"{torn", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400
    assert _http(port, "GET", "/status/nope")[0] == 404
    assert _http(port, "GET", "/report/nope")[0] == 404
    assert _http(port, "GET", "/telemetry/nope")[0] == 404
    assert _http(port, "GET", "/not/a/route")[0] == 404

    # report before done → 409
    gate.clear()
    code, body, _ = _http(port, "POST", "/submit", SPEC)
    campaign_id = json.loads(body)["id"]
    code, body, _ = _http(port, "GET", f"/report/{campaign_id}")
    assert code == 409
    gate.set()


def test_http_sheds_with_retry_after_then_drains(served):
    daemon, port, gate = served
    gate.clear()  # hold the runner so the queue fills
    assert _http(port, "POST", "/submit", SPEC)[0] == 202
    assert _http(port, "POST", "/submit", SPEC)[0] == 202
    code, body, headers = _http(port, "POST", "/submit", SPEC)
    assert code == 429
    assert headers["Retry-After"] == "3"
    assert json.loads(body)["retry_after"] == 3.0
    gate.set()
    code, body, _ = _http(port, "POST", "/drain", {})
    assert code == 202
    assert _http(port, "POST", "/submit", SPEC)[0] == 503
    code, body, _ = _http(port, "GET", "/healthz")
    assert json.loads(body)["status"] == "draining"


# ----------------------------------------------------------------------
# The chaos gate: SIGKILL a real daemon subprocess mid-campaign
# ----------------------------------------------------------------------
def _spawn_daemon(home):
    repo = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(repo / "src"), env.get("PYTHONPATH"))
        if part
    )
    # Its own session, so the daemon leads a process group that also
    # holds the fabric workers it forks.
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--home", str(home), "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        cwd=repo, env=env, start_new_session=True,
    )
    line = process.stdout.readline()
    match = re.search(r"http://[\d.]+:(\d+)", line)
    assert match, f"no listening line, got {line!r}"
    return process, int(match.group(1))


def _group_gone(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    return False


def _kill_daemon_group(process):
    """SIGKILL the daemon and every process it forked, then wait until
    none of them is left."""
    pgid = process.pid  # start_new_session: the daemon leads the group
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(10)
    process.stdout.close()
    _await(lambda: _group_gone(pgid), deadline=30.0,
           message=f"daemon process group {pgid} to exit")


@pytest.mark.slow
def test_chaos_sigkill_mid_campaign_recovers_identical_digest(
        tmp_path, tmp_path_factory):
    home = tmp_path / "home"
    process, port = _spawn_daemon(home)
    try:
        code, body, _ = _http(port, "POST", "/submit", SPEC)
        assert code == 202
        campaign_id = json.loads(body)["id"]
        journal = home / "campaigns" / campaign_id / "journal.jsonl"
        _await(lambda: journal.exists() and _journal_units(journal),
               deadline=60.0, message="first shard before the kill")
        # SIGKILL the daemon alone: its loopback workers lose their
        # coordinator connection and must exit by themselves.
        os.kill(process.pid, signal.SIGKILL)
        process.wait(10)
        _await(lambda: _group_gone(process.pid), deadline=30.0,
               message="orphaned fabric workers to exit")
    finally:
        _kill_daemon_group(process)
    pre = _journal_units(journal)
    queue_states = [
        json.loads(line)
        for line in (home / "queue.jsonl").read_text().splitlines()
    ]
    assert queue_states[-1]["state"] == "running"  # died in flight

    process, port = _spawn_daemon(home)
    try:
        def _done():
            code, body, _ = _http(
                port, "GET", f"/status/{campaign_id}"
            )
            return json.loads(body).get("state") == "done"

        _await(_done, deadline=120.0, message="recovery after SIGKILL")
        code, body, _ = _http(port, "GET", f"/status/{campaign_id}")
        status = json.loads(body)
        assert status["recovered"] is True
        assert status["metrics_digest"] == \
            _direct_digest(tmp_path_factory)
        units = _journal_units(journal)
        assert len(units) == len(set(units))
        assert units[:len(pre)] == pre
        code, body, _ = _http(port, "GET", f"/report/{campaign_id}")
        assert code == 200
        assert json.loads(body)["manifest"]["metrics_digest"] == \
            status["metrics_digest"]
        assert _http(port, "POST", "/drain", {})[0] == 202
    finally:
        _kill_daemon_group(process)
