"""Tests for the server process runtime: workers, crashes, supervision."""

from repro.ossim.builds import NT50
from repro.ossim.context import SimKernel
from repro.ossim.dispatch import OsInstance
from repro.sim.errors import (
    CpuBudgetExceeded,
    SimBlockedForever,
    SimSegfault,
)
from repro.sim.kernel import Simulator
from repro.webservers.base import BaseWebServer
from repro.webservers.http import HttpRequest, HttpResponse
from repro.webservers.runtime import RuntimeState, ServerRuntime


class ScriptedServer(BaseWebServer):
    """A server whose handler behavior is scripted per request."""

    name = "scripted"
    worker_count = 2
    self_restart = False
    backlog = 4
    app_overhead_cycles = 1_000_000  # 2.5 ms at the default 400 MHz

    def __init__(self, script=None):
        super().__init__()
        self.script = list(script or [])
        self.handled = 0
        self.startup_should_fail = 0

    def reset_process_state(self):
        super().reset_process_state()

    def startup(self, ctx):
        if self.startup_should_fail > 0:
            self.startup_should_fail -= 1
            from repro.webservers.base import ServerStartupError

            raise ServerStartupError("scripted startup failure")

    def handle(self, ctx, request):
        self.handled += 1
        if self.script:
            action = self.script.pop(0)
            if action == "crash":
                raise SimSegfault("scripted crash")
            if action == "hang":
                raise SimBlockedForever("scripted hang")
            if action == "burn":
                raise CpuBudgetExceeded("scripted cpu burn")
            if action == "typeerror":
                raise TypeError("garbage from the OS")
            if action == "error":
                return HttpResponse.error(500)
        return HttpResponse(200, content_length=100)


class SupervisedServer(ScriptedServer):
    name = "supervised"
    self_restart = True
    restart_delay = 0.2
    max_respawn_burst = 2


def _runtime(server):
    sim = Simulator(seed=1)
    os_instance = OsInstance(NT50, SimKernel())
    runtime = ServerRuntime(server, os_instance, sim)
    assert runtime.start()
    return sim, runtime


def _request(runtime, sim, run=True):
    outcome = []
    runtime.deliver(HttpRequest("GET", "/x"), outcome.append)
    if run:
        sim.run_until(sim.now + 1.0)
    return outcome


def test_normal_request_completes_after_service_time():
    sim, runtime = _runtime(ScriptedServer())
    outcome = []
    runtime.deliver(HttpRequest("GET", "/x"), outcome.append)
    assert outcome == []  # not instantaneous
    sim.run_until(sim.now + 1.0)
    assert outcome[0].ok
    assert runtime.stats.responses_ok == 1
    assert runtime.last_success_time > 0


def test_requests_queue_beyond_worker_count():
    sim, runtime = _runtime(ScriptedServer())
    outcomes = [_request(runtime, sim, run=False) for _ in range(4)]
    assert len(runtime.queue) <= 4
    sim.run_until(sim.now + 2.0)
    assert all(out and out[0].ok for out in outcomes)


def test_backlog_overflow_refused():
    server = ScriptedServer()
    server.app_overhead_cycles = 400_000_000  # 1 s each: queue builds
    sim, runtime = _runtime(server)
    outcomes = [_request(runtime, sim, run=False) for _ in range(12)]
    refused = [out for out in outcomes if out and out[0] is None]
    assert refused, "backlog should have overflowed"
    assert runtime.stats.requests_refused >= len(refused)


def test_crash_kills_unsupervised_server():
    sim, runtime = _runtime(ScriptedServer(script=["crash"]))
    outcome = _request(runtime, sim)
    assert outcome[0] is None  # connection reset
    assert runtime.state is RuntimeState.DEAD
    assert runtime.stats.crashes == 1
    # Subsequent requests refused immediately.
    outcome = _request(runtime, sim)
    assert outcome[0] is None
    assert runtime.stats.requests_refused == 1


def test_crash_aborts_in_flight_requests():
    server = ScriptedServer(script=["ok", "crash"])
    server.app_overhead_cycles = 40_000_000  # 100 ms
    sim, runtime = _runtime(server)
    first = _request(runtime, sim, run=False)   # busy worker
    second = _request(runtime, sim, run=False)  # crashing worker
    sim.run_until(sim.now + 1.0)
    assert first[0] is None  # reset by the crash before completing
    assert second[0] is None


def test_supervised_server_self_restarts():
    sim, runtime = _runtime(SupervisedServer(script=["crash"]))
    _request(runtime, sim)
    assert runtime.state is RuntimeState.RUNNING  # master respawned it
    assert runtime.stats.self_restarts == 1
    outcome = _request(runtime, sim)
    assert outcome[0].ok


def test_supervisor_gives_up_after_burst():
    server = SupervisedServer(script=["crash"])
    sim, runtime = _runtime(server)
    server.startup_should_fail = 99  # every respawn fails
    _request(runtime, sim)
    sim.run_until(sim.now + 5.0)
    assert runtime.state is RuntimeState.DEAD
    assert runtime.stats.startup_failures >= server.max_respawn_burst


def test_hang_parks_worker_and_loses_request():
    sim, runtime = _runtime(ScriptedServer(script=["hang"]))
    outcome = _request(runtime, sim)
    assert outcome == []  # no response at all
    assert runtime.hung_workers() == 1
    assert runtime.state is RuntimeState.RUNNING
    # Remaining worker still serves.
    assert _request(runtime, sim)[0].ok


def test_all_workers_hung_detectable():
    sim, runtime = _runtime(ScriptedServer(script=["hang", "hang"]))
    _request(runtime, sim)
    _request(runtime, sim)
    assert runtime.all_workers_hung()
    # New requests are accepted but never answered.
    outcome = _request(runtime, sim)
    assert outcome == []


def test_restart_resets_hung_requests_with_connection_reset():
    sim, runtime = _runtime(ScriptedServer(script=["hang"]))
    outcome = _request(runtime, sim)
    assert outcome == []
    assert runtime.restart()
    assert outcome[0] is None  # the parked connection got reset
    assert runtime.hung_workers() == 0
    assert runtime.stats.external_restarts == 1


def test_cpu_burn_flags_hog():
    sim, runtime = _runtime(ScriptedServer(script=["burn"]))
    _request(runtime, sim)
    assert runtime.cpu_hog_recent
    assert runtime.stats.cpu_hog_events == 1
    assert runtime.hung_workers() == 1


def test_typeerror_from_garbage_counts_as_crash():
    sim, runtime = _runtime(ScriptedServer(script=["typeerror"]))
    outcome = _request(runtime, sim)
    assert outcome[0] is None
    assert runtime.stats.crashes == 1


def test_error_responses_counted_separately():
    sim, runtime = _runtime(ScriptedServer(script=["error"]))
    outcome = _request(runtime, sim)
    assert outcome[0].status_code == 500
    assert runtime.stats.responses_error == 1
    assert runtime.stats.responses_ok == 0


def test_restart_spawns_fresh_process_state():
    sim, runtime = _runtime(ScriptedServer())
    old_ctx = runtime.ctx
    old_ctx.heap.allocate(1000)
    runtime.restart()
    assert runtime.ctx is not old_ctx
    assert runtime.ctx.heap.live_blocks() == 0


def test_stop_terminates_child():
    sim, runtime = _runtime(ScriptedServer())
    ctx = runtime.ctx
    runtime.stop()
    assert ctx.terminated
    assert runtime.state is RuntimeState.STOPPED


def test_responsive_since():
    sim, runtime = _runtime(ScriptedServer())
    _request(runtime, sim)
    t = runtime.last_success_time
    assert runtime.responsive_since(t - 0.1)
    assert not runtime.responsive_since(t + 0.1)


def test_health_snapshot_keys():
    sim, runtime = _runtime(ScriptedServer())
    snapshot = runtime.health_snapshot()
    assert set(snapshot) == {
        "state", "hung_workers", "queue", "last_success_time",
        "cpu_hog_recent",
    }


class ThreadRecordingServer(ScriptedServer):
    """Three workers; records which worker handled each request."""

    worker_count = 3
    backlog = 8

    def __init__(self, script=None):
        super().__init__(script)
        self.workers_used = []

    def handle(self, ctx, request):
        self.workers_used.append(ctx.current_thread.rsplit(":", 1)[1])
        return super().handle(ctx, request)


def test_each_request_goes_to_the_lowest_index_idle_worker():
    """Worker 1 hangs on its request; the two requests queued behind
    the busy workers go to worker 0, then worker 2, as each frees."""
    server = ThreadRecordingServer(["ok", "hang"])
    sim, runtime = _runtime(server)
    for _ in range(5):
        runtime.deliver(HttpRequest("GET", "/x"), lambda response: None)
    assert len(runtime.queue) == 2
    sim.run_until(sim.now + 1.0)
    assert server.workers_used == [
        "worker0", "worker1", "worker2", "worker0", "worker2",
    ]
    assert runtime.hung_workers() == 1
