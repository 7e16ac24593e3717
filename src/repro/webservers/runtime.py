"""Server process runtime: workers, queue, crashes, supervision.

This is the glue between a :class:`~repro.webservers.base.BaseWebServer`
(application code) and the event simulation.  It models the server as one
child process with ``worker_count`` threads:

* requests arriving while the child is down are refused;
* a free worker executes the handler; the CPU cycles the handler charged
  (OS dispatch, copies, conversions, application overhead) become the
  worker's busy time, so mutated OS code that does more — or endless —
  work directly stretches service time;
* a :class:`~repro.sim.errors.SimSegfault` escaping the handler kills the
  whole child (it is one native process); a supervised server's master
  respawns it after ``restart_delay``, giving up after
  ``max_respawn_burst`` consecutive startup failures — an unsupervised
  server just stays dead until the experiment's watchdog intervenes;
* a :class:`~repro.sim.errors.SimBlockedForever` leaves that worker hung
  forever (the thread is parked on a leaked lock); the process survives
  with one thread less;
* a :class:`~repro.sim.errors.CpuBudgetExceeded` marks the worker hung
  *and* flags the process as a CPU hog — the observable the watchdog
  translates into the paper's KCP events.
"""

import enum

from repro.sim.cpu import CpuMeter
from repro.sim.errors import (
    CpuBudgetExceeded,
    SimBlockedForever,
    SimSegfault,
)
from repro.webservers.base import ServerStartupError

__all__ = ["RuntimeState", "ServerRuntime", "WorkerState"]

# Simulated CPU of the server machine, in cycles per second.  The paper's
# server is an Athlon XP 2600+; the absolute value only fixes the time
# scale, calibrated so a typical static GET costs a few milliseconds.
DEFAULT_CPU_HZ = 400_000_000

# Sanity budget per handled request: ~8 simulated seconds of CPU.  Pristine
# requests use a fraction of a percent of this; only runaway mutants hit it.
DEFAULT_OPERATION_BUDGET = 8 * DEFAULT_CPU_HZ


class WorkerState(enum.Enum):
    """Lifecycle of one worker thread."""

    IDLE = "idle"
    BUSY = "busy"
    HUNG = "hung"


class RuntimeState(enum.Enum):
    """Lifecycle of the server process as the watchdog can observe it."""

    STOPPED = "stopped"      # never started or administratively stopped
    RUNNING = "running"
    RESPAWNING = "respawning"  # master is bringing the child back
    DEAD = "dead"            # died and nobody is bringing it back


# The members the request path tests, as module constants: on Python
# 3.11 looking a member up on its class costs several times the ``is``
# test itself, and a dispatch makes several.
_IDLE = WorkerState.IDLE
_BUSY = WorkerState.BUSY
_RUNNING = RuntimeState.RUNNING


class _Worker:
    __slots__ = ("index", "thread_id", "state", "request", "respond",
                 "completion_event")

    def __init__(self, index, pid):
        self.index = index
        self.thread_id = f"{pid}:worker{index}"
        self.state = _IDLE
        self.request = None
        self.respond = None
        self.completion_event = None


class RuntimeStats:
    """Observable counters the watchdog and the metrics layer read."""

    def __init__(self):
        self.requests_accepted = 0
        self.requests_refused = 0
        self.responses_ok = 0
        self.responses_error = 0
        self.requests_lost = 0
        self.crashes = 0
        self.self_restarts = 0
        self.external_restarts = 0
        self.hung_worker_events = 0
        self.cpu_hog_events = 0
        self.startup_failures = 0


class ServerRuntime:
    """One deployed server: child process + supervision policy."""

    def __init__(self, server, os_instance, sim):
        self.server = server
        self.os_instance = os_instance
        self.sim = sim
        # Fraction of the machine's CPU available to the server.  The
        # experiment harness lowers this slightly while an injector shares
        # the machine, modelling the injector's competition for cycles
        # (the paper's intrusiveness effect, Table 4).
        self.cpu_scale = 1.0
        self.state = RuntimeState.STOPPED
        self.ctx = None
        self.workers = []
        self.queue = []
        self.stats = RuntimeStats()
        self.last_success_time = -1.0
        self.last_attempt_time = -1.0
        self.cpu_hog_recent = False
        self._respawn_failures = 0
        self._respawn_event = None
        self._recent_crashes = []

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def _spawn_child(self):
        """Create a fresh process and run the server's startup sequence.

        Returns True on success.  A fresh process means fresh user-mode OS
        state: heap, handles, locks — which is why restarting clears
        accumulated damage.
        """
        meter = CpuMeter(
            speed_hz=DEFAULT_CPU_HZ, operation_budget=DEFAULT_OPERATION_BUDGET
        )
        ctx = self.os_instance.new_process(
            cpu=meter, name=f"{self.server.name}-child"
        )
        self.server.reset_process_state()
        try:
            self.server.startup(ctx)
        except (ServerStartupError, SimSegfault, SimBlockedForever,
                CpuBudgetExceeded):
            self.stats.startup_failures += 1
            ctx.terminate()
            return False
        ctx.record_startup_footprint()
        self.ctx = ctx
        self.workers = [
            _Worker(index, ctx.pid)
            for index in range(self.server.worker_count)
        ]
        self.queue = []
        return True

    def start(self):
        """Administrative start; returns True when the child came up."""
        if self.state is _RUNNING:
            return True
        if self._spawn_child():
            self.state = RuntimeState.RUNNING
            return True
        self.state = RuntimeState.DEAD
        return False

    def stop(self):
        """Administrative stop (kills the child)."""
        self._cancel_respawn()
        self._abort_all_requests()
        if self.ctx is not None:
            self.ctx.terminate()
        self.state = RuntimeState.STOPPED

    def kill(self):
        """Terminate the child without anyone planning to bring it back.

        Used by the operator-fault extension (a mistaken ``kill`` of the
        server process): unlike :meth:`stop`, the runtime is left DEAD, so
        the watchdog sees an unrecovered death (MIS) and repairs it.
        """
        self._cancel_respawn()
        self._abort_all_requests()
        if self.ctx is not None:
            self.ctx.terminate()
        self.state = RuntimeState.DEAD

    def restart(self):
        """Administrative kill + start (the watchdog's repair action)."""
        self.stop()
        self.stats.external_restarts += 1
        self._respawn_failures = 0
        self._recent_crashes = []
        self.cpu_hog_recent = False
        return self.start()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def deliver(self, request, respond):
        """A request arrives from the network.

        ``respond(response_or_none)`` is invoked exactly once, unless the
        request is silently lost to a hung worker (the client's timeout
        handles that case, as on a real network).
        """
        self.last_attempt_time = self.sim.now
        if self.state is not _RUNNING:
            self.stats.requests_refused += 1
            respond(None)  # connection refused
            return
        if len(self.queue) >= self.server.backlog:
            self.stats.requests_refused += 1
            respond(None)
            return
        self.stats.requests_accepted += 1
        self.queue.append((request, respond))
        self._dispatch()

    def _dispatch(self):
        while self.queue and self.state is _RUNNING:
            # The lowest-index idle worker takes the oldest request.
            for worker in self.workers:
                if worker.state is _IDLE:
                    break
            else:
                return
            request, respond = self.queue.pop(0)
            self._run_handler(worker, request, respond)

    def _run_handler(self, worker, request, respond):
        """Execute the handler synchronously; schedule the completion."""
        ctx = self.ctx
        ctx.set_thread(worker.thread_id)
        ctx.cpu.begin_operation()
        worker.state = _BUSY
        worker.request = request
        worker.respond = respond
        try:
            ctx.charge(self.server.app_overhead_cycles)
            response = self.server.handle(ctx, request)
        except SimBlockedForever:
            ctx.cpu.end_operation()
            self._worker_hung(worker)
            return
        except CpuBudgetExceeded:
            ctx.cpu.end_operation()
            self.stats.cpu_hog_events += 1
            self.cpu_hog_recent = True
            self._worker_hung(worker)
            return
        except (SimSegfault, Exception):
            # An access violation — or application code choking on garbage
            # an OS fault handed it — takes the whole child down.
            ctx.cpu.end_operation()
            self._child_crashed()
            return
        cycles = ctx.cpu.end_operation()
        service_time = cycles / (DEFAULT_CPU_HZ * self.cpu_scale)
        worker.completion_event = self.sim.schedule(
            service_time, self._complete, worker, response
        )

    def _complete(self, worker, response):
        respond = worker.respond
        worker.state = _IDLE
        worker.request = None
        worker.respond = None
        worker.completion_event = None
        if response is not None and response.ok:
            self.stats.responses_ok += 1
            self.last_success_time = self.sim.now
        else:
            self.stats.responses_error += 1
        respond(response)
        self._dispatch()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _worker_hung(self, worker):
        """The worker thread is parked forever.

        Its request gets no response while the process lives (the client's
        timeout covers that); the responder is kept so that killing the
        process resets the connection immediately, as TCP would.
        """
        self.stats.hung_worker_events += 1
        worker.state = WorkerState.HUNG
        worker.request = None
        self.stats.requests_lost += 1

    def _abort_all_requests(self):
        """Fail every in-flight and queued request (connection reset).

        Covers busy *and* hung workers: killing the process resets the
        sockets their clients are still waiting on.
        """
        for worker in self.workers:
            if worker.respond is not None:
                if worker.completion_event is not None:
                    self.sim.cancel(worker.completion_event)
                respond = worker.respond
                worker.state = _IDLE
                worker.request = None
                worker.respond = None
                worker.completion_event = None
                self.stats.responses_error += 1
                respond(None)
        for _request, respond in self.queue:
            self.stats.responses_error += 1
            respond(None)
        self.queue = []

    def _child_crashed(self):
        """The child process died (access violation in some thread).

        Every connection — including the faulting worker's and any parked
        on hung workers — is reset by :meth:`_abort_all_requests`.
        """
        self.stats.crashes += 1
        self._abort_all_requests()
        if self.ctx is not None:
            self.ctx.terminate()
        now = self.sim.now
        window = self.server.crash_burst_window
        self._recent_crashes = [
            t for t in self._recent_crashes if now - t <= window
        ]
        self._recent_crashes.append(now)
        crash_loop = (
            len(self._recent_crashes) >= self.server.crash_burst_limit
        )
        if self.server.self_restart and not crash_loop:
            self.state = RuntimeState.RESPAWNING
            self._respawn_event = self.sim.schedule(
                self.server.restart_delay, self._attempt_respawn
            )
        else:
            # Unsupervised server, or a supervised master giving up on a
            # crash-looping child: dead until the administrator acts.
            self.state = RuntimeState.DEAD

    def _attempt_respawn(self):
        self._respawn_event = None
        if self.state is not RuntimeState.RESPAWNING:
            return
        if self._spawn_child():
            self.state = RuntimeState.RUNNING
            self.stats.self_restarts += 1
            self._respawn_failures = 0
            return
        self._respawn_failures += 1
        if self._respawn_failures >= self.server.max_respawn_burst:
            # The master gives up; administrator intervention required.
            self.state = RuntimeState.DEAD
            return
        self._respawn_event = self.sim.schedule(
            self.server.restart_delay, self._attempt_respawn
        )

    def _cancel_respawn(self):
        if self._respawn_event is not None:
            self.sim.cancel(self._respawn_event)
            self._respawn_event = None

    # ------------------------------------------------------------------
    # Health (what a watchdog can observe from outside)
    # ------------------------------------------------------------------
    def is_dead(self):
        """True when the server is down with nobody respawning it."""
        return self.state is RuntimeState.DEAD

    def hung_workers(self):
        """Number of worker threads parked forever."""
        return sum(1 for w in self.workers
                   if w.state is WorkerState.HUNG)

    def all_workers_hung(self):
        """True when no worker can ever serve again (total hang)."""
        return (
            bool(self.workers)
            and all(w.state is WorkerState.HUNG for w in self.workers)
        )

    def responsive_since(self, time):
        """True when the server produced a success after ``time``."""
        return self.last_success_time >= time

    def health_snapshot(self):
        """Externally observable health, for diagnostics and tests."""
        return {
            "state": self.state.value,
            "hung_workers": self.hung_workers(),
            "queue": len(self.queue),
            "last_success_time": self.last_success_time,
            "cpu_hog_recent": self.cpu_hog_recent,
        }

    def __repr__(self):
        return (
            f"ServerRuntime({self.server.name}, state={self.state.value}, "
            f"hung={self.hung_workers()})"
        )
