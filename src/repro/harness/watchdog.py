"""The experiment watchdog.

Plays the role of the monitoring half of the paper's G-SWFIT injector: it
polls the web server's externally observable state and intervenes exactly
like the paper's tooling, producing the three administration counters:

* **MIS** — the server died and did not self-restart (it needed an
  explicit restart);
* **KNS** — the server was alive but not responding to requests and had
  to be killed and restarted;
* **KCP** — the server was hogging the CPU while providing no service and
  had to be killed.

A restart attempted while the fault is still active can fail (the child
crashes during startup); the watchdog retries on its polling cadence but
counts the death only once per incident.  Retries per incident are capped
(``MAX_RESTART_ATTEMPTS``): a fault that keeps killing the child at
startup would otherwise turn every poll into a futile restart storm.  At
the cap the watchdog records one ``RESTART_EXHAUSTED`` incident and waits;
the harness re-arms it from the slot gap (``retry_exhausted=True``) once
the fault has been removed, when a restart can actually succeed.

The thresholds below are part of the benchmark's definition; tests set
them with ``monkeypatch``.
"""

__all__ = ["Watchdog"]

POLL_SECONDS = 1.0
# Demand without any service for this long reads as unresponsive.
UNRESPONSIVE_AFTER = 4.0
# After killing and restarting the server, give it this long to prove
# itself before judging responsiveness again — otherwise a stale
# last-success timestamp earns an immediate second kill.
RESTART_GRACE = 5.0
# Consecutive *failed* restart attempts allowed per death incident
# before the watchdog stops storming and waits for the harness to re-arm
# it (fault removed at the slot boundary).
MAX_RESTART_ATTEMPTS = 5


class Watchdog:
    """Polls one server runtime and repairs it."""

    def __init__(self, sim, runtime):
        self.sim = sim
        self.runtime = runtime
        self.mis = 0
        self.kns = 0
        self.kcp = 0
        # Every administration incident, in simulated-time order: the
        # raw material behind the ADMf counters, exported through shard
        # outcomes into campaign telemetry.  Sim time is deterministic,
        # so the log is identical for any worker count.
        self.incidents = []
        self.restarts_performed = 0
        self._death_counted = False
        self._failed_restart_attempts = 0
        self._exhaustion_recorded = False
        self._last_restart_time = float("-inf")
        self._poll_event = None
        self._running = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        if self._running:
            return
        self._running = True
        self._poll_event = self.sim.schedule(POLL_SECONDS, self._poll)

    def stop(self):
        self._running = False
        if self._poll_event is not None:
            self.sim.cancel(self._poll_event)
            self._poll_event = None

    # ------------------------------------------------------------------
    # Polling
    # ------------------------------------------------------------------
    def _poll(self):
        self._poll_event = None
        if not self._running:
            return
        self.check_now()
        self._poll_event = self.sim.schedule(POLL_SECONDS, self._poll)

    def check_now(self, retry_exhausted=False):
        """One health check + repair cycle (also used at slot cleanup).

        ``retry_exhausted=True`` (the slot-gap call, after the fault has
        been removed) grants an exhausted incident a fresh attempt
        budget — a restart can succeed now that nothing kills startup.
        """
        runtime = self.runtime
        if runtime.is_dead():
            if not self._death_counted:
                self.mis += 1
                self._record_incident("MIS")
                self._death_counted = True
            if retry_exhausted and self._exhaustion_recorded:
                self._failed_restart_attempts = 0
                self._exhaustion_recorded = False
            if self._failed_restart_attempts >= MAX_RESTART_ATTEMPTS:
                if not self._exhaustion_recorded:
                    self._record_incident("RESTART_EXHAUSTED")
                    self._exhaustion_recorded = True
                return
            if runtime.restart():
                self._death_counted = False
                self.restarts_performed += 1
                self._last_restart_time = self.sim.now
                self._failed_restart_attempts = 0
                self._exhaustion_recorded = False
            else:
                self._failed_restart_attempts += 1
                if self._failed_restart_attempts >= MAX_RESTART_ATTEMPTS:
                    self._record_incident("RESTART_EXHAUSTED")
                    self._exhaustion_recorded = True
            return
        self._death_counted = False
        self._failed_restart_attempts = 0
        self._exhaustion_recorded = False
        in_grace = self.sim.now - self._last_restart_time < RESTART_GRACE
        if not in_grace and self._looks_unresponsive():
            if runtime.cpu_hog_recent:
                self.kcp += 1
                self._record_incident("KCP")
            else:
                self.kns += 1
                self._record_incident("KNS")
            runtime.restart()
            self.restarts_performed += 1
            self._last_restart_time = self.sim.now

    def _looks_unresponsive(self):
        """Alive, being asked for service, delivering none."""
        runtime = self.runtime
        now = self.sim.now
        horizon = now - UNRESPONSIVE_AFTER
        if runtime.last_attempt_time < horizon:
            return False  # no recent demand; nothing observable
        if runtime.last_success_time >= horizon:
            return False  # it served something recently
        # Demand without service for the whole window.
        return True

    def _record_incident(self, kind):
        # Keys in sorted order so a journal round-trip (sort_keys=True)
        # reproduces the live dict byte-for-byte in exports.
        self.incidents.append({"kind": kind, "t": self.sim.now})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def admf(self):
        """Administrator interventions: MIS + KNS + KCP (paper ADMf)."""
        return self.mis + self.kns + self.kcp

    def counters(self):
        return {"MIS": self.mis, "KNS": self.kns, "KCP": self.kcp}

    def __repr__(self):
        return (
            f"Watchdog(MIS={self.mis}, KNS={self.kns}, KCP={self.kcp})"
        )
