"""Experiment orchestration: the one-machine phases of a campaign.

:class:`WebServerExperiment` runs the paper's experimental procedure
for one target/OS pair, one machine at a time.  The target is a web
server or, for the OLTP case study, a database engine: the machine is
picked from ``config.server_name``
(:func:`~repro.harness.machine.machine_class`).

1. **Baseline** ("Max. Perf." in Table 4): workload only.
2. **Profile mode**: the injector is attached and does everything except
   the final code swap; comparing with the baseline measures
   intrusiveness.
3. **Injection runs**: the measured time is organized in slots (Fig. 4).
   During a slot one fault is active and the workload runs; between slots
   the workload pauses, the fault is removed, and the watchdog repairs the
   server if needed.  :meth:`WebServerExperiment.run_slots` is the one
   walk over such slots.  Each slot's fault says what it does
   (``mutates_code``): a G-SWFIT location mutates code, a
   :class:`~repro.extensions.statefaults.StateFault` (hardware or
   operator fault) perturbs state, and each goes to its own injector.

A whole campaign (baseline, profile mode, then three iterations per
SPECWeb99 rules) is :class:`~repro.harness.campaign.ParallelCampaign`,
which calls these phases and runs each iteration's slots as shards, for
a web server and an OLTP engine alike.

``profile_servers`` implements the profiling phase of the methodology
(Section 3.3): run every benchmark target under the workload with the API
tracer attached and collect per-function usage.
"""

from dataclasses import dataclass, field

from repro.extensions.statefaults import StateFaultInjector
from repro.gswfit.activation import ActivationTracker
from repro.gswfit.injector import FaultInjector
from repro.gswfit.mutator import MutantError
from repro.gswfit.scanner import scan_build
from repro.harness.machine import machine_class
from repro.harness.results import SlotTally
from repro.harness.snapshot import (
    MachineSnapshot,
    snapshot_cache,
    snapshot_key,
)
from repro.harness.watchdog import Watchdog
from repro.ossim.builds import get_build
from repro.ossim.integrity import IntegrityAuditor
from repro.profiling.tracer import ApiCallTracer
from repro.webservers.runtime import WorkerState

__all__ = [
    "ACTIVATION_FLOOR_FRACTION",
    "SlotRunResult",
    "WebServerExperiment",
    "profile_servers",
]

# Deadline floor (fraction of slot_seconds) given to functions the
# profiling trace never observed — mostly internal helpers that only
# run on rare paths.
ACTIVATION_FLOOR_FRACTION = 0.15


@dataclass
class SlotRunResult(SlotTally):
    """Everything one slot walk produced, across machine epochs.

    A verified reboot splits the run into *segments* — each a
    ``(partial, windows)`` pair from one machine's own simulated
    timeline, the partial reduced when that machine was retired, so the
    result holds no machine.  A retired machine is still held by its
    own reference cycles until the shard ends, when
    :func:`~repro.harness.campaign.run_shard` collects them.  Metrics
    merge across segments through the machine's ``partial_type``
    (associative, slot-ordered), so a run with reboots reduces exactly
    like a campaign merging shards.
    Activation records' ``first_hit`` is sim-seconds from slot start
    (None if never hit).
    """

    segments: list = field(default_factory=list)
    audits_performed: int = 0

    def compute_partial(self):
        """Merge every segment's partial into one."""
        kind = type(self.segments[0][0])
        return kind.merge(
            [partial for partial, windows in self.segments if windows]
        )

    def compute_metrics(self, num_connections):
        return self.compute_partial().to_metrics(num_connections)


class _Epoch:
    """One machine generation within a slot run (between reboots).

    G-SWFIT locations go to ``injector``; state faults go to an injector
    of their own, built for this epoch's machine.
    """

    __slots__ = ("machine", "injector", "state_injector", "watchdog",
                 "auditor", "tracker", "windows", "finished", "restored")

    def __init__(self, machine, injector, watchdog, auditor, tracker,
                 restored=False):
        self.machine = machine
        self.injector = injector
        self.state_injector = StateFaultInjector(machine)
        self.watchdog = watchdog
        self.auditor = auditor
        self.tracker = tracker
        self.windows = []
        self.finished = False
        self.restored = restored


class WebServerExperiment:
    """The one-machine phases of one server/OS benchmark (or engine/OS:
    the OLTP case study runs through the same phases)."""

    def __init__(self, config):
        self.config = config
        self.build = get_build(config.os_codename)
        self.machine_class = machine_class(config.server_name)

    @property
    def audited(self):
        """Whether slot gaps are audited: the config asks for it, and the
        machine allows it (:attr:`~repro.harness.machine.Machine.audited`)."""
        return self.config.integrity_audit and self.machine_class.audited

    # ------------------------------------------------------------------
    # Faultload preparation
    # ------------------------------------------------------------------
    def raw_faultload(self):
        """Scan the OS build (G-SWFIT step 1, before fine-tuning)."""
        return scan_build(self.build)

    def prepared_faultload(self, faultload=None):
        """Apply the config's sampling to a faultload (default: raw scan).

        Sampling is stratified per fault type and the result interleaved
        so truncated runs keep type diversity.  Preparation is
        idempotent: an already-prepared faultload (e.g. one a campaign
        prepared before fanning out its runs) is returned unchanged
        instead of being re-sampled.
        """
        if faultload is not None and getattr(faultload, "prepared", False):
            return faultload
        if faultload is None:
            faultload = self.raw_faultload()
        if self.config.fault_sample is not None:
            faultload = faultload.sample(
                self.config.fault_sample, seed=self.config.seed
            )
            faultload = faultload.interleave_types()
        faultload.prepared = True
        return faultload

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _boot_machine(self, iteration):
        machine = self.machine_class(self.config, iteration=iteration)
        if not machine.boot():
            raise RuntimeError(
                f"{self.config.server_name} failed to start on "
                f"{self.build.display_name} with a pristine OS"
            )
        return machine

    def _warm_up(self, machine):
        rules = self.config.rules
        machine.client.start()
        machine.run_for(rules.warmup_seconds + rules.rampup_seconds)

    def _measured_windows(self, start, duration, slot_seconds):
        # Window edges come from the slot index, not a running float sum:
        # accumulating ``t += slot_seconds`` drifts by an ulp per slot and
        # long baselines could gain or lose a whole window.
        count = int((duration + 1e-9) // slot_seconds)
        windows = [
            (start + i * slot_seconds, start + (i + 1) * slot_seconds)
            for i in range(count)
        ]
        if not windows:
            windows.append((start, start + duration))
        return windows

    def run_baseline(self, iteration=0):
        """Max-performance run: no injector attached."""
        machine = self._boot_machine(iteration)
        self._warm_up(machine)
        rules = self.config.rules
        start = machine.sim.now
        machine.run_for(rules.baseline_seconds)
        windows = self._measured_windows(
            start, rules.baseline_seconds, rules.slot_seconds
        )
        machine.client.pause()
        machine.run_for(rules.rampdown_seconds)
        return machine.partial(windows).to_metrics(
            self.config.connections
        )

    def run_profile_mode(self, iteration=0, faultload=None):
        """Injector attached, no code changed (intrusiveness measurement)."""
        faultload = self.prepared_faultload(faultload)
        machine = self._boot_machine(iteration)
        machine.set_injector_attached(True)
        # Attach a tracker even though no code is swapped: the injector
        # then prepares *probed* mutants, so profile mode warms the same
        # cache entries the live run will hit.
        tracker = ActivationTracker(clock=machine._now)
        machine.attach_activation(tracker)
        injector = FaultInjector(
            os_instances=[machine.os_instance], profile_mode=True,
            activation_tracker=tracker,
        )
        self._warm_up(machine)
        rules = self.config.rules
        start = machine.sim.now
        windows = self._measured_windows(
            start, rules.baseline_seconds, rules.slot_seconds
        )
        # The injector does all its per-slot work (mutant preparation,
        # monitoring) against consecutive faultload entries, exactly as in
        # a live run — minus the final code swap.  Once the faultload has
        # been covered once, remaining windows run without preparation: a
        # live run never injects a slot twice either, and wrapping around
        # would inflate injection_count with duplicate preparations and
        # skew the Table 4 intrusiveness measurement.  A state fault has
        # no mutant to prepare: its window runs without preparation.
        for index, (_w_start, w_end) in enumerate(windows):
            if index < len(faultload) and faultload[index].mutates_code:
                try:
                    injector.inject(faultload[index])
                except MutantError:
                    pass
            machine.sim.run_until(w_end)
        machine.client.pause()
        machine.run_for(rules.rampdown_seconds)
        return machine.partial(windows).to_metrics(
            self.config.connections
        )

    def _make_injector(self, machine, tracker):
        return FaultInjector(
            os_instances=[machine.os_instance],
            profile_mode=not self.config.inject_faults,
            activation_tracker=tracker,
        )

    def _bring_up(self, iteration):
        """Boot or restore one machine epoch, ready to run.

        Deterministic for a given ``iteration``: the replacement machine
        built by a verified reboot is seeded exactly like the original.
        The post-warm-up state is captured once per ``(config,
        iteration)`` — once per shard, since each shard's config carries
        its own seed — and every later epoch is a restore of that image,
        digest-identical to a fresh boot because boot + warm-up is itself
        deterministic (DESIGN.md §12).  The boot path brings up the
        first epoch and is the fallback when the restore-verify audit
        rejects an image.
        """
        epoch = self._restore_epoch(iteration)
        if epoch is not None:
            return epoch
        return self._boot_epoch(iteration)

    def _boot_epoch(self, iteration):
        """Full boot + warm-up, captured as the epoch snapshot.

        Epoch assembly order is load-bearing: the watchdog starts (its
        first poll event enters the queue) only *after* the auditor
        reference and the snapshot are taken, so a restored image plus
        a freshly started watchdog reproduces the booted event queue
        exactly — same poll time, same event sequence numbers.
        """
        config = self.config
        machine = self._boot_machine(iteration)
        machine.set_injector_attached(True)
        tracker = ActivationTracker(clock=machine._now)
        machine.attach_activation(tracker)
        self._warm_up(machine)
        auditor = None
        if self.audited:
            auditor = IntegrityAuditor(machine.kernel)
            auditor.snapshot(machine.runtime.ctx)
        snapshot = MachineSnapshot.capture(
            snapshot_key(config, iteration), machine, auditor
        )
        if auditor is not None:
            # Capture-time audit, taken mid-workload: requests are in
            # flight, so it may legitimately report violations (e.g.
            # transient allocations above the startup footprint).  It is
            # the restore-verify comparand, not a contamination record.
            # Audited after the image, and marked internal so it never
            # shows up in the experiment's ``audits_performed`` count.
            snapshot.reference = auditor.audit(
                machine.runtime.ctx, self._live_threads(machine),
                internal=True,
            ).to_dict()
        snapshot_cache().put(snapshot)
        injector = self._make_injector(machine, tracker)
        watchdog = Watchdog(machine.sim, machine.runtime)
        watchdog.start()
        return _Epoch(machine, injector, watchdog, auditor, tracker)

    def _restore_epoch(self, iteration):
        """Restore a captured epoch; None = no usable snapshot.

        Restore-verify protocol: the restored machine is re-audited and
        must reproduce the capture-time report byte-for-byte (identical
        sim time, identical violation list).  Any drift discards the
        snapshot and the caller falls back to a full boot.
        """
        config = self.config
        key = snapshot_key(config, iteration)
        snapshot = snapshot_cache().get(key)
        if snapshot is None:
            return None
        machine, auditor = snapshot.restore()
        if auditor is not None:
            verify = auditor.audit(
                machine.runtime.ctx, self._live_threads(machine),
                internal=True,
            )
            if verify.to_dict() != snapshot.reference:
                snapshot_cache().discard(key)
                return None
        tracker = machine.os_instance.activation
        injector = self._make_injector(machine, tracker)
        watchdog = Watchdog(machine.sim, machine.runtime)
        watchdog.start()
        return _Epoch(machine, injector, watchdog, auditor, tracker,
                      restored=True)

    def _note_epoch(self, result, epoch):
        if epoch.restored:
            result.epochs_restored += 1
        else:
            result.epochs_booted += 1
        return epoch

    @staticmethod
    def _live_threads(machine):
        """Thread ids that can still run: main + non-hung workers."""
        ctx = machine.runtime.ctx
        threads = set()
        if ctx is None or ctx.terminated:
            return threads
        threads.add(f"{ctx.pid}:main")
        for worker in machine.runtime.workers:
            if worker.state != WorkerState.HUNG:
                threads.add(worker.thread_id)
        return threads

    def _quiesce_epoch(self, result, epoch, rules):
        """Retire one machine epoch and fold its counters into result.

        Idempotent: the reboot path and the finally block may both reach
        the same epoch when a reboot itself fails.
        """
        if epoch.finished:
            return
        epoch.finished = True
        epoch.injector.restore_all()
        epoch.state_injector.restore_all()
        epoch.machine.client.pause()
        epoch.machine.run_for(rules.rampdown_seconds)
        epoch.watchdog.stop()
        result.mis += epoch.watchdog.mis
        result.kns += epoch.watchdog.kns
        result.kcp += epoch.watchdog.kcp
        result.incidents.extend(epoch.watchdog.incidents)
        for key, value in vars(epoch.machine.runtime.stats).items():
            result.runtime_stats[key] = (
                result.runtime_stats.get(key, 0) + value
            )
        if epoch.auditor is not None:
            result.audits_performed += epoch.auditor.audits_performed
        result.segments.append(
            (epoch.machine.partial(epoch.windows), epoch.windows)
        )

    def _activation_deadline(self, location, slot_seconds):
        """Seconds from slot start after which a hit-less slot truncates.

        Reads the deadline table the campaign derives before any slot
        runs: an observed function gets its profiled window, any other
        function (or every function, without a table) the floor.
        Clamped to the slot, so a deadline at/over ``slot_seconds``
        means "never truncate".
        """
        deadline = (self.config.activation_deadlines or {}).get(
            location.function, slot_seconds * ACTIVATION_FLOOR_FRACTION
        )
        return max(0.0, min(float(deadline), slot_seconds))

    def run_slots(self, faultload, iteration=0, first_slot=0):
        """Boot a machine and walk ``faultload`` slot by slot (Fig. 4).

        Returns a :class:`SlotRunResult` with every machine epoch
        quiesced (faults detached, client paused, rampdown elapsed,
        watchdog stopped) — the raw state a campaign shard
        (:func:`~repro.harness.campaign.run_shard`) reduces to its
        outcome.  The faultload is injected as given (no preparation).
        Mutants come from the in-process precompilation cache.

        The faultload may hold G-SWFIT locations, state faults, or both:
        each slot hands its fault to the epoch's injector for that kind,
        as the fault's ``mutates_code`` says.  Only a slot whose fault
        mutates code plants an activation probe, gets an activation
        record and can be truncated adaptively; a run of state faults
        alone reports activation as not tracked.

        Containment protocol (DESIGN.md §10): with integrity auditing
        enabled, each slot's injection-free gap ends with a state audit.
        A violating slot is recorded as contaminated and — while the
        reboot budget lasts — the machine is retired and a verified
        replacement brought up (same seeds, re-warmed, re-audited
        clean) before the next slot.  ``first_slot`` offsets slot
        numbering so shard-local records carry campaign-global indices.

        Pristine-slot mode (``config.pristine_slots``, DESIGN.md §12):
        the machine is additionally retired and replaced after *every*
        slot — the paper's Fig. 4 restart-per-experiment protocol,
        affordable because replacements restore from the epoch snapshot.
        The budgeted contamination reboot is subsumed (every slot gets a
        fresh machine anyway), so contaminated slots are recorded but
        never charged against the reboot budget.
        """
        config = self.config
        rules = config.rules
        # Probes are on whenever faults are injected: a no-inject run
        # has no fault for a probe to hit, and a state fault has no code
        # to plant one in.
        track = config.inject_faults
        adaptive = config.adaptive_slots and track
        pristine = config.pristine_slots
        result = SlotRunResult(
            integrity_enabled=self.audited,
            activation_enabled=track and any(
                fault.mutates_code for fault in faultload
            ),
        )
        epoch = self._note_epoch(result, self._bring_up(iteration))
        try:
            for index, fault in enumerate(faultload):
                machine = epoch.machine
                slot = first_slot + index
                slot_start = machine.sim.now
                probed = fault.mutates_code
                injector = epoch.injector if probed else epoch.state_injector
                try:
                    injector.inject(fault)
                    result.faults_injected += 1
                except MutantError:
                    # Unresolvable site (stale faultload): skip the slot.
                    continue
                # Adaptive scheduling: split the slot at the activation
                # deadline.  ``run_until`` partitions the timeline, so
                # back-to-back calls are equivalent to one full-slot call
                # — a non-truncated adaptive slot reproduces the fixed
                # schedule exactly.
                truncated = False
                slot_len = rules.slot_seconds
                if adaptive and probed:
                    deadline = self._activation_deadline(
                        fault, rules.slot_seconds
                    )
                    if deadline < rules.slot_seconds - 1e-9:
                        machine.sim.run_until(slot_start + deadline)
                        if epoch.tracker.hits(fault.fault_id) == 0:
                            truncated = True
                            slot_len = deadline
                        else:
                            machine.sim.run_until(
                                slot_start + rules.slot_seconds
                            )
                    else:
                        machine.sim.run_until(slot_start + rules.slot_seconds)
                else:
                    machine.sim.run_until(slot_start + rules.slot_seconds)
                injector.restore(fault)
                epoch.windows.append((slot_start, slot_start + slot_len))
                if track and probed:
                    # Harvest after restore: the probe cannot fire once
                    # the original code is swapped back.
                    record = epoch.tracker.take(fault.fault_id)
                    hits = record.hits if record is not None else 0
                    first_hit = None
                    if record is not None and record.first_hit is not None:
                        first_hit = round(record.first_hit - slot_start, 6)
                    result.activations.append({
                        "slot": slot,
                        "fault_id": fault.fault_id,
                        "hits": hits,
                        "first_hit": first_hit,
                        "truncated": truncated,
                    })
                    if hits:
                        result.faults_activated += 1
                    if truncated:
                        result.slots_truncated += 1
                        result.truncated_seconds += round(
                            rules.slot_seconds - slot_len, 6
                        )
                # Injection-free gap: workload paused, watchdog repairs.
                machine.client.pause()
                machine.run_for(rules.slot_gap_seconds)
                epoch.watchdog.check_now(retry_exhausted=True)
                if epoch.auditor is not None:
                    report = epoch.auditor.audit(
                        machine.runtime.ctx, self._live_threads(machine)
                    )
                    if not report.clean:
                        record = {
                            "fault_id": fault.fault_id,
                            "kinds": report.kinds(),
                            "rebooted": False,
                            "slot": slot,
                            "violations": len(report.violations),
                        }
                        result.contaminated_slots.append(record)
                        if (not pristine
                                and len(result.reboots)
                                < config.reboot_budget):
                            # Verified reboot: retire the contaminated
                            # machine, bring up a deterministic
                            # replacement, prove it clean, carry on at
                            # the next slot.
                            self._quiesce_epoch(result, epoch, rules)
                            epoch = self._note_epoch(
                                result, self._bring_up(iteration)
                            )
                            verify = epoch.auditor.audit(
                                epoch.machine.runtime.ctx,
                                self._live_threads(epoch.machine),
                            )
                            record["rebooted"] = True
                            result.reboots.append({
                                "after_slot": slot,
                                "verified": verify.clean,
                            })
                            continue
                        # Budget exhausted: degrade gracefully — keep
                        # running, keep flagging contaminated slots.
                if pristine and index < len(faultload) - 1:
                    # Fig. 4 isolation: every slot starts on a fresh
                    # machine.  The final slot skips the swap — the
                    # finally block quiesces the last epoch anyway.
                    self._quiesce_epoch(result, epoch, rules)
                    epoch = self._note_epoch(
                        result, self._bring_up(iteration)
                    )
                    result.pristine_restarts += 1
                    continue
                machine.client.resume()
        finally:
            # Even if a slot raises, leave the machine quiesced: faults
            # detached, client paused, watchdog no longer polling.
            self._quiesce_epoch(result, epoch, rules)
        return result


def profile_servers(config, server_names, seconds=None):
    """Profiling phase: trace each target's API usage under the workload
    (web servers, or the OLTP engines when those are the targets).

    Returns ``{server_name: ApiCallTracer}`` ready for
    :class:`~repro.profiling.usage.UsageTable`.
    """
    tracers = {}
    duration = seconds or config.rules.baseline_seconds
    for server_name in server_names:
        server_config = config.with_target(server_name=server_name)
        machine = machine_class(server_name)(server_config, iteration=0)
        tracer = ApiCallTracer(label=server_name)
        machine.attach_tracer(tracer)
        if not machine.boot():
            raise RuntimeError(f"{server_name} failed to start")
        machine.client.start()
        machine.run_for(
            server_config.rules.warmup_seconds + duration
        )
        machine.client.pause()
        tracers[server_name] = tracer
    return tracers
