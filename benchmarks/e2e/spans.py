"""Per-layer span tables for the traced benchmark run.

The traced run wraps the program's layer entry points from outside, in
the runner process, before any pool worker forks.  Each wrapper times
its call with ``perf_counter`` and folds it into a per-process table:

* ``calls`` and ``total`` count only the outermost span of a name, so a
  subclass calling its base, or ``compute`` calling ``compute_partial``,
  is one call of its layer, not two;
* ``self`` is each span's duration minus the durations of the spans
  that ran inside it.

Counts come from what the wrapped calls return (locations scanned, ops
measured, shard runtime stats) and from process-wide counters read when
the table is written (snapshot cache, OS API calls).

A forked pool worker starts a fresh table (the parent's spans and
counters would otherwise be counted twice) and writes it to
``spans-<pid>.json`` after every shard it runs; the runner writes its
own table at the end.  :func:`merge` sums the files of one repetition.
"""

import functools
import inspect
import json
import os
import time
import weakref
from pathlib import Path

__all__ = ["SpanTable", "install", "merge"]


class SpanTable:
    """Aggregated spans and counters of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}
        self.counters = {}
        self._stack = []
        self._depth = {}

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()
        self._depth.clear()

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, function, on_result=None):
        """``function`` timed as span ``name``.

        ``on_result(result, *args)`` runs after each outermost call; an
        exception counts as ``<name>.errors`` and propagates unchanged.
        """
        stack = self._stack
        depth_of = self._depth
        clock = self.clock

        @functools.wraps(function)
        def timed(*args, **kwargs):
            depth = depth_of.get(name, 0)
            depth_of[name] = depth + 1
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except Exception:
                self.count(f"{name}.errors")
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                depth_of[name] = depth
                entry = self.spans.get(name)
                if entry is None:
                    entry = self.spans[name] = [0, 0.0, 0.0]
                entry[2] += elapsed - children[0]
                if depth == 0:
                    entry[0] += 1
                    entry[1] += elapsed
            if on_result is not None and depth == 0:
                on_result(result, *args)
            return result

        return timed

    def to_dict(self):
        return {
            "spans": {
                name: {"calls": calls, "total": total, "self": self_s}
                for name, (calls, total, self_s) in self.spans.items()
            },
            "counters": dict(self.counters),
        }


def merge(directory):
    """Sum the per-process tables written under ``directory``."""
    spans = {}
    counters = {}
    for path in sorted(Path(directory).glob("spans-*.json")):
        table = json.loads(path.read_text(encoding="utf-8"))
        for name, entry in table["spans"].items():
            merged = spans.setdefault(
                name, {"calls": 0, "total": 0.0, "self": 0.0}
            )
            for key in merged:
                merged[key] += entry[key]
        for name, value in table["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"spans": spans, "counters": counters}


def _patch(table, name, owner, attribute, on_result=None):
    """Replace ``owner.attribute`` by its timed wrapper, keeping the
    classmethod/staticmethod kind of a class attribute."""
    raw = inspect.getattr_static(owner, attribute)
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(table.wrap(name, raw.__func__, on_result))
    else:
        wrapped = table.wrap(name, raw, on_result)
    setattr(owner, attribute, wrapped)


class _ApiCallCounter:
    """OS API calls made in this process, across every process context.

    ``ProcessContext.api_calls`` is bumped inline by the dispatch
    wrappers, so it cannot be wrapped without slowing every call.
    Instead each context remembers the count it started from here (0
    when created, the captured count when restored from a snapshot),
    dead contexts hand their delta over when finalized, and live ones
    are summed when the table is written.  The base never enters a
    pickled snapshot image, so traced and untraced images are the same
    bytes.
    """

    def __init__(self, context_class):
        self.live = weakref.WeakSet()
        self.dead = 0
        counter = self
        original_init = context_class.__init__

        @functools.wraps(original_init)
        def __init__(self, *args, **kwargs):
            original_init(self, *args, **kwargs)
            self._trace_base = 0
            counter.live.add(self)

        def __getstate__(self):
            state = self.__dict__.copy()
            state.pop("_trace_base", None)
            return state

        def __setstate__(self, state):
            self.__dict__.update(state)
            self._trace_base = self.api_calls
            counter.live.add(self)

        def __del__(self):
            counter.dead += (
                self.__dict__.get("api_calls", 0)
                - self.__dict__.get("_trace_base", 0)
            )

        context_class.__init__ = __init__
        context_class.__getstate__ = __getstate__
        context_class.__setstate__ = __setstate__
        context_class.__del__ = __del__

    def rebase(self):
        self.dead = 0
        for context in list(self.live):
            context._trace_base = context.api_calls

    def total(self):
        return self.dead + sum(
            context.api_calls - context._trace_base
            for context in list(self.live)
        )


class _Tracer:
    """The installed wrappers plus the process-wide counters they read."""

    def __init__(self, directory):
        from repro.harness.snapshot import snapshot_cache
        from repro.ossim.context import ProcessContext

        self.directory = Path(directory)
        self.table = SpanTable()
        self.forked = False
        self._snapshots = snapshot_cache()
        self._api_calls = _ApiCallCounter(ProcessContext)
        self._baseline = self._process_counts()
        os.register_at_fork(after_in_child=self._after_fork)

    def _process_counts(self):
        return {
            "snapshot.hits": self._snapshots.hits,
            "snapshot.misses": self._snapshots.misses,
        }

    def _after_fork(self):
        self.forked = True
        self.table.reset()
        self._api_calls.rebase()
        self._baseline = self._process_counts()

    def write(self):
        data = self.table.to_dict()
        counters = data["counters"]
        for name, value in self._process_counts().items():
            counters[name] = value - self._baseline[name]
        counters["dispatch.api_calls"] = self._api_calls.total()
        path = self.directory / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(data), encoding="utf-8")
        os.replace(tmp, path)

    # -- result hooks -------------------------------------------------
    def _scanned(self, faultload, *_args):
        self.table.count("scanner.locations", len(faultload))

    def _shard_done(self, outcome, *_args):
        stats = outcome.runtime_stats
        self.table.count("server.crashes", stats.get("crashes", 0))
        self.table.count(
            "server.restarts",
            stats.get("self_restarts", 0) + stats.get("external_restarts", 0),
        )
        if self.forked:
            self.write()

    def _measured(self, metrics, *_args):
        self.table.count("client.ops", metrics.total_ops)
        self.table.count("client.errors", metrics.total_errors)

    def _captured(self, snapshot, *_args):
        self.table.count("snapshot.image_bytes", snapshot.image_bytes)

    def _restored(self, epoch, *_args):
        if epoch is not None:
            self.table.count("experiment.restores")

    def _sim_counts(self, run_until):
        table = self.table

        @functools.wraps(run_until)
        def counted(sim, until):
            fired, now = sim.events_fired, sim.now
            run_until(sim, until)
            table.count("sim.events", sim.events_fired - fired)
            table.count("sim.seconds", sim.now - now)

        return counted

    # -----------------------------------------------------------------
    def install(self):
        import repro.cli
        import repro.reporting.export
        from repro.gswfit import cache, scanner
        from repro.gswfit.injector import FaultInjector
        from repro.harness import campaign
        from repro.harness.experiment import WebServerExperiment
        from repro.harness.snapshot import MachineSnapshot
        from repro.harness.supervisor import ShardSupervisor
        from repro.harness.telemetry import RunManifest
        from repro.harness.watchdog import Watchdog
        from repro.ossim.integrity import IntegrityAuditor
        from repro.sim.kernel import Simulator
        from repro.specweb.metrics import MetricsCollector
        from repro.webservers.base import BaseWebServer

        table = self.table
        targets = [
            ("scanner", campaign, "scan_build_cached", self._scanned),
            ("scanner", cache, "scan_build", self._scanned),
            ("scanner", scanner, "scan_build", self._scanned),
            ("cache.warm", campaign, "warm_mutant_cache", None),
            ("cache.warm", cache, "warm_mutant_cache", None),
            ("cache.lookup", cache, "build_mutant_cached", None),
            ("cache.build_mutant", cache, "build_mutant", None),
            ("injector.inject", FaultInjector, "inject", None),
            ("injector.restore", FaultInjector, "restore", None),
            ("campaign.activation_profile", campaign,
             "derive_activation_deadlines", None),
            ("campaign.shard", campaign, "run_shard", self._shard_done),
            ("campaign.merge", campaign, "merge_outcomes", None),
            ("campaign.journal", campaign.CampaignJournal, "record_shard",
             None),
            ("experiment.baseline", WebServerExperiment, "run_baseline",
             None),
            ("experiment.boot", WebServerExperiment, "_boot_epoch", None),
            ("experiment.restore", WebServerExperiment, "_restore_epoch",
             self._restored),
            ("snapshot.capture", MachineSnapshot, "capture",
             self._captured),
            ("snapshot.restore", MachineSnapshot, "restore", None),
            ("integrity.audit", IntegrityAuditor, "audit", None),
            ("watchdog.check", Watchdog, "check_now", None),
            ("client.compute", MetricsCollector, "compute", self._measured),
            ("client.compute", MetricsCollector, "compute_partial",
             self._measured),
            ("supervisor.run", ShardSupervisor, "run", None),
            ("telemetry.digest", campaign, "metrics_digest", None),
            ("telemetry.manifest", RunManifest, "write", None),
            ("reporting.export", repro.reporting.export, "export_campaign",
             None),
            ("reporting.table", repro.cli, "table5_results", None),
        ]
        servers = [BaseWebServer]
        while servers:
            server = servers.pop()
            servers.extend(server.__subclasses__())
            if "handle" in vars(server) and server is not BaseWebServer:
                targets.append(("server.handle", server, "handle", None))
        for name, owner, attribute, on_result in targets:
            _patch(table, name, owner, attribute, on_result)
        Simulator.run_until = self._sim_counts(
            table.wrap("sim", Simulator.run_until)
        )


def install(directory):
    """Wrap the layer entry points; returns the tracer whose ``write``
    stores this process's table under ``directory``."""
    tracer = _Tracer(directory)
    tracer.install()
    return tracer
