"""Snapshot/restore equivalence suite (DESIGN.md §12, tier-1).

The contract under test: a restored epoch is indistinguishable from a
booted one.  Same simulated clock, same RNG streams, same workload
trajectory — so a campaign that restores between slots must produce a
``metrics_digest`` byte-identical to one that boots between slots.
Here: machine-level replay, a warm cache serving every epoch,
contamination reboots served from the cache, and the restore-verify
fallback when an image goes stale.  Restored-vs-booted campaign digests
across builds, servers, worker counts and modes are rows of
``test_parity.py``.
"""

import dataclasses
import gc
import warnings
import weakref

import pytest

from repro.faults.faultload import Faultload
from repro.harness.campaign import (
    ParallelCampaign,
    campaign_key,
    plan_shards,
)
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment
from repro.harness.machine import ServerMachine
from repro.harness.results import BenchmarkResult, InjectionIteration
from repro.harness.snapshot import (
    MachineSnapshot,
    SnapshotCache,
    snapshot_cache,
    snapshot_key,
)
from repro.harness.telemetry import metrics_digest
from repro.ossim.integrity import IntegrityAuditor
from tests.harness.configs import tiny_config

LEAK_FAULT = "repro.ossim.modules.ntdll50:RtlFreeHeap:MIA:5"


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test starts and ends with an empty process-wide cache."""
    snapshot_cache().clear()
    yield
    snapshot_cache().clear()


def smoke_config(**overrides):
    return ExperimentConfig.smoke(**overrides)


def single_run_digest(config, faultload=None, iteration=1):
    """Digest of one unsharded walk over the prepared faultload under
    ``config``, hashed as one injection iteration; and the walk."""
    experiment = WebServerExperiment(config)
    prepared = experiment.prepared_faultload(faultload)
    run = experiment.run_slots(prepared, iteration=iteration)
    result = BenchmarkResult(
        server_name=config.server_name,
        os_codename=config.os_codename,
        os_display=experiment.build.display_name,
    )
    result.add_iteration(InjectionIteration.merge(
        [run], iteration=iteration,
        metrics=run.compute_metrics(config.connections),
    ))
    return metrics_digest(result), run


def seeded_leak_faultload(config, benign_slots=2):
    """The leaking free plus benign slots (test_integrity_protocol)."""
    experiment = WebServerExperiment(config)
    raw = experiment.raw_faultload()
    by_id = {location.fault_id: location for location in raw}
    benign = [
        location for location in raw
        if "RtlFreeHeap" not in location.fault_id
        and location.fault_id.split(":")[2] == "MVI"
    ][:benign_slots]
    assert len(benign) == benign_slots
    return Faultload(
        config.os_codename,
        tuple([by_id[LEAK_FAULT]] + benign),
        name="seeded-leak",
        prepared=True,
    )


# ----------------------------------------------------------------------
# Machine-level: a restore IS the booted machine
# ----------------------------------------------------------------------
def test_restored_machine_replays_booted_machine_exactly():
    config = smoke_config()
    machine = ServerMachine(config, iteration=1)
    assert machine.boot()
    machine.client.start()
    machine.run_for(
        config.rules.warmup_seconds + config.rules.rampup_seconds
    )
    auditor = IntegrityAuditor(machine.kernel)
    auditor.snapshot(machine.runtime.ctx)
    snapshot = MachineSnapshot.capture(
        snapshot_key(config, 1), machine, auditor
    )
    snapshot.reference = auditor.audit(
        machine.runtime.ctx, internal=True
    ).to_dict()

    restored, restored_auditor = snapshot.restore()
    assert restored is not machine
    # Shared-by-reference objects (see module docstring in snapshot.py):
    # the config is immutable, the build must stay live for the injector.
    assert restored.config is machine.config
    assert restored.build is machine.build
    # Restore-verify: the restored auditor reproduces the capture-time
    # report byte-for-byte.
    verify = restored_auditor.audit(restored.runtime.ctx, internal=True)
    assert verify.to_dict() == snapshot.reference

    # Both run forward in lockstep: identical clocks and workload.
    for seconds in (3.0, 7.0):
        machine.run_for(seconds)
        restored.run_for(seconds)
        assert restored.sim.now == machine.sim.now
        assert restored.client.total_ops() == machine.client.total_ops()
        assert (restored.client.total_errors()
                == machine.client.total_errors())

    # A later restore is untouched by the first copy's progress.
    second, _ = snapshot.restore()
    assert second.sim.now < restored.sim.now
    second.run_for(10.0)
    assert second.sim.now == restored.sim.now
    assert second.client.total_ops() == restored.client.total_ops()
    assert snapshot.restores == 2


def test_capture_and_restore_raise_no_deprecation_warning():
    """Nothing in an image relies on pickle support Python 3.14 drops,
    such as pickling ``itertools`` objects (deprecated since 3.12)."""
    config = smoke_config()
    machine = ServerMachine(config, iteration=1)
    assert machine.boot()
    machine.client.start()
    machine.run_for(
        config.rules.warmup_seconds + config.rules.rampup_seconds
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        snapshot = MachineSnapshot.capture(
            snapshot_key(config, 1), machine
        )
        restored, _ = snapshot.restore()
    assert restored.sim.now == machine.sim.now
    assert restored.config is machine.config


def test_only_the_machines_own_config_is_shared_by_reference():
    """Another object of a shared type is pickled by value."""
    config = smoke_config()
    machine = ServerMachine(config, iteration=1)
    machine.other_config = dataclasses.replace(config, seed=config.seed + 1)
    snapshot = MachineSnapshot.capture(snapshot_key(config, 1), machine)
    restored, _ = snapshot.restore()
    assert restored.config is machine.config
    assert restored.other_config is not machine.other_config
    assert restored.other_config == machine.other_config


def test_dirty_snapshot_falls_back_to_boot():
    """A reference mismatch discards the image instead of using it."""
    config = smoke_config()
    experiment = WebServerExperiment(config)
    key = snapshot_key(config, 1)
    experiment._bring_up(1)
    snapshot = snapshot_cache().get(key)
    assert snapshot is not None
    snapshot.reference = dict(snapshot.reference, sim_time=-1.0)
    assert experiment._restore_epoch(1) is None
    assert snapshot_cache().get(key) is None
    # The dispatcher then boots: the epoch is usable, just not restored.
    epoch = experiment._bring_up(1)
    assert epoch.restored is False


# ----------------------------------------------------------------------
# Digest parity: restored epochs == booted epochs
# ----------------------------------------------------------------------
def test_pristine_digest_stable_across_runs_and_warm_cache():
    config = smoke_config(pristine_slots=True)
    first_digest, first_run = single_run_digest(config)
    # Second run WITHOUT clearing the cache: every epoch including the
    # first is served from the warm snapshot — digest must not move.
    second_digest, second_run = single_run_digest(config)
    assert second_digest == first_digest
    assert second_run.epochs_booted == 0
    assert second_run.epochs_restored == first_run.epochs_restored + 1


def test_retired_pristine_epochs_free_their_machines(monkeypatch):
    """A retired epoch keeps its reduced metrics, not its machine."""
    machines = []
    note_epoch = WebServerExperiment._note_epoch

    def watch(self, result, epoch):
        machines.append(weakref.ref(epoch.machine))
        return note_epoch(self, result, epoch)

    monkeypatch.setattr(WebServerExperiment, "_note_epoch", watch)
    config = smoke_config(pristine_slots=True)
    experiment = WebServerExperiment(config)
    run = experiment.run_slots(experiment.prepared_faultload(), iteration=1)
    assert run.pristine_restarts > 0
    assert len(machines) == len(run.segments) == run.pristine_restarts + 1
    gc.collect()
    assert [ref() for ref in machines] == [None] * len(machines)


def test_contamination_reboot_served_by_restore(monkeypatch):
    config = smoke_config()
    faultload = seeded_leak_faultload(config)
    snap_digest, snap_run = single_run_digest(config, faultload)
    # The boot leg: every snapshot lookup misses, so every epoch boots.
    monkeypatch.setattr(SnapshotCache, "get", lambda self, key: None)
    boot_digest, boot_run = single_run_digest(config, faultload)
    for run in (snap_run, boot_run):
        assert run.contaminated_slots[0]["fault_id"] == LEAK_FAULT
        assert run.reboots == [{"after_slot": 0, "verified": True}]
    # The verified reboot was a restore, and it changed nothing the
    # metrics can see.
    assert snap_run.epochs_restored == 1
    assert snap_run.epochs_booted == 1
    assert boot_run.epochs_booted == 2
    assert snap_digest == boot_digest


# ----------------------------------------------------------------------
# Identity: snapshots fold into the campaign key
# ----------------------------------------------------------------------
def test_campaign_keeps_only_the_last_shards_image():
    """Each shard's key hashes its own seed and a worker runs one shard
    at a time, so an older shard's image is never restored again: a
    two-shard campaign leaves one image in the process cache."""
    config = tiny_config()
    campaign = ParallelCampaign(config, workers=1)
    shards = plan_shards(campaign.prepared_faultload(),
                         config.slots_per_shard)
    assert len(shards) == 2
    campaign.run(include_baseline=False, include_profile_mode=False)
    assert len(snapshot_cache()) == 1


def test_snapshot_key_separates_configs_and_iterations():
    config = smoke_config()
    assert snapshot_key(config, 1) != snapshot_key(config, 2)
    toggled = dataclasses.replace(config, pristine_slots=True)
    assert snapshot_key(config, 1) != snapshot_key(toggled, 1)


def test_campaign_key_covers_snapshot_fields():
    config = tiny_config()
    faultload = WebServerExperiment(config).prepared_faultload()
    changed = dataclasses.replace(config, pristine_slots=True)
    assert campaign_key(changed, faultload) != campaign_key(config, faultload)


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------
def _fake_snapshot(key):
    return MachineSnapshot(key, b"", shared=())


def test_snapshot_cache_lru_eviction_and_counters():
    cache = SnapshotCache()
    cache.put(_fake_snapshot("a"))
    cache.put(_fake_snapshot("b"))  # one snapshot: evicts "a"
    assert len(cache) == 1
    assert cache.get("a") is None
    assert cache.get("b").key == "b"
    assert (cache.hits, cache.misses) == (1, 1)
    cache.discard("a")  # not held: "b" stays
    assert cache.get("b") is not None
    cache.discard("b")
    assert cache.get("b") is None
    assert len(cache) == 0
    cache.put(_fake_snapshot("c"))
    cache.clear()
    assert len(cache) == 0
    assert (cache.hits, cache.misses) == (0, 0)
