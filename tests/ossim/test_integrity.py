"""Tests for the state-integrity auditor (DESIGN.md §10).

Two halves: seeded-corruption checks (each audit domain must catch the
damage it owns) and the false-positive guard (a faultless machine must
audit clean for every server × OS build combination).
"""

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment
from repro.ossim.context import SimKernel
from repro.ossim.integrity import IntegrityAuditor
from repro.ossim.objects import FileObject, KernelObject
from repro.webservers.registry import server_names


# ----------------------------------------------------------------------
# Seeded corruption, one test per audit domain
# ----------------------------------------------------------------------
@pytest.fixture
def world():
    kernel = SimKernel()
    kernel.vfs.mkdir("/data", parents=True)
    kernel.vfs.create_file("/data/a.txt", size=100)
    ctx = kernel.new_process(name="victim")
    ctx.record_startup_footprint()
    auditor = IntegrityAuditor(kernel)
    auditor.snapshot(ctx)
    return kernel, ctx, auditor


def kinds_of(report):
    return report.kinds()


def test_clean_world_audits_clean(world):
    _kernel, ctx, auditor = world
    report = auditor.audit(ctx, live_threads={f"{ctx.pid}:main"})
    assert report.clean
    assert report.to_dict()["violations"] == []


def test_heap_leak_detected(world):
    _kernel, ctx, auditor = world
    ctx.heap.allocate(256)
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["heap-leak"]


def test_heap_foreign_free_detected(world):
    _kernel, ctx, auditor = world
    address = ctx.heap.allocate(64)
    ctx.record_startup_footprint()
    auditor.snapshot(ctx)
    ctx.heap.free(address)
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["heap-foreign-free"]


def test_heap_corruption_detected(world):
    _kernel, ctx, auditor = world
    ctx.heap.mark_corrupted("double free of block")
    report = auditor.audit(ctx)
    assert "heap-corruption" in kinds_of(report)


def test_dangling_handle_detected(world):
    _kernel, ctx, auditor = world
    obj = KernelObject(name="stale-event")
    handle = ctx.handles.insert(obj)
    assert handle
    obj.dereference()  # last reference gone -> closed, handle remains
    report = auditor.audit(ctx)
    assert "dangling-handle" in kinds_of(report)


def test_refcount_underflow_detected(world):
    _kernel, ctx, auditor = world
    obj = KernelObject(name="broken-refs")
    ctx.handles.insert(obj)
    obj.ref_count = 0  # alive but with an impossible count
    report = auditor.audit(ctx)
    assert "refcount-underflow" in kinds_of(report)


def test_vfs_orphaned_open_detected(world):
    kernel, ctx, auditor = world
    node = kernel.vfs.lookup("/data/a.txt")
    node.open_count += 1  # an open nobody holds a handle for
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["vfs-orphan"]


def test_handle_backed_open_is_not_an_orphan(world):
    kernel, ctx, auditor = world
    node = kernel.vfs.lookup("/data/a.txt")
    handle = ctx.handles.insert(FileObject(node))
    node.open_count += 1
    report = auditor.audit(ctx)
    assert report.clean
    ctx.handles.close(handle)
    report = auditor.audit(ctx)
    assert report.clean


def test_fileset_damage_detected(world):
    kernel, ctx, auditor = world
    kernel.vfs.delete("/data/a.txt")
    kernel.vfs.create_file("/data/stray.bin", size=8)
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["fileset-missing", "vfs-stray"]


def test_mutable_prefix_content_changes_tolerated():
    kernel = SimKernel()
    kernel.vfs.mkdir("/logs", parents=True)
    kernel.vfs.create_file("/logs/access.log", size=10)
    ctx = kernel.new_process()
    ctx.record_startup_footprint()
    auditor = IntegrityAuditor(kernel)
    auditor.snapshot(ctx)
    node = kernel.vfs.lookup("/logs/access.log")
    node.size = 999
    assert auditor.audit(ctx).clean
    kernel.vfs.delete("/logs/access.log")
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["fileset-missing"]  # existence still audited


def test_dead_owner_lock_detected(world):
    _kernel, ctx, auditor = world
    section = ctx.sync.get("cache-lock")
    section.enter(f"{ctx.pid}:worker1")
    report = auditor.audit(ctx, live_threads={f"{ctx.pid}:main"})
    assert kinds_of(report) == ["dead-owner-lock"]
    detail = report.violations[0].detail
    assert "worker1" in detail
    assert str(ctx.pid) not in detail  # pids never leak into records


def test_leaked_lock_with_live_owner_detected(world):
    _kernel, ctx, auditor = world
    owner = f"{ctx.pid}:worker1"
    ctx.sync.get("cache-lock").enter(owner)
    report = auditor.audit(ctx, live_threads={owner})
    assert kinds_of(report) == ["leaked-lock"]


def test_lock_corruption_detected(world):
    _kernel, ctx, auditor = world
    section = ctx.sync.get("cache-lock")
    section.corrupted = True
    report = auditor.audit(ctx)
    assert kinds_of(report) == ["lock-corrupted"]


def test_process_restart_rebases_reference(world):
    kernel, ctx, auditor = world
    ctx.heap.allocate(128)  # damage the old generation
    ctx.terminate()
    fresh = kernel.new_process(name="victim")
    fresh.record_startup_footprint()
    report = auditor.audit(fresh)
    assert report.clean
    assert report.reference_reset


def test_dead_process_skips_process_domains(world):
    _kernel, ctx, auditor = world
    ctx.heap.allocate(128)
    ctx.terminate()
    report = auditor.audit(ctx)
    assert not report.process_audited
    assert report.clean  # machine-level VFS state is still intact


def test_report_is_deterministic(world):
    kernel, ctx, auditor = world
    ctx.heap.allocate(64)
    kernel.vfs.delete("/data/a.txt")
    ctx.sync.get("lock-b").enter("99:dead")
    ctx.sync.get("lock-a").enter("98:dead")
    first = auditor.audit(ctx).to_dict()
    second = auditor.audit(ctx).to_dict()
    first.pop("sim_time"), second.pop("sim_time")
    assert first == second
    subjects = [v["subject"] for v in first["violations"]
                if v["domain"] == "sync"]
    assert subjects == sorted(subjects)


# ----------------------------------------------------------------------
# False-positive guard: every server × build audits clean without faults
# ----------------------------------------------------------------------
@pytest.mark.parametrize("os_codename", ["nt50", "nt51"])
@pytest.mark.parametrize("server_name", sorted(server_names()))
def test_faultless_run_has_zero_violations(server_name, os_codename):
    config = ExperimentConfig.smoke()
    config.server_name = server_name
    config.os_codename = os_codename
    config.fault_sample = 4
    config.inject_faults = False  # full slot protocol, no code swapped
    experiment = WebServerExperiment(config)
    faultload = experiment.prepared_faultload()
    run = experiment.run_slots(faultload, iteration=1)
    assert run.integrity_enabled
    assert run.audits_performed == 4
    assert run.contaminated_slots == []
    assert run.reboots == []
