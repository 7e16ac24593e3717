"""Integration tests for the experiment harness (smoke-scale)."""

import dataclasses

import pytest

from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment, profile_servers
from repro.harness.machine import ServerMachine
from repro.harness.metrics import DependabilityMetrics
from repro.harness.results import average_iterations


@pytest.fixture(scope="module")
def config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def experiment(config):
    return WebServerExperiment(config)


@pytest.fixture(scope="module")
def baseline(experiment):
    return experiment.run_baseline()


def injection_walk(experiment, iteration):
    """One walk over the prepared faultload on one machine."""
    return experiment.run_slots(
        experiment.prepared_faultload(), iteration=iteration
    )


@pytest.fixture(scope="module")
def injection(experiment):
    return injection_walk(experiment, 1)


def test_machine_boots_with_full_environment(config):
    machine = ServerMachine(config)
    assert machine.boot()
    vfs = machine.kernel.vfs
    assert vfs.lookup("/etc/apache.conf") is not None
    assert vfs.lookup("/logs") is not None
    assert vfs.count_files() > config.fileset_directories * 36


def test_environment_has_only_active_server_files(config):
    # Only the deployed server's /etc files exist: dead config files
    # for servers that never run would bloat every machine snapshot
    # and widen the VFS audit surface for nothing.
    machine = ServerMachine(config)
    assert machine.boot()
    vfs = machine.kernel.vfs
    assert vfs.lookup("/etc/abyss.conf") is None
    assert vfs.lookup("/etc/abyss.mime") is None

    abyss_config = dataclasses.replace(config, server_name="abyss")
    abyss_machine = ServerMachine(abyss_config)
    assert abyss_machine.boot()
    abyss_vfs = abyss_machine.kernel.vfs
    # Abyss reads its mime map with open-always semantics, so it must
    # be materialized (with a realistic size) before startup.
    assert abyss_vfs.lookup("/etc/abyss.conf") is not None
    assert abyss_vfs.lookup("/etc/abyss.mime") is not None
    assert abyss_vfs.lookup("/etc/apache.conf") is None


def test_baseline_is_clean(baseline):
    assert baseline.er_percent == 0.0
    assert baseline.total_ops > 100
    assert baseline.spc > 0
    assert 0.1 < baseline.rtm_ms / 1000 < 1.0


def test_profile_mode_close_to_baseline(experiment, baseline):
    profile = experiment.run_profile_mode()
    assert profile.er_percent == 0.0
    # Intrusiveness: small THR/RTM degradation (paper: < 2%).
    assert profile.thr == pytest.approx(baseline.thr, rel=0.06)
    assert profile.rtm_ms == pytest.approx(baseline.rtm_ms, rel=0.06)


def test_injection_degrades_service(config, experiment, baseline,
                                    injection):
    metrics = injection.compute_metrics(config.connections)
    assert metrics.er_percent > baseline.er_percent
    assert injection.faults_injected == len(
        experiment.prepared_faultload()
    )
    assert injection.mis + injection.kns + injection.kcp >= 0


def test_injection_repeatable_with_same_seed(config, injection):
    again = injection_walk(WebServerExperiment(config), 1)
    first = injection.compute_metrics(config.connections)
    second = again.compute_metrics(config.connections)
    assert second.total_ops == first.total_ops
    assert again.mis == injection.mis
    assert again.kns == injection.kns
    assert second.er_percent == pytest.approx(first.er_percent)


def test_iterations_vary_but_resemble(config, experiment, injection):
    connections = config.connections
    other = injection_walk(experiment, 2).compute_metrics(connections)
    metrics = injection.compute_metrics(connections)
    # Different draws...
    assert other.total_ops != metrics.total_ops
    # ...same magnitude of behavior.
    assert other.thr == pytest.approx(metrics.thr, rel=0.35)


def test_fit_code_pristine_after_injection_run(experiment, injection):
    """No mutation residue after a full pass (repeatability)."""
    from repro.gswfit.mutator import resolve_function

    for location in experiment.prepared_faultload():
        function = resolve_function(location)
        # Original functions come from the module source file; mutants
        # from synthetic <gswfit:...> filenames.
        assert function.__code__.co_filename.endswith(".py")


def test_average_iterations_math():
    class FakeIteration:
        def __init__(self, spc):
            self.spc = spc

        def as_row(self):
            return {"SPC": self.spc, "THR": 0, "RTM": 0, "ER%": 0,
                    "MIS": 1, "KCP": 0, "KNS": 2}

    average = average_iterations([FakeIteration(10), FakeIteration(20)])
    assert average["SPC"] == 15
    assert average["KNS"] == 2
    assert average_iterations([]) == {}


def test_campaign_produces_complete_result(config):
    from repro.harness.campaign import ParallelCampaign

    campaign_config = ExperimentConfig.smoke()
    campaign_config.fault_sample = 6
    campaign_config.rules = type(campaign_config.rules)(
        warmup_seconds=3.0, rampup_seconds=1.0, rampdown_seconds=1.0,
        iterations=2, slot_seconds=4.0, slot_gap_seconds=1.0,
        baseline_seconds=12.0,
    )
    result = ParallelCampaign(campaign_config, workers=1).run()
    assert result.baseline is not None
    assert result.profile_mode is not None
    assert len(result.iterations) == 2
    average = result.average_row()
    assert set(average) == {"SPC", "THR", "RTM", "ER%", "MIS", "KCP",
                            "KNS", "RES", "ACT%"}
    metrics = DependabilityMetrics.from_results(result)
    assert metrics.spc_baseline == result.profile_mode.spc
    assert metrics.admf == pytest.approx(
        average["MIS"] + average["KNS"] + average["KCP"]
    )


def test_dependability_metrics_relative_views():
    from repro.harness.results import BenchmarkResult, InjectionIteration
    from repro.specweb.metrics import SpecWebMetrics

    def metrics(spc, thr, rtm):
        return SpecWebMetrics(
            spc=spc, cc_percent=0, thr=thr, rtm_ms=rtm, er_percent=5,
            total_ops=100, total_errors=5, measured_seconds=10,
        )

    result = BenchmarkResult("apache", "nt50", "W2k")
    result.baseline = metrics(30, 100, 350)
    result.add_iteration(InjectionIteration(
        iteration=1, metrics=metrics(10, 90, 380),
        mis=5, kns=3, kcp=1, faults_injected=10,
    ))
    dep = DependabilityMetrics.from_results(result)
    assert dep.spc_relative == pytest.approx(1 / 3)
    assert dep.thr_relative == pytest.approx(0.9)
    assert dep.rtm_relative == pytest.approx(380 / 350)
    assert dep.admf == 9
    data = dep.as_dict()
    assert data["ADMf"] == 9


def test_prepared_faultload_is_idempotent(config):
    """Regression: a campaign prepared the faultload, then
    run_profile_mode prepared it *again*, re-applying
    sample()+interleave_types() and mangling the name
    (``...-sampledN-interleaved-sampledM-interleaved``)."""
    experiment = WebServerExperiment(config)
    once = experiment.prepared_faultload()
    assert once.prepared
    twice = experiment.prepared_faultload(once)
    assert twice is once
    assert [l.fault_id for l in twice] == [l.fault_id for l in once]
    assert twice.name.count("-sampled") == 1
    assert twice.name.count("-interleaved") == 1


def test_campaign_and_single_run_see_same_slot_order(config):
    """The slot order must not depend on who prepared the faultload."""
    experiment = WebServerExperiment(config)
    campaign_prepared = experiment.prepared_faultload()
    # A single run handed the campaign's faultload must inject the very
    # same slots in the very same order.
    single_run_view = WebServerExperiment(config).prepared_faultload(
        campaign_prepared
    )
    fresh = WebServerExperiment(config).prepared_faultload()
    assert [l.fault_id for l in single_run_view] == [
        l.fault_id for l in campaign_prepared
    ] == [l.fault_id for l in fresh]


def test_measured_windows_do_not_drift(config):
    """Regression: accumulating ``t += slot_seconds`` in floating point
    gained/lost a window on long baselines (0.1 repeats in binary)."""
    experiment = WebServerExperiment(config)
    windows = experiment._measured_windows(1000.0, 100.0, 0.1)
    assert len(windows) == 1000
    start, end = windows[-1]
    assert start == 1000.0 + 999 * 0.1
    assert end == 1000.0 + 1000 * 0.1
    # Degenerate case: duration shorter than a slot -> one full window.
    assert experiment._measured_windows(0.0, 3.0, 5.0) == [(0.0, 3.0)]


def test_run_slots_quiesces_machine_even_on_error(config, monkeypatch):
    """Regression: an exception mid-run left the watchdog polling (and
    the client running) — run_slots must always quiesce in finally."""
    import repro.harness.experiment as experiment_module
    from repro.harness.watchdog import Watchdog

    created = []

    class RecordingWatchdog(Watchdog):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(experiment_module, "Watchdog", RecordingWatchdog)
    experiment = WebServerExperiment(config)
    faultload = experiment.prepared_faultload()

    class Boom(RuntimeError):
        pass

    class ExplodingFaultload:
        prepared = True

        def __iter__(self):
            yield faultload[0]
            raise Boom()

    with pytest.raises(Boom):
        experiment.run_slots(ExplodingFaultload(), iteration=1)
    assert len(created) == 1
    watchdog = created[0]
    assert not watchdog._running
    assert watchdog._poll_event is None


def test_profile_servers_returns_tracer_per_server(config):
    tracers = profile_servers(config, ["apache", "abyss"], seconds=5.0)
    assert set(tracers) == {"apache", "abyss"}
    for tracer in tracers.values():
        assert tracer.total_calls > 100


def test_config_presets_and_helpers():
    paper = ExperimentConfig.paper_scale()
    assert paper.rules.warmup_seconds == 1200.0
    assert paper.fault_sample is None
    scaled = ExperimentConfig.scaled(fault_sample=10)
    assert scaled.fault_sample == 10
    other = scaled.with_target(server_name="abyss", os_codename="nt51")
    assert other.server_name == "abyss"
    assert scaled.server_name == "apache"  # original untouched
    assert scaled.iteration_seed(1) != scaled.iteration_seed(2)
