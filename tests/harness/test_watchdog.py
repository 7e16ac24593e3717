"""Tests for the watchdog's MIS/KNS/KCP classification."""

import pytest

from repro.harness import watchdog as watchdog_module
from repro.harness.watchdog import Watchdog
from repro.sim.kernel import Simulator


class FakeRuntime:
    """A runtime whose observable health is fully scripted."""

    def __init__(self):
        self.dead = False
        self.last_attempt_time = -1.0
        self.last_success_time = -1.0
        self.cpu_hog_recent = False
        self.restart_results = []
        self.restart_calls = 0

    def is_dead(self):
        return self.dead

    def restart(self):
        self.restart_calls += 1
        if self.restart_results:
            ok = self.restart_results.pop(0)
        else:
            ok = True
        if ok:
            self.dead = False
            self.cpu_hog_recent = False
        return ok


@pytest.fixture
def world():
    sim = Simulator()
    runtime = FakeRuntime()
    watchdog = Watchdog(sim, runtime)
    return sim, runtime, watchdog


def test_healthy_server_untouched(world):
    sim, runtime, watchdog = world
    runtime.last_attempt_time = 0.0
    runtime.last_success_time = 0.0
    watchdog.start()
    sim.run_until(10.0)
    runtime.last_attempt_time = 9.9
    runtime.last_success_time = 9.9
    sim.run_until(20.0)
    assert watchdog.counters() == {"MIS": 0, "KNS": 0, "KCP": 0}
    assert runtime.restart_calls == 0


def test_dead_server_counts_mis_once_and_restarts(world):
    sim, runtime, watchdog = world
    runtime.dead = True
    watchdog.start()
    sim.run_until(1.5)
    assert watchdog.mis == 1
    assert runtime.restart_calls == 1
    assert not runtime.dead


def test_failed_restart_does_not_recount_mis(world):
    sim, runtime, watchdog = world
    runtime.dead = True
    runtime.restart_results = [False, False, True]
    watchdog.start()
    sim.run_until(3.5)
    assert watchdog.mis == 1  # one death, several repair attempts
    assert runtime.restart_calls == 3
    assert not runtime.dead


def test_second_death_counts_again(world):
    sim, runtime, watchdog = world
    runtime.dead = True
    watchdog.start()
    sim.run_until(1.5)
    runtime.dead = True
    sim.run_until(2.5)
    assert watchdog.mis == 2


def test_unresponsive_with_demand_is_kns(world):
    sim, runtime, watchdog = world
    watchdog.start()
    sim.run_until(5.0)
    runtime.last_attempt_time = sim.now  # demand now
    runtime.last_success_time = 0.1      # stale success
    sim.run_until(6.5)
    assert watchdog.kns == 1
    assert watchdog.kcp == 0
    assert runtime.restart_calls == 1


def test_unresponsive_with_cpu_burn_is_kcp(world):
    sim, runtime, watchdog = world
    watchdog.start()
    sim.run_until(5.0)
    runtime.last_attempt_time = sim.now
    runtime.last_success_time = 0.1
    runtime.cpu_hog_recent = True
    sim.run_until(6.5)
    assert watchdog.kcp == 1
    assert watchdog.kns == 0


def test_no_demand_no_kns(world):
    """Silence without requests is unobservable, not a failure."""
    sim, runtime, watchdog = world
    watchdog.start()
    runtime.last_attempt_time = 0.5
    runtime.last_success_time = 0.5
    sim.run_until(30.0)  # long quiet period
    assert watchdog.kns == 0


def test_admf_is_sum(world):
    _sim, _runtime, watchdog = world
    watchdog.mis, watchdog.kns, watchdog.kcp = 3, 2, 1
    assert watchdog.admf == 6


def test_stop_halts_polling(world):
    sim, runtime, watchdog = world
    runtime.dead = True
    watchdog.start()
    watchdog.stop()
    sim.run_until(10.0)
    assert watchdog.mis == 0


def test_check_now_usable_without_polling(world):
    sim, runtime, watchdog = world
    runtime.dead = True
    watchdog.check_now()
    assert watchdog.mis == 1


def test_restart_storm_capped_at_max_attempts():
    """Regression: a fault that kills the child at startup turned every
    poll into a futile restart — unbounded restart storm."""
    sim = Simulator()
    runtime = FakeRuntime()
    watchdog = Watchdog(sim, runtime)
    runtime.dead = True
    runtime.restart_results = [False] * 100
    watchdog.start()
    sim.run_until(50.0)
    assert runtime.restart_calls == 5  # capped, not one per poll
    assert watchdog.mis == 1  # still a single death incident
    exhausted = [i for i in watchdog.incidents
                 if i["kind"] == "RESTART_EXHAUSTED"]
    assert len(exhausted) == 1  # recorded once, not per poll


def test_retry_exhausted_rearms_the_budget(monkeypatch):
    monkeypatch.setattr(watchdog_module, "MAX_RESTART_ATTEMPTS", 2)
    sim = Simulator()
    runtime = FakeRuntime()
    watchdog = Watchdog(sim, runtime)
    runtime.dead = True
    runtime.restart_results = [False] * 10
    watchdog.start()
    sim.run_until(10.0)
    assert runtime.restart_calls == 2
    # The slot gap removed the fault: a re-armed attempt now succeeds.
    runtime.restart_results = []
    watchdog.check_now(retry_exhausted=True)
    assert not runtime.dead
    assert runtime.restart_calls == 3
    assert watchdog.restarts_performed == 1
    # A later death gets a fresh budget of its own.
    runtime.dead = True
    runtime.restart_results = [False]
    sim.run_until(11.5)
    assert runtime.restart_calls == 4
    assert watchdog.mis == 2


def test_plain_check_now_does_not_rearm_exhausted_budget(monkeypatch):
    monkeypatch.setattr(watchdog_module, "MAX_RESTART_ATTEMPTS", 1)
    sim = Simulator()
    runtime = FakeRuntime()
    watchdog = Watchdog(sim, runtime)
    runtime.dead = True
    runtime.restart_results = [False] * 10
    watchdog.check_now()
    watchdog.check_now()
    watchdog.check_now()
    assert runtime.restart_calls == 1
