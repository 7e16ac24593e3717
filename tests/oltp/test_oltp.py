"""Tests for the OLTP case study: engines, client audit, experiment."""

import pytest

from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.harness.experiment import WebServerExperiment
from repro.harness.snapshot import MachineSnapshot
from repro.oltp import ENGINES, OltpMachine, Transaction
from repro.oltp.engines import INITIAL_BALANCE, create_engine
from repro.pipeline import build_tuned_faultload


def _machine(engine="walnut", **overrides):
    config = ExperimentConfig.smoke(server_name=engine, **overrides)
    machine = OltpMachine(config)
    assert machine.boot()
    return machine


def _submit(machine, transaction, wait=0.5):
    outcome = []
    machine.runtime.deliver(transaction, outcome.append)
    machine.run_for(wait)
    return outcome[0] if outcome else None


def test_create_engine_registry():
    assert create_engine("walnut").name == "walnut"
    assert create_engine("breezy").name == "breezy"
    with pytest.raises(KeyError):
        create_engine("oracle")


@pytest.mark.parametrize("engine", ["walnut", "breezy"])
def test_transfer_and_balance(engine):
    machine = _machine(engine)
    result = _submit(
        machine, Transaction("transfer", 1, 3, 7, amount=100)
    )
    assert result.ok
    balance = _submit(machine, Transaction("balance", 2, 3))
    assert balance.ok and balance.value == INITIAL_BALANCE - 100
    balance = _submit(machine, Transaction("balance", 3, 7))
    assert balance.value == INITIAL_BALANCE + 100


@pytest.mark.parametrize("engine", ["walnut", "breezy"])
def test_scan_conserves_total(engine):
    machine = _machine(engine)
    for index in range(10):
        _submit(machine, Transaction(
            "transfer", index + 1, index, index + 20, amount=10
        ))
    result = _submit(machine, Transaction("scan", 99))
    assert result.ok
    assert result.value == machine.engine.accounts * INITIAL_BALANCE


def test_unknown_account_rejected():
    machine = _machine("walnut")
    result = _submit(machine, Transaction("transfer", 1, 5, 10**6, 10))
    assert not result.ok


def test_unknown_kind_rejected():
    machine = _machine("walnut")
    result = _submit(machine, Transaction("vacuum", 1))
    assert not result.ok


def test_walnut_survives_crash_with_all_acknowledged_transfers():
    """Kill the engine mid-stream: WAL replay must restore every
    acknowledged transfer."""
    machine = _machine("walnut")
    acknowledged = []
    for index in range(30):
        txn = Transaction("transfer", index + 1, index % 9,
                          10 + index % 9, amount=5 + index)
        result = _submit(machine, txn)
        if result.ok:
            acknowledged.append(txn)
    assert acknowledged
    expected = {a: INITIAL_BALANCE for a in range(machine.engine.accounts)}
    for txn in acknowledged:
        expected[txn.account_from] -= txn.amount
        expected[txn.account_to] += txn.amount
    machine.runtime.kill()
    assert machine.runtime.restart()
    for account in range(20):
        result = _submit(machine, Transaction("balance", 900, account))
        assert result.value == expected[account], f"account {account}"


def test_breezy_loses_unflushed_transfers_on_crash():
    machine = _machine("breezy")
    flush_period = machine.engine.FLUSH_PERIOD
    # Fewer transfers than a flush period: all acknowledged, none durable.
    for index in range(flush_period - 2):
        result = _submit(machine, Transaction(
            "transfer", index + 1, 0, 1, amount=10
        ))
        assert result.ok
    machine.runtime.kill()
    assert machine.runtime.restart()
    result = _submit(machine, Transaction("balance", 900, 0))
    assert result.value == INITIAL_BALANCE  # the transfers evaporated


def test_walnut_checkpoint_truncates_wal():
    machine = _machine("walnut")
    period = machine.engine.CHECKPOINT_PERIOD
    for index in range(period + 2):
        _submit(machine, Transaction(
            "transfer", index + 1, index % 5, 30 + index % 5, amount=1
        ), wait=0.2)
    wal = machine.kernel.vfs.lookup("/db/walnut/wal.log")
    assert len(wal.records) <= period  # truncated at the checkpoint


def test_client_baseline_is_clean_and_audited():
    config = ExperimentConfig.smoke(server_name="walnut")
    metrics = WebServerExperiment(config).run_baseline()
    assert metrics.total_txns > 500
    assert metrics.er_percent == 0.0
    assert metrics.integrity_violations == 0
    assert metrics.tps > 50


def _injection_campaign(config, faultload=None):
    """One engine campaign's digest and its one injection iteration."""
    campaign = ParallelCampaign(config, workers=1)
    result = campaign.run(faultload=faultload, include_baseline=False,
                          include_profile_mode=False)
    return campaign.manifest.metrics_digest, result.iterations[0]


def test_experiment_repeatable():
    config = ExperimentConfig.smoke(server_name="breezy")
    config.fault_sample = 10
    digest_a, a = _injection_campaign(config)
    digest_b, b = _injection_campaign(config)
    assert digest_a == digest_b
    assert a.metrics.total_txns == b.metrics.total_txns
    assert (a.metrics.integrity_violations
            == b.metrics.integrity_violations)
    assert a.mis == b.mis


def test_domain_tuning_selects_oltp_footprint():
    config = ExperimentConfig.smoke(server_name="walnut")
    tuned = build_tuned_faultload(
        config, servers=ENGINES, profile_seconds=6.0
    )
    functions = set(tuned.functions())
    assert "NtWriteFile" in functions
    assert "RtlEnterCriticalSection" in functions
    # Walnut-only services are excluded by the intersection rule.
    assert "SetEndOfFile" not in functions
    # Web-server-only territory is out too.
    assert "GetLongPathNameW" not in functions


def test_integrity_audit_distinguishes_engines():
    """The acid test of the case study at unit scale."""
    tuned = build_tuned_faultload(
        ExperimentConfig.smoke(), servers=ENGINES, profile_seconds=6.0
    )
    results = {}
    for engine in ENGINES:
        config = ExperimentConfig.smoke(server_name=engine)
        config.fault_sample = 24
        _digest, results[engine] = _injection_campaign(config, tuned)
    walnut = results["walnut"].metrics
    breezy = results["breezy"].metrics
    assert walnut.integrity_violations == 0
    assert breezy.integrity_violations > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_restored_oltp_machine_runs_in_lockstep(engine):
    """Every slot walk captures its warmed-up machine: an engine machine
    must pickle (no lambda clock, no closure responders in flight), and
    a restored copy must run exactly like the machine it was taken
    from."""
    machine = _machine(engine)
    machine.client.start()
    machine.run_for(2.0)
    copy, auditor = MachineSnapshot.capture("oltp", machine).restore()
    assert auditor is None
    for each in (machine, copy):
        each.run_for(3.0)
    assert copy.sim.now == machine.sim.now
    assert copy.client.records == machine.client.records
    assert len(machine.client.records) > 100
    assert copy.client.ledger == machine.client.ledger
    assert vars(copy.engine) == vars(machine.engine)
