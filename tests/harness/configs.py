"""The campaign-sized experiment config, and a call recorder, shared by
the harness tests."""

from repro.harness.config import ExperimentConfig

#: The sequential campaign the end-to-end tests run: 24 faults in
#: batches (shards) of 2 slots, each stratum stopping at a relative
#: half-width of 0.5.
SEQUENTIAL = {
    "fault_sample": 24,
    "sequential": True,
    "ci_target": 0.5,
    "slots_per_shard": 2,
}


def tiny_config(iterations=1, fault_sample=8, **overrides):
    """A smoke config cut down to whole-campaign size.

    ``overrides`` set any other :class:`ExperimentConfig` field.
    """
    config = ExperimentConfig.smoke(fault_sample=fault_sample, **overrides)
    config.rules = type(config.rules)(
        warmup_seconds=3.0, rampup_seconds=1.0, rampdown_seconds=1.0,
        iterations=iterations, slot_seconds=4.0, slot_gap_seconds=1.0,
        baseline_seconds=12.0,
    )
    return config


def passing_through(log, name, function):
    """``function``, appending ``name`` to ``log`` at each call."""

    def wrapper(*args, **kwargs):
        log.append(name)
        return function(*args, **kwargs)

    return wrapper
