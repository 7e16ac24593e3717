"""The campaign-sized experiment config shared by the harness tests."""

from repro.harness.config import ExperimentConfig


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

