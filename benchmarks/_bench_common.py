"""Shared helpers for the paper-regeneration benches.

Every bench regenerates one exhibit of the paper (tables 1-5, figure 5)
or one ablation from DESIGN.md.  The heavyweight campaign data (used by
table 5 and figure 5) is computed once per session and shared.  Each
combo is one :class:`ParallelCampaign` at the default worker count — the
engine ``repro campaign`` runs — and its run manifest, with the metrics
digest, lands in ``gate/paper/<os>-<server>.manifest.json``.

Scale: the default configuration compresses the paper's 24-hour campaign
into a couple of host minutes (fewer connections, a stratified faultload
sample) while preserving its structure.  Set ``REPRO_BENCH_FAULTS`` /
``REPRO_BENCH_CONNECTIONS`` to raise the scale (0 faults = the full
faultload, as in the paper).
"""

import os
from pathlib import Path

import pytest

from repro.harness.campaign import ParallelCampaign
from repro.harness.config import ExperimentConfig
from repro.ossim.builds import get_build
from repro.webservers.registry import BENCHMARKED_SERVERS

BENCH_FAULTS = int(os.environ.get("REPRO_BENCH_FAULTS", "72"))
BENCH_CONNECTIONS = int(os.environ.get("REPRO_BENCH_CONNECTIONS", "12"))
OS_CODENAMES = ("nt50", "nt51")
MANIFEST_DIR = Path(__file__).resolve().parent.parent / "gate" / "paper"


def bench_config(server_name="apache", os_codename="nt50"):
    config = ExperimentConfig.scaled(
        fault_sample=BENCH_FAULTS if BENCH_FAULTS > 0 else None,
        connections=BENCH_CONNECTIONS,
    )
    config.server_name = server_name
    config.os_codename = os_codename
    return config


@pytest.fixture(scope="session")
def campaign_results():
    """Full campaigns for every (os, server) combo — computed once."""
    results = {}
    for os_codename in OS_CODENAMES:
        for server_name in BENCHMARKED_SERVERS:
            campaign = ParallelCampaign(
                bench_config(server_name, os_codename),
                manifest_path=(MANIFEST_DIR / f"{os_codename}-"
                               f"{server_name}.manifest.json"),
            )
            results[(os_codename, server_name)] = campaign.run()
    return results


def os_display(os_codename):
    return get_build(os_codename).display_name
