"""Digest parity across every way of executing a campaign (tier-1).

A campaign's results are a function of what it measures — the variant
(plain, adaptive slots, pristine slots, or the no-inject control run),
the OS build and the server — and never of how it was executed:
worker count (in-process, or loopback fabric workers with one of them
killed mid-run), epoch snapshots restored or every epoch booted, a
built-in operator re-expressed through ``operator_specs``, or a kill
and resume.  That is what lets a faultload's results repeat across runs
and port across hosts.

Checking each toggle alone against a base run leaves their interactions
unchecked, and the full product is 4 x 2^6 = 256 campaigns.  ``ROWS`` is
a pairwise covering array instead: every pair of levels of any two
factors appears in some row (``test_rows_cover_every_pair_of_levels``).
Each row runs a two-iteration campaign, because a snapshot filed under
the wrong iteration only shows in the second one, with four shards per
iteration, and must match the base run of its variant, build and server
(one worker, snapshots on, built-in operators, no resume) on every
deterministic field of the run manifest.  Its manifest must also show
that each of its toggles engaged.

Snapshots are always on in the product; a row with the ``snapshots``
factor off makes :meth:`SnapshotCache.get` miss, so every epoch boots.
Forked loopback workers inherit the patch.
"""

import itertools
from typing import NamedTuple

import pytest

from repro.faults.types import reset_dynamic_fault_types
from repro.gswfit.dsl import OperatorSpec
from repro.gswfit.dsl.builtin_specs import builtin_spec
from repro.gswfit.operators import reset_dynamic_operators
from repro.harness.campaign import ParallelCampaign
from repro.harness.supervisor import CHAOS_KILL_ENV
from repro.harness.snapshot import SnapshotCache, snapshot_cache
from tests.harness.configs import tiny_config


class Row(NamedTuple):
    variant: str
    os: str
    server: str
    workers: int
    snapshots: bool
    specs: bool
    resumed: bool


LEVELS = {
    "variant": ("plain", "adaptive", "pristine", "no-inject"),
    "os": ("nt50", "nt51"),
    "server": ("apache", "abyss"),
    "workers": (1, 2),
    "snapshots": (True, False),
    "specs": (False, True),
    "resumed": (False, True),
}

#: The toggles of a base run.
BASE = (1, True, False, False)

VARIANTS = {
    "plain": {},
    "adaptive": {"adaptive_slots": True},
    "pristine": {"pristine_slots": True},
    "no-inject": {"inject_faults": False},
}

# Each variant has two rows that differ in every other factor.  The
# no-inject variant has a base row; any other base run is made on first
# use.
ROWS = [
    #   variant      os      server  workers snaps specs resumed
    Row("plain",     "nt50", "apache", 2, True,  True,  False),
    Row("plain",     "nt51", "abyss",  1, False, False, True),
    Row("adaptive",  "nt50", "abyss",  1, True,  True,  True),
    Row("adaptive",  "nt51", "apache", 2, False, False, False),
    Row("pristine",  "nt50", "apache", 1, False, False, True),
    Row("pristine",  "nt51", "abyss",  2, True,  True,  False),
    Row("no-inject", "nt51", "apache", 1, True,  False, False),
    Row("no-inject", "nt50", "abyss",  2, False, True,  True),
]

#: Manifest fields no execution toggle may change.
PARITY_FIELDS = ("metrics_digest", "faultload_digest", "build_fingerprint",
                 "integrity", "activation")


def row_id(row):
    return "-".join([
        row.variant, row.os, row.server, f"w{row.workers}",
        "snap" if row.snapshots else "boot",
        *(["specs"] if row.specs else []),
        *(["resumed"] if row.resumed else []),
    ])


def run_campaign(row, journal=None, resume=False):
    """The manifest of ``row``'s campaign, run from an empty snapshot
    cache and the built-in operator registry, which it leaves built-in
    for the tests that follow."""
    snapshot_cache().clear()
    reset_dynamic_operators()
    reset_dynamic_fault_types()
    specs = None
    if row.specs:
        specs = (OperatorSpec.from_dict(builtin_spec("MVI")).to_dict(),)
    config = tiny_config(
        iterations=2, os_codename=row.os, server_name=row.server,
        operator_specs=specs, **VARIANTS[row.variant],
    )
    config.slots_per_shard = 2
    campaign = ParallelCampaign(
        config, workers=row.workers, journal_path=journal, resume=resume,
    )
    try:
        campaign.run(include_baseline=False, include_profile_mode=False)
    finally:
        reset_dynamic_operators()
    return campaign.manifest


def cut_journal(path):
    """Keep the header and the first half of the journaled units, as a
    campaign killed halfway through leaves them."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:1 + (len(lines) - 1) // 2]))


def check_toggles_engaged(row, manifest):
    assert manifest.num_shards >= 4
    supervision = manifest.supervision
    assert not supervision["degraded"]
    if row.workers == 1:
        assert supervision["pool_rebuilds"] == 0
    else:
        # Loopback worker 0 was killed on its first assignment, its
        # shard retried, and the pool carried on without falling back.
        assert supervision["pool_rebuilds"] >= 1
        assert supervision["retries"] >= 1
        assert not supervision["serial_fallback"]
    snapshot = manifest.snapshot
    if not row.snapshots:
        assert snapshot["epochs_restored"] == 0
    elif row.variant == "pristine":
        # One boot per shard; every restart after it is a restore.
        assert (snapshot["epochs_booted"]
                == manifest.num_shards * manifest.iterations)
        assert (snapshot["epochs_restored"]
                == snapshot["pristine_restarts"] > 0)
    if row.variant == "no-inject":
        integrity = manifest.integrity
        assert integrity["enabled"]
        assert integrity["contaminated_slots"] == 0
        assert integrity["reboots"] == 0
        assert integrity["violation_kinds"] == {}


def test_rows_cover_every_pair_of_levels():
    assert tuple(LEVELS) == Row._fields
    assert len(ROWS) <= 12
    for (i, a), (j, b) in itertools.combinations(enumerate(LEVELS), 2):
        missing = (
            set(itertools.product(LEVELS[a], LEVELS[b]))
            - {(row[i], row[j]) for row in ROWS}
        )
        assert not missing, f"no row has ({a}, {b}) in {sorted(missing)}"


@pytest.fixture(scope="module")
def base_runs():
    """Base-run manifests by (variant, os, server), made on first use."""
    manifests = {}

    def base_of(row):
        triple = row[:3]
        if triple not in manifests:
            manifests[triple] = run_campaign(Row(*triple, *BASE))
        return manifests[triple]

    return base_of


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_row_matches_its_base_run(row, base_runs, tmp_path, monkeypatch):
    base = base_runs(row)
    if row[3:] == BASE:
        runs = [base]
    else:
        if row.workers == 2:
            monkeypatch.setenv(CHAOS_KILL_ENV, "1")
        if not row.snapshots:
            monkeypatch.setattr(SnapshotCache, "get", lambda self, key: None)
        journal = tmp_path / "journal.jsonl" if row.resumed else None
        runs = [run_campaign(row, journal)]
        if row.resumed:
            cut_journal(journal)
            runs.append(run_campaign(row, journal, resume=True))
    expected = {field: getattr(base, field) for field in PARITY_FIELDS}
    for manifest in runs:
        assert {
            field: getattr(manifest, field) for field in PARITY_FIELDS
        } == expected
        check_toggles_engaged(row, manifest)
