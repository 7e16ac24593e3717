"""Campaign telemetry: a JSONL event stream and the run manifest.

Dependability benchmarking (the paper's Section 2 properties, and the
fault-injection services in PAPERS.md) demands that a campaign be
*auditable*: a result you cannot trace back to what actually ran — which
slots, on how many workers, with how many retries — is scrollback, not
evidence.  This module produces two artifacts, both written next to the
campaign journal:

* **Telemetry** (:class:`TelemetryWriter`) — an append-only JSONL event
  stream.  Every supervision decision (dispatch, completion, retry,
  quarantine, pool rebuild, serial fallback) and every campaign phase
  lands here with a wall-clock timestamp and a monotone sequence
  number.  It is the flight recorder: diagnostic, *not* part of the
  campaign's identity.
* **Run manifest** (:class:`RunManifest`) — one JSON document that
  identifies the run: campaign key, seed, build fingerprint, faultload
  digest, worker count, per-phase wall timings, everything supervision
  had to do, and a **metrics digest** — a SHA-256 over the merged,
  deterministic results.  The digest is the contract the parity
  harness (``tests/harness/test_parity.py``) checks: every way of
  executing a campaign — any worker count, snapshot setting or
  resume — must produce a byte-identical digest, so each check is a
  comparison of manifest fields.

The split matters: timings and timestamps vary run to run, so they live
*outside* :func:`metrics_digest`, which covers only fields that are pure
functions of ``(config, seed, faultload)``.
"""

import dataclasses
import hashlib
import json
import time
from pathlib import Path

from repro.harness.jsonl import drop_torn_tail, read_jsonl

__all__ = [
    "MANIFEST_VERSION",
    "NullTelemetry",
    "RunManifest",
    "TelemetryWriter",
    "faultload_digest",
    "metrics_digest",
    "read_telemetry",
]

# v8: the ``fabric`` block drops its loopback-worker count, its
# fragment version-skew counter and each roster entry's host: every
# worker is forked by the campaign on its own host.
# v7: the ``snapshot`` block drops ``enabled`` — epoch snapshots are
# always on.
# v6: sequential-sampling summary (``sequential`` block: stopping
# schedule, per-stratum stopping points, interval trajectories,
# slots_skipped) — diagnostic only, never part of the metrics digest.
# v5: executor-backend summary (``fabric`` block: backend kind, worker
# roster, steal/requeue/heartbeat/death counters) — diagnostic only,
# never part of the metrics digest.
# v4: snapshot summary (epoch-setup accounting: booted vs restored
# epochs, pristine restarts).
MANIFEST_VERSION = 8
TELEMETRY_VERSION = 1


# ----------------------------------------------------------------------
# Event stream
# ----------------------------------------------------------------------
class NullTelemetry:
    """No-op sink used when no telemetry path is configured."""

    path = None

    def emit(self, event, **fields):
        pass

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        pass


class TelemetryWriter:
    """Append-only JSONL event stream with a monotone sequence number.

    Events are flushed line by line, so a crash loses at most the event
    being written — the stream stays parseable (readers drop a torn
    final line, and reopening the stream cuts it off, exactly like the
    campaign journal).  A reopened stream numbers on from its last
    complete event.
    """

    def __init__(self, path, clock=time.time):
        self.path = Path(path)
        self.clock = clock
        self.path.parent.mkdir(parents=True, exist_ok=True)
        drop_torn_tail(self.path)
        events = read_jsonl(self.path)
        self._sequence = events[-1][1]["seq"] + 1 if events else 0
        self._handle = open(self.path, "a", encoding="utf-8")
        self.emit("telemetry_open", version=TELEMETRY_VERSION)

    def emit(self, event, **fields):
        entry = {
            "seq": self._sequence,
            "t": round(self.clock(), 6),
            "event": event,
        }
        entry.update(fields)
        self._sequence += 1
        # One buffered write per event, newline included, flushed before
        # returning: a crash can tear at most the final line, and two
        # writers never interleave a record with its newline.
        self._handle.write(
            json.dumps(entry, sort_keys=True, default=str) + "\n"
        )
        self._handle.flush()

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def read_telemetry(path):
    """Parse a telemetry JSONL file, dropping a torn final line."""
    return [entry for _lineno, entry in read_jsonl(path)]


# ----------------------------------------------------------------------
# Digests
# ----------------------------------------------------------------------
def _metrics_dict(metrics):
    if metrics is None:
        return None
    return dataclasses.asdict(metrics)


# The iteration fields the digest hashes (besides ``metrics``).  The
# epoch-setup counts stay out: restored and booted epochs must hash
# identically.  Activation records are deterministic by construction:
# hit counts are workload facts, first hits are sim-time from slot start.
DIGEST_FIELDS = (
    "iteration", "mis", "kns", "kcp", "faults_injected", "runtime_stats",
    "incidents", "contaminated_slots", "reboots", "integrity_enabled",
    "activations", "faults_activated", "slots_truncated",
    "truncated_seconds", "activation_enabled",
)


def metrics_digest(result):
    """SHA-256 over the deterministic content of a campaign result.

    Covers exactly the fields that are pure functions of
    ``(config, seed, faultload)`` — metrics plus :data:`DIGEST_FIELDS`
    — and nothing that varies run to run (wall timings, retry counts,
    host facts).  ``workers=N`` and ``workers=1`` therefore hash
    identically, which the parity harness
    (``tests/harness/test_parity.py``) enforces byte-for-byte.
    """
    payload = {
        "baseline": _metrics_dict(result.baseline),
        "profile_mode": _metrics_dict(result.profile_mode),
        "iterations": [
            {
                "metrics": _metrics_dict(iteration.metrics),
                **{name: getattr(iteration, name) for name in DIGEST_FIELDS},
            }
            for iteration in result.iterations
        ],
    }
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def faultload_digest(faultload):
    """SHA-256 over the exact slot sequence (order-sensitive)."""
    blob = "\n".join(location.fault_id for location in faultload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Run manifest
# ----------------------------------------------------------------------
@dataclasses.dataclass
class RunManifest:
    """One campaign run, identified end to end.

    Field-by-field schema (also documented in DESIGN.md):

    * ``manifest_version`` — schema version of this document.
    * ``campaign_key`` — SHA-256 of (config, slot sequence); the same
      key the journal header carries.
    * ``server`` / ``os_codename`` / ``os_display`` — the (BT, FIT)
      pair under benchmark.
    * ``seed`` — the campaign's base seed.
    * ``build_fingerprint`` — SHA-256 of the scanned OS build's library
      sources (the scan-cache fingerprint).
    * ``faultload_digest`` — SHA-256 of the exact fault-id sequence.
    * ``slots`` — total injection slots in the prepared faultload.
    * ``workers`` / ``slots_per_shard`` / ``num_shards`` — execution
      shape (diagnostic; never part of the metrics digest).
    * ``iterations`` — planned injection iterations.
    * ``journal_version`` — checkpoint schema the journal used.
    * ``phase_timings`` — wall seconds per phase (prepare, warm-up,
      baseline, profile mode, each iteration).
    * ``supervision`` — retries, pool rebuilds, serial fallback, and
      the quarantined shards (with their fault ids), plus ``degraded``.
    * ``integrity`` — the integrity-protocol summary: whether auditing
      ran, the per-shard reboot budget, campaign totals for
      contaminated slots / verified reboots / contamination left in
      place after budget exhaustion, and a violation-kind histogram.
    * ``activation`` — the activation summary: whether tracking ran,
      whether adaptive slots were on, faults injected/activated, the
      overall activation rate, slots truncated with the simulated
      seconds saved, and the deadline-table size.
    * ``snapshot`` — the epoch-setup summary: whether pristine-slot
      mode was on, campaign totals for booted vs restored epochs and
      pristine restarts, and the restore rate.  Epoch snapshots are
      always on, so the block has no on/off flag.  Diagnostic only —
      restored and booted epochs are digest-identical by construction,
      which the parity harness enforces.
    * ``fabric`` — the executor summary: what ran the shards
      (``serial`` in-process, or ``fabric``) and, for the fabric, the
      worker roster (name/pid/shards done/alive) with
      steal/requeue/heartbeat/worker-death/result counters.
      Diagnostic only — the shard plan, seeds, and merge ignore where
      a shard ran, so the digest is identical for any worker count,
      which the parity harness enforces.
    * ``sequential`` — the sequential-sampling summary: whether the
      mode ran, the full stopping schedule (target, confidence, batch /
      min / max slots), planned vs executed slots with
      ``slots_skipped``, per-stratum stopping points and stop reasons,
      and each stratum's confidence-interval trajectory.  Diagnostic
      only — the stopping decisions are *reflected in* the executed
      slot set (which the digest covers); the block itself is never
      hashed, so interval bookkeeping can evolve without breaking
      digest parity.  The parity harness compares the whole block
      across worker counts and resumes.
    * ``metrics_digest`` — :func:`metrics_digest` of the final result;
      the parity harness's main comparand.
    * ``created_at`` — unix time the manifest was written.
    """

    campaign_key: str
    server: str
    os_codename: str
    os_display: str
    seed: int
    build_fingerprint: str
    faultload_digest: str
    slots: int
    workers: int
    slots_per_shard: int
    num_shards: int
    iterations: int
    journal_version: int
    phase_timings: dict = dataclasses.field(default_factory=dict)
    supervision: dict = dataclasses.field(default_factory=dict)
    integrity: dict = dataclasses.field(default_factory=dict)
    activation: dict = dataclasses.field(default_factory=dict)
    snapshot: dict = dataclasses.field(default_factory=dict)
    fabric: dict = dataclasses.field(default_factory=dict)
    sequential: dict = dataclasses.field(default_factory=dict)
    metrics_digest: str = ""
    created_at: float = 0.0
    manifest_version: int = MANIFEST_VERSION

    def to_dict(self):
        return dataclasses.asdict(self)

    def write(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(**data)
