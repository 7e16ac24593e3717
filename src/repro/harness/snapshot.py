"""Copy-on-write machine snapshots (DESIGN.md §12).

The paper's Fig. 4 protocol restarts the SUB between injection slots so
every fault meets a pristine OS.  Booting and warming a simulated
machine is deterministic for a given ``(config, iteration)`` — so it
only ever needs to happen once.  This module captures the complete
simulated state of a warmed-up :class:`~repro.harness.machine.ServerMachine`
(simulator clock / event queue / RNG streams, kernel VFS / heap /
handles / sync, dispatch tables, server runtime threads and CPU
accounting, client collector and connection state) as one immutable
pickle image, and manufactures as many private copies as the harness
asks for.

Copy-on-write here is logical, not page-table: the image bytes are
shared and never mutated; each :meth:`MachineSnapshot.restore` is a
fresh materialization whose objects are private to the epoch that
requested it.  ``pickle`` rather than ``copy.deepcopy`` because the
C-speed round-trip restores in a fraction of the time the pure-Python
memo walk needs — the restore path is the hot path.

Two objects are deliberately *not* captured:

* the :class:`~repro.harness.config.ExperimentConfig` — immutable for
  the lifetime of a run and part of the snapshot key itself;
* the :class:`~repro.ossim.builds.OsBuild` — module-level code shared
  by every machine in the process.  The G-SWFIT injector mutates it
  globally (``__code__`` swaps), so a restored machine must dispatch
  against the *live* build, not a frozen copy of it.

Both are pickled by reference, never by value: the pickler's
``dispatch_table`` reduces each of them (keyed by its type, so the C
pickler looks it up without a Python call per object) to
``_shared(index)``, and the restoring unpickler's ``find_class`` resolves
``_shared`` to that snapshot's own tuple of live objects.

Restore-verify protocol: alongside the image, the capturer stores the
:class:`~repro.ossim.integrity.IntegrityAuditor`'s capture-time audit
report.  A restored machine is re-audited before use and must reproduce
that report byte-for-byte; a mismatch discards the snapshot and the
caller falls back to a full boot + warm-up.
"""

import copyreg
import hashlib
import io
import json
import pickle
from dataclasses import asdict

__all__ = [
    "MachineSnapshot",
    "SnapshotCache",
    "snapshot_cache",
    "snapshot_key",
]


def snapshot_key(config, iteration):
    """Identity of one captured epoch: the full config plus iteration.

    Every field that shapes boot + warm-up is in the config, and the
    machine seed is ``config.iteration_seed(iteration)`` — so this key
    names the deterministic post-warm-up state exactly.  It is the same
    ``asdict`` serialization :func:`~repro.harness.campaign.campaign_key`
    hashes, which is how the snapshot identity folds into the campaign
    identity.
    """
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    blob = f"{payload}\n{iteration}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _shared(index):
    """Placeholder for an object a snapshot holds by reference.

    Images name this function where the config or build belongs;
    :class:`_SharedUnpickler` resolves the name to the restoring
    snapshot's object, so it is never called.
    """
    raise pickle.UnpicklingError(
        f"shared object #{index} outside a snapshot restore"
    )


def _shared_dispatch_table(shared):
    """A pickler ``dispatch_table`` that reduces each object of
    ``shared`` to ``_shared(index)``.  Another instance of the same
    type is pickled by value, as it would be without the entry."""
    table = copyreg.dispatch_table.copy()
    for index, obj in enumerate(shared):
        def reduce(candidate, index=index, obj=obj):
            if candidate is obj:
                return _shared, (index,)
            return candidate.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        table[type(obj)] = reduce
    return table


class _SharedUnpickler(pickle.Unpickler):
    """Unpickler that resolves ``_shared`` to a snapshot's objects."""

    def __init__(self, image, shared):
        super().__init__(io.BytesIO(image))
        self._shared = shared

    def find_class(self, module, name):
        if module == __name__ and name == _shared.__name__:
            return self._shared.__getitem__
        return super().find_class(module, name)


class MachineSnapshot:
    """One warmed-up machine epoch, frozen as immutable bytes.

    ``reference`` is the capture-time integrity audit as a plain dict
    (None when auditing is off): the comparand of the restore-verify
    protocol.
    """

    def __init__(self, key, image, shared, reference=None):
        self.key = key
        self._image = image
        self._shared = shared
        self.reference = reference
        self.restores = 0

    @classmethod
    def capture(cls, key, machine, auditor=None):
        """Freeze ``machine`` (and its auditor) into a snapshot.

        Capturing only reads state — the live machine keeps running
        and stays the canonical first epoch.
        """
        shared = (machine.config, machine.build)
        buffer = io.BytesIO()
        pickler = pickle.Pickler(
            buffer, protocol=pickle.HIGHEST_PROTOCOL
        )
        pickler.dispatch_table = _shared_dispatch_table(shared)
        pickler.dump({"machine": machine, "auditor": auditor})
        return cls(key, buffer.getvalue(), shared)

    def restore(self):
        """Materialize a private ``(machine, auditor)`` copy.

        Every call returns fresh objects: nothing a restored epoch does
        can reach the image or any other epoch's copy.  The config and
        build come back by reference (see module docstring).
        """
        state = _SharedUnpickler(self._image, self._shared).load()
        self.restores += 1
        return state["machine"], state["auditor"]

    @property
    def image_bytes(self):
        """Size of the frozen image in bytes (diagnostic)."""
        return len(self._image)

    def __repr__(self):
        return (
            f"MachineSnapshot(key={self.key[:12]}..., "
            f"bytes={self.image_bytes}, restores={self.restores})"
        )


class SnapshotCache:
    """The process's last captured epoch, looked up by snapshot key.

    One instance per process (module singleton below): shard workers
    that rerun the same ``(config, iteration)`` — contamination
    reboots, pristine-slot restarts, supervisor retries landing on the
    same worker — restore instead of booting again.  It holds one
    snapshot (a few hundred KB): a key hashes the shard's own config,
    seed included, and a worker runs one shard at a time, so an older
    shard's image is never restored again.
    """

    def __init__(self):
        self._snapshot = None
        self.hits = 0
        self.misses = 0

    def get(self, key):
        snapshot = self._snapshot
        if snapshot is None or snapshot.key != key:
            self.misses += 1
            return None
        self.hits += 1
        return snapshot

    def put(self, snapshot):
        self._snapshot = snapshot

    def discard(self, key):
        if self._snapshot is not None and self._snapshot.key == key:
            self._snapshot = None

    def clear(self):
        self._snapshot = None
        self.hits = 0
        self.misses = 0

    def __len__(self):
        return 0 if self._snapshot is None else 1

    def __repr__(self):
        return (
            f"SnapshotCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses})"
        )


_CACHE = SnapshotCache()


def snapshot_cache():
    """The process-wide snapshot cache."""
    return _CACHE
