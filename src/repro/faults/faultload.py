"""Faultload container.

A faultload is the ordered set of fault locations one benchmark run injects
— the artifact the whole methodology exists to produce.  It is specific to
one OS build and one application domain (the function set selected by the
profiling phase), exactly as in the paper: "the resulting faultload is
specific for a given OS and an intended domain".
"""

import json

from repro.faults.location import FaultLocation
from repro.faults.types import iter_fault_types, lookup_fault_type
from repro.sim.rng import SeededRng

__all__ = ["Faultload"]


class Faultload:
    """An ordered collection of :class:`FaultLocation`.

    Parameters
    ----------
    os_codename:
        The OS build this faultload was generated for (``nt50``/``nt51``).
    locations:
        The fault locations, in scan order (deterministic).
    name:
        Optional label used in reports.
    prepared:
        Set (by the harness) once the config's sampling/interleaving has
        been applied, so preparation is idempotent: a faultload prepared
        by a campaign is not re-sampled when handed to a single run.
    """

    def __init__(self, os_codename, locations=(), name="", prepared=False):
        self.os_codename = os_codename
        self.locations = list(locations)
        self.name = name or f"faultload-{os_codename}"
        self.prepared = prepared

    def __len__(self):
        return len(self.locations)

    def __iter__(self):
        return iter(self.locations)

    def __getitem__(self, index):
        return self.locations[index]

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def counts_by_type(self):
        """Faults per fault type, in Table 1/3 order (paper Table 3 row)."""
        counts = {fault_type: 0 for fault_type in iter_fault_types()}
        for location in self.locations:
            # .get covers a location whose dynamic fault type was
            # registered after this faultload's types were enumerated.
            counts[location.fault_type] = counts.get(
                location.fault_type, 0
            ) + 1
        return counts

    def counts_by_function(self):
        """Faults per (display_module, function)."""
        counts = {}
        for location in self.locations:
            key = (location.display_module, location.function)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def functions(self):
        """Sorted set of FIT functions covered by this faultload."""
        return sorted({loc.function for loc in self.locations})

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def restrict_to_functions(self, function_names):
        """New faultload keeping only faults inside ``function_names``.

        This is the fine-tuning step: after profiling selects the API
        functions every benchmark target exercises, the faultload is
        restricted to locations inside them.
        """
        allowed = set(function_names)
        kept = [loc for loc in self.locations if loc.function in allowed]
        return Faultload(self.os_codename, kept,
                         name=f"{self.name}-tuned")

    def restrict_to_types(self, fault_types):
        """New faultload keeping only the given fault types."""
        allowed = {lookup_fault_type(ft) for ft in fault_types}
        kept = [loc for loc in self.locations if loc.fault_type in allowed]
        return Faultload(self.os_codename, kept,
                         name=f"{self.name}-typed")

    def sample(self, count, seed=0):
        """Deterministic stratified subsample of ``count`` locations.

        Sampling is stratified per fault type so a scaled-down experiment
        keeps the type mix of the full faultload.  Order of the result
        follows the original scan order.
        """
        if count >= len(self.locations):
            kept = list(self.locations)
            return Faultload(self.os_codename, kept,
                             name=f"{self.name}-sampled{len(kept)}")
        rng = SeededRng(seed, label="faultload-sample")
        by_type = {}
        for location in self.locations:
            by_type.setdefault(location.fault_type, []).append(location)
        fraction = count / len(self.locations)
        picks_by_type = {}
        for fault_type in iter_fault_types():
            bucket = by_type.get(fault_type, [])
            take = max(1, round(len(bucket) * fraction)) if bucket else 0
            take = min(take, len(bucket))
            if take:
                picked = {loc.fault_id for loc in rng.sample(bucket, take)}
                picks_by_type[fault_type] = [
                    loc.fault_id for loc in bucket
                    if loc.fault_id in picked
                ]
        # Stratified rounding may overshoot slightly.  Trim round-robin
        # across fault types, always from a type currently holding the
        # most picks: trimming the tail of scan order instead would drop
        # whole types scanned last and break the stratification.
        total = sum(len(ids) for ids in picks_by_type.values())
        while total > count:
            largest = max(len(ids) for ids in picks_by_type.values())
            for fault_type in iter_fault_types():
                ids = picks_by_type.get(fault_type)
                if ids and len(ids) == largest:
                    ids.pop()
                    if not ids:
                        del picks_by_type[fault_type]
                    total -= 1
                    break
        chosen = {fid for ids in picks_by_type.values() for fid in ids}
        kept = [loc for loc in self.locations if loc.fault_id in chosen]
        return Faultload(self.os_codename, kept,
                         name=f"{self.name}-sampled{len(kept)}")

    def interleave_types(self):
        """New faultload reordered to alternate fault types round-robin.

        Useful for scaled runs: consecutive slots exercise different fault
        types, so truncating the run keeps type diversity.
        """
        by_type = {}
        for location in self.locations:
            by_type.setdefault(location.fault_type, []).append(location)
        queues = [list(by_type[ft]) for ft in iter_fault_types()
                  if ft in by_type]
        merged = []
        while queues:
            next_round = []
            for queue in queues:
                merged.append(queue.pop(0))
                if queue:
                    next_round.append(queue)
            queues = next_round
        return Faultload(self.os_codename, merged,
                         name=f"{self.name}-interleaved")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self):
        """Plain-dict form (JSON-ready)."""
        return {
            "name": self.name,
            "os_codename": self.os_codename,
            "prepared": self.prepared,
            "locations": [loc.to_dict() for loc in self.locations],
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            os_codename=data["os_codename"],
            locations=[FaultLocation.from_dict(item)
                       for item in data["locations"]],
            name=data.get("name", ""),
            prepared=data.get("prepared", False),
        )

    def to_json(self, indent=None):
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    def save(self, path):
        """Write the faultload as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=2))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def __repr__(self):
        return (
            f"Faultload(name={self.name!r}, os={self.os_codename!r}, "
            f"faults={len(self.locations)})"
        )
