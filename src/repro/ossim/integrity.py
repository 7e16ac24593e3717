"""State-integrity auditing of a simulated machine.

The paper's procedure restarts the target machine after every injection
run so each experiment starts from a known error-free state.  Our slots
run back to back on one :class:`~repro.harness.machine.ServerMachine`,
which is only sound while no fault leaves *residual* OS-state damage
behind after it is removed: a leaked heap block, a dangling handle, an
orphaned open file or a lock held by a dead thread silently contaminates
every later slot's measures.

:class:`IntegrityAuditor` makes that residue observable.  After
boot + warm-up it snapshots a reference view of the kernel state; on
demand — the harness calls it during the injection-free gap between
slots, with the workload paused and no handler mid-flight — it audits
four domains and emits a typed, deterministic :class:`IntegrityReport`:

* **heap** — metadata corruption (bad/double frees), leaked blocks
  (busy blocks above the process's startup footprint) and foreign frees
  (busy blocks below it);
* **handles** — handles resolving to closed objects, reference-count
  underflow, file handles desynchronized from their node's open count;
* **vfs** — fileset damage (missing or content-changed immutable
  files), stray files, and orphaned opens (a node's ``open_count``
  disagreeing with the live handle tables);
* **sync** — corrupted critical sections and sections still held at
  quiesce, split into *leaked* (owner alive) and *dead-owner* (owner
  hung or gone) locks.

Audits read only deterministic kernel data structures and simulated
time — no wall clock, no RNG, no allocation through the audited heap —
so an audited campaign merges to the same metrics digest for any worker
count.  Violation records never embed process ids or raw thread ids
(both vary with host process reuse); thread owners are reduced to their
pid-free suffix.
"""

from dataclasses import dataclass, field

__all__ = [
    "AUDIT_DOMAINS",
    "IntegrityAuditor",
    "IntegrityReport",
    "IntegrityViolation",
]

AUDIT_DOMAINS = ("heap", "handles", "vfs", "sync")

# Path prefixes whose file *content* legitimately changes under the
# workload (access/POST logs).  Existence is still checked.
MUTABLE_PREFIXES = ("/logs", "/postlog")


def _short_thread(thread_id):
    """A pid-free thread label (pids vary with host process reuse)."""
    return str(thread_id).split(":", 1)[-1]


@dataclass(frozen=True)
class IntegrityViolation:
    """One invariant broken in one audit domain."""

    domain: str
    kind: str
    subject: str
    detail: str

    def to_dict(self):
        return {
            "domain": self.domain,
            "kind": self.kind,
            "subject": self.subject,
            "detail": self.detail,
        }


@dataclass
class IntegrityReport:
    """Everything one audit pass found, in deterministic order."""

    sim_time: float
    violations: list = field(default_factory=list)
    # True when the audited process generation changed since the last
    # audit (the server was restarted): process-local reference values
    # were re-based on the fresh process.
    reference_reset: bool = False
    # Process-local domains are skipped when no live process exists.
    process_audited: bool = True

    @property
    def clean(self):
        return not self.violations

    def kinds(self):
        """Sorted unique violation kinds (the contamination signature)."""
        return sorted({violation.kind for violation in self.violations})

    def to_dict(self):
        return {
            "sim_time": self.sim_time,
            "clean": self.clean,
            "reference_reset": self.reference_reset,
            "process_audited": self.process_audited,
            "violations": [v.to_dict() for v in self.violations],
        }

    def __repr__(self):
        state = "clean" if self.clean else f"{len(self.violations)} violations"
        return f"IntegrityReport(t={self.sim_time}, {state})"


class IntegrityAuditor:
    """Snapshots a reference view of kernel state and audits against it.

    ``kernel`` is the :class:`~repro.ossim.context.SimKernel` under audit
    (the machine-wide state; per-process state arrives per audit call).
    File contents under ``MUTABLE_PREFIXES`` change legitimately under
    the workload; their existence is still audited.
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self._fs_reference = None
        self._pid_seen = None
        self._process_reference = None
        self.audits_performed = 0

    # ------------------------------------------------------------------
    # Reference snapshot
    # ------------------------------------------------------------------
    def snapshot(self, ctx=None):
        """Record the reference view (call after boot + warm-up).

        ``ctx`` is the live server process; its startup footprint (heap
        blocks/bytes at the end of a successful startup) becomes the
        leak baseline for its generation.
        """
        self._fs_reference = self._fs_view()
        if ctx is not None and not ctx.terminated:
            self._pid_seen = ctx.pid
            self._process_reference = self._footprint(ctx)

    def _fs_view(self):
        """Deterministic map of path -> (is_dir, size, content_id)."""
        view = {}
        for path, node in self._walk():
            view[path] = (node.is_dir, node.size, node.content_id)
        return view

    def _walk(self):
        """Depth-first walk of the VFS in sorted-name order."""
        stack = [("", self.kernel.vfs.root)]
        while stack:
            path, node = stack.pop()
            yield (path or "/", node)
            if node.is_dir:
                for name in sorted(node.children, reverse=True):
                    stack.append((path + "/" + name, node.children[name]))

    def _mutable(self, path):
        for prefix in MUTABLE_PREFIXES:
            if path == prefix or path.startswith(prefix + "/"):
                return True
        return False

    @staticmethod
    def _footprint(ctx):
        """The process's leak baseline: its footprint at startup."""
        recorded = getattr(ctx, "startup_footprint", None)
        if recorded is not None:
            return dict(recorded)
        return {
            "heap_blocks": ctx.heap.live_blocks(),
            "heap_bytes": ctx.heap.live_bytes,
        }

    # ------------------------------------------------------------------
    # Audit
    # ------------------------------------------------------------------
    def audit(self, ctx=None, live_threads=(), internal=False):
        """Audit the machine (and ``ctx``, the live server process).

        ``live_threads`` is the set of thread ids that can still run
        (the non-hung workers plus the main thread); a critical section
        held by any other owner is a dead-owner lock.  Returns an
        :class:`IntegrityReport`; mutates nothing.

        ``internal`` audits (the snapshot layer's capture-reference and
        restore-verify passes) produce a full report but do not count
        toward ``audits_performed``, which tracks only the slot
        protocol's own quiesce audits — so booted and restored epochs
        report identical audit counts.
        """
        if self._fs_reference is None:
            self.snapshot(ctx)
        if not internal:
            self.audits_performed += 1
        report = IntegrityReport(sim_time=self.kernel.time_source())
        process_alive = ctx is not None and not ctx.terminated
        report.process_audited = process_alive
        if process_alive:
            if self._pid_seen is None or ctx.pid != self._pid_seen:
                # New process generation (server restarted): re-base the
                # process-local reference on the fresh process.
                report.reference_reset = self._pid_seen is not None
                self._pid_seen = ctx.pid
                self._process_reference = self._footprint(ctx)
            self._audit_heap(ctx, report)
            self._audit_handles(ctx, report)
        self._audit_vfs(ctx if process_alive else None, report)
        if process_alive:
            self._audit_sync(ctx, set(live_threads), report)
        return report

    # -- heap ----------------------------------------------------------
    def _audit_heap(self, ctx, report):
        heap = ctx.heap
        if heap.corruption_score > 0:
            reason = getattr(heap, "_last_corruption_reason", "unknown")
            report.violations.append(IntegrityViolation(
                domain="heap", kind="heap-corruption", subject="heap",
                detail=(f"metadata corruption score "
                        f"{heap.corruption_score} (last: {reason})"),
            ))
        reference = self._process_reference or self._footprint(ctx)
        busy = heap.live_blocks()
        expected = reference.get("heap_blocks", busy)
        if busy > expected:
            report.violations.append(IntegrityViolation(
                domain="heap", kind="heap-leak", subject="heap",
                detail=(f"{busy - expected} leaked block(s): "
                        f"{busy} busy at quiesce vs {expected} at startup "
                        f"({heap.live_bytes} live bytes vs "
                        f"{reference.get('heap_bytes', heap.live_bytes)})"),
            ))
        elif busy < expected:
            report.violations.append(IntegrityViolation(
                domain="heap", kind="heap-foreign-free", subject="heap",
                detail=(f"{expected - busy} startup block(s) missing: "
                        f"{busy} busy at quiesce vs {expected} at startup"),
            ))

    # -- handles -------------------------------------------------------
    def _audit_handles(self, ctx, report):
        for handle in ctx.handles.handles():
            obj = ctx.handles.resolve(handle)
            if obj is None:
                continue
            subject = f"{obj.object_type}:{obj.name}"
            if obj.closed:
                report.violations.append(IntegrityViolation(
                    domain="handles", kind="dangling-handle",
                    subject=subject,
                    detail=f"live handle to already-closed {subject}",
                ))
                continue
            if obj.ref_count <= 0:
                report.violations.append(IntegrityViolation(
                    domain="handles", kind="refcount-underflow",
                    subject=subject,
                    detail=f"{subject} alive with ref_count="
                           f"{obj.ref_count}",
                ))
            node = getattr(obj, "node", None)
            if node is not None and node.open_count <= 0:
                report.violations.append(IntegrityViolation(
                    domain="handles", kind="handle-node-desync",
                    subject=subject,
                    detail=(f"open file handle but node open_count="
                            f"{node.open_count}"),
                ))

    # -- vfs -----------------------------------------------------------
    def _expected_opens(self, ctx):
        """node -> live FileObject count from the live handle table."""
        expected = {}
        if ctx is None:
            return expected
        for handle in ctx.handles.handles():
            obj = ctx.handles.resolve(handle)
            node = getattr(obj, "node", None)
            if node is None or obj.closed:
                continue
            expected[id(node)] = expected.get(id(node), 0) + 1
        return expected

    def _audit_vfs(self, ctx, report):
        current = {}
        expected_opens = self._expected_opens(ctx)
        for path, node in self._walk():
            current[path] = (node.is_dir, node.size, node.content_id)
            if node.open_count < 0:
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="vfs-open-negative", subject=path,
                    detail=f"open_count={node.open_count}",
                ))
            elif node.open_count != expected_opens.get(id(node), 0):
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="vfs-orphan", subject=path,
                    detail=(f"open_count={node.open_count} but "
                            f"{expected_opens.get(id(node), 0)} live "
                            f"handle(s) reference it"),
                ))
        reference = self._fs_reference or {}
        for path in sorted(reference):
            ref_dir, ref_size, ref_content = reference[path]
            if path not in current:
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="fileset-missing", subject=path,
                    detail="file present in the reference snapshot "
                           "is gone",
                ))
                continue
            cur_dir, cur_size, cur_content = current[path]
            if cur_dir != ref_dir:
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="fileset-damage", subject=path,
                    detail="node changed type since the reference "
                           "snapshot",
                ))
            elif (not ref_dir and not self._mutable(path)
                    and (cur_size, cur_content) != (ref_size, ref_content)):
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="fileset-changed", subject=path,
                    detail=(f"immutable file changed: size "
                            f"{ref_size} -> {cur_size}"),
                ))
        for path in sorted(current):
            is_dir, _size, _content = current[path]
            if (path not in reference and not is_dir
                    and not self._mutable(path)):
                report.violations.append(IntegrityViolation(
                    domain="vfs", kind="vfs-stray", subject=path,
                    detail="file absent from the reference snapshot",
                ))

    # -- sync ----------------------------------------------------------
    def _audit_sync(self, ctx, live_threads, report):
        for section in sorted(ctx.sync.sections(), key=lambda s: s.name):
            if section.corrupted:
                report.violations.append(IntegrityViolation(
                    domain="sync", kind="lock-corrupted",
                    subject=section.name,
                    detail=f"critical section {section.name!r} corrupted",
                ))
            if not section.held():
                continue
            owner = _short_thread(section.owner)
            if section.owner in live_threads:
                kind = "leaked-lock"
                detail = (f"held at quiesce by live thread {owner!r} "
                          f"(recursion={section.recursion})")
            else:
                kind = "dead-owner-lock"
                detail = (f"held by dead/hung thread {owner!r} "
                          f"(recursion={section.recursion})")
            report.violations.append(IntegrityViolation(
                domain="sync", kind=kind, subject=section.name,
                detail=detail,
            ))

    def __repr__(self):
        return (
            f"IntegrityAuditor(audits={self.audits_performed}, "
            f"pid={self._pid_seen})"
        )
