"""Heap engine.

This is the non-mutable mechanism behind ``RtlAllocateHeap``/``RtlFreeHeap``.
It keeps real bookkeeping — block headers, a free list, commit quota — so
that mutated API code produces the same *classes* of failure a native heap
shows:

* losing a free (leak) eventually exhausts the commit quota and allocations
  start failing with ``NO_MEMORY``;
* freeing a wrong or stale address corrupts heap metadata, after which the
  heap degrades deterministically — some later operations raise a simulated
  access violation, exactly like a corrupted native heap blowing up a few
  mallocs later rather than at the faulty call.
"""

from repro.sim.errors import SimSegfault

__all__ = ["HeapBlock", "SimHeap"]

_ALIGNMENT = 16


class HeapBlock:
    """Header for one allocated or free block."""

    __slots__ = ("address", "size", "free", "tag", "zeroed")

    def __init__(self, address, size, tag=0):
        self.address = address
        self.size = size
        self.free = False
        self.tag = tag
        self.zeroed = False

    def __repr__(self):
        state = "free" if self.free else "busy"
        return f"HeapBlock(addr=0x{self.address:x}, size={self.size}, {state})"


class SimHeap:
    """A growable heap with deterministic corruption semantics.

    Parameters
    ----------
    commit_limit:
        Maximum total bytes of live (non-free) allocations.  Exceeding it
        makes :meth:`allocate` return address 0 (the ``NO_MEMORY`` path).
    corruption_blast_radius:
        Once metadata is corrupted, every N-th subsequent heap operation
        raises :class:`SimSegfault`.  Deterministic by design so repeated
        benchmark iterations see the same behaviour.
    """

    def __init__(self, commit_limit=64 * 1024 * 1024,
                 corruption_blast_radius=5):
        self.commit_limit = commit_limit
        self.corruption_blast_radius = corruption_blast_radius
        self._blocks = {}
        self._free_by_size = {}
        self._next_address = 0x0010_0000
        self.live_bytes = 0
        self.peak_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        self.failed_allocs = 0
        self.corruption_score = 0
        self._ops_since_corruption = 0

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _tick_corruption(self, operation):
        """Advance the post-corruption countdown; maybe blow up.

        Callers check ``corruption_score > 0`` first, so a clean heap
        pays one comparison per operation and no call.
        """
        self._ops_since_corruption += 1
        if self._ops_since_corruption % self.corruption_blast_radius == 0:
            raise SimSegfault(
                f"heap metadata corrupted (score={self.corruption_score}); "
                f"{operation} touched a poisoned block"
            )

    def mark_corrupted(self, reason):
        """Record a metadata corruption event (bad free, header overwrite)."""
        self.corruption_score += 1
        self._last_corruption_reason = reason

    # ------------------------------------------------------------------
    # Allocation API (called by the mutable Rtl* functions)
    # ------------------------------------------------------------------
    def allocate(self, size, tag=0):
        """Allocate ``size`` bytes; return the block address, or 0 on failure."""
        if size < 0:
            self.mark_corrupted("negative allocation size")
            self._tick_corruption("allocate")
            return 0
        if self.corruption_score > 0:
            self._tick_corruption("allocate")
        rounded = (size + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        if not rounded > _ALIGNMENT:
            # What max(_ALIGNMENT, rounded) picks, ties and NaN included.
            rounded = _ALIGNMENT
        if self.live_bytes + rounded > self.commit_limit:
            self.failed_allocs += 1
            return 0
        bucket = self._free_by_size.get(rounded)
        if bucket:
            address = bucket.pop(0)
            block = self._blocks[address]
            block.free = False
            block.tag = tag
            block.zeroed = False
        else:
            address = self._next_address
            self._next_address += rounded + _ALIGNMENT
            block = HeapBlock(address, rounded, tag=tag)
            self._blocks[address] = block
        self.live_bytes += rounded
        if self.live_bytes > self.peak_bytes:
            self.peak_bytes = self.live_bytes
        self.alloc_count += 1
        return address

    def free(self, address):
        """Free the block at ``address``.  Returns True on success.

        Freeing an unknown or already-free address corrupts metadata and
        returns False — the caller (mutable API code) typically translates
        that into a success status anyway, which is precisely how a silent
        heap-corruption fault propagates.
        """
        if self.corruption_score > 0:
            self._tick_corruption("free")
        block = self._blocks.get(address)
        if block is None:
            self.mark_corrupted(f"free of unknown address 0x{address:x}")
            return False
        if block.free:
            self.mark_corrupted(f"double free of 0x{address:x}")
            return False
        block.free = True
        self.live_bytes -= block.size
        self.free_count += 1
        self._free_by_size.setdefault(block.size, []).append(address)
        return True

    def block_size(self, address):
        """Size of the live block at ``address``, or -1 when invalid."""
        block = self._blocks.get(address)
        if block is None or block.free:
            return -1
        return block.size

    def set_zeroed(self, address):
        """Mark a block as zero-initialized (set by HEAP_ZERO_MEMORY path)."""
        block = self._blocks.get(address)
        if block is not None and not block.free:
            block.zeroed = True

    def is_zeroed(self, address):
        block = self._blocks.get(address)
        return bool(block is not None and block.zeroed)

    def validate(self):
        """Heap self-check: returns True when no corruption was recorded."""
        return self.corruption_score == 0

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def live_blocks(self):
        return sum(1 for block in self._blocks.values() if not block.free)

    def stats(self):
        return {
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
            "failed_allocs": self.failed_allocs,
            "live_bytes": self.live_bytes,
            "peak_bytes": self.peak_bytes,
            "live_blocks": self.live_blocks(),
            "corruption_score": self.corruption_score,
        }

    def __repr__(self):
        return (
            f"SimHeap(live={self.live_bytes}B, blocks={self.live_blocks()}, "
            f"corruption={self.corruption_score})"
        )
