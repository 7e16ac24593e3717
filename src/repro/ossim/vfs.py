"""Virtual file system.

The kernel-side store behind ``NtCreateFile``/``NtReadFile``/... .  Files do
not hold real byte arrays — at SPECWeb99 scale that would dominate runtime —
but a size plus a content *fingerprint*.  Reads return :class:`SimBuffer`
views whose fingerprint is a pure function of (file content, offset,
length); the benchmark client recomputes the expected fingerprint, so a
mutated OS function that reads from the wrong offset, truncates the
transfer, or returns a stale buffer produces a detectable content error at
the client exactly like a corrupted response body would.
"""

import functools
import hashlib

__all__ = ["SimBuffer", "FileNode", "VirtualFileSystem"]


def _digest(*parts):
    # Each part's UTF-8 text followed by a NUL, hashed in one call.
    data = ("\x00".join(map(str, parts)) + "\x00").encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


# Buffer fingerprints repeat: reads cover the same few dozen (content,
# offset, length) windows over and over, and the client re-derives the
# fingerprint of every static GET it checks.  ``typed`` keeps 10 and
# 10.0 apart, which ``_digest`` hashes as different text.
_buffer_digest = functools.lru_cache(maxsize=4096, typed=True)(_digest)


class SimBuffer:
    """A window of file content in flight: a length and a fingerprint."""

    __slots__ = ("length", "fingerprint")

    def __init__(self, length, fingerprint):
        self.length = length
        self.fingerprint = fingerprint

    @staticmethod
    def for_content(content_id, offset, length):
        """Fingerprint of ``length`` bytes at ``offset`` of ``content_id``."""
        return SimBuffer(length, _buffer_digest(content_id, offset, length))

    def matches(self, content_id, offset, length):
        """True when this buffer is exactly that slice of that content."""
        return (
            self.length == length
            and self.fingerprint == _buffer_digest(content_id, offset, length)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SimBuffer)
            and self.length == other.length
            and self.fingerprint == other.fingerprint
        )

    def __hash__(self):
        return hash((self.length, self.fingerprint))

    def __repr__(self):
        return f"SimBuffer(len={self.length}, fp=0x{self.fingerprint:x})"


class FileNode:
    """One file or directory in the tree."""

    __slots__ = (
        "name",
        "parent",
        "_path",
        "is_dir",
        "children",
        "size",
        "content_id",
        "read_only",
        "open_count",
        "version",
        "records",
    )

    def __init__(self, name, parent=None, is_dir=False, size=0,
                 content_id=None):
        self.name = name
        self.parent = parent
        # The VFS has no rename, so a node's path is fixed at creation.
        if parent is None:
            self._path = "/"
        elif parent.parent is None:
            self._path = "/" + name
        else:
            self._path = parent._path + "/" + name
        self.is_dir = is_dir
        self.children = {} if is_dir else None
        self.size = size
        # Durable record payloads by offset (the scatter/gather channel
        # database-style applications use — see VirtualFileSystem.write).
        self.records = {}
        self.content_id = content_id if content_id is not None else _digest(
            "content", name, size
        )
        self.read_only = False
        self.open_count = 0
        self.version = 0

    def path(self):
        return self._path

    def touch(self):
        """Record a content change: new version, new content identity."""
        self.version += 1
        self.content_id = _digest("content", self.path(), self.version)

    def __repr__(self):
        kind = "dir" if self.is_dir else f"file size={self.size}"
        return f"<FileNode {self.path()} {kind}>"


class VirtualFileSystem:
    """A tree of :class:`FileNode` with POSIX-ish path resolution."""

    def __init__(self, capacity_bytes=8 * 1024 * 1024 * 1024):
        self.root = FileNode("", is_dir=True)
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.reads = 0
        self.writes = 0
        # Hardware-fault hook (see repro.extensions): when non-zero,
        # every Nth read returns a corrupted buffer — a disk surface
        # error surfacing as bad sector content.
        self.read_fault_period = 0

    # ------------------------------------------------------------------
    # Path handling
    # ------------------------------------------------------------------
    @staticmethod
    def split(path):
        """Split a normalized path into components; '' and '/' are root."""
        return [part for part in path.split("/") if part]

    def lookup(self, path):
        """Resolve ``path`` to a node or None."""
        node = self.root
        for part in self.split(path):
            if not node.is_dir:
                return None
            node = node.children.get(part)
            if node is None:
                return None
        return node

    def lookup_parent(self, path):
        """Resolve the parent directory of ``path``; returns (dir, name)."""
        parts = self.split(path)
        if not parts:
            return None, ""
        node = self.root
        for part in parts[:-1]:
            if not node.is_dir:
                return None, parts[-1]
            node = node.children.get(part)
            if node is None:
                return None, parts[-1]
        if not node.is_dir:
            return None, parts[-1]
        return node, parts[-1]

    # ------------------------------------------------------------------
    # Namespace operations
    # ------------------------------------------------------------------
    def mkdir(self, path, parents=False):
        """Create a directory; returns the node (existing dirs are fine)."""
        node = self.root
        parts = self.split(path)
        for index, part in enumerate(parts):
            child = node.children.get(part)
            if child is None:
                if not parents and index != len(parts) - 1:
                    return None
                child = FileNode(part, parent=node, is_dir=True)
                node.children[part] = child
            elif not child.is_dir:
                return None
            node = child
        return node

    def create_file(self, path, size=0):
        """Create a regular file; returns the node or None on conflict."""
        parent, name = self.lookup_parent(path)
        if parent is None or not name:
            return None
        if name in parent.children:
            return None
        if self.used_bytes + size > self.capacity_bytes:
            return None
        node = FileNode(name, parent=parent, is_dir=False, size=size)
        parent.children[name] = node
        self.used_bytes += size
        return node

    def delete(self, path):
        """Remove a file or empty directory; True on success."""
        node = self.lookup(path)
        if node is None or node.parent is None:
            return False
        if node.is_dir and node.children:
            return False
        if node.open_count > 0:
            return False
        if not node.is_dir:
            self.used_bytes -= node.size
        del node.parent.children[node.name]
        return True

    def listdir(self, path):
        node = self.lookup(path)
        if node is None or not node.is_dir:
            return None
        return sorted(node.children)

    # ------------------------------------------------------------------
    # Data operations (fingerprint arithmetic, no real bytes)
    # ------------------------------------------------------------------
    def read(self, node, offset, length):
        """Read up to ``length`` bytes at ``offset``; returns a SimBuffer.

        Short reads at end of file return the truncated window; reads past
        the end return an empty buffer.
        """
        self.reads += 1
        if offset >= node.size or length <= 0:
            return SimBuffer.for_content(node.content_id, offset, 0)
        actual = min(length, node.size - offset)
        buffer = SimBuffer.for_content(node.content_id, offset, actual)
        if (
            self.read_fault_period
            and self.reads % self.read_fault_period == 0
        ):
            # Deterministically corrupted sector content.
            buffer = SimBuffer(actual, buffer.fingerprint ^ 0x1)
        return buffer

    def write(self, node, offset, length, record=None):
        """Write ``length`` bytes at ``offset``; returns bytes written or -1.

        Growing a file past the capacity limit fails.  Content identity
        changes on every write so stale cached buffers become detectable.

        When ``record`` is given, the payload is stored durably at the
        write offset — the channel transactional applications (the OLTP
        case study) use to persist structured records the same way real
        ones lay structs into file pages.
        """
        self.writes += 1
        if offset < 0 or length < 0:
            return -1
        new_end = offset + length
        if new_end > node.size:
            growth = new_end - node.size
            if self.used_bytes + growth > self.capacity_bytes:
                return -1
            self.used_bytes += growth
            node.size = new_end
        if record is not None:
            node.records[offset] = record
        node.touch()
        return length

    def records_between(self, node, offset, end):
        """Durable records in ``[offset, end)``, in offset order."""
        return [
            (record_offset, node.records[record_offset])
            for record_offset in sorted(node.records)
            if offset <= record_offset < end
        ]

    def truncate(self, node, size):
        if size < 0:
            return False
        delta = size - node.size
        if delta > 0 and self.used_bytes + delta > self.capacity_bytes:
            return False
        self.used_bytes += delta
        node.size = size
        # Records beyond the new end are gone from disk.
        node.records = {
            offset: record for offset, record in node.records.items()
            if offset < size
        }
        node.touch()
        return True

    def count_files(self):
        """Total regular files in the tree (test/diagnostic helper)."""
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_dir:
                stack.extend(node.children.values())
            else:
                total += 1
        return total
