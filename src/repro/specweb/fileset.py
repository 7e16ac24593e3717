"""SPECWeb99 fileset.

The workload fileset follows SPECWeb99's structure: a number of directories,
each holding four *classes* of files with nine files per class.  Class 0
files are hundreds of bytes, class 1 single-digit kilobytes, class 2 tens
of kilobytes, class 3 hundreds of kilobytes; with the standard class mix
(35/50/14/1) the mean transfer is ≈15 KB, which against the ~400 kbit/s
per-connection throttle yields the ~350 ms response times of the paper's
baseline rows.

The fileset also records each file's size and content identity so the
client can verify responses end-to-end (size *and* content fingerprint).
"""

from dataclasses import dataclass

__all__ = ["FilesetEntry", "SpecWebFileset"]

CLASS_COUNT = 4
FILES_PER_CLASS = 9

# Byte size of file ``index`` in class ``c`` is (index+1) * _CLASS_BASE[c].
_CLASS_BASE = (100, 1_000, 10_000, 100_000)

# SPECWeb99 class access mix (fraction of requests per class).
CLASS_WEIGHTS = (0.35, 0.50, 0.14, 0.01)

# Within-class access skew: files in the middle of the class are the most
# popular, as in SPECWeb99's access distribution.
WITHIN_CLASS_WEIGHTS = (2, 3, 4, 5, 6, 5, 4, 3, 2)


@dataclass(frozen=True)
class FilesetEntry:
    """Ground truth about one fileset file (used for validation)."""

    path: str
    size: int
    content_id: int


class SpecWebFileset:
    """The document tree one benchmark run serves.

    Parameters
    ----------
    directories:
        Number of ``dirNNNNN`` directories; SPECWeb99 scales this with the
        offered load, our scaled experiments keep it moderate.
    root:
        Document root inside the simulated file system.
    """

    def __init__(self, directories=8, root="/site"):
        if directories < 1:
            raise ValueError("directories must be >= 1")
        self.directories = directories
        self.root = root
        self.entries = {}
        self.post_target = "/postlog/form"
        self._index_rows()

    def _index_rows(self):
        """Index ``entries`` as ``rows[dir][class * FILES_PER_CLASS + file]``
        = ``(url, entry)``, so the workload draws a file without
        formatting its URL or looking it up.

        :meth:`populate` fills ``entries`` in that order.  The rows are
        derived state: they stay out of pickled snapshot images and are
        rebuilt when one is restored.
        """
        items = tuple(self.entries.items())
        per_dir = CLASS_COUNT * FILES_PER_CLASS
        self.rows = tuple(
            items[start:start + per_dir]
            for start in range(0, len(items), per_dir)
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["rows"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._index_rows()

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    @staticmethod
    def file_name(class_index, file_index):
        return f"class{class_index}_{file_index}"

    def dir_name(self, dir_index):
        return f"dir{dir_index:05d}"

    def url_path(self, dir_index, class_index, file_index):
        return (
            f"/{self.dir_name(dir_index)}/"
            f"{self.file_name(class_index, file_index)}"
        )

    @staticmethod
    def file_size(class_index, file_index):
        return (file_index + 1) * _CLASS_BASE[class_index]

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def populate(self, vfs):
        """Create the full tree inside ``vfs`` and record ground truth."""
        self.entries = {}
        vfs.mkdir(self.root, parents=True)
        for dir_index in range(self.directories):
            dir_path = f"{self.root}/{self.dir_name(dir_index)}"
            vfs.mkdir(dir_path, parents=True)
            for class_index in range(CLASS_COUNT):
                for file_index in range(FILES_PER_CLASS):
                    name = self.file_name(class_index, file_index)
                    size = self.file_size(class_index, file_index)
                    node = vfs.create_file(f"{dir_path}/{name}", size=size)
                    if node is None:
                        raise RuntimeError(
                            f"could not create {dir_path}/{name}"
                        )
                    url = self.url_path(dir_index, class_index, file_index)
                    self.entries[url] = FilesetEntry(
                        path=url, size=size, content_id=node.content_id
                    )
        self._index_rows()
        return self.entries

    def entry(self, url_path):
        """Ground truth for a URL path, or None."""
        return self.entries.get(url_path)

    def total_files(self):
        return self.directories * CLASS_COUNT * FILES_PER_CLASS

    def total_bytes(self):
        per_dir = sum(
            self.file_size(c, i)
            for c in range(CLASS_COUNT)
            for i in range(FILES_PER_CLASS)
        )
        return per_dir * self.directories

    def mean_transfer_bytes(self):
        """Expected response size under the class/file access mix."""
        within_total = sum(WITHIN_CLASS_WEIGHTS)
        mean = 0.0
        for class_index, class_weight in enumerate(CLASS_WEIGHTS):
            class_mean = sum(
                weight * self.file_size(class_index, file_index)
                for file_index, weight in enumerate(WITHIN_CLASS_WEIGHTS)
            ) / within_total
            mean += class_weight * class_mean
        return mean

    def __repr__(self):
        return (
            f"SpecWebFileset(dirs={self.directories}, "
            f"files={self.total_files()}, "
            f"mean={self.mean_transfer_bytes():.0f}B)"
        )
