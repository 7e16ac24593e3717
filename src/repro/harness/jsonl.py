"""Torn-tail-tolerant JSONL reading, shared by every durable log.

Three append-only JSONL files carry campaign state across a crash: the
campaign journal, the telemetry stream, and (since the service daemon)
the spec queue.  All three are written the same way — one buffered
``write`` per record, newline included, flushed (and for the journal
and queue, fsynced) before the writer moves on — so all three share the
same failure geometry: a process killed mid-append can tear **at most
the final line**.  A torn line anywhere *else* is not a crash artifact,
it is real corruption (a seeked writer, a concurrent editor, bit rot),
and silently skipping it would hide lost state.

:func:`read_jsonl` is the one reader implementing that policy, so the
journal, the telemetry reader, and the service's spec queue cannot
drift apart on it.  A torn final line is dropped (the unit it described
simply reruns on resume); a torn interior line raises the original
:class:`json.JSONDecodeError` — exactly the behaviour the journal and
telemetry readers had before the service grew a third durable log.
"""

import json
from pathlib import Path

__all__ = ["read_jsonl"]


def read_jsonl(path):
    """Parse an append-only JSONL file into ``[(lineno, entry), ...]``.

    ``lineno`` is 1-based over the *non-blank* lines, matching the
    positions the journal's errors report.  A torn (undecodable)
    final line is dropped; a torn interior line raises
    :class:`json.JSONDecodeError`.  A missing file is an empty log.
    """
    path = Path(path)
    if not path.exists():
        return []
    lines = [
        line.strip()
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    ]
    entries = []
    for position, line in enumerate(lines):
        try:
            entries.append((position + 1, json.loads(line)))
        except json.JSONDecodeError:
            if position == len(lines) - 1:
                # A crash mid-append tears at most the final line; the
                # record it carried simply reruns on resume.
                break
            raise
    return entries
