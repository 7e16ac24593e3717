"""Torn-tail-tolerant JSONL logs, shared by every durable log.

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
:class:`json.JSONDecodeError`.

A writer that reopens a log calls :func:`drop_torn_tail` first, which
cuts the line the reader drops off the file.  Otherwise the writer's
first record would be glued onto the torn prefix and lost on the next
read, and the record after it would turn the torn line into an
interior one that no read survives.
"""

import json
import os
from pathlib import Path

__all__ = ["drop_torn_tail", "read_jsonl"]


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


def drop_torn_tail(path):
    """Make the next append to a JSONL log start on a fresh line.

    Cuts off a torn final line — the one :func:`read_jsonl` drops — and
    gives a complete final record that lost only its newline a new one.
    A missing file is left alone.
    """
    path = Path(path)
    if not path.exists():
        return
    data = path.read_bytes()
    body = data.rstrip()
    start = body.rfind(b"\n") + 1
    try:
        if body:
            json.loads(body[start:])
    except ValueError:
        os.truncate(path, start)
        return
    if body and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")
