"""Wire framing for the campaign fabric.

One frame = a 4-byte big-endian length prefix + that many bytes of
UTF-8 JSON (``sort_keys=True``, so a frame's bytes are a pure function
of its content — the same normalization the journal and
``metrics_digest`` already rely on).  Messages are flat JSON objects
with a ``type`` field; the payload vocabulary lives in
:mod:`.coordinator` and :mod:`.worker`.

The frame layer is deliberately dumb: no negotiation, no compression,
no partial reads surviving a torn connection.  ``recv_frame`` returns
``None`` only on a clean EOF at a frame boundary; a connection that
dies mid-frame raises :class:`FrameError`, and the coordinator treats
both the same way a dead worker is treated — requeue its shard and move
on.
"""

import json
import struct

__all__ = [
    "MAX_FRAME_BYTES",
    "FrameError",
    "recv_frame",
    "send_frame",
]

# A shard result carries per-slot activation/incident/reboot records but
# never bulk data; 64 MiB is orders of magnitude above any real frame
# and exists to turn a corrupt length prefix into a clean error instead
# of an allocation bomb.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(RuntimeError):
    """A frame could not be read or decoded (torn, oversized, bad JSON)."""


def send_frame(sock, message):
    """Serialize ``message`` (a JSON-ready dict) as one frame."""
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {len(payload)} bytes")
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock, count):
    """Read exactly ``count`` bytes; '' means the peer closed mid-read."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """Read one frame; None on clean EOF at a frame boundary."""
    header = sock.recv(_LENGTH.size)
    if not header:
        return None
    if len(header) < _LENGTH.size:
        rest = _recv_exact(sock, _LENGTH.size - len(header))
        if rest is None:
            raise FrameError("connection closed mid-length-prefix")
        header += rest
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame too large: {length} bytes")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise FrameError("connection closed mid-frame")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame: {exc}") from exc
    if not isinstance(message, dict):
        # Every message in the vocabulary is a flat object; a frame
        # holding valid-but-wrong JSON (a list, a bare string) must be
        # a clean protocol error the read loops already handle, not an
        # AttributeError when the caller reaches for .get("type").
        raise FrameError(
            f"frame payload must be a JSON object, got "
            f"{type(message).__name__}"
        )
    return message

