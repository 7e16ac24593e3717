"""The SPECWeb99 conforming-connection rule.

A simultaneous connection *conforms* during a measurement window when its
average bit rate is at least 320 kbit/s and less than 1% of its operations
errored.  The benchmark's headline number (SPC) is how many simultaneous
connections conform.
"""

__all__ = [
    "CONFORMING_BITRATE_BPS",
    "CONFORMING_MAX_ERROR_FRACTION",
    "connection_conforms",
]

CONFORMING_BITRATE_BPS = 320_000
CONFORMING_MAX_ERROR_FRACTION = 0.01


def connection_conforms(bytes_received, window_seconds, ops, errors):
    """Apply the conformance rule to one connection's window totals.

    A connection that performed no operations in the window cannot conform
    (it delivered no conforming service).
    """
    if ops <= 0 or window_seconds <= 0:
        return False
    if errors / ops >= CONFORMING_MAX_ERROR_FRACTION:
        return False
    bitrate = bytes_received * 8.0 / window_seconds
    return bitrate >= CONFORMING_BITRATE_BPS
