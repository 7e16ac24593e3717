"""The SPECWeb99-style client.

Drives ``connections`` simultaneous connections against one server.  Each
connection runs flat out — issue, wait for the (validated) response, think
a few milliseconds, issue again — but its transfers are throttled to a
last-mile rate drawn once per connection, so the *number of connections
the server can keep conforming* is the quantity under test, exactly as in
SPECWeb99.

Validation is end-to-end: a static GET must return the right status, the
right content length *and* the right content fingerprint; wrong bytes from
a mutated OS read are counted as errors even though the server said 200.
"""

from repro.ossim.vfs import SimBuffer
from repro.specweb.metrics import MetricsCollector, OpRecord
from repro.specweb.workload import OperationKind, WorkloadGenerator

__all__ = ["SpecWebClient"]

_POST = OperationKind.POST
_STATIC_GET = OperationKind.STATIC_GET

# The paper testbed's client-side values, fixed by the benchmark.  The
# timeout is long enough for the largest class-3 file at modem rates
# (~21 s).
OP_TIMEOUT = 30.0
LINK_LATENCY = 0.0002
# Last-mile rate band: SPECWeb99 models connection speeds around
# 400 kbit/s; the band straddles the 320 kbit/s conformance threshold so
# server efficiency decides how many connections conform.
MIN_RATE_BPS = 330_000
MAX_RATE_BPS = 430_000
THINK_MIN = 0.002
THINK_MAX = 0.008
REFUSED_BACKOFF = 0.55
# After any failed operation the client closes and re-establishes the
# connection (as the SPECWeb99 client does): TCP setup plus slow-start
# before the next request.  Without this, tiny error pages let a failing
# server absorb requests far faster than a healthy one serves them,
# inflating both THR and ER%.
ERROR_BACKOFF = 0.42


class _Responder:
    """Completion callback for one in-flight request.

    A class rather than a closure so that an in-flight request survives a
    machine snapshot: the snapshot pickles the event queue, and pickle
    can store an instance (its ``client`` and ``connection`` pickled
    with the rest of the machine) but not a closure.
    """

    __slots__ = ("client", "connection", "seq")

    def __init__(self, client, connection, seq):
        self.client = client
        self.connection = connection
        self.seq = seq

    def __call__(self, response):
        self.client._on_response(self.connection, self.seq, response)


class _Connection:
    __slots__ = ("index", "rate_bps", "generator", "op_seq", "pending",
                 "issued_at", "timeout_event", "idle", "ops", "errors")

    def __init__(self, index, rate_bps, generator):
        self.index = index
        self.rate_bps = rate_bps
        self.generator = generator
        self.op_seq = 0
        self.pending = None
        self.issued_at = 0.0
        self.timeout_event = None
        self.idle = True
        self.ops = 0
        self.errors = 0


class SpecWebClient:
    """N simultaneous connections against one transport."""

    def __init__(self, sim, transport, fileset, connections, rng=None):
        self.sim = sim
        self.transport = transport
        self.fileset = fileset
        self.rng = rng or sim.rng_for("specweb-client")
        self.collector = MetricsCollector(connections)
        self.running = False
        base_generator = WorkloadGenerator(
            fileset, self.rng.substream("workload")
        )
        self.connections = []
        for index in range(connections):
            rate = self.rng.substream("rate", index).uniform(
                MIN_RATE_BPS, MAX_RATE_BPS
            )
            self.connections.append(_Connection(
                index, rate, base_generator.for_connection(index)
            ))

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self):
        """Begin issuing requests (staggered to avoid a same-instant burst)."""
        self.running = True
        for connection in self.connections:
            if connection.idle:
                offset = 0.001 + 0.002 * connection.index
                connection.idle = False
                self.sim.schedule(offset, self._issue, connection)

    def pause(self):
        """Stop issuing new operations; in-flight ones finish or time out."""
        self.running = False

    def resume(self):
        """Continue after :meth:`pause`."""
        self.running = True
        for connection in self.connections:
            if connection.idle:
                connection.idle = False
                self.sim.schedule(0.001, self._issue, connection)

    # ------------------------------------------------------------------
    # Operation lifecycle
    # ------------------------------------------------------------------
    def _issue(self, connection):
        if not self.running:
            connection.idle = True
            return
        connection.op_seq += 1
        seq = connection.op_seq
        operation = connection.generator.next_operation(
            connection.index, seq
        )
        connection.pending = operation
        sim = self.sim
        now = sim.now
        connection.issued_at = now
        request = operation.request
        request.issued_at = now
        request_delay = (
            LINK_LATENCY + request.wire_size() * 8.0 / connection.rate_bps
        )
        sim.schedule(
            request_delay, self.transport, request,
            _Responder(self, connection, seq),
        )
        connection.timeout_event = sim.schedule(
            OP_TIMEOUT, self._on_timeout, connection, seq
        )

    def _on_response(self, connection, seq, response):
        if connection.op_seq != seq or connection.pending is None:
            return  # stale completion after a timeout
        if response is None:
            # Connection refused or reset by a dying server.
            self._finish(connection, seq, None, 0, True)
            return
        nbytes = response.wire_size()
        transfer = LINK_LATENCY + nbytes * 8.0 / connection.rate_bps
        self.sim.schedule(
            transfer, self._finish, connection, seq, response, nbytes
        )

    def _finish(self, connection, seq, response, nbytes, refused=False):
        if connection.op_seq != seq or connection.pending is None:
            return
        operation = connection.pending
        connection.pending = None
        sim = self.sim
        if connection.timeout_event is not None:
            sim.cancel(connection.timeout_event)
            connection.timeout_event = None
        latency = sim.now - connection.issued_at
        if refused:
            self._record(connection, False, latency, 0, "refused")
            sim.schedule(REFUSED_BACKOFF, self._issue, connection)
            return
        ok, error_kind = self._validate(operation, response)
        self._record(connection, ok, latency, nbytes, error_kind)
        if ok:
            delay = self.rng.uniform(THINK_MIN, THINK_MAX)
        else:
            delay = ERROR_BACKOFF
        sim.schedule(delay, self._issue, connection)

    def _on_timeout(self, connection, seq):
        if connection.op_seq != seq or connection.pending is None:
            return
        connection.pending = None
        connection.timeout_event = None
        latency = self.sim.now - connection.issued_at
        self._record(connection, False, latency, 0, "timeout")
        self.sim.schedule(0.001, self._issue, connection)

    # ------------------------------------------------------------------
    # Validation and recording
    # ------------------------------------------------------------------
    def _validate(self, operation, response):
        if response is None:
            return False, "reset"
        if not response.ok:
            return False, f"status_{response.status_code}"
        kind = operation.kind
        if kind is _POST:
            return True, ""
        if response.content_length != operation.expected_size:
            return False, "length"
        if kind is _STATIC_GET:
            # A mutated read may hand back anything as the body: only a
            # SimBuffer can match.
            buffer = response.buffer
            if not (isinstance(buffer, SimBuffer) and buffer.matches(
                    operation.expected_content_id, 0,
                    operation.expected_size)):
                return False, "content"
        return True, ""

    def _record(self, connection, ok, latency, nbytes, error_kind):
        connection.ops += 1
        if not ok:
            connection.errors += 1
        self.collector.record(OpRecord(
            self.sim.now, connection.index, ok, latency, nbytes, error_kind
        ))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_ops(self):
        """Operations completed (or failed) across all connections."""
        return sum(connection.ops for connection in self.connections)

    def total_errors(self):
        """Failed operations across all connections."""
        return sum(connection.errors for connection in self.connections)

    def __repr__(self):
        return (
            f"SpecWebClient(connections={len(self.connections)}, "
            f"ops={self.total_ops()}, errors={self.total_errors()})"
        )
