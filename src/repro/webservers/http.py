"""HTTP messages.

A light-weight HTTP/1.0-ish model: requests and responses are objects, and
wire sizes are computed from their logical content so the client can charge
realistic transfer times.  Response bodies are
:class:`~repro.ossim.vfs.SimBuffer` windows, so content integrity is
checkable end-to-end (a mutated OS read that returns the wrong bytes shows
up as a client-detected content error).
"""

__all__ = ["HttpRequest", "HttpResponse", "STATUS_REASONS"]

STATUS_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    408: "Request Timeout",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

_BASE_REQUEST_OVERHEAD = 180   # request line + typical SPECWeb99 headers
_BASE_RESPONSE_OVERHEAD = 220  # status line + typical response headers


class HttpRequest:
    """One client request."""

    __slots__ = ("method", "path", "query", "body_size", "dynamic",
                 "connection_id", "request_id", "issued_at")

    def __init__(self, method, path, query="", body_size=0, dynamic=False,
                 connection_id=0, request_id=0):
        self.method = method
        self.path = path
        self.query = query
        self.body_size = body_size
        self.dynamic = dynamic
        self.connection_id = connection_id
        self.request_id = request_id
        self.issued_at = 0.0

    @property
    def is_post(self):
        return self.method == "POST"

    def wire_size(self):
        """Approximate request size on the wire, in bytes."""
        size = _BASE_REQUEST_OVERHEAD + len(self.path) + len(self.query)
        return size + self.body_size

    def __repr__(self):
        suffix = f"?{self.query}" if self.query else ""
        return f"<HttpRequest {self.method} {self.path}{suffix}>"


class HttpResponse:
    """One server response."""

    __slots__ = ("status_code", "content_length", "buffer", "server_name",
                 "error_detail")

    def __init__(self, status_code, content_length=0, buffer=None,
                 server_name="", error_detail=""):
        self.status_code = status_code
        self.content_length = content_length
        self.buffer = buffer
        self.server_name = server_name
        self.error_detail = error_detail

    @property
    def ok(self):
        return 200 <= self.status_code < 300

    @property
    def reason(self):
        return STATUS_REASONS.get(self.status_code, "Unknown")

    def wire_size(self):
        """Approximate response size on the wire, in bytes."""
        return _BASE_RESPONSE_OVERHEAD + max(0, self.content_length)

    @classmethod
    def error(cls, status_code, server_name="", detail=""):
        """An error response with a small fixed-size body."""
        return cls(
            status_code,
            content_length=320,
            buffer=None,
            server_name=server_name,
            error_detail=detail,
        )

    def __repr__(self):
        return (
            f"<HttpResponse {self.status_code} {self.reason} "
            f"len={self.content_length}>"
        )
