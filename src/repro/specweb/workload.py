"""Operation mix and request generation.

SPECWeb99's workload is dominated by static GETs, with a quarter of the
operations fetching dynamically generated content and a small share of
POSTs (the "on-line registration" traffic).  Each generated request carries
its ground-truth expectation so the client can validate the response.
"""

import enum
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from repro.specweb.fileset import (
    CLASS_COUNT,
    CLASS_WEIGHTS,
    FILES_PER_CLASS,
    WITHIN_CLASS_WEIGHTS,
)
from repro.webservers.http import HttpRequest

__all__ = ["OperationKind", "PlannedOperation", "WorkloadGenerator"]


class OperationKind(enum.Enum):
    """The three SPECWeb99 operation families."""

    STATIC_GET = "static_get"
    DYNAMIC_GET = "dynamic_get"
    POST = "post"


# Operation mix (SPECWeb99: 70% static, 25.1% dynamic GET variants, 4.9%
# POST — we fold the dynamic variants together).
OPERATION_MIX = (
    (OperationKind.STATIC_GET, 0.70),
    (OperationKind.DYNAMIC_GET, 0.25),
    (OperationKind.POST, 0.05),
)


class _WeightedDraw:
    """One weighted pick from a fixed population.

    :meth:`draw` is ``Random.choices(population, cum_weights=...)[0]``
    as Python 3.10 to 3.13 compute it: the same expression, one
    ``random()`` call, so the same index and the same generator state.
    The running sums, their float total and the search bound are fixed
    here once instead of on every draw, and no result list is built.
    """

    __slots__ = ("population", "cum_weights", "total", "hi")

    def __init__(self, population, weights):
        self.population = tuple(population)
        self.cum_weights = tuple(accumulate(weights))
        self.total = self.cum_weights[-1] + 0.0
        self.hi = len(self.population) - 1

    def draw(self, random):
        """Pick one member, calling ``random()`` once."""
        return self.population[
            bisect(self.cum_weights, random() * self.total, 0, self.hi)
        ]


_KIND_DRAW = _WeightedDraw(
    [kind for kind, _weight in OPERATION_MIX],
    [weight for _kind, weight in OPERATION_MIX],
)
_CLASS_DRAW = _WeightedDraw(range(CLASS_COUNT), CLASS_WEIGHTS)
_FILE_DRAW = _WeightedDraw(range(FILES_PER_CLASS), WITHIN_CLASS_WEIGHTS)

POST_BODY_BYTES = 320
DYNAMIC_WRAPPER_BYTES = 128


@dataclass
class PlannedOperation:
    """A request plus what a correct response must look like."""

    request: HttpRequest
    kind: OperationKind
    expected_size: int
    expected_content_id: int  # 0 when content is not checkable (dynamic)


class WorkloadGenerator:
    """Draws operations according to the SPECWeb99 mix.

    Deterministic per (seed, connection): each connection owns a substream
    so the sequence of operations it issues never depends on other
    connections' progress.
    """

    def __init__(self, fileset, rng):
        self.fileset = fileset
        self.rng = rng

    def for_connection(self, connection_id):
        """A generator bound to one connection's random substream."""
        return WorkloadGenerator(
            self.fileset, self.rng.substream("connection", connection_id)
        )

    # ------------------------------------------------------------------
    # Drawing
    # ------------------------------------------------------------------
    def _draw_file(self):
        random = self.rng.random
        class_index = _CLASS_DRAW.draw(random)
        file_index = _FILE_DRAW.draw(random)
        dir_index = self.rng.randint(0, self.fileset.directories - 1)
        return self.fileset.url_path(dir_index, class_index, file_index)

    def next_operation(self, connection_id=0, request_id=0):
        """Generate the next :class:`PlannedOperation`."""
        kind = _KIND_DRAW.draw(self.rng.random)
        if kind == OperationKind.POST:
            request = HttpRequest(
                "POST",
                self.fileset.post_target,
                body_size=POST_BODY_BYTES,
                connection_id=connection_id,
                request_id=request_id,
            )
            return PlannedOperation(
                request=request, kind=kind,
                expected_size=-1, expected_content_id=0,
            )
        path = self._draw_file()
        entry = self.fileset.entry(path)
        dynamic = kind == OperationKind.DYNAMIC_GET
        request = HttpRequest(
            "GET",
            path,
            query="gen=1" if dynamic else "",
            dynamic=dynamic,
            connection_id=connection_id,
            request_id=request_id,
        )
        if dynamic:
            expected = entry.size + DYNAMIC_WRAPPER_BYTES
            return PlannedOperation(
                request=request, kind=kind,
                expected_size=expected, expected_content_id=0,
            )
        return PlannedOperation(
            request=request, kind=kind,
            expected_size=entry.size,
            expected_content_id=entry.content_id,
        )
