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

# Enum members as module constants: on Python 3.11 a class-attribute
# lookup of a member costs several times an ``is`` test.
_POST = OperationKind.POST
_DYNAMIC_GET = OperationKind.DYNAMIC_GET


@dataclass(slots=True)
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

    def next_operation(self, connection_id=0, request_id=0):
        """Generate the next :class:`PlannedOperation`.

        The draws, in order: the kind, then for a GET the class, the file
        and the directory.  The directory is ``choice`` over the
        fileset's per-directory rows, which draws what
        ``randint(0, directories - 1)`` draws, in one frame instead of
        three.
        """
        stream = self.rng.generator
        random = stream.random
        kind = _KIND_DRAW.draw(random)
        if kind is _POST:
            return PlannedOperation(
                HttpRequest("POST", self.fileset.post_target, "",
                            POST_BODY_BYTES, False, connection_id,
                            request_id),
                kind, -1, 0,
            )
        class_index = _CLASS_DRAW.draw(random)
        file_index = _FILE_DRAW.draw(random)
        path, entry = stream.choice(self.fileset.rows)[
            class_index * FILES_PER_CLASS + file_index
        ]
        if kind is _DYNAMIC_GET:
            return PlannedOperation(
                HttpRequest("GET", path, "gen=1", 0, True, connection_id,
                            request_id),
                kind, entry.size + DYNAMIC_WRAPPER_BYTES, 0,
            )
        return PlannedOperation(
            HttpRequest("GET", path, "", 0, False, connection_id,
                        request_id),
            kind, entry.size, entry.content_id,
        )
