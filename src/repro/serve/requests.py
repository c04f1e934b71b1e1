"""Typed request/response surface of the serving layer.

Every operation a client can ask of :class:`repro.serve.server.IndexServer`
is a :class:`Request`; every answer is a :class:`Response`.  Overload is a
*response*, not an exception: when admission control sheds a request the
client receives an :class:`Overloaded` instance carrying the queue depth
at shed time, so closed-loop drivers can count sheds and back off instead
of unwinding through exception handlers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Op",
    "Request",
    "Response",
    "Overloaded",
    "WorkerError",
    "OPS_BY_CODE",
    "BATCH_KERNELS",
    "COALESCABLE_OPS",
    "READ_OPS",
    "WRITE_OPS",
]


class Op(enum.Enum):
    """The operations the serving layer understands.

    ``LOOKUP``/``CONTAINS``/``RANGE_1D`` target one-dimensional stores;
    ``POINT_QUERY``/``RANGE_QUERY``/``KNN`` target multi-dimensional
    ones; ``INSERT``/``DELETE`` require a mutable underlying index.

    A point-shaped op's value names the index method that answers it.

    Every member also carries ``code``, its position in declaration
    order: the serving layer extracts a window's ops as one small-int
    column and classifies them with table lookups, because hashing an
    enum member per request (``op in COALESCABLE_OPS``) runs a
    Python-level ``__hash__``.
    """

    code: int

    def __new__(cls, value: str) -> "Op":
        obj = object.__new__(cls)
        obj._value_ = value
        obj.code = len(cls.__members__)
        return obj

    LOOKUP = "lookup"
    CONTAINS = "contains"
    RANGE_1D = "range_1d"
    POINT_QUERY = "point_query"
    RANGE_QUERY = "range_query"
    KNN = "knn"
    INSERT = "insert"
    DELETE = "delete"


#: ``Op.code`` -> member: turns a window's op-code column back into ops.
OPS_BY_CODE = tuple(Op)

#: The one op -> batch-kernel table: each scalar point-shaped read the
#: coalescer may fuse, with the index method that answers a run of it.
BATCH_KERNELS = {
    Op.LOOKUP: "lookup_batch",
    Op.CONTAINS: "contains_batch",
    Op.POINT_QUERY: "point_query_batch",
}
COALESCABLE_OPS = frozenset(BATCH_KERNELS)

#: Operations that never mutate the store (cacheable).
READ_OPS = frozenset(
    {Op.LOOKUP, Op.CONTAINS, Op.RANGE_1D, Op.POINT_QUERY, Op.RANGE_QUERY, Op.KNN}
)

#: Operations that mutate the store (bump shard generations).
WRITE_OPS = frozenset({Op.INSERT, Op.DELETE})


@dataclass(frozen=True)
class Request:
    """One serving-layer operation.

    Exactly the fields relevant to ``op`` are set: ``key`` for 1-d ops,
    ``point`` for multi-d ops, ``low``/``high`` for ranges (floats in
    1-d, coordinate tuples in multi-d), ``k`` for kNN, ``value`` for
    inserts.  Requests are frozen so workload generators can share them
    across client threads.
    """

    op: Op
    key: float | None = None
    point: tuple[float, ...] | None = None
    low: object = None
    high: object = None
    k: int = 0
    value: object = None

    def cache_args(self) -> tuple[object, ...]:
        """Hashable argument tuple identifying this read for the cache."""
        return (self.op.value, self.key, self.point, _freeze(self.low),
                _freeze(self.high), self.k)


def _freeze(bound: object) -> object:
    """Make range bounds hashable (tuples stay, array-likes become tuples)."""
    if bound is None or isinstance(bound, (int, float, tuple)):
        return bound
    return tuple(float(x) for x in bound)  # type: ignore[union-attr]


@dataclass(frozen=True)
class Response:
    """A completed request: ``value`` holds the scalar-parity result."""

    value: object = None

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Overloaded(Response):
    """Load was shed: the request never entered a shard queue.

    ``depth`` records the shard queue depth observed at shed time so
    clients and the E19 driver can report how deep the backlog was.
    """

    depth: int = 0

    @property
    def ok(self) -> bool:
        return False


@dataclass(frozen=True)
class WorkerError(Response):
    """A shard worker process failed while holding this request.

    Mirrors :class:`Overloaded`: a worker crash (killed mid-window,
    pipe broken, reply timeout) surfaces as a typed *response* on every
    in-flight request of the affected window — never a hung client and
    never a bare ``BrokenPipeError`` — while the executor restarts the
    worker behind the scenes.  ``shard`` names the shard whose worker
    died; ``reason`` is a short operator-facing description.
    """

    shard: int = -1
    reason: str = "worker process failed"

    @property
    def ok(self) -> bool:
        return False
