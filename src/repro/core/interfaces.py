"""Uniform index interfaces shared by every structure in the library.

The survey classifies learned indexes along several axes (immutable vs.
mutable, one- vs. multi-dimensional, pure vs. hybrid).  To let benchmarks
and tests treat all of them uniformly, every index in this repository
implements one of the small abstract interfaces defined here:

* :class:`OneDimIndex` — read-only key -> value index over totally ordered
  keys, with point lookups and range scans.
* :class:`MutableOneDimIndex` — adds ``insert``/``delete``.
* :class:`MultiDimIndex` — read-only index over d-dimensional points, with
  point, axis-aligned range, and kNN queries.
* :class:`MutableMultiDimIndex` — adds ``insert``/``delete``.
* :class:`MembershipFilter` — approximate membership (Bloom-filter family).

Every index also carries an :class:`IndexStats` object with
machine-independent cost counters (comparisons, keys scanned, nodes or
models visited) and a size estimate in bytes.  Counters make benchmark
*shapes* reproducible even when absolute Python timings vary by machine.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence, TypeVar

import numpy as np

from repro.core.numeric import exact_float64
from repro.core.state import IndexState, StateError, export_index_state, index_from_state

__all__ = [
    "IndexStats",
    "OneDimIndex",
    "MutableOneDimIndex",
    "MultiDimIndex",
    "MutableMultiDimIndex",
    "MembershipFilter",
    "NotBuiltError",
    "as_object_array",
    "as_pairs",
    "box_mask",
    "point_distances",
]


class NotBuiltError(RuntimeError):
    """Raised when querying an index that has not been built yet."""


def as_object_array(values: Sequence[object]) -> np.ndarray:
    """1-d object ndarray holding ``values`` verbatim.

    ``np.asarray`` would recursively convert sequence-valued payloads
    into multi-dimensional arrays; ``np.fromiter`` stores each item as
    one object, so a tuple, list or ndarray payload stays intact.
    """
    return np.fromiter(values, dtype=object, count=len(values))


def as_pairs(points: np.ndarray, values: np.ndarray) -> list[tuple[tuple[float, ...], object]]:
    """The tuple API's ``(point, value)`` pairs from result columns.

    ``points`` is ``(r, d)`` float64 and ``values`` an ``(r,)`` object
    array; each point becomes a tuple of Python floats.  This is the one
    place the multi-d range and kNN answers turn into tuples.
    """
    return list(zip(map(tuple, points.tolist()), values.tolist()))


def box_mask(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``(r, d)`` rows with ``lo <= row <= hi`` in every
    column (closed box; NaN never matches).

    One column at a time: numpy reduces a short inner axis row by row,
    which costs several times more than ``d`` strided column passes.
    """
    mask: np.ndarray = (rows[:, 0] >= lo[0]) & (rows[:, 0] <= hi[0])
    for j in range(1, rows.shape[1]):
        mask &= (rows[:, j] >= lo[j]) & (rows[:, j] <= hi[j])
    return mask


def point_distances(points: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``q`` to each row of ``points``.

    The one distance formula behind every generic kNN answer and the
    sharded kNN merge: equal inputs give bit-equal distances wherever
    they are ranked, so ``(distance, point, value)`` orders agree.
    """
    diff = points - q
    dists: np.ndarray = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    return dists


def _knn_box(q: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed box holding every point whose computed distance to ``q`` is
    at most ``radius``.

    ``q - radius`` rounds, and a computed distance can round below the
    true axis offset, so a point exactly ``radius`` away along one axis
    could fall just outside ``[q - radius, q + radius]``.  A relative
    slack far above those few ulps, then one more ulp outward, keeps it
    inside.
    """
    slack = radius * (1.0 + 1e-9)
    return np.nextafter(q - slack, -np.inf), np.nextafter(q + slack, np.inf)


def _nearest(points: np.ndarray, values: np.ndarray, dists: np.ndarray,
             k: int) -> list[tuple[tuple[float, ...], object]]:
    """The ``k`` first candidates in ``(distance, point, value)`` order.

    Only rows tied with or nearer than the ``k``-th distance become
    tuples; Python's tuple order then breaks ties on the point and, for
    duplicate points, on the value.
    """
    if dists.size > k:
        keep = np.flatnonzero(dists <= np.partition(dists, k - 1)[k - 1])
        points, values, dists = points[keep], values[keep], dists[keep]
    ranked = sorted(zip(dists.tolist(), map(tuple, points.tolist()), values.tolist()))
    return [(p, v) for _, p, v in ranked[:k]]


@dataclass
class IndexStats:
    """Machine-independent cost counters and a size estimate.

    Attributes:
        comparisons: number of key comparisons performed during queries.
        keys_scanned: number of stored keys touched while answering queries.
        nodes_visited: internal nodes / models / buckets traversed.
        model_predictions: number of learned-model invocations.
        corrections: total size of last-mile (error-correction) searches.
        build_seconds: wall-clock time of the most recent ``build``.
        size_bytes: estimated in-memory footprint of the index structure
            (excluding the raw data it indexes, unless the index owns a
            private copy with gaps or duplication — then that is counted).
    """

    comparisons: int = 0
    keys_scanned: int = 0
    nodes_visited: int = 0
    model_predictions: int = 0
    corrections: int = 0
    build_seconds: float = 0.0
    size_bytes: int = 0
    extra: dict[str, object] = field(default_factory=dict)

    def reset_counters(self) -> None:
        """Zero the per-query counters, keeping build time and size."""
        self.comparisons = 0
        self.keys_scanned = 0
        self.nodes_visited = 0
        self.model_predictions = 0
        self.corrections = 0

    def snapshot(self) -> dict[str, int | float]:
        """Return a plain-dict copy of all counters for reporting."""
        return {
            "comparisons": self.comparisons,
            "keys_scanned": self.keys_scanned,
            "nodes_visited": self.nodes_visited,
            "model_predictions": self.model_predictions,
            "corrections": self.corrections,
            "build_seconds": self.build_seconds,
            "size_bytes": self.size_bytes,
        }

    def merge(self, other: "IndexStats") -> "IndexStats":
        """Return a new :class:`IndexStats` combining two counter sets.

        All counters sum, including ``build_seconds`` (total build work
        across shards) and ``size_bytes`` (total footprint).  ``extra``
        keys from both sides are carried over; ``other`` wins on
        conflicts.  The numeric part is commutative —
        ``a.merge(b).snapshot() == b.merge(a).snapshot()`` — which lets
        sharded serving aggregate per-shard stats in any drain order.
        """
        merged = IndexStats(
            comparisons=self.comparisons + other.comparisons,
            keys_scanned=self.keys_scanned + other.keys_scanned,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            model_predictions=self.model_predictions + other.model_predictions,
            corrections=self.corrections + other.corrections,
            build_seconds=self.build_seconds + other.build_seconds,
            size_bytes=self.size_bytes + other.size_bytes,
        )
        merged.extra = {**self.extra, **other.extra}
        return merged


_Index = TypeVar("_Index", bound="_BuiltState")


class _BuiltState:
    """The built-flag and built-state methods every index shares.

    :meth:`export_state` splits the built index into shareable arrays
    plus pickled residue (:mod:`repro.core.state`), :meth:`from_state`
    rebuilds it without retraining, and :meth:`save` / :meth:`load`
    write and map that state as an artifact directory
    (:mod:`repro.core.artifact`).  A class overriding one of the pair
    must override the other (the RPR010 pairing contract).
    """

    name: str

    def __init__(self) -> None:
        self.stats = IndexStats()
        self._built = False

    def __len__(self) -> int:
        raise NotImplementedError

    def export_state(self) -> IndexState:
        """Snapshot the built index: shareable arrays plus pickled residue."""
        self._require_built()
        return export_index_state(self)

    @classmethod
    def from_state(cls: type[_Index], state: IndexState) -> _Index:
        """Rebuild an index from :meth:`export_state` output, no retraining."""
        instance = index_from_state(state)
        if not isinstance(instance, cls):
            raise StateError(
                f"state holds a {state.class_path()}, not a {cls.__name__}"
            )
        return instance

    def save(self, path: str | Path) -> Path:
        """Persist the built index as a verifiable artifact directory
        (a ``manifest.json`` over one sha256-checked blocks file).
        Reload it with :meth:`load` — no retraining."""
        from repro.core.artifact import write_artifact

        return write_artifact(self.export_state(), path)

    @classmethod
    def load(cls: type[_Index], path: str | Path, mmap_mode: str | None = "r") -> _Index:
        """Reconstruct an index saved by :meth:`save`, without retraining:
        ``mmap_mode="r"`` views the arrays read-only over the mapped blocks
        file, ``None`` over a private writable copy (for heavy mutation)."""
        from repro.core.artifact import read_artifact

        return cls.from_state(read_artifact(path, mmap_mode=mmap_mode))

    def _require_built(self) -> None:
        if not self._built:
            raise NotBuiltError(f"{self.name}: call build() before querying")

    def _thaw(self, *names: str) -> None:
        """Copy-on-write the named array attributes before in-place writes.

        Arrays restored from a read-only mapping (``mmap_mode="r"``
        loads, shared-memory views) are non-writeable; swapping in a
        private copy on first mutation keeps the backing file or segment
        byte-identical while letting mutable indexes mutate freely.
        Writable arrays are left untouched, so the built/eager paths pay
        nothing.
        """
        for name in names:
            arr = getattr(self, name, None)
            if isinstance(arr, np.ndarray) and not arr.flags.writeable:
                setattr(self, name, arr.copy())


class OneDimIndex(_BuiltState, abc.ABC):
    """A (possibly immutable) one-dimensional key -> value index.

    Keys are real numbers (ints or floats); values are arbitrary Python
    objects, most commonly integer record ids.  Implementations must accept
    duplicate-free key sets; behaviour under duplicate keys is
    implementation-defined unless documented otherwise.
    """

    #: Human-readable name used in benchmark tables.
    name: str = "one-dim-index"

    # -- construction ----------------------------------------------------
    @abc.abstractmethod
    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "OneDimIndex":
        """Bulk-load the index from ``keys`` (sorted or unsorted).

        Args:
            keys: the keys to index.  They will be sorted internally if the
                implementation requires it.
            values: optional payloads aligned with ``keys``; defaults to the
                position of each key in the *sorted* key order.

        Returns:
            ``self``, to allow ``index = RMIIndex().build(keys)``.
        """

    # -- queries ----------------------------------------------------------
    @abc.abstractmethod
    def lookup(self, key: float) -> object | None:
        """Return the value stored for ``key``, or ``None`` if absent."""

    @abc.abstractmethod
    def range_query(self, low: float, high: float) -> list[tuple[float, object]]:
        """Return all ``(key, value)`` pairs with ``low <= key <= high``.

        Results are sorted by key.
        """

    def contains(self, key: float) -> bool:
        """Return whether ``key`` is present."""
        return self.lookup(key) is not None

    # -- batch queries -----------------------------------------------------
    def lookup_batch(self, keys: Sequence[float]) -> np.ndarray:
        """Answer many point lookups at once.

        Returns an object ndarray aligned with ``keys``: the stored value
        for each hit, ``None`` for each miss — exactly what a loop of
        scalar :meth:`lookup` calls would produce.  The base
        implementation *is* that loop; hot indexes override it with
        numpy-vectorized paths that amortize Python interpreter overhead
        across the whole batch (their :class:`IndexStats` counters are
        then aggregated per batch rather than per comparison).
        """
        self._require_built()
        arr = np.asarray(keys, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        out = np.empty(arr.size, dtype=object)
        for i in range(arr.size):
            out[i] = self.lookup(float(arr[i]))
        return out

    def contains_batch(self, keys: Sequence[float]) -> np.ndarray:
        """Boolean ndarray: presence of each key (batched :meth:`contains`)."""
        results = self.lookup_batch(keys)
        return np.fromiter(
            (r is not None for r in results), dtype=bool, count=results.size
        )

    @staticmethod
    def _prepare(keys: Sequence[float], values: Sequence[object] | None) -> tuple[np.ndarray, list[object]]:
        """Sort keys (with aligned values) and return ``(keys, values)``.

        Default values are the ranks in sorted order, matching the learned
        index literature where the payload is the key's position.

        Integer keys (SOSD workloads use the full 64-bit range) must
        survive the float64 cast exactly: above ``2**53`` distinct keys
        can merge, which corrupts lookups while looking like a model
        accuracy problem, so :func:`repro.core.numeric.exact_float64`
        raises instead of casting lossily.
        """
        arr = exact_float64(keys, what="index keys")
        if arr.ndim != 1:
            raise ValueError("keys must be one-dimensional")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("keys must be finite")
        order = np.argsort(arr, kind="mergesort")
        arr = arr[order]
        if values is None:
            vals: list[object] = list(range(arr.size))
        else:
            if len(values) != arr.size:
                raise ValueError("values must align with keys")
            vals = [values[i] for i in order]
        return arr, vals


class MutableOneDimIndex(OneDimIndex):
    """A one-dimensional index supporting dynamic inserts and deletes."""

    @abc.abstractmethod
    def insert(self, key: float, value: object | None = None) -> None:
        """Insert ``key`` with ``value`` (replacing any existing entry)."""

    @abc.abstractmethod
    def delete(self, key: float) -> bool:
        """Remove ``key``; return ``True`` if it was present."""


class MultiDimIndex(_BuiltState, abc.ABC):
    """A (possibly immutable) index over d-dimensional points.

    Points are rows of a float64 array of shape ``(n, d)``.  Values default
    to row positions in the array passed to :meth:`build`.
    """

    name: str = "multi-dim-index"

    def __init__(self) -> None:
        super().__init__()
        self.dims = 0

    @abc.abstractmethod
    def build(self, points: np.ndarray, values: Sequence[object] | None = None) -> "MultiDimIndex":
        """Bulk-load the index from an ``(n, d)`` array of points."""

    @abc.abstractmethod
    def point_query(self, point: Sequence[float]) -> object | None:
        """Return the value stored at exactly ``point``, or ``None``."""

    @abc.abstractmethod
    def range_query(self, low: Sequence[float], high: Sequence[float]) -> list[tuple[tuple[float, ...], object]]:
        """Return all ``(point, value)`` pairs inside the box [low, high].

        The box is closed on both ends in every dimension.  Results are in
        implementation order; tests sort before comparing.
        """

    def point_query_batch(self, points: np.ndarray) -> np.ndarray:
        """Answer many point queries at once.

        Returns an object ndarray aligned with the rows of ``points``
        (shape ``(m, d)``): the stored value per hit, ``None`` per miss —
        identical to looping scalar :meth:`point_query`.  Indexes with a
        vectorizable layout override this loop fallback.
        """
        self._require_built()
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must have shape (m, d)")
        out = np.empty(pts.shape[0], dtype=object)
        for i in range(pts.shape[0]):
            out[i] = self.point_query(pts[i])
        return out

    def range_query_batch(self, lows: np.ndarray, highs: np.ndarray) -> list[list[tuple[tuple[float, ...], object]]]:
        """Answer many axis-aligned range queries at once.

        Args:
            lows, highs: ``(m, d)`` arrays of box corners (closed boxes).

        Returns:
            A list of per-box result lists, element-wise identical to a
            loop of scalar :meth:`range_query` calls (same points, same
            values, same in-box ordering).  The base implementation is
            that loop; grid-shaped indexes override it with vectorized
            cell routing and in-cell mask filtering.

        The fallback validates exactly once per batch call — one
        ``_require_built`` check and one shape check up front — then
        fills a preallocated result list through a single bound-method
        reference, so per-row work is only the scalar query itself.
        """
        self._require_built()
        lo = np.asarray(lows, dtype=np.float64)
        hi = np.asarray(highs, dtype=np.float64)
        if lo.ndim != 2 or hi.shape != lo.shape:
            raise ValueError("lows/highs must both have shape (m, d)")
        m = lo.shape[0]
        scalar = self.range_query
        out: list[list[tuple[tuple[float, ...], object]]] = [[] for _ in range(m)]
        for i in range(m):
            out[i] = scalar(lo[i], hi[i])
        return out

    def knn_query(self, point: Sequence[float], k: int) -> list[tuple[tuple[float, ...], object]]:
        """Return the ``k`` nearest neighbours of ``point`` (Euclidean).

        Results are ordered by ``(distance, point, value)``.  The default
        implementation expands a box over :meth:`_range_columns`, with
        vectorised distances, from the radius :meth:`_knn_seed_radius`
        proposes; spatial trees override it with guided search.  A query
        with a NaN or infinite coordinate is at no finite distance from
        any point and answers ``[]``.
        """
        self._require_built()
        q = np.asarray(point, dtype=np.float64)
        if k <= 0 or not np.isfinite(q).all():
            return []
        # Expanding-radius search: grow the box until it holds k
        # candidates whose true distance is within the box radius.
        # Growth is clamped: once the box dwarfs the data extent, wider
        # boxes cannot add candidates, and unclamped doubling of a large
        # initial radius would overflow to inf (and then nan bounds).
        radius = self._knn_seed_radius(q, k)
        max_radius = min(
            max(float(getattr(self, "_extent", 1.0)), radius, 1.0) * 2.0 ** 40,
            1e300,
        )
        for _ in range(64):
            points, values = self._range_columns(*_knn_box(q, radius))
            if values.size >= k:
                dists = point_distances(points, q)
                if np.partition(dists, k - 1)[k - 1] <= radius:
                    return _nearest(points, values, dists, k)
            if radius >= max_radius:
                break  # box already covers the whole data space
            radius = min(radius * 2.0, max_radius)
        # Fall back to whatever we gathered (covers tiny datasets and
        # k > len(index)); the last query used the largest box.  An empty
        # index may report ``dims == 0``, so its (0, 0) columns never
        # reach the distance formula.
        if not values.size:
            return []
        return _nearest(points, values, point_distances(points, q), k)

    def _knn_seed_radius(self, q: np.ndarray, k: int) -> float:
        """First box radius of the generic kNN: the data extent scaled by
        the share of the index ``k`` points make up.  Learned families
        whose model can place ``q`` override it with a tighter guess."""
        n = max(len(self), 1)
        extent = getattr(self, "_extent", 1.0)
        frac = min(1.0, (k / n) ** (1.0 / max(self.dims, 1)))
        return float(max(extent * frac, extent * 1e-6, 1e-12))

    def _range_columns(self, low: Sequence[float], high: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`range_query`'s answer as columns, in the same order.

        Returns ``(points, values)``: an ``(r, d)`` float64 array and an
        ``(r,)`` object array.  The default converts the family's own
        ``range_query``; families with a columnar layout override this
        and make ``range_query`` a wrapper over it.
        """
        pairs = self.range_query(low, high)
        points = np.array([p for p, _ in pairs], dtype=np.float64).reshape(len(pairs), self.dims)
        return points, as_object_array([v for _, v in pairs])

    @staticmethod
    def _prepare_points(points: np.ndarray, values: Sequence[object] | None) -> tuple[np.ndarray, list[object]]:
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must have shape (n, d)")
        if pts.size and not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if values is None:
            vals: list[object] = list(range(pts.shape[0]))
        else:
            if len(values) != pts.shape[0]:
                raise ValueError("values must align with points")
            vals = list(values)
        return pts, vals


class MutableMultiDimIndex(MultiDimIndex):
    """A multi-dimensional index supporting inserts and deletes."""

    @abc.abstractmethod
    def insert(self, point: Sequence[float], value: object | None = None) -> None:
        """Insert ``point`` with ``value``."""

    @abc.abstractmethod
    def delete(self, point: Sequence[float]) -> bool:
        """Remove ``point``; return ``True`` if it was present."""


class MembershipFilter(abc.ABC):
    """Approximate membership: may return false positives, never false negatives."""

    name: str = "membership-filter"

    def __init__(self) -> None:
        self.stats = IndexStats()

    @abc.abstractmethod
    def build(self, keys: Iterable[float]) -> "MembershipFilter":
        """Construct the filter over ``keys``."""

    @abc.abstractmethod
    def might_contain(self, key: float) -> bool:
        """Return ``True`` if ``key`` may be in the set (no false negatives)."""

    def false_positive_rate(self, negatives: Iterable[float]) -> float:
        """Measure the empirical FPR over ``negatives`` (true non-members)."""
        total = 0
        hits = 0
        for key in negatives:
            total += 1
            if self.might_contain(key):
                hits += 1
        return hits / total if total else 0.0
