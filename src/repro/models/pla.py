"""Error-bounded piecewise-linear approximation (PLA).

This is the substrate of the PGM-index and FITing-Tree families: partition
a sorted sequence of ``(key, position)`` pairs into the fewest segments
such that, within each segment, a linear model predicts every position to
within a user-chosen error ``epsilon``.

Three algorithms are provided:

* :func:`segment_stream` — single-pass *shrinking-cone* segmentation.  The
  segment is anchored at its first point; each new point narrows the
  feasible slope interval, and the segment closes when the interval
  becomes empty.  Every produced segment satisfies the epsilon guarantee
  by construction.  (This is the FITing-Tree algorithm and the standard
  practical PGM construction; the fully optimal O'Rourke variant saves at
  most a small constant factor of segments.)
* :func:`spline_knots` — RadixSpline's greedy corridor over the same
  cone kernel: the knots are data points and each corridor restarts at
  the previous knot, so the pieces join into one continuous spline.
* :func:`segment_greedy_splits` — fixed-size fallback used in tests as a
  trivially correct baseline.

Each :class:`Segment` stores the anchor key, slope, anchor position, and
the covered slice ``[first, last)`` of the sorted array.

:class:`LearnedColumn` is the survey's pure learned index over one sorted
column — the segments, their error bound and the bounded last-mile
search — written once for every family that searches a sorted column
with PLA segments.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

from repro.core import sanitize as _sanitize
from repro.core.numeric import exact_float64

if TYPE_CHECKING:
    from repro.core.interfaces import IndexStats

__all__ = ["LearnedColumn", "Segment", "segment_stream", "segment_greedy_splits",
           "spline_knots", "verify_epsilon"]


@dataclass(frozen=True)
class Segment:
    """One epsilon-bounded linear segment over a slice of sorted keys.

    The model is stored in *anchor form* — ``pos ~= slope * (k - key) +
    anchor_pos`` — which stays numerically stable even when ``slope`` is
    huge (tiny key gaps) and ``key`` is large, where the textbook
    ``slope * k + intercept`` form would overflow.

    Attributes:
        key: smallest key covered (the anchor of the model).
        slope: model slope in positions per key unit.
        anchor_pos: position predicted exactly at the anchor key.
        first: index of the first covered position (inclusive).
        last: index one past the last covered position (exclusive).
    """

    key: float
    slope: float
    anchor_pos: float
    first: int
    last: int

    def predict(self, key: float) -> float:
        """Predicted (float) position of ``key`` within the global array."""
        return self.slope * (key - self.key) + self.anchor_pos

    @property
    def intercept(self) -> float:
        """Equivalent global intercept (may overflow for extreme slopes)."""
        return self.anchor_pos - self.slope * self.key

    def __len__(self) -> int:
        return self.last - self.first

    @property
    def size_bytes(self) -> int:
        """Storage: key, slope, anchor position, and two 8-byte offsets."""
        return 40


def segment_stream(keys: np.ndarray, epsilon: float, positions: np.ndarray | None = None) -> list[Segment]:
    """Partition sorted ``keys`` into epsilon-bounded linear segments.

    Args:
        keys: sorted 1-d array of finite keys (duplicates allowed);
            a NaN or infinite key raises ``ValueError``.
        epsilon: maximum absolute error of each segment's predictions, in
            positions.  Must be >= 0; ``epsilon = 0`` degenerates to one
            segment per distinct slope change and is permitted.
        positions: optional target positions; defaults to ``0..n-1``.

    Returns:
        A list of :class:`Segment` covering ``[0, n)`` without gaps.
        The epsilon bound is exact in real arithmetic; float rounding can
        exceed it by a few ulps, which is why every index built on these
        segments searches a window of ``epsilon + 1`` positions.

    The algorithm anchors each segment at its first point ``(k0, p0)`` and
    maintains the interval of slopes ``[lo, hi]`` for which the line
    through the anchor stays within ``epsilon`` of every point seen so
    far.  When a point empties the interval, the segment is emitted and a
    new one starts at that point.  Duplicate keys equal to the anchor are
    handled by checking their position error directly (slope is
    irrelevant for a zero key delta).

    :func:`_cones` evaluates the cone a block at a time and :func:`_chain`
    walks the cuts through the blocks.  The segments equal, float for
    float, those of the one-point-at-a-time loop.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    n = keys.size
    if n == 0:
        return []
    if not np.isfinite(keys).all():
        # No line through an infinite key predicts the points beside it.
        raise ValueError("keys must be finite")
    default_positions = positions is None
    if positions is None:
        positions = np.arange(n, dtype=np.float64)
    else:
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.shape != keys.shape:
            raise ValueError("positions must align with keys")

    with np.errstate(all="ignore"):
        cones = _chain(keys, positions, epsilon, _cones, 0)
    segments = [Segment(key=float(keys[a]), slope=_pick_slope(lo, hi),
                        anchor_pos=float(positions[a]), first=a, last=stop)
                for a, stop, lo, hi in cones]
    if default_positions and _sanitize.enabled():
        # Dynamic cross-check of the construction guarantee: every index
        # built on these segments searches a window of epsilon + 1
        # positions, so that is the bound the sanitizer holds us to.
        worst = verify_epsilon(keys, segments, epsilon)
        _sanitize.check(
            worst <= epsilon + 1.0,
            f"segment_stream: epsilon bound violated (worst error {worst} "
            f"> epsilon + 1 = {epsilon + 1.0})",
        )
    return segments


#: Cells (anchors x points) of one speculative block.  A numpy call costs
#: as much as touching ~10^3 elements, so a block of a few dozen points
#: is mostly overhead.  While ``4 * lags**2 <= _TABLE_CELLS`` (a block
#: resolves ~8 or more segments) it evaluates ``_TABLE_CELLS // lags``
#: consecutive anchors at once instead of one.
_TABLE_CELLS = 2048

_Kernel = Callable[..., tuple[list[int], np.ndarray, np.ndarray, np.ndarray]]


def _chain(keys: np.ndarray, positions: np.ndarray, epsilon: float, kernel: _Kernel,
           back: int) -> list[tuple[int, int, float, float]]:
    """The chain of cones over the sorted keys, one block at a time.

    Each cone runs from its anchor to ``stop``, the first point that does
    not fit (``n`` at the end); ``lo``/``hi`` are its running slope
    bounds at the last point that does.  The next cone is anchored
    ``back`` points before ``stop``.  Returns ``(anchor, stop, lo, hi)``
    per cone.

    A block spans twice the mean cone length so far and doubles while
    the cone stays open (it quadruples until the first cone closes,
    since nothing yet says how long cones are); while cones are short,
    one block holds the cones of many speculative anchors
    (:data:`_TABLE_CELLS`) and the chain of cuts walks through it.
    """
    n = keys.size
    limit = max(n >> 3, _TABLE_CELLS)  # block rows: temporaries stay small next to the keys
    cones: list[tuple[int, int, float, float]] = []

    def guess(at: int) -> int:
        """Twice the mean length of the cones before ``at``."""
        return 2 * -(-at // len(cones))

    start = 0
    while start < n - back:
        lags = min(guess(start) if cones else 2, limit, n - start)
        anchors = min(_TABLE_CELLS // lags if 4 * lags * lags <= _TABLE_CELLS else 1, n - start)
        cuts, run_lo, run_hi, fits = kernel(keys, positions, epsilon, start, anchors, 1, lags,
                                            -math.inf, math.inf)
        f = start
        while f < min(start + anchors, n - back):
            i = f - start
            lag, j, block, seed = 1, cuts[i], lags, (-math.inf, math.inf)
            lo, hi, ok = run_lo[i], run_hi[i], fits[i]
            while ok[j]:
                # Open after the block: extend this cone alone (a table
                # row's cone jumps to the usual block at once).
                seed = (float(lo[-1]), float(hi[-1]))
                lag += block
                grown = max(2 * block, guess(f)) if cones else 4 * block
                block = min(grown, limit, n + 1 - f - lag)
                (j,), lo, hi, ok = kernel(keys, positions, epsilon, f, 1, lag, block, *seed)
                lo, hi, ok = lo[0], hi[0], ok[0]
            stop = f + lag + j
            lo_j, hi_j = (float(lo[j - 1]), float(hi[j - 1])) if j else seed
            cones.append((f, stop, lo_j, hi_j))
            f = stop - back
        start = f
    return cones


def _bounds(
    keys: np.ndarray, positions: np.ndarray, offsets: tuple[float, ...], first: int,
    anchors: int, lag: int, width: int,
) -> tuple[np.ndarray, float | np.ndarray, np.ndarray, np.ndarray]:
    """Key offsets and slope bounds of ``anchors`` consecutive anchors over one block.

    Row ``i`` is the anchor ``first + i`` and column ``j`` the point
    ``lag + j`` rows past it.  Returns ``dk``, the anchor positions
    ``p0``, the points' positions ``p`` and, stacked per offset ``d``,
    ``(p + d - p0) / dk`` -- with ``d = -+epsilon`` the slope bounds in
    the loops' formula and operation order.  Points past the end read as
    NaN.
    """
    begin = first + lag
    end = begin + anchors + width - 1
    ks, ps = keys[begin:end], positions[begin:end]
    if end > keys.size:
        pad = np.full(end - keys.size, np.nan)
        ks, ps = np.concatenate((ks, pad)), np.concatenate((ps, pad))
    p0: float | np.ndarray
    strips = np.add.outer(offsets, ps)
    if anchors == 1:  # scalars broadcast far cheaper than (1, 1) columns
        p0 = float(positions[first])
        dk = (ks - float(keys[first]))[None]
        strips -= p0
        strips /= dk
        return dk, p0, ps[None], strips[:, None]
    k0, p0 = keys[first:first + anchors, None], positions[first:first + anchors, None]
    # Row i of a window is its strip's [i:i + width], as a strided view.
    rows = np.ndarray((len(offsets), anchors, width), np.float64, strips, 0,
                      (8 * ps.size, 8, 8))
    dk = np.ndarray((anchors, width), np.float64, ks, 0, (8, 8)) - k0
    bounds = rows - p0
    bounds /= dk
    return dk, p0, np.ndarray((anchors, width), np.float64, ps, 0, (8, 8)), bounds


def _accumulate(c_lo: np.ndarray, c_hi: np.ndarray, lo: float, hi: float) -> None:
    """Running slope bounds along each row, in place, seeded with the
    carried ``lo``/``hi`` the way the loops' max/min keep them."""
    if not c_lo[0, 0] > lo:
        c_lo[0, 0] = lo
    if not c_hi[0, 0] < hi:
        c_hi[0, 0] = hi
    np.maximum.accumulate(c_lo, axis=1, out=c_lo)
    np.minimum.accumulate(c_hi, axis=1, out=c_hi)


def _cones(
    keys: np.ndarray, positions: np.ndarray, epsilon: float, first: int, anchors: int,
    lag: int, width: int, lo: float, hi: float,
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Shrinking cones of ``anchors`` consecutive anchors over one block.

    Returns each row's first column that does not fit (a fitting column
    if none fails), the running slope bounds after each column (``lo`` /
    ``hi`` seed them) and the ``fits`` mask.  A point fits while the
    running interval stays non-empty, so a cone that reaches the end
    closes at ``n``.

    A point with ``dk <= 0`` (a duplicate of the anchor) fits iff ``|p0
    - p| <= epsilon`` and leaves the bounds alone; a non-finite bound
    never fits.  Both are masked only when the block holds one.
    """
    dk, p0, ps, (c_lo, c_hi) = _bounds(keys, positions, (-epsilon, epsilon), first, anchors,
                                       lag, width)
    ok: np.ndarray | None = None
    if not (np.minimum.reduce(dk, axis=None) > 0.0
            and math.isfinite(np.add.reduce(c_hi - c_lo, axis=None))):
        dup = dk <= 0.0
        dup_fits = dup & (np.abs(p0 - ps) <= epsilon)
        ok = (np.isfinite(c_lo) & np.isfinite(c_hi) & ~dup) | dup_fits
        c_lo[dup_fits] = -np.inf
        c_hi[dup_fits] = np.inf
    _accumulate(c_lo, c_hi, lo, hi)
    fits = c_lo <= c_hi
    if ok is not None:
        fits &= ok
    return fits.argmin(axis=1).tolist(), c_lo, c_hi, fits


def _corridors(
    keys: np.ndarray, positions: np.ndarray, epsilon: float, first: int, anchors: int,
    lag: int, width: int, lo: float, hi: float,
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """RadixSpline's corridors: :func:`_cones` with the spline's fit rule.

    A point fits when its exact slope ``(p - p0) / dk`` is finite and
    lies inside the running interval of the points before it.  Its own
    bounds always hold that slope, so the interval that includes them
    answers the same.  A cone's first point (``lag == 1``) is accepted
    untested, and a duplicate of the anchor always fits and leaves the
    bounds alone.
    """
    dk, _, _, (c_lo, slope, c_hi) = _bounds(keys, positions, (-epsilon, 0.0, epsilon), first,
                                            anchors, lag, width)
    fast = math.isfinite(np.add.reduce(slope, axis=None))  # no duplicate, pad or overflow
    if not fast:
        dup = dk <= 0.0
        c_lo[dup] = -np.inf
        c_hi[dup] = np.inf
    _accumulate(c_lo, c_hi, lo, hi)
    fits = c_lo <= slope
    fits &= slope <= c_hi
    if not fast:
        fits &= np.isfinite(slope)
        fits |= dup
        if lag == 1:
            fits[:, 0] = True
    return fits.argmin(axis=1).tolist(), c_lo, c_hi, fits


def spline_knots(keys: np.ndarray, max_error: float) -> tuple[np.ndarray, np.ndarray]:
    """RadixSpline's greedy error-bounded spline over sorted ``keys``.

    The spline interpolates between *knots*, which are data points: the
    corridor from the current knot keeps the slopes whose line stays
    within ``max_error`` positions of every point seen, and when a
    point's exact slope leaves it, the point before becomes the next
    knot and the next corridor starts there.  The first and last keys
    are knots and knot keys strictly increase (a run of equal keys keeps
    its first knot).

    Returns:
        The knot keys and knot positions, as two float64 columns.
    """
    keys = np.ascontiguousarray(keys, dtype=np.float64)
    if keys.ndim != 1:
        raise ValueError("keys must be one-dimensional")
    if max_error < 0:
        raise ValueError("max_error must be non-negative")
    n = keys.size
    if n == 0:
        return np.empty(0), np.empty(0)
    with np.errstate(all="ignore"):
        cones = _chain(keys, np.arange(n, dtype=np.float64), float(max_error), _corridors, 1)
    bases = np.array([cone[0] for cone in cones] or [0], dtype=np.int64)
    base_keys = keys[bases]
    knots = bases[np.concatenate(([True], base_keys[1:] > base_keys[:-1]))]
    if keys[-1] > keys[knots[-1]]:
        knots = np.append(knots, n - 1)
    if _sanitize.enabled():
        worst = _corridor_error(keys, bases)
        _sanitize.check(
            worst <= max_error + 1.0,
            f"spline_knots: corridor bound violated (worst error {worst} "
            f"> max_error + 1 = {max_error + 1.0})",
        )
    return keys[knots], knots.astype(np.float64)


def _corridor_error(keys: np.ndarray, bases: np.ndarray) -> float:
    """Worst error of the points inside each corridor against the line from
    its base to its last point.  Points equal to the base key, and those
    whose key offset or line is not finite, carry no bound."""
    ends = np.append(bases[1:], keys.size - 1)
    idx = np.arange(keys.size)
    cone = np.searchsorted(bases, idx, side="right") - 1
    b, e = bases[cone], ends[cone]
    with np.errstate(all="ignore"):
        dk = keys - keys[b]
        line = (e - b) / (keys[e] - keys[b]) * dk + b
        err = np.abs(line - idx)
    err = err[(dk > 0.0) & np.isfinite(dk) & np.isfinite(err)]
    return float(err.max()) if err.size else 0.0


def _pick_slope(lo: float, hi: float) -> float:
    """Pick a representative slope from the feasible interval."""
    if not math.isfinite(lo) and not math.isfinite(hi):
        return 0.0
    if not math.isfinite(lo):
        return hi
    if not math.isfinite(hi):
        return lo
    return (lo + hi) / 2.0


class LearnedColumn:
    """Epsilon-bounded PLA segments over a sorted key column.

    The column holds only per-segment parameters — anchor keys (in the
    dtype of the fitted keys), slopes, anchor positions and covered
    slices ``[first, last)`` — as numpy columns for the batch calls and
    as Python rows for the scalar ones.  Callers keep the sorted keys and
    pass them to every search, so an exported index shares its key
    column instead of pickling it inside the model.

    Three calls, each with a batch twin:

    * :meth:`route` — the last segment anchored strictly below ``q``.
      It holds the start of ``q``'s run of equal keys, or ends right
      before it; a segment anchored inside the run would predict a
      position past the run's start.
    * :meth:`search` — predict with one segment, clamp into it, then a
      bounded binary search over ``epsilon + 1`` positions.
    * :meth:`locate` — :meth:`search` after :meth:`route`, which is
      ``np.searchsorted(keys, q, side="left")``.

    Non-finite queries: a prediction that is not finite (a +-inf query,
    NaN, an overflowing slope) goes to the segment end it points at, NaN
    to the last position; NaN routes to the last segment and orders after
    every key, so ``locate`` answers ``len(keys)`` for it, as
    ``searchsorted`` does.  An exact-match probe then answers "absent".
    """

    __slots__ = ("epsilon", "keys", "slopes", "anchors", "firsts", "lasts",
                 "key_list", "_rows")

    def __init__(self, keys: np.ndarray, epsilon: int) -> None:
        keys = np.asarray(keys)
        segments = segment_stream(exact_float64(keys, what="learned column keys"),
                                  float(epsilon))
        firsts = np.array([seg.first for seg in segments], dtype=np.int64)
        self._set(int(epsilon), keys[firsts],
                  np.array([seg.slope for seg in segments], dtype=np.float64),
                  np.array([seg.anchor_pos for seg in segments], dtype=np.float64),
                  firsts, np.array([seg.last for seg in segments], dtype=np.int64))

    @classmethod
    def through(cls, keys: np.ndarray, knot_keys: np.ndarray,
                knot_positions: np.ndarray) -> "LearnedColumn":
        """The interpolating column through the knots of sorted ``keys``.

        Knot ``s`` anchors segment ``s``, whose slope reaches knot ``s +
        1`` and which covers positions ``[p_s, p_{s+1}]``.  The last
        segment covers only the last knot's position; it keeps the slope
        before it (1 for a single knot), so an infinite query saturates
        instead of meeting a flat ``0 * inf``.  ``epsilon`` is the
        measured error over ``keys`` (ceiled), so it also covers the
        duplicate-key corner that voids a fit's own bound.
        """
        firsts = knot_positions.astype(np.int64)
        with np.errstate(divide="ignore", over="ignore"):
            slopes = np.diff(knot_positions) / np.diff(knot_keys)
        slopes = np.append(slopes, slopes[-1:] if slopes.size else 1.0)
        column = cls.__new__(cls)
        column._set(0, knot_keys, slopes, knot_positions, firsts,
                    np.append(firsts[1:], firsts[-1:]) + 1)
        # route_batch(keys) for sorted keys: a segment starts past its anchor.
        starts = np.searchsorted(keys, knot_keys[1:], side="right")
        seg = np.repeat(np.arange(len(column)), np.diff(starts, prepend=0, append=keys.size))
        error = column.predict_batch(seg, keys) - np.arange(keys.size)
        column.epsilon = int(np.ceil(np.abs(error).max()))
        return column

    def _set(self, epsilon: int, keys: np.ndarray, slopes: np.ndarray,
             anchors: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> None:
        self.epsilon = epsilon
        self.keys, self.slopes, self.anchors = keys, slopes, anchors
        self.firsts, self.lasts = firsts, lasts
        #: Anchor keys as Python floats, for the scalar route and PGM's walk.
        self.key_list: list[float] = exact_float64(keys).tolist()
        self._rows = list(zip(self.key_list, slopes.tolist(), anchors.tolist(),
                              firsts.tolist(), (lasts - 1).tolist()))

    def __getstate__(self) -> tuple[Any, ...]:
        # The rows are derived; pickling only the columns keeps it compact.
        return (self.epsilon, self.keys, self.slopes, self.anchors, self.firsts, self.lasts)

    def __setstate__(self, state: tuple[Any, ...]) -> None:
        self._set(*state)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def size_bytes(self) -> int:
        """40 bytes per segment (see :attr:`Segment.size_bytes`)."""
        return 40 * len(self._rows)

    # -- scalar ---------------------------------------------------------------
    def route(self, q: float) -> int:
        """The last segment anchored strictly below ``q`` (0 if none)."""
        seg = bisect_left(self.key_list, q) - 1
        if seg < 0:
            return 0 if q == q else len(self._rows) - 1  # NaN routes last
        return seg

    def predict(self, seg: int, q: float) -> float:
        """Segment ``seg``'s raw position for ``q``; a non-finite one goes
        to the end of the segment it points at."""
        key, slope, anchor, first, end = self._rows[seg]
        raw = slope * (q - key) + anchor
        if math.isfinite(raw):
            return raw
        return first if raw < 0 else end

    def search(self, keys: np.ndarray, seg: int, q: float, stats: IndexStats) -> int:
        """Lower-bound position of ``q`` in ``keys`` from segment ``seg``."""
        _, _, _, first, end = self._rows[seg]
        predicted = min(max(round(self.predict(seg, q)), first), end)
        stats.model_predictions += 1
        return bounded_binary_search(keys, q, predicted, self.epsilon + 1, stats)

    def locate(self, keys: np.ndarray, q: float, stats: IndexStats) -> int:
        """Lower-bound position of ``q`` in the sorted ``keys``."""
        return self.search(keys, self.route(q), q, stats)

    # -- batch ------------------------------------------------------------------
    def route_batch(self, qs: np.ndarray) -> np.ndarray:
        """:meth:`route` per row."""
        return np.maximum(np.searchsorted(self.keys, qs, side="left") - 1, 0)

    def predict_batch(self, seg: np.ndarray | int, qs: np.ndarray) -> np.ndarray:
        """:meth:`predict` per row, clamped into the segment (unrounded)."""
        firsts, lasts = self.firsts[seg], self.lasts[seg]
        # A flat segment times an infinite query is NaN, and NaN compares
        # false: it goes to the segment's end.
        with np.errstate(invalid="ignore"):
            raw = self.slopes[seg] * (qs - self.keys[seg]) + self.anchors[seg]
            finite = np.isfinite(raw)
            if not finite.all():
                raw = np.where(finite, raw, np.where(raw < 0, firsts, lasts - 1))
        return np.minimum(np.maximum(raw, firsts), lasts - 1)

    def search_batch(self, keys: np.ndarray, seg: np.ndarray | int, qs: np.ndarray,
                     stats: IndexStats) -> np.ndarray:
        """:meth:`search` per row; ``seg`` is one segment or one per row."""
        predicted = np.rint(self.predict_batch(seg, qs)).astype(np.int64)
        stats.model_predictions += qs.size
        return bounded_search_batch(keys, qs, predicted, self.epsilon + 1, stats)

    def locate_batch(self, keys: np.ndarray, qs: np.ndarray, stats: IndexStats) -> np.ndarray:
        """:meth:`locate` per row."""
        return self.search_batch(keys, self.route_batch(qs), qs, stats)


def segment_greedy_splits(keys: np.ndarray, segment_size: int) -> list[Segment]:
    """Baseline: fixed-size segments with endpoint-fit lines (no guarantee).

    Useful as a correctness oracle in tests and as the untuned ablation in
    the epsilon-trade-off benchmark.
    """
    keys = np.asarray(keys, dtype=np.float64)
    if segment_size <= 0:
        raise ValueError("segment_size must be positive")
    n = keys.size
    segments = []
    for start in range(0, n, segment_size):
        end = min(start + segment_size, n)
        k0, k1 = float(keys[start]), float(keys[end - 1])
        if end - start == 1 or k1 == k0:
            slope = 0.0
        else:
            slope = (end - 1 - start) / (k1 - k0)
        segments.append(Segment(key=k0, slope=slope, anchor_pos=float(start),
                                first=start, last=end))
    return segments


def verify_epsilon(keys: np.ndarray, segments: list[Segment], epsilon: float) -> float:
    """Return the max absolute error of ``segments`` over ``keys``.

    A slope-0 segment predicts its anchor position for every key it
    covers, so its error needs no key offset (which may overflow or be
    infinite).  A NaN error is not dropped: the result is then NaN, and
    every ``worst <= bound`` check fails.

    Raises:
        AssertionError: if segments do not tile ``[0, n)`` exactly.
    """
    keys = np.asarray(keys, dtype=np.float64)
    n = keys.size
    covered = 0
    for seg in segments:
        assert seg.first == covered, "segments must tile the array"
        covered = seg.last
    assert covered == n, "segments must cover all keys"
    if n == 0:
        return 0.0
    lengths = [seg.last - seg.first for seg in segments]
    preds = np.repeat([seg.anchor_pos for seg in segments], lengths)
    slopes = np.repeat([seg.slope for seg in segments], lengths)
    anchors = np.repeat([seg.key for seg in segments], lengths)
    moving = slopes != 0.0
    preds[moving] += slopes[moving] * (keys[moving] - anchors[moving])
    return float(np.abs(preds - np.arange(n)).max())


# Imported last: the search helpers live in ``repro.onedim``, whose
# package init imports the indexes that import this module.
from repro.onedim._search import bounded_binary_search, bounded_search_batch  # noqa: E402
