"""BOURBON — Dai et al., 2020: a learned index for log-structured merge trees.

BOURBON attaches error-bounded piecewise-linear models to the immutable
sorted runs (sstables) of an LSM-tree: run files never change after
creation, which makes them ideal learned-index targets.  Lookups inside a
run predict with the run's model and correct within the error bound,
replacing the per-run binary search.

Here the substrate is :class:`repro.baselines.lsm.LSMTreeIndex`; this
class overrides exactly the two hooks that BOURBON changes — model
construction at run creation and in-run search.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.lsm import LSMTreeIndex, SortedRun
from repro.models.pla import Segment, segment_stream
from repro.onedim._search import bounded_binary_search

__all__ = ["BourbonLSM"]


class _RunModel:
    """PLA segments + segment-key directory for one sorted run."""

    __slots__ = ("segments", "first_keys", "epsilon")

    def __init__(self, segments: list[Segment], epsilon: int) -> None:
        self.segments = segments
        self.first_keys = np.array([seg.key for seg in segments])
        self.epsilon = epsilon

    @property
    def size_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self.segments) + 8 * len(self.segments)


class BourbonLSM(LSMTreeIndex):
    """Learned LSM-tree: every sorted run carries a PLA model.

    Args:
        epsilon: per-run model error bound (positions).
        memtable_limit, max_runs: LSM knobs (see the base class).
    """

    name = "bourbon"

    def __init__(self, epsilon: int = 16, memtable_limit: int = 4096,
                 max_runs: int = 6) -> None:
        if epsilon < 1:
            raise ValueError("epsilon must be >= 1")
        self.epsilon = epsilon
        super().__init__(memtable_limit=memtable_limit, max_runs=max_runs)

    def _make_run_index(self, keys: np.ndarray) -> _RunModel | None:
        if keys.size == 0:
            return None
        segments = segment_stream(keys, float(self.epsilon))
        self.stats.extra["models_built"] = self.stats.extra.get("models_built", 0) + 1
        return _RunModel(segments, self.epsilon)

    def _search_run(self, run: SortedRun, key: float) -> int:
        model: _RunModel | None = run.model
        if model is None or not model.segments:
            return super()._search_run(run, key)
        self.stats.model_predictions += 1
        # Route to the covering segment (last first-key <= key).
        seg_idx = int(np.searchsorted(model.first_keys, key, side="right")) - 1
        seg_idx = min(max(seg_idx, 0), len(model.segments) - 1)
        seg = model.segments[seg_idx]
        raw = seg.predict(key)
        if math.isinf(key):
            # +-inf probes (open-ended scans): saturate the prediction.
            raw = seg.first if key < 0 else seg.last - 1
        predicted = int(np.clip(round(raw), seg.first, seg.last - 1))
        return bounded_binary_search(run.keys, key, predicted, model.epsilon + 1, self.stats)

    def model_size_bytes(self) -> int:
        """Total bytes of the learned models across all runs."""
        return sum(
            run.model.size_bytes for run in self._runs if isinstance(run.model, _RunModel)
        )
