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

import numpy as np

from repro.baselines.lsm import LSMTreeIndex, SortedRun
from repro.models.pla import LearnedColumn

__all__ = ["BourbonLSM"]


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

    def _make_run_index(self, keys: np.ndarray) -> LearnedColumn | None:
        if keys.size == 0:
            return None
        self.stats.extra["models_built"] = self.stats.extra.get("models_built", 0) + 1
        return LearnedColumn(keys, self.epsilon)

    def _search_run(self, run: SortedRun, key: float) -> int:
        model = run.model
        if not isinstance(model, LearnedColumn):
            return super()._search_run(run, key)
        return model.locate(run.keys, key, self.stats)

    def model_size_bytes(self) -> int:
        """Total bytes of the learned models across all runs: 40 per
        segment plus its 8-byte entry in the run's segment directory."""
        return sum(
            run.model.size_bytes + 8 * len(run.model)
            for run in self._runs if isinstance(run.model, LearnedColumn)
        )
