"""S3-style learned skip list (Zhang et al., 2019).

S3 accelerates a skip list with learned models: instead of descending the
probabilistic tower levels, a model predicts where in the bottom-level
chain a key lives, and the search starts there.  Updates go through the
ordinary skip-list machinery; the model guide is rebuilt after enough
updates accumulate (the paper's periodically refreshed "neural-guided"
lanes, with a linear-segment model standing in for the tiny NN).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.skiplist import SkipListIndex, _SkipNode
from repro.models.pla import LearnedColumn

__all__ = ["LearnedSkipList"]


class LearnedSkipList(SkipListIndex):
    """Skip list with a learned fast lane.

    Args:
        rebuild_every: number of updates tolerated before the learned
            guide is rebuilt from the current chain.
        guide_epsilon: error bound of the piecewise-linear guide; the
            last-mile search window stays this wide at every n (a
            single global model's error would grow with n).
        seed: tower RNG seed (see :class:`SkipListIndex`).
    """

    name = "learned-skiplist"

    def __init__(self, rebuild_every: int = 512, guide_epsilon: int = 16,
                 seed: int = 42) -> None:
        super().__init__(seed=seed)
        if rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1")
        if guide_epsilon < 1:
            raise ValueError("guide_epsilon must be >= 1")
        self.rebuild_every = rebuild_every
        self.guide_epsilon = guide_epsilon
        self._guide_keys = np.empty(0)
        self._guide_nodes: list[_SkipNode] = []
        self._guide = LearnedColumn(self._guide_keys, guide_epsilon)
        self._dirty_ops = 0

    # -- guide maintenance ---------------------------------------------------
    def _rebuild_guide(self) -> None:
        """Compaction-bounded: the full level-0 walk runs once per
        ``rebuild_every`` mutations, so its cost is amortized O(n / n)
        per operation across the window that triggered it."""
        keys: list[float] = []
        nodes: list[_SkipNode] = []
        node = self._head.forward[0]
        while node is not None:
            keys.append(node.key)
            nodes.append(node)
            node = node.forward[0]
        self._guide_keys = np.asarray(keys, dtype=np.float64)
        self._guide_nodes = nodes
        # Piecewise-linear guide: per-segment error is capped at
        # guide_epsilon regardless of n, so the last-mile window — and the
        # counted correction work — stays constant as the chain grows
        # (the E22 witness checks exactly this).
        self._guide = LearnedColumn(self._guide_keys, self.guide_epsilon)
        self._dirty_ops = 0
        self.stats.extra["guide_rebuilds"] = self.stats.extra.get("guide_rebuilds", 0) + 1

    def build(self, keys: Sequence[float], values: Sequence[object] | None = None) -> "LearnedSkipList":
        super().build(keys, values)
        self._rebuild_guide()
        return self

    # -- accelerated reads ------------------------------------------------------
    def lookup(self, key: float) -> object | None:
        """Error-bounded chain walk: the guide predicts a start node and
        the walk is cut off after ``4 * (dirty_ops + guide_error + 2)``
        steps, falling back to the O(log n) tower search."""
        self._require_built()
        key = float(key)
        if self._dirty_ops >= self.rebuild_every:
            self._rebuild_guide()
        n = self._guide_keys.size
        if n == 0:
            return super().lookup(key)
        pos = self._guide.locate(self._guide_keys, key, self.stats)
        # Start walking the live chain one guide entry early: inserts since
        # the last rebuild may sit between guide entries.
        start = max(pos - 1, 0)
        node: _SkipNode | None = self._guide_nodes[start] if start < n else None
        if node is None or node.key > key:
            node = self._head.forward[0]
        steps = 0
        while node is not None and node.key < key:
            node = node.forward[0]
            steps += 1
            if steps > 4 * (self._dirty_ops + self.guide_epsilon + 2):
                # Guide too stale to be useful: fall back to tower search.
                return super().lookup(key)
        self.stats.keys_scanned += steps
        if node is not None and node.key == key:
            return node.value
        return None

    # -- updates invalidate the guide ----------------------------------------------
    def _insert(self, key: float, value: object | None) -> None:
        super()._insert(key, value)
        self._dirty_ops += 1

    def _delete(self, key: float) -> bool:
        result = super()._delete(key)
        if result:
            self._dirty_ops += 1
            # A deleted node may still be referenced by the guide; rebuild
            # eagerly so stale pointers never serve reads.
            self._rebuild_guide()
        return result

    # -- built-state export ------------------------------------------------
    #: The guide holds live node references; null it during export and
    #: rebuild it from the restored chain (see SkipListIndex.export_state).
    _STATE_NODE_ATTRS = ("_head", "_guide_nodes")

    def _restore_from_chain(self) -> None:
        self._guide_nodes = []
        self._rebuild_guide()
