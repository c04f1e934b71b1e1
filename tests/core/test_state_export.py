"""Round-trip tests for export_state/from_state and shm snapshot packing.

Every registered factory (1-d and multi-d) must survive
``export_state -> from_state`` with query-for-query parity: the process
backend ships exactly this state through shared memory, so a factory
that reconstructs incorrectly here would serve wrong answers from a
worker there.  The shm section packs states into real
``multiprocessing.shared_memory`` segments and attaches zero-copy views
the way a worker does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.core import NotBuiltError
from repro.core.state import StateError, index_from_state, resolve_index_class
from repro.data import load_1d, load_nd
from repro.serve.shm import (
    SEGMENT_PREFIX,
    SnapshotIntegrityError,
    attach_view,
    list_repro_segments,
    pack_state,
    release_segment,
)

N_1D = 600
N_ND = 400

#: Indexes whose snapshots the serving layer actually ships; these also
#: get the full shared-memory pack/attach treatment.
SHM_HOT_1D = ["rmi", "pgm", "alex", "b+tree", "learned-skiplist"]
SHM_HOT_ND = ["zm-index", "flood", "r-tree"]


@pytest.fixture(scope="module")
def keys_1d():
    return load_1d("lognormal", N_1D, seed=11)


@pytest.fixture(scope="module")
def points_nd():
    return load_nd("clusters", N_ND, seed=12)


def _assert_1d_parity(original, restored, keys):
    sk = np.sort(keys)
    for i in range(0, len(sk), 53):
        key = float(sk[i])
        assert restored.lookup(key) == original.lookup(key)
        assert restored.contains(key) == original.contains(key)
    assert restored.range_query(float(sk[5]), float(sk[60])) == \
        original.range_query(float(sk[5]), float(sk[60]))
    assert restored.lookup(float(sk[-1]) + 1e6) is None


def _assert_nd_parity(original, restored, points):
    for i in range(0, len(points), 71):
        assert restored.point_query(points[i]) == original.point_query(points[i])


class TestRoundTripEveryFactory:
    @pytest.mark.parametrize("name", sorted(ONE_DIM_FACTORIES))
    def test_one_dim_roundtrip(self, name, keys_1d):
        original = ONE_DIM_FACTORIES[name]().build(keys_1d)
        state = original.export_state()
        cls = resolve_index_class(state)
        assert cls is type(original)
        restored = cls.from_state(state)
        _assert_1d_parity(original, restored, keys_1d)

    @pytest.mark.parametrize("name", sorted(MULTI_DIM_FACTORIES))
    def test_multi_dim_roundtrip(self, name, points_nd):
        original = MULTI_DIM_FACTORIES[name]().build(points_nd)
        state = original.export_state()
        restored = resolve_index_class(state).from_state(state)
        _assert_nd_parity(original, restored, points_nd)

    def test_unbuilt_index_refuses_export(self):
        with pytest.raises(NotBuiltError):
            ONE_DIM_FACTORIES["pgm"]().export_state()

    def test_restored_index_reports_built(self, keys_1d):
        original = ONE_DIM_FACTORIES["rmi"]().build(keys_1d)
        restored = type(original).from_state(original.export_state())
        # A view must answer queries without tripping _require_built.
        restored._require_built()

    def test_generic_from_state_matches_helper(self, keys_1d):
        original = ONE_DIM_FACTORIES["binary-search"]().build(keys_1d)
        state = original.export_state()
        via_cls = type(original).from_state(state)
        via_helper = index_from_state(state)
        sk = np.sort(keys_1d)
        assert via_cls.lookup(float(sk[7])) == via_helper.lookup(float(sk[7]))

    def test_array_substitution_count_checked(self, keys_1d):
        state = ONE_DIM_FACTORIES["pgm"]().build(keys_1d).export_state()
        with pytest.raises(StateError, match="array count mismatch"):
            index_from_state(state, arrays=state.arrays[:-1])


class TestSharedMemoryRoundTrip:
    @pytest.mark.parametrize("name", SHM_HOT_1D)
    def test_one_dim_pack_attach(self, name, keys_1d):
        original = ONE_DIM_FACTORIES[name]().build(keys_1d)
        manifest, shm = pack_state(original.export_state(), generation=3)
        try:
            assert manifest.shm_name.startswith(SEGMENT_PREFIX)
            assert manifest.generation == 3
            view, attached = attach_view(manifest)
            _assert_1d_parity(original, view, keys_1d)
            del view
            attached.close()
        finally:
            release_segment(shm)

    @pytest.mark.parametrize("name", SHM_HOT_ND)
    def test_multi_dim_pack_attach(self, name, points_nd):
        original = MULTI_DIM_FACTORIES[name]().build(points_nd)
        manifest, shm = pack_state(original.export_state())
        try:
            view, attached = attach_view(manifest)
            _assert_nd_parity(original, view, points_nd)
            del view
            attached.close()
        finally:
            release_segment(shm)

    def test_attached_arrays_are_read_only_views(self, keys_1d):
        original = ONE_DIM_FACTORIES["binary-search"]().build(keys_1d)
        manifest, shm = pack_state(original.export_state())
        try:
            view, attached = attach_view(manifest)
            # Object-dtype arrays travel through the pickled payload;
            # only numeric arrays are zero-copy views over the segment.
            shared = [a for a in vars(view).values()
                      if isinstance(a, np.ndarray) and a.size
                      and a.dtype != object]
            assert shared, "expected at least one shared array view"
            for arr in shared:
                assert not arr.flags.writeable
                assert not arr.flags.owndata
                with pytest.raises(ValueError):
                    arr[0] = 0.0
            del view, shared
            attached.close()
        finally:
            release_segment(shm)

    def test_corrupt_buffer_fails_digest(self, keys_1d):
        original = ONE_DIM_FACTORIES["pgm"]().build(keys_1d)
        manifest, shm = pack_state(original.export_state())
        try:
            shm.buf[manifest.total_bytes // 2] ^= 0xFF
            with pytest.raises(SnapshotIntegrityError, match="sha256 mismatch"):
                attach_view(manifest)
        finally:
            release_segment(shm)

    def test_missing_segment_is_integrity_error(self, keys_1d):
        original = ONE_DIM_FACTORIES["pgm"]().build(keys_1d)
        manifest, shm = pack_state(original.export_state())
        release_segment(shm)
        with pytest.raises(SnapshotIntegrityError, match="does not exist"):
            attach_view(manifest)

    def test_release_segment_unlinks_and_tolerates_repeat(self, keys_1d):
        original = ONE_DIM_FACTORIES["rmi"]().build(keys_1d)
        manifest, shm = pack_state(original.export_state())
        assert manifest.shm_name in list_repro_segments()
        release_segment(shm)
        assert manifest.shm_name not in list_repro_segments()

    def test_empty_payload_only_state_packs(self):
        # An index whose state has a zero-length array still round-trips.
        keys = np.array([1.0, 2.0, 3.0])
        original = ONE_DIM_FACTORIES["hash"]().build(keys)
        manifest, shm = pack_state(original.export_state())
        try:
            view, attached = attach_view(manifest)
            assert view.lookup(2.0) == original.lookup(2.0)
            del view
            attached.close()
        finally:
            release_segment(shm)


def _payload_arrays(payload: bytes) -> list[np.ndarray]:
    """Every ndarray the pickled residue of a state carries."""
    import io
    import pickle

    found: list[np.ndarray] = []

    class Collect(pickle.Pickler):
        def reducer_override(self, obj):
            if isinstance(obj, np.ndarray):
                found.append(obj)
            return NotImplemented

    Collect(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(pickle.loads(payload))
    return found


@pytest.mark.parametrize("name", ["pgm", "dynamic-pgm", "zm-index"])
def test_payload_holds_no_key_length_numeric_array(name):
    # The learned models pickle per-segment parameters only: every numeric
    # column as long as the data is a shared array.  Object-dtype value
    # columns cannot be shared and are the residue's one O(n) part.
    n = 100_000
    rng = np.random.default_rng(0)
    data = rng.uniform(0.0, 1.0, (n, 2) if name == "zm-index" else n)
    factory = MULTI_DIM_FACTORIES.get(name) or ONE_DIM_FACTORIES[name]
    index = factory().build(data)
    state = index.export_state()
    assert [a.shape for a in _payload_arrays(state.payload)
            if a.dtype != object and a.shape[:1] == (n,)] == []
    assert any(a.shape[:1] == (n,) for a in state.arrays)
    restored = type(index).from_state(state)
    probe = np.concatenate((data[:50], rng.uniform(0.0, 1.0, data[:50].shape)))
    if name == "zm-index":
        assert restored.point_query_batch(probe).tolist() == index.point_query_batch(probe).tolist()
    else:
        assert restored.lookup_batch(probe).tolist() == index.lookup_batch(probe).tolist()
