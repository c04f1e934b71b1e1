"""IndexServer / ShardedStore snapshot persistence and cold-start restore."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.artifact import ArtifactError
from repro.data import load_1d, load_nd
from repro.onedim.alex import ALEXIndex
from repro.onedim.rmi import RMIIndex
from repro.multidim.zm_index import ZMIndex
from repro.serve.server import IndexServer
from repro.serve.sharding import (
    STORE_SNAPSHOT_FORMAT,
    STORE_SNAPSHOT_VERSION,
    ShardedStore,
)


def _rmi():
    return RMIIndex()


def _zm():
    return ZMIndex()


def _alex():
    return ALEXIndex()


class TestStoreSnapshot:
    def test_round_trip_parity(self, tmp_path):
        keys = load_1d("lognormal", 2000, seed=31)
        store = ShardedStore(_rmi, num_shards=4)
        store.build(keys)
        store.save_snapshot(tmp_path / "snap")
        restored = ShardedStore.from_snapshot(tmp_path / "snap", factory=_rmi)
        sk = np.sort(keys)
        for i in range(0, 2000, 131):
            assert restored.lookup(float(sk[i])) == store.lookup(float(sk[i]))
        assert restored.num_shards == 4
        assert restored.generations == store.generations

    def test_store_json_schema(self, tmp_path):
        keys = load_1d("uniform", 500, seed=32)
        store = ShardedStore(_rmi, num_shards=2)
        store.build(keys)
        root = store.save_snapshot(tmp_path / "snap")
        meta = json.loads((root / "store.json").read_text())
        assert meta["format"] == STORE_SNAPSHOT_FORMAT
        assert meta["format_version"] == STORE_SNAPSHOT_VERSION
        assert meta["num_shards"] == 2
        assert len(meta["shards"]) == 2
        assert len(meta["generations"]) == 2
        assert "environment" in meta

    def test_restore_runs_no_build(self, tmp_path, monkeypatch):
        keys = load_1d("uniform", 800, seed=33)
        store = ShardedStore(_rmi, num_shards=4)
        store.build(keys)
        store.save_snapshot(tmp_path / "snap")

        def explode(self, *args, **kwargs):
            raise AssertionError("build() must not run on snapshot restore")

        monkeypatch.setattr(RMIIndex, "build", explode)
        restored = ShardedStore.from_snapshot(tmp_path / "snap", factory=_rmi)
        sk = np.sort(keys)
        assert restored.lookup(float(sk[17])) == 17

    def test_multi_dim_round_trip(self, tmp_path):
        pts = load_nd("clusters", 900, seed=34)
        store = ShardedStore(_zm, num_shards=4)
        store.build(pts)
        store.save_snapshot(tmp_path / "snap")
        restored = ShardedStore.from_snapshot(tmp_path / "snap", factory=_zm)
        for i in range(0, 900, 97):
            assert restored.point_query(pts[i]) == store.point_query(pts[i])
        assert restored.multi_dim

    def test_generation_continuity_across_restore(self, tmp_path):
        keys = load_1d("uniform", 600, seed=35)
        store = ShardedStore(_alex, num_shards=2)
        store.build(keys)
        store.insert(1e12, "late")  # bump one shard's generation
        gens = list(store.generations)
        assert any(g > 0 for g in gens)
        store.save_snapshot(tmp_path / "snap")
        restored = ShardedStore.from_snapshot(tmp_path / "snap", factory=_alex)
        assert restored.generations == gens
        assert restored.lookup(1e12) == "late"

    def test_snapshot_while_store_keeps_serving(self, tmp_path):
        keys = load_1d("uniform", 600, seed=36)
        store = ShardedStore(_alex, num_shards=2)
        store.build(keys)
        store.save_snapshot(tmp_path / "snap")
        # Writes after the snapshot do not alter what was captured.
        store.insert(5e11, "after-snap")
        restored = ShardedStore.from_snapshot(tmp_path / "snap", factory=_alex)
        assert restored.lookup(5e11) is None

    def test_rejects_foreign_directory(self, tmp_path):
        (tmp_path / "store.json").write_text(json.dumps({"format": "other"}))
        with pytest.raises(ArtifactError):
            ShardedStore.from_snapshot(tmp_path)

    def test_rejects_future_version(self, tmp_path):
        keys = load_1d("uniform", 200, seed=37)
        store = ShardedStore(_rmi, num_shards=2)
        store.build(keys)
        root = store.save_snapshot(tmp_path / "snap")
        meta = json.loads((root / "store.json").read_text())
        meta["format_version"] = STORE_SNAPSHOT_VERSION + 1
        (root / "store.json").write_text(json.dumps(meta))
        with pytest.raises(ArtifactError, match="newer than supported"):
            ShardedStore.from_snapshot(root)

    @pytest.mark.parametrize("edit", [
        lambda b: b[:1],                    # too few for 4 shards
        lambda b: b + [b[-1] + 1.0, b[-1] + 2.0],   # too many
        lambda b: b[::-1],                  # decreasing
        lambda b: [b[0], float("nan"), b[2]],
        lambda b: "not a list",
    ], ids=["one-bound", "five-bounds", "reversed", "nan", "not-a-list"])
    def test_rejects_bad_partition_bounds(self, tmp_path, edit):
        """``store.json`` is outside input: bounds that would misroute
        lookups (or fail on one) must not load."""
        keys = load_1d("uniform", 1000, seed=39)
        store = ShardedStore(_rmi, num_shards=4).build(keys)
        root = store.save_snapshot(tmp_path / "snap")
        meta = json.loads((root / "store.json").read_text())
        meta["bounds"] = edit(meta["bounds"])
        (root / "store.json").write_text(json.dumps(meta))
        with pytest.raises(ArtifactError, match="partition bounds"):
            ShardedStore.from_snapshot(root)

    def test_rejects_bad_multi_dim_bounds(self, tmp_path):
        pts = load_nd("uniform", 400, dims=2, seed=40)
        store = ShardedStore(_zm, num_shards=3).build(pts)
        root = store.save_snapshot(tmp_path / "snap")
        meta = json.loads((root / "store.json").read_text())
        meta["bounds"] = meta["bounds"][::-1]
        (root / "store.json").write_text(json.dumps(meta))
        with pytest.raises(ArtifactError, match="partition bounds"):
            ShardedStore.from_snapshot(root)

    def test_rejects_missing_snapshot(self, tmp_path):
        with pytest.raises(ArtifactError):
            ShardedStore.from_snapshot(tmp_path / "nowhere")

    def test_restored_store_without_factory_serves_reads(self, tmp_path):
        keys = load_1d("uniform", 400, seed=38)
        store = ShardedStore(_rmi, num_shards=2)
        store.build(keys)
        store.save_snapshot(tmp_path / "snap")
        restored = ShardedStore.from_snapshot(tmp_path / "snap")
        sk = np.sort(keys)
        assert restored.lookup(float(sk[9])) == 9


class TestServerSnapshot:
    def test_four_shard_restore_without_build(self, tmp_path, monkeypatch):
        keys = load_1d("lognormal", 2000, seed=41)
        server = IndexServer(_rmi, num_shards=4, cache_size=64).build(keys)
        sk = np.sort(keys)
        expected = [server.lookup(float(sk[i])) for i in range(0, 2000, 149)]
        server.save_snapshot(tmp_path / "snap")
        server.close()

        def explode(self, *args, **kwargs):
            raise AssertionError("build() must not run on snapshot restore")

        monkeypatch.setattr(RMIIndex, "build", explode)
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_rmi,
                                             cache_size=64)
        try:
            assert restored.store.num_shards == 4
            got = [restored.lookup(float(sk[i])) for i in range(0, 2000, 149)]
            assert got == expected
        finally:
            restored.close()

    def test_cache_generation_continuity(self, tmp_path):
        keys = load_1d("uniform", 800, seed=42)
        server = IndexServer(_alex, num_shards=2, cache_size=32).build(keys)
        server.insert(2e12, "bump")
        gens = list(server.store.generations)
        server.save_snapshot(tmp_path / "snap")
        server.close()
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_alex,
                                             cache_size=32)
        try:
            assert list(restored.store.generations) == gens
            # Reads populate the cache under the restored generations; a
            # write then bumps them, making the cached entries unreachable.
            sk = np.sort(keys)
            assert restored.lookup(float(sk[3])) == 3
            assert restored.lookup(float(sk[3])) == 3
            assert restored.stats()["cache"]["hits"] >= 1
            restored.insert(3e12, "later")
            assert restored.lookup(3e12) == "later"
        finally:
            restored.close()

    def test_process_backend_restore_serves_from_artifacts(self, tmp_path):
        keys = load_1d("uniform", 1200, seed=43)
        server = IndexServer(_rmi, num_shards=2).build(keys)
        server.save_snapshot(tmp_path / "snap")
        server.close()
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_rmi,
                                             backend="process")
        try:
            sk = np.sort(keys)
            for i in range(0, 1200, 173):
                assert restored.lookup(float(sk[i])) == i
        finally:
            restored.close()

    def test_multi_dim_server_round_trip(self, tmp_path):
        pts = load_nd("clusters", 700, seed=44)
        server = IndexServer(_zm, num_shards=2).build(pts)
        server.save_snapshot(tmp_path / "snap")
        server.close()
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_zm)
        try:
            for i in range(0, 700, 83):
                assert restored.point_query(pts[i]) == i
        finally:
            restored.close()

    def test_restored_server_accepts_writes(self, tmp_path):
        keys = load_1d("uniform", 500, seed=45)
        server = IndexServer(_alex, num_shards=2).build(keys)
        server.save_snapshot(tmp_path / "snap")
        server.close()
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_alex)
        try:
            restored.insert(7e11, "fresh")
            assert restored.lookup(7e11) == "fresh"
            assert restored.delete(7e11)
        finally:
            restored.close()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_restore_constructs_one_store_and_one_coalescer(
            self, tmp_path, monkeypatch, backend):
        """from_snapshot hands the restored store to ``__init__``: no empty
        store (or a coalescer over it) is built only to be thrown away."""
        from repro.serve.coalescer import Coalescer

        keys = load_1d("uniform", 600, seed=46)
        server = IndexServer(_rmi, num_shards=2).build(keys)
        server.save_snapshot(tmp_path / "snap")
        server.close()
        built = {"store": 0, "coalescer": 0}
        store_init, coalescer_init = ShardedStore.__init__, Coalescer.__init__

        def counting_store_init(self, *args, **kwargs):
            built["store"] += 1
            store_init(self, *args, **kwargs)

        def counting_coalescer_init(self, *args, **kwargs):
            built["coalescer"] += 1
            coalescer_init(self, *args, **kwargs)

        monkeypatch.setattr(ShardedStore, "__init__", counting_store_init)
        monkeypatch.setattr(Coalescer, "__init__", counting_coalescer_init)
        restored = IndexServer.from_snapshot(tmp_path / "snap", factory=_rmi,
                                             backend=backend)
        try:
            assert built == {"store": 1, "coalescer": 1}
            assert restored._coalescer.store is restored.store
            sk = np.sort(keys)
            assert restored.lookup(float(sk[17])) == 17
        finally:
            restored.close()


class TestPackArtifact:
    """A segment packed from an artifact holds the artifact's very bytes."""

    @pytest.fixture()
    def artifact(self, tmp_path):
        from repro.core.artifact import save_index_artifact

        index = ZMIndex().build(load_nd("clusters", 700, seed=47))
        return index, save_index_artifact(index, tmp_path / "zm")

    def test_segment_digest_and_bytes_equal_the_artifact(self, artifact):
        from repro.core.artifact import BLOCKS_NAME, read_manifest
        from repro.serve.shm import attach_view, pack_artifact, release_segment

        index, root = artifact
        manifest, segment = pack_artifact(root, generation=5)
        try:
            total = manifest.layout.total_bytes
            assert manifest.generation == 5
            assert manifest.layout.sha256 == read_manifest(root)["layout"]["sha256"]
            assert bytes(segment.buf[:total]) == (root / BLOCKS_NAME).read_bytes()
            view, attached = attach_view(manifest)
            pts = load_nd("clusters", 700, seed=47)
            assert view.point_query_batch(pts).tolist() == index.point_query_batch(pts).tolist()
            del view
            attached.close()
        finally:
            release_segment(segment)

    def test_pack_state_writes_the_artifact_layout(self, artifact, tmp_path):
        from repro.core.artifact import BLOCKS_NAME, write_artifact
        from repro.serve.shm import pack_state, release_segment

        index, _ = artifact
        state = index.export_state()
        root = write_artifact(state, tmp_path / "again")
        manifest, segment = pack_state(state)
        try:
            total = manifest.layout.total_bytes
            assert bytes(segment.buf[:total]) == (root / BLOCKS_NAME).read_bytes()
            assert manifest.layout.sha256 == \
                json.loads((root / "manifest.json").read_text())["layout"]["sha256"]
        finally:
            release_segment(segment)

    def test_corrupt_artifact_rejected_before_any_segment(self, artifact, monkeypatch):
        from repro.core.artifact import BLOCKS_NAME
        from repro.serve import shm

        _, root = artifact
        blob = bytearray((root / BLOCKS_NAME).read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        (root / BLOCKS_NAME).write_bytes(bytes(blob))

        def no_segment(nbytes):
            raise AssertionError("a segment was created for a corrupt artifact")

        monkeypatch.setattr(shm, "_new_segment", no_segment)
        with pytest.raises(ArtifactError, match="corrupt bytes"):
            shm.pack_artifact(root)
