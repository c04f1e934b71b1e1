"""Tests for the zero-copy artifact store (repro.core.artifact)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.runner import MULTI_DIM_FACTORIES, ONE_DIM_FACTORIES
from repro.core import state as state_module
from repro.core.artifact import (
    ARTIFACT_VERSION,
    BLOCKS_NAME,
    MANIFEST_NAME,
    ArtifactError,
    load_index_artifact,
    read_artifact,
    read_manifest,
    registry_name,
    save_index_artifact,
    write_artifact,
)
from repro.core.state import ALIGN
from repro.data import load_1d, load_nd

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class Holder:
    """Module-level stand-in so index_from_state can re-import it."""


def _dir_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under an artifact directory, by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestRoundTripParity:
    """Every registered factory survives save -> load in both modes."""

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    @pytest.mark.parametrize("name", sorted(ONE_DIM_FACTORIES))
    def test_one_dim_parity(self, name, mmap_mode, tmp_path):
        keys = load_1d("lognormal", 600, seed=11)
        sk = np.sort(keys)
        original = ONE_DIM_FACTORIES[name]().build(keys)
        save_index_artifact(original, tmp_path / name)
        restored = load_index_artifact(tmp_path / name, mmap_mode=mmap_mode)
        for i in range(0, 600, 61):
            assert restored.lookup(float(sk[i])) == i
            assert restored.contains(float(sk[i]))
        assert restored.range_query(float(sk[30]), float(sk[60])) == \
            original.range_query(float(sk[30]), float(sk[60]))

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    @pytest.mark.parametrize("name", sorted(MULTI_DIM_FACTORIES))
    def test_multi_dim_parity(self, name, mmap_mode, tmp_path):
        pts = load_nd("clusters", 400, seed=12)
        original = MULTI_DIM_FACTORIES[name]().build(pts)
        save_index_artifact(original, tmp_path / name)
        restored = load_index_artifact(tmp_path / name, mmap_mode=mmap_mode)
        for i in range(0, 400, 57):
            assert restored.point_query(pts[i]) == original.point_query(pts[i])
        lo, hi = pts.min(axis=0), pts.mean(axis=0)
        assert sorted(restored.range_query(lo, hi), key=repr) == \
            sorted(original.range_query(lo, hi), key=repr)
        assert restored.knn_query(pts.mean(axis=0), 5) == \
            original.knn_query(pts.mean(axis=0), 5)

    def test_save_load_methods_on_index(self, tmp_path):
        keys = load_1d("uniform", 300, seed=13)
        index = ONE_DIM_FACTORIES["rmi"]().build(keys)
        returned = index.save(tmp_path / "rmi")
        assert returned == tmp_path / "rmi"
        restored = type(index).load(tmp_path / "rmi")
        sk = np.sort(keys)
        assert restored.lookup(float(sk[7])) == 7


class TestManifest:
    def test_manifest_schema(self, tmp_path):
        keys = load_1d("uniform", 200, seed=14)
        index = ONE_DIM_FACTORIES["pgm"]().build(keys)
        root = save_index_artifact(index, tmp_path / "pgm")
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["format"] == "repro-index-artifact"
        assert manifest["format_version"] == ARTIFACT_VERSION == 2
        layout = manifest["layout"]
        assert layout["cls_qualname"].endswith("PGMIndex")
        assert manifest["registry"] == registry_name(
            f"{layout['cls_module']}.{layout['cls_qualname']}"
        )
        assert {"python", "numpy", "created_utc", "platform"} <= \
            set(manifest["environment"])
        assert sorted(p.name for p in root.iterdir()) == sorted([BLOCKS_NAME, MANIFEST_NAME])
        blocks = (root / BLOCKS_NAME).read_bytes()
        assert len(blocks) == manifest["total_bytes"]
        assert hashlib.sha256(blocks).hexdigest() == layout["sha256"]
        end = 0
        for dtype, shape, offset in layout["arrays"]:
            assert offset % ALIGN == 0 and offset >= end
            end = offset + np.dtype(dtype).itemsize * int(np.prod(shape))
        assert layout["payload_offset"] % ALIGN == 0 and layout["payload_offset"] >= end
        assert layout["payload_offset"] + layout["payload_nbytes"] == manifest["total_bytes"]

    def test_registry_name_resolution(self):
        assert registry_name("repro.onedim.rmi.RMIIndex") == "RMI"
        assert registry_name("no.such.module.Nothing") is None


def _flip(path: Path, at: int) -> None:
    blob = bytearray(path.read_bytes())
    blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))


class TestRejection:
    """Corruption, truncation, and version skew all fail closed."""

    @pytest.fixture()
    def artifact(self, tmp_path):
        keys = load_1d("uniform", 300, seed=15)
        index = ONE_DIM_FACTORIES["rmi"]().build(keys)
        return save_index_artifact(index, tmp_path / "rmi")

    def test_corrupt_array_region_rejected(self, artifact):
        _dtype, _shape, offset = read_manifest(artifact)["layout"]["arrays"][0]
        _flip(artifact / BLOCKS_NAME, offset)
        with pytest.raises(ArtifactError, match="corrupt bytes"):
            read_artifact(artifact)

    def test_corrupt_payload_region_rejected_before_unpickling(self, artifact, monkeypatch):
        _flip(artifact / BLOCKS_NAME, read_manifest(artifact)["total_bytes"] - 1)

        def no_unpickle(*args, **kwargs):
            raise AssertionError("payload unpickled before its digest was checked")

        monkeypatch.setattr(state_module.pickle, "loads", no_unpickle)
        with pytest.raises(ArtifactError, match="corrupt bytes"):
            load_index_artifact(artifact)

    def test_truncated_blocks_rejected(self, artifact):
        target = artifact / BLOCKS_NAME
        target.write_bytes(target.read_bytes()[:-8])
        with pytest.raises(ArtifactError, match="truncated"):
            read_artifact(artifact)

    def test_missing_blocks_rejected(self, artifact):
        (artifact / BLOCKS_NAME).unlink()
        with pytest.raises(ArtifactError, match="missing"):
            read_artifact(artifact)

    def test_truncated_manifest_rejected(self, artifact):
        manifest = json.loads((artifact / MANIFEST_NAME).read_text())
        del manifest["layout"]["payload_offset"]
        (artifact / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="truncated or malformed"):
            read_artifact(artifact)

    def test_unparseable_manifest_rejected(self, artifact):
        (artifact / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError):
            read_manifest(artifact)

    def test_future_version_rejected(self, artifact):
        manifest = json.loads((artifact / MANIFEST_NAME).read_text())
        manifest["format_version"] = ARTIFACT_VERSION + 1
        (artifact / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="newer than supported"):
            read_manifest(artifact)

    def test_version_one_directory_rejected(self, tmp_path):
        # The one-file-per-array layout: arrays/0000.bin plus payload.pkl.
        root = tmp_path / "v1"
        (root / "arrays").mkdir(parents=True)
        (root / "arrays" / "0000.bin").write_bytes(bytes(8))
        (root / "payload.pkl").write_bytes(b"\x80\x05N.")
        (root / MANIFEST_NAME).write_text(json.dumps({
            "format": "repro-index-artifact", "format_version": 1,
            "class": {"module": "repro.onedim.rmi", "qualname": "RMIIndex"},
            "arrays": [{"file": "arrays/0000.bin", "dtype": "<f8", "shape": [1],
                        "order": "C", "nbytes": 8, "sha256": "0" * 64}],
            "payload": {"file": "payload.pkl", "nbytes": 4, "sha256": "0" * 64},
        }))
        with pytest.raises(ArtifactError, match="version 1 is no longer read"):
            load_index_artifact(root)

    def test_wrong_format_discriminator_rejected(self, artifact):
        manifest = json.loads((artifact / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (artifact / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="not a .*artifact"):
            read_manifest(artifact)

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ArtifactError):
            read_manifest(tmp_path / "nowhere")

    def test_invalid_mmap_mode_rejected(self, artifact):
        with pytest.raises(ArtifactError, match="mmap_mode"):
            read_artifact(artifact, mmap_mode="r+")


class TestMemmapDiscipline:
    """mmap-loaded indexes serve without mutating their backing files."""

    def test_readonly_views_and_pristine_files(self, tmp_path):
        keys = load_1d("uniform", 500, seed=16)
        index = ONE_DIM_FACTORIES["pgm"]().build(keys)
        root = save_index_artifact(index, tmp_path / "pgm")
        before = _dir_digests(root)
        view = load_index_artifact(root, mmap_mode="r")
        state = read_artifact(root, mmap_mode="r")
        for arr in state.arrays:
            if arr.size:
                assert not arr.flags.writeable
        sk = np.sort(keys)
        for i in range(0, 500, 41):
            assert view.lookup(float(sk[i])) == i
        view.range_query(float(sk[5]), float(sk[50]))
        assert _dir_digests(root) == before

    def test_mutable_index_writes_leave_backing_file_pristine(self, tmp_path):
        keys = load_1d("uniform", 500, seed=17)
        index = ONE_DIM_FACTORIES["alex"]().build(keys)
        root = save_index_artifact(index, tmp_path / "alex")
        before = _dir_digests(root)
        view = load_index_artifact(root, mmap_mode="r")
        view.insert(-1.5, "fresh")
        assert view.lookup(-1.5) == "fresh"
        assert view.delete(-1.5)
        sk = np.sort(keys)
        assert view.lookup(float(sk[3])) == 3
        assert _dir_digests(root) == before

    def test_thaw_copies_readonly_arrays(self, tmp_path):
        keys = load_1d("uniform", 200, seed=18)
        index = ONE_DIM_FACTORIES["rmi"]().build(keys)
        root = save_index_artifact(index, tmp_path / "rmi")
        view = load_index_artifact(root, mmap_mode="r")
        frozen = [
            name for name, val in vars(view).items()
            if isinstance(val, np.ndarray) and val.size and not val.flags.writeable
        ]
        assert frozen  # the memmap path must actually produce frozen arrays
        target = frozen[0]
        view._thaw(target)
        thawed = getattr(view, target)
        assert thawed.flags.writeable
        assert isinstance(thawed, np.ndarray)
        # _thaw on an already-writable attribute is a no-op.
        view._thaw(target)
        assert getattr(view, target) is thawed

    def test_eager_mode_loads_writable_private_arrays(self, tmp_path):
        keys = load_1d("uniform", 200, seed=19)
        index = ONE_DIM_FACTORIES["pgm"]().build(keys)
        root = save_index_artifact(index, tmp_path / "pgm")
        state = read_artifact(root, mmap_mode=None)
        for arr in state.arrays:
            assert arr.flags.writeable
            assert not isinstance(arr, np.memmap)


class TestCrossProcess:
    def test_artifact_loads_in_fresh_process(self, tmp_path):
        keys = load_1d("uniform", 400, seed=20)
        index = ONE_DIM_FACTORIES["rmi"]().build(keys)
        root = save_index_artifact(index, tmp_path / "rmi")
        sk = np.sort(keys)
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(REPO_SRC)!r})\n"
            "from repro.core.artifact import load_index_artifact\n"
            f"view = load_index_artifact({str(root)!r}, mmap_mode='r')\n"
            f"print(view.lookup({float(sk[9])!r}))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "9"


class TestWriteArtifact:
    def test_aliased_arrays_stored_once(self, tmp_path):
        shared = np.arange(64, dtype=np.float64)
        obj = Holder()
        obj.first = shared
        obj.second = shared  # alias: must not be duplicated on disk
        obj.tag = "aliased"
        from repro.core.state import export_index_state

        root = write_artifact(export_index_state(obj), tmp_path / "alias")
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert len(manifest["layout"]["arrays"]) == 1
        state = read_artifact(root, mmap_mode=None)
        from repro.core.state import index_from_state

        back = index_from_state(state)
        assert back.first is back.second
        assert back.tag == "aliased"

    def test_big_endian_arrays_written_little_endian(self, tmp_path):
        obj = Holder()
        obj.data = np.arange(16, dtype=">f8")
        from repro.core.state import export_index_state

        root = write_artifact(export_index_state(obj), tmp_path / "be")
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        assert manifest["layout"]["arrays"][0][0] == "<f8"
        state = read_artifact(root, mmap_mode="r")
        np.testing.assert_array_equal(np.asarray(state.arrays[0]),
                                      np.arange(16, dtype="<f8"))
