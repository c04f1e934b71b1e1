"""Zero-copy on-disk index artifacts: dump built state, memmap it back.

A built learned index is a handful of large numeric arrays plus a small
pickled residue (:mod:`repro.core.state` draws exactly that line).  This
module persists an exported :class:`~repro.core.state.IndexState` as a
*directory* rather than one opaque blob:

``
artifact/
  manifest.json      format version, class + registry id, environment,
                     and per-file dtype/shape/order/nbytes/sha256
  payload.pkl        the pickled non-array residue
  arrays/0000.bin    raw little-endian C-order array bytes, one file
  arrays/0001.bin    per exported array (aliased arrays stored once)
``

Loading with ``mmap_mode="r"`` rebuilds the index via
:func:`~repro.core.state.index_from_state` over **read-only
``np.memmap`` views** — no retraining, no array copies, cold-start cost
is one unpickle plus page-cache faults on first touch.  Loading with
``mmap_mode=None`` materializes private writable arrays instead (the
right mode when the index will be mutated).

Integrity discipline (mirrors :mod:`repro.serve.shm`): every file's
sha256 is verified against the manifest **before any of its bytes are
interpreted** — arrays are digest-checked before ``np.memmap`` maps
them and the payload is digest-checked before it is ever unpickled.
The manifest itself is plain JSON, so a serving fleet can audit what it
is about to load without executing anything.

Security note: the payload is a pickle — only load artifacts produced
by code you trust.
"""

from __future__ import annotations

import hashlib
import json
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.core.state import (
    IndexState,
    StateError,
    export_index_state,
    index_from_state,
    resolve_index_class,
)

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "MANIFEST_NAME",
    "PAYLOAD_NAME",
    "ARRAYS_DIR",
    "ArtifactError",
    "environment_snapshot",
    "registry_name",
    "write_artifact",
    "read_manifest",
    "read_artifact",
    "save_index_artifact",
    "load_index_artifact",
]

#: Discriminator in ``manifest.json`` so foreign JSON is rejected early.
ARTIFACT_FORMAT = "repro-index-artifact"

#: Bump when the directory layout changes incompatibly.
ARTIFACT_VERSION = 1

MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.pkl"
ARRAYS_DIR = "arrays"

_CHUNK = 1 << 20


class ArtifactError(RuntimeError):
    """An artifact directory is missing, corrupt, or incompatible."""


def _sha256_file(path: Path) -> str:
    """Streaming sha256 of a file (bounded memory at any artifact size)."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def environment_snapshot() -> dict[str, str]:
    """Provenance stamped into every manifest (informational, not verified)."""
    return {
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": str(np.__version__),
        "platform": platform.platform(),
    }


def registry_name(class_path: str) -> str | None:
    """Registry id of the surveyed index a class path implements, if any.

    ``None`` for baselines and helper structures that reproduce no
    surveyed index; the manifest records it so operators can tell *what*
    an artifact is without importing its class.
    """
    from repro.core.registry import REGISTRY

    for info in REGISTRY:
        if info.implemented == class_path:
            return info.name
    return None


def _little_endian(arr: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian copy/view suitable for raw file dump."""
    out = np.ascontiguousarray(arr)
    if out.dtype.str.startswith(">"):
        out = out.astype(out.dtype.newbyteorder("<"))
    return out


def write_artifact(state: IndexState, directory: str | Path) -> Path:
    """Dump an exported index state as a verifiable artifact directory.

    Arrays are written as raw little-endian C-order bytes (one file per
    exported array; aliased arrays were already deduplicated by
    :func:`~repro.core.state.export_index_state`), the payload as-is,
    and ``manifest.json`` last — a directory without a manifest is never
    a valid artifact, so an interrupted write cannot be half-loaded.
    """
    root = Path(directory)
    (root / ARRAYS_DIR).mkdir(parents=True, exist_ok=True)
    array_entries: list[dict[str, Any]] = []
    total = 0
    for i, source in enumerate(state.arrays):
        arr = _little_endian(source)
        rel = f"{ARRAYS_DIR}/{i:04d}.bin"
        target = root / ARRAYS_DIR / f"{i:04d}.bin"
        arr.tofile(target)
        array_entries.append({
            "file": rel,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "order": "C",
            "nbytes": int(arr.nbytes),
            "sha256": _sha256_file(target),
        })
        total += int(arr.nbytes)
    payload_path = root / PAYLOAD_NAME
    payload_path.write_bytes(state.payload)
    total += len(state.payload)
    class_path = state.class_path()
    manifest = {
        "format": ARTIFACT_FORMAT,
        "format_version": ARTIFACT_VERSION,
        "class": {
            "module": state.cls_module,
            "qualname": state.cls_qualname,
            "registry": registry_name(class_path),
        },
        "arrays": array_entries,
        "payload": {
            "file": PAYLOAD_NAME,
            "nbytes": len(state.payload),
            "sha256": _sha256_file(payload_path),
        },
        "environment": environment_snapshot(),
        "total_bytes": total,
    }
    (root / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return root


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """Parse and structurally validate an artifact's ``manifest.json``."""
    root = Path(directory)
    path = root / MANIFEST_NAME
    if not path.is_file():
        raise ArtifactError(f"{root}: no {MANIFEST_NAME} (not an index artifact)")
    try:
        manifest = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"{path}: unreadable manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != ARTIFACT_FORMAT:
        raise ArtifactError(f"{path}: not a {ARTIFACT_FORMAT} manifest")
    version = manifest.get("format_version")
    if not isinstance(version, int):
        raise ArtifactError(f"{path}: missing format_version")
    if version > ARTIFACT_VERSION:
        raise ArtifactError(
            f"{path}: format version {version} newer than supported {ARTIFACT_VERSION}"
        )
    for key in ("class", "arrays", "payload"):
        if key not in manifest:
            raise ArtifactError(f"{path}: truncated manifest (missing {key!r})")
    if not isinstance(manifest["arrays"], list) or not isinstance(manifest["class"], dict):
        raise ArtifactError(f"{path}: malformed manifest")
    return manifest


def _verify_file(root: Path, entry: Mapping[str, Any], what: str) -> Path:
    """Digest-check one referenced file; nothing maps before this passes."""
    try:
        rel = str(entry["file"])
        expected_bytes = int(entry["nbytes"])
        expected_digest = str(entry["sha256"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"{root}: truncated manifest entry for {what}: {exc!r}"
        ) from exc
    path = root / rel
    if not path.is_file():
        raise ArtifactError(f"{path}: missing {what} file")
    actual_bytes = path.stat().st_size
    if actual_bytes != expected_bytes:
        raise ArtifactError(
            f"{path}: {what} holds {actual_bytes} bytes, manifest says "
            f"{expected_bytes} (truncated?)"
        )
    digest = _sha256_file(path)
    if digest != expected_digest:
        raise ArtifactError(
            f"{path}: {what} sha256 mismatch: {digest[:12]}... != "
            f"{expected_digest[:12]}... (corrupt file)"
        )
    return path


def read_artifact(directory: str | Path,
                  mmap_mode: str | None = "r") -> IndexState:
    """Reconstruct the :class:`IndexState` stored in an artifact directory.

    Args:
        directory: an artifact written by :func:`write_artifact`.
        mmap_mode: ``"r"`` (default) builds lazy **read-only**
            ``np.memmap`` views over the array files — zero copies, byte
            pages fault in on first touch; ``None`` eagerly materializes
            private writable arrays.

    Every file is sha256-verified against the manifest before any of its
    bytes are trusted: arrays before they are mapped, the payload before
    a caller can unpickle it.
    """
    if mmap_mode not in ("r", None):
        raise ArtifactError(f"mmap_mode must be 'r' or None, got {mmap_mode!r}")
    root = Path(directory)
    manifest = read_manifest(root)
    arrays: list[np.ndarray] = []
    for i, entry in enumerate(manifest["arrays"]):
        path = _verify_file(root, entry, f"array #{i}")
        try:
            dtype = np.dtype(str(entry["dtype"]))
            shape = tuple(int(x) for x in entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{root}: bad dtype/shape for array #{i}: {exc!r}"
            ) from exc
        expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if expected != int(entry["nbytes"]):
            raise ArtifactError(
                f"{root}: array #{i} dtype/shape implies {expected} bytes, "
                f"manifest says {entry['nbytes']}"
            )
        if expected == 0:
            arr = np.empty(shape, dtype=dtype)
            if mmap_mode == "r":
                arr.flags.writeable = False
        elif mmap_mode == "r":
            arr = np.memmap(path, dtype=dtype, mode="r", shape=shape, order="C")
        else:
            arr = np.fromfile(path, dtype=dtype).reshape(shape)
        arrays.append(arr)
    payload = _verify_file(root, manifest["payload"], "payload").read_bytes()
    cls_entry = manifest["class"]
    return IndexState(
        cls_module=str(cls_entry.get("module", "")),
        cls_qualname=str(cls_entry.get("qualname", "")),
        arrays=arrays,
        payload=payload,
    )


def save_index_artifact(index: object, directory: str | Path) -> Path:
    """Export ``index`` and write it as an artifact directory.

    Goes through the index's own ``export_state`` when it has one (so
    subclass overrides run); falls back to the generic exporter for
    plain objects.
    """
    export = getattr(index, "export_state", None)
    try:
        state = export() if callable(export) else export_index_state(index)
    except StateError as exc:
        raise ArtifactError(str(exc)) from exc
    return write_artifact(state, directory)


def load_index_artifact(directory: str | Path,
                        mmap_mode: str | None = "r") -> object:
    """Load an artifact back into a queryable index, no retraining.

    The returned index is reconstructed through its class's
    ``from_state`` (so subclass overrides — e.g. linked-structure
    rebuilds — run); with the default ``mmap_mode="r"`` its numeric
    arrays are read-only memmap views over the artifact files.
    """
    state = read_artifact(directory, mmap_mode=mmap_mode)
    try:
        cls = resolve_index_class(state)
    except StateError as exc:
        raise ArtifactError(str(exc)) from exc
    from_state = getattr(cls, "from_state", None)
    if callable(from_state):
        return from_state(state)
    return index_from_state(state)
