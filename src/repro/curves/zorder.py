"""Z-order (Morton) curve: bit interleaving, decoding, and BIGMIN.

The Z-order curve (Morton 1966) is the projection function behind the
ZM-index family: each dimension is quantised to ``bits`` integer bits and
the bits are interleaved so nearby points receive nearby codes.

:func:`bigmin` implements the classic BIGMIN/LITMAX range-splitting
primitive: given a query box and a position on the curve, it returns the
smallest Z-address >= that position that re-enters the box, letting range
scans skip the curve's excursions outside the box.
"""

from __future__ import annotations

import numpy as np

from repro.core import sanitize as _sanitize
from repro.curves.capacity import fits_code_budget, require_code_budget

__all__ = [
    "interleave",
    "deinterleave",
    "interleave_array",
    "deinterleave_array",
    "zencode",
    "zdecode",
    "zencode_array",
    "zdecode_array",
    "quantize",
    "dequantize",
    "bigmin",
]


def quantize(points: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int) -> np.ndarray:
    """Map float points in [lo, hi] to integer lattice coordinates.

    The lattice cell is the *floor* cell ``floor(frac * 2^bits)`` (clamped
    to the lattice), the same equal-width bucketing used by the grid-style
    cell routing in ``GridIndex``/Flood — so curve quantisation and grid
    routing can never disagree about which cell a point belongs to.

    Args:
        points: ``(n, d)`` float array.
        lo, hi: per-dimension bounds; points outside are clamped.
        bits: bits per dimension (so coordinates lie in [0, 2^bits - 1]).
    """
    if bits < 1 or bits > 31:
        raise ValueError("bits must be in [1, 31]")
    pts = np.asarray(points, dtype=np.float64)
    span = np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64)
    span[span == 0] = 1.0
    frac = (pts - lo) / span
    # Clamp in place: fmax/fmin act like clip but send NaN to 0, so the
    # integer cast below never sees a non-finite value.
    np.fmin(np.fmax(frac, 0.0, out=frac), 1.0, out=frac)
    scaled = frac * (1 << bits)
    return np.minimum(np.floor(scaled).astype(np.int64), (1 << bits) - 1)


def dequantize(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray, bits: int) -> np.ndarray:
    """Inverse of :func:`quantize` (to cell-centre coordinates)."""
    span = np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64)
    span[span == 0] = 1.0
    centres = (np.asarray(coords, dtype=np.float64) + 0.5) / (1 << bits)
    return np.asarray(lo) + centres * span


def interleave(coords: tuple[int, ...] | np.ndarray, bits: int) -> int:
    """Interleave d integer coordinates into one Morton code."""
    code = 0
    d = len(coords)
    for bit in range(bits - 1, -1, -1):
        for dim in range(d):
            code = (code << 1) | ((int(coords[dim]) >> bit) & 1)
    return code


def deinterleave(code: int, dims: int, bits: int) -> tuple[int, ...]:
    """Split a Morton code back into d integer coordinates."""
    coords = [0] * dims
    for bit in range(bits):
        for dim in range(dims):
            shift = (bits - 1 - bit) * dims + (dims - 1 - dim)
            coords[dim] = (coords[dim] << 1) | ((code >> shift) & 1)
    return tuple(coords)


def zencode(point, lo, hi, bits: int) -> int:
    """Quantise one float point and return its Morton code."""
    coords = quantize(np.asarray(point, dtype=np.float64)[None, :], np.asarray(lo), np.asarray(hi), bits)[0]
    return interleave(tuple(coords), bits)


def zdecode(code: int, lo, hi, dims: int, bits: int) -> np.ndarray:
    """Morton code back to (approximate) float coordinates."""
    coords = deinterleave(code, dims, bits)
    return dequantize(np.asarray(coords)[None, :], np.asarray(lo), np.asarray(hi), bits)[0]


# -- vectorised bit spreading -------------------------------------------------
#
# ``interleave_array`` is the hot path of every projected-space index: it
# turns an ``(n, d)`` integer coordinate array into n Morton codes with a
# handful of numpy kernels.  For d = 2 and d = 3 the classic magic-mask
# bit-spreading sequences run in O(log bits) array ops; other
# dimensionalities fall back to one masked shift per (bit, dim) pair,
# still fully vectorised over the n points.

#: (shift, mask) spreading steps and the input mask, per dimensionality.
_SPREAD_STEPS = {
    2: (
        (
            (16, np.uint64(0x0000FFFF0000FFFF)),
            (8, np.uint64(0x00FF00FF00FF00FF)),
            (4, np.uint64(0x0F0F0F0F0F0F0F0F)),
            (2, np.uint64(0x3333333333333333)),
            (1, np.uint64(0x5555555555555555)),
        ),
        np.uint64(0xFFFFFFFF),
    ),
    3: (
        (
            (32, np.uint64(0x001F00000000FFFF)),
            (16, np.uint64(0x001F0000FF0000FF)),
            (8, np.uint64(0x100F00F00F00F00F)),
            (4, np.uint64(0x10C30C30C30C30C3)),
            (2, np.uint64(0x1249249249249249)),
        ),
        np.uint64(0x1FFFFF),
    ),
}


def _spread(x: np.ndarray, dims: int) -> np.ndarray:
    """Insert ``dims - 1`` zero bits between the bits of each element."""
    steps, in_mask = _SPREAD_STEPS[dims]
    x = x.astype(np.uint64) & in_mask
    for shift, mask in steps:
        x = (x | (x << np.uint64(shift))) & mask
    return x


def _compact(x: np.ndarray, dims: int) -> np.ndarray:
    """Inverse of :func:`_spread`: keep every ``dims``-th bit, pack them."""
    steps, in_mask = _SPREAD_STEPS[dims]
    x = x.astype(np.uint64) & steps[-1][1]
    for i in range(len(steps) - 1, 0, -1):
        x = (x | (x >> np.uint64(steps[i][0]))) & steps[i - 1][1]
    x = (x | (x >> np.uint64(steps[0][0]))) & in_mask
    return x.astype(np.int64)


def interleave_array(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorised :func:`interleave` over an ``(n, d)`` int array.

    Requires ``d * bits <= 62`` (codes fit in int64); dimension 0
    occupies the most significant bit of each ``d``-bit group, matching
    the scalar encoder exactly.
    """
    arr = np.asarray(coords, dtype=np.int64)
    n, d = arr.shape
    require_code_budget(d, bits)
    if _sanitize.enabled():
        _sanitize.check_lattice_coords(arr, bits, what="interleave_array")
    if d == 1:
        return arr[:, 0].copy()
    if d in (2, 3):
        codes = np.zeros(n, dtype=np.uint64)
        for dim in range(d):
            codes |= _spread(arr[:, dim], d) << np.uint64(d - 1 - dim)
        out = codes.astype(np.int64)
        if _sanitize.enabled():
            _sanitize.check_code_headroom(out, what="interleave_array")
        return out
    codes = np.zeros(n, dtype=np.int64)
    for bit in range(bits):
        col = (arr >> bit) & 1
        for dim in range(d):
            codes |= col[:, dim] << (bit * d + (d - 1 - dim))
    return codes


def deinterleave_array(codes: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Vectorised :func:`deinterleave`: codes back to ``(n, d)`` coords.

    Geometries beyond the int64 fast-path budget (the object-dtype codes
    :func:`zencode_array` produces, e.g. ``bits=22, dims=3``) are decoded
    with the exact scalar decoder per code; coordinates always fit int64
    because ``bits <= 31``.
    """
    if not fits_code_budget(dims, bits):
        seq = np.asarray(codes, dtype=object).ravel()
        wide = np.empty((seq.size, dims), dtype=np.int64)
        for i, c in enumerate(seq):
            wide[i] = deinterleave(int(c), dims, bits)
        return wide
    arr = np.asarray(codes, dtype=np.int64)
    if dims == 1:
        return arr[:, None].copy()
    out = np.empty((arr.size, dims), dtype=np.int64)
    if dims in (2, 3):
        u = arr.astype(np.uint64)
        for dim in range(dims):
            out[:, dim] = _compact(u >> np.uint64(dims - 1 - dim), dims)
        if _sanitize.enabled():
            _sanitize.check_lattice_coords(out, bits, what="deinterleave_array")
        return out
    out[:] = 0
    for bit in range(bits):
        for dim in range(dims):
            out[:, dim] |= ((arr >> (bit * dims + (dims - 1 - dim))) & 1) << bit
    return out


def zencode_array(points: np.ndarray, lo, hi, bits: int) -> np.ndarray:
    """Vectorised Morton encoding of an ``(n, d)`` point array.

    Uses magic-number bit spreading (see :func:`interleave_array`);
    returns an ``object`` array of Python ints when the code would
    overflow 62 bits, else ``int64``.
    """
    pts = np.asarray(points, dtype=np.float64)
    n, d = pts.shape
    coords = quantize(pts, np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64), bits)
    if fits_code_budget(d, bits):
        return interleave_array(coords, bits)
    out = np.empty(n, dtype=object)
    for i in range(n):
        out[i] = interleave(tuple(coords[i]), bits)
    return out


def zdecode_array(codes: np.ndarray, lo, hi, dims: int, bits: int) -> np.ndarray:
    """Vectorised :func:`zdecode`: Morton codes to ``(n, d)`` float points."""
    coords = deinterleave_array(codes, dims, bits)
    return dequantize(coords, np.asarray(lo), np.asarray(hi), bits)


def _set_bit_pattern(value: int, bit: int, kind: str) -> int:
    """BIGMIN helpers: force bit patterns below position ``bit``.

    ``kind='min'`` sets bit ``bit`` to 1 and all lower bits to 0
    (smallest value with that prefix); ``kind='max'`` sets bit ``bit`` to
    0 and all lower bits to 1 (largest value with that prefix).
    """
    mask_low = (1 << bit) - 1
    if kind == "min":
        return (value | (1 << bit)) & ~mask_low
    return (value & ~(1 << bit)) | mask_low


def bigmin(code: int, lo_code_coords: tuple[int, ...], hi_code_coords: tuple[int, ...],
           dims: int, bits: int) -> int | None:
    """Smallest Morton code > ``code`` whose point lies inside the box.

    Args:
        code: current position on the curve (typically just past a miss).
        lo_code_coords, hi_code_coords: quantised box corners.
        dims, bits: curve geometry.

    Returns:
        The BIGMIN code, or ``None`` if no curve point after ``code``
        intersects the box.

    This is the Tropf-Herzog algorithm walking the code's bits from the
    most significant down, maintaining shrunken box corners.
    """
    lo = list(lo_code_coords)
    hi = list(hi_code_coords)
    result: int | None = None
    total_bits = dims * bits
    for pos in range(total_bits - 1, -1, -1):
        dim = (total_bits - 1 - pos) % dims
        bit_index = pos // dims  # bit position within the dimension
        code_bit = (code >> pos) & 1
        lo_bit = (lo[dim] >> bit_index) & 1
        hi_bit = (hi[dim] >> bit_index) & 1
        if code_bit == 0 and lo_bit == 0 and hi_bit == 0:
            continue
        if code_bit == 0 and lo_bit == 0 and hi_bit == 1:
            # Candidate: jump into the upper half later; continue in lower.
            candidate_lo = list(lo)
            candidate_lo[dim] = _set_bit_pattern(lo[dim], bit_index, "min")
            candidate = _compose(candidate_lo, dims, bits)
            result = candidate if result is None else min(result, candidate)
            hi[dim] = _set_bit_pattern(hi[dim], bit_index, "max")
            continue
        if code_bit == 0 and lo_bit == 1:
            # Box entirely in upper half: BIGMIN is the box minimum.
            return _compose(lo, dims, bits)
        if code_bit == 1 and hi_bit == 0:
            # Box entirely in lower half, code already above: no result here.
            return result
        if code_bit == 1 and lo_bit == 0 and hi_bit == 1:
            lo[dim] = _set_bit_pattern(lo[dim], bit_index, "min")
            continue
        # code_bit == 1 and lo_bit == 1 and hi_bit == 1: continue.
    return result


def _compose(coords: list[int], dims: int, bits: int) -> int:
    return interleave(tuple(coords), bits)
