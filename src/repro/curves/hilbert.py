"""Hilbert curve encoding/decoding in d dimensions.

The Hilbert curve preserves locality better than the Z-order curve (no
long diagonal jumps), at the cost of a more intricate bit transformation.
This is the Skilling (2004) algorithm: transpose-form Gray-code
manipulation, working for any ``dims >= 1`` and ``bits`` per dimension.
"""

from __future__ import annotations

import numpy as np

from repro.core import sanitize as _sanitize
from repro.curves.capacity import fits_code_budget
from repro.curves.zorder import interleave_array

__all__ = ["hilbert_encode", "hilbert_decode", "hilbert_encode_array"]


def hilbert_encode(coords: tuple[int, ...] | np.ndarray, bits: int) -> int:
    """Hilbert index of integer ``coords`` (each in [0, 2^bits - 1])."""
    x = [int(c) for c in coords]
    dims = len(x)
    if any(c < 0 or c >= (1 << bits) for c in x):
        raise ValueError("coordinates out of range for given bits")

    # Skilling's inverse transformation: coords -> transposed Hilbert.
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dims):
            if x[i] & q:
                x[0] ^= p  # invert
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    # Gray encode
    for i in range(1, dims):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dims - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dims):
        x[i] ^= t

    # Interleave the transposed form into a single integer.
    code = 0
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            code = (code << 1) | ((x[i] >> bit) & 1)
    return code


def hilbert_decode(code: int, dims: int, bits: int) -> tuple[int, ...]:
    """Inverse of :func:`hilbert_encode`."""
    # De-interleave into transposed form.
    x = [0] * dims
    for bit in range(bits):
        for i in range(dims):
            shift = (bits - 1 - bit) * dims + (dims - 1 - i)
            x[i] = (x[i] << 1) | ((code >> shift) & 1)

    # Skilling's forward transformation: transposed Hilbert -> coords.
    n = 2 << (bits - 1)
    t = x[dims - 1] >> 1
    for i in range(dims - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    while q != n:
        p = q - 1
        for i in range(dims - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return tuple(x)


def hilbert_encode_array(coords: np.ndarray, bits: int) -> np.ndarray:
    """Vectorised Hilbert encoding of an ``(n, d)`` integer coordinate array.

    Runs Skilling's inverse transformation on whole coordinate columns —
    ``O(bits * d)`` numpy kernels regardless of ``n`` — then interleaves
    the transposed form with the Morton bit-spreading fast path.  Codes
    wider than 62 bits fall back to the per-row scalar encoder and an
    object-dtype result; otherwise the output is int64 and element-wise
    identical to :func:`hilbert_encode`.
    """
    arr = np.asarray(coords)
    n, d = arr.shape
    if not fits_code_budget(d, bits):
        out = np.empty(n, dtype=object)
        for i in range(n):
            out[i] = hilbert_encode(tuple(int(c) for c in arr[i]), bits)
        return out
    x = np.ascontiguousarray(arr, dtype=np.int64).copy()
    if np.any(x < 0) or np.any(x >= (1 << bits)):
        raise ValueError("coordinates out of range for given bits")

    # Skilling's inverse transformation, column-parallel.
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(d):
            upper = (x[:, i] & q) != 0
            if i == 0:
                x[upper, 0] ^= p
            else:
                t = np.where(upper, 0, (x[:, 0] ^ x[:, i]) & p)
                x[:, 0] = np.where(upper, x[:, 0] ^ p, x[:, 0] ^ t)
                x[:, i] ^= t
        q >>= 1
    # Gray encode.
    for i in range(1, d):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.int64)
    q = m
    while q > 1:
        t = np.where((x[:, d - 1] & q) != 0, t ^ (q - 1), t)
        q >>= 1
    x ^= t[:, None]
    codes = interleave_array(x, bits)
    if _sanitize.enabled():
        _sanitize.check_code_headroom(codes, what="hilbert_encode_array")
    return codes
