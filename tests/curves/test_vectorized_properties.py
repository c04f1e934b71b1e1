"""Property tests for the vectorized curve layer.

The batch query engine leans on three contracts that these tests pin
down with hypothesis-generated inputs:

1. ``deinterleave(interleave(p))`` is the identity on the integer
   lattice (and the array forms agree with the scalar forms bit for
   bit), so Morton codes are loss-free cell identifiers.
2. ``zencode_array`` equals a loop of scalar ``zencode`` calls — the
   vectorized encoder used by ``ZMIndex.point_query_batch`` cannot
   diverge from the scalar query path.
3. ``bigmin`` jumps strictly forward and lands inside the query box,
   which is what makes the range scan's curve-excursion skipping sound.

Plus the floor-quantisation regression: ``quantize`` must route points
to the same cells as the grid/Flood floor-based lattice arithmetic.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import zorder
from repro.curves.hilbert import hilbert_encode, hilbert_encode_array
from repro.curves.zorder import (
    bigmin,
    deinterleave,
    deinterleave_array,
    interleave,
    interleave_array,
    quantize,
    zdecode_array,
    zencode,
    zencode_array,
)

DIMS_BITS = st.sampled_from([(1, 20), (2, 8), (2, 16), (2, 31), (3, 8), (3, 20), (4, 12)])


class TestLatticeRoundtrip:
    @given(data=st.data(), dims_bits=DIMS_BITS, n=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_deinterleave_inverts_interleave(self, data, dims_bits, n):
        dims, bits = dims_bits
        coords = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, (1 << bits) - 1), min_size=dims, max_size=dims),
            min_size=n, max_size=n,
        )), dtype=np.int64)
        codes = interleave_array(coords, bits)
        assert np.array_equal(deinterleave_array(codes, dims, bits), coords)

    @given(data=st.data(), dims_bits=DIMS_BITS)
    @settings(max_examples=60, deadline=None)
    def test_array_forms_match_scalar_forms(self, data, dims_bits):
        dims, bits = dims_bits
        coords = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, (1 << bits) - 1), min_size=dims, max_size=dims),
            min_size=1, max_size=20,
        )), dtype=np.int64)
        codes = interleave_array(coords, bits)
        for i in range(coords.shape[0]):
            scalar_code = interleave(tuple(int(c) for c in coords[i]), bits)
            assert int(codes[i]) == scalar_code
            assert deinterleave(scalar_code, dims, bits) == tuple(int(c) for c in coords[i])

    @pytest.mark.parametrize("dims, bits", [(2, 16), (2, 31), (3, 20)])
    def test_multi_block_arrays_match_scalar_forms(self, dims, bits):
        # interleave_array spreads a bounded block of rows per pass; a
        # column spanning several blocks and a ragged tail must agree
        # with the scalar encoder row for row, extreme coordinates too.
        rows = 2 * zorder._SPREAD_ROWS + 37
        coords = np.random.default_rng(dims).integers(0, 1 << bits, (rows, dims))
        coords[:2] = [[0] * dims, [(1 << bits) - 1] * dims]
        codes = interleave_array(coords, bits)
        assert codes.dtype == np.int64 and codes.shape == (rows,)
        picks = [0, 1, zorder._SPREAD_ROWS - 1, zorder._SPREAD_ROWS, rows - 1,
                 *range(5, rows, 997)]
        assert [int(codes[i]) for i in picks] == [
            interleave(tuple(int(c) for c in coords[i]), bits) for i in picks]
        assert np.array_equal(deinterleave_array(codes, dims, bits), coords)

    def test_zdecode_array_is_identity_on_cell_centres(self):
        rng = np.random.default_rng(3)
        lo, hi = np.zeros(2), np.full(2, 100.0)
        bits = 12
        cells = rng.integers(0, 1 << bits, (200, 2))
        centres = lo + (cells + 0.5) / (1 << bits) * (hi - lo)
        codes = zencode_array(centres, lo, hi, bits)
        assert np.allclose(zdecode_array(codes, lo, hi, 2, bits), centres)


class TestZencodeArrayParity:
    @given(data=st.data(), dims_bits=DIMS_BITS)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_zencode(self, data, dims_bits):
        dims, bits = dims_bits
        pts = np.asarray(data.draw(st.lists(
            st.lists(st.floats(-10.0, 110.0, allow_nan=False), min_size=dims, max_size=dims),
            min_size=1, max_size=25,
        )))
        lo, hi = np.zeros(dims), np.full(dims, 100.0)
        codes = zencode_array(pts, lo, hi, bits)
        for i in range(pts.shape[0]):
            assert int(codes[i]) == zencode(pts[i], lo, hi, bits)

    def test_wide_codes_use_object_fallback(self):
        # 3 dims x 31 bits = 93 bits: beyond int64, still exact.
        pts = np.random.default_rng(4).uniform(0.0, 1.0, (20, 3))
        lo, hi = np.zeros(3), np.ones(3)
        codes = zencode_array(pts, lo, hi, 31)
        assert codes.dtype == object
        for i in range(pts.shape[0]):
            assert codes[i] == zencode(pts[i], lo, hi, 31)


class TestHilbertArrayParity:
    @given(data=st.data(), dims_bits=st.sampled_from([(2, 8), (2, 16), (3, 10)]))
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_hilbert_encode(self, data, dims_bits):
        dims, bits = dims_bits
        coords = np.asarray(data.draw(st.lists(
            st.lists(st.integers(0, (1 << bits) - 1), min_size=dims, max_size=dims),
            min_size=1, max_size=20,
        )), dtype=np.int64)
        codes = hilbert_encode_array(coords, bits)
        for i in range(coords.shape[0]):
            assert int(codes[i]) == hilbert_encode(tuple(int(c) for c in coords[i]), bits)


class TestBigminProperties:
    @given(data=st.data(), bits=st.integers(3, 10))
    @settings(max_examples=80, deadline=None)
    def test_jump_is_forward_and_inside_box(self, data, bits):
        dims = 2
        top = (1 << bits) - 1
        lo_q = tuple(data.draw(st.integers(0, top)) for _ in range(dims))
        hi_q = tuple(data.draw(st.integers(lo_q[d], top)) for d in range(dims))
        code = data.draw(st.integers(0, (1 << (bits * dims)) - 1))
        nxt = bigmin(code, lo_q, hi_q, dims, bits)
        z_hi = interleave(hi_q, bits)
        if nxt is None:
            # No in-box code follows `code`: verify exhaustively via the
            # box's max code (anything in the box after `code` would have
            # a code in (code, z_hi]).
            in_box_after = [
                interleave((x, y), bits)
                for x in range(lo_q[0], hi_q[0] + 1)
                for y in range(lo_q[1], hi_q[1] + 1)
                if interleave((x, y), bits) > code
            ] if z_hi > code and bits <= 6 else []
            if bits <= 6:
                assert not in_box_after
            return
        assert nxt > code
        decoded = deinterleave(nxt, dims, bits)
        assert all(lo_q[d] <= decoded[d] <= hi_q[d] for d in range(dims))


class TestQuantizeGridConsistency:
    """Regression: floor-quantisation must agree with grid cell routing."""

    def test_quantize_matches_grid_floor_routing(self):
        rng = np.random.default_rng(9)
        bits = 4
        cells = 1 << bits
        lo, hi = np.zeros(2), np.full(2, 100.0)
        pts = rng.uniform(0.0, 100.0, (500, 2))
        q = quantize(pts, lo, hi, bits)
        # The grid/Flood lattice: clip(floor(frac * cells)) per dimension.
        frac = (pts - lo) / (hi - lo)
        grid_cells = np.clip((frac * cells).astype(int), 0, cells - 1)
        assert np.array_equal(q, grid_cells)

    def test_boundary_points_take_lower_cell_like_floor(self):
        lo, hi = np.zeros(1), np.ones(1)
        # 0.5 with bits=1 is exactly the cell boundary: floor gives cell 1,
        # while the old rint-based quantiser rounded 0.5 * 2 = 1.0 to cell 1
        # only via banker's rounding luck; 0.25 exposes the difference.
        pts = np.array([[0.0], [0.25], [0.5], [0.74], [0.75], [1.0]])
        q = quantize(pts, lo, hi, 2)
        assert q.ravel().tolist() == [0, 1, 2, 2, 3, 3]

    @pytest.mark.parametrize("bits", [1, 4, 10])
    def test_max_edge_clamps_into_top_cell(self, bits):
        lo, hi = np.zeros(3), np.full(3, 7.0)
        q = quantize(np.array([[7.0, 7.0, 7.0]]), lo, hi, bits)
        assert np.array_equal(q[0], np.full(3, (1 << bits) - 1))
