"""Generated and model-checked tests for ``repro.geometry.grid_index``.

``test_slot_grid_index.py`` pins hand-built cases; this file drives
:class:`SlotGridIndex` with generated placements and seeded churn and
checks it against brute-force discs and a plain ``slot -> position``
model that swap-deletes exactly as the digraph does.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError, UnknownNodeError
from repro.geometry.grid_index import _BUCKET_CAPACITY, SlotGridIndex

coords = st.floats(-100, 100)


def brute_force_disc(pts: np.ndarray, x: float, y: float, r: float) -> set[int]:
    if len(pts) == 0:
        return set()
    d2 = ((pts - (x, y)) ** 2).sum(axis=1)
    return set(np.flatnonzero(d2 <= r * r).tolist())


def filtered(cand: np.ndarray, pts: np.ndarray, x: float, y: float, r: float) -> set[int]:
    """The exact disc filter callers apply to a candidate superset."""
    return {int(cand[i]) for i in brute_force_disc(pts[cand], x, y, r)}


def _grid(pts: np.ndarray, cell: float) -> SlotGridIndex:
    g = SlotGridIndex(cell)
    for slot, (x, y) in enumerate(pts.tolist()):
        g.insert(slot, x, y)
    return g


def _scatter(rng, n: int) -> np.ndarray:
    return rng.uniform(0.0, 100.0, size=(n, 2))


class TestAgainstBruteForce:
    @given(
        st.lists(st.tuples(coords, coords), min_size=0, max_size=40),
        coords,
        coords,
        st.floats(0, 150),
        st.floats(0.5, 40),
    )
    def test_filtered_candidates_equal_the_disc(self, pts, qx, qy, radius, cell):
        arr = np.asarray(pts, dtype=float).reshape(-1, 2)
        g = _grid(arr, cell)
        cand = g.candidate_slots(qx, qy, radius)
        assert len(cand) == len(set(cand.tolist()))  # cells never overlap
        assert filtered(cand, arr, qx, qy, radius) == brute_force_disc(arr, qx, qy, radius)

    @given(st.integers(0, 40), st.floats(0.5, 30), st.floats(0, 80), st.integers(-2, 2))
    def test_cutoff_bails_exactly_when_the_gather_reaches_it(self, n, cell, radius, slack):
        # ``None`` iff the uncut gather holds at least ``cutoff`` slots;
        # otherwise the cut query returns the identical membership
        g = _grid(_scatter(np.random.default_rng(n + 1), n), cell)
        full = g.candidate_slots(50.0, 50.0, radius)
        cutoff = max(1, len(full) + slack)  # straddle the gather size
        cut = g.candidate_slots(50.0, 50.0, radius, cutoff=cutoff)
        if len(full) >= cutoff:
            assert cut is None
        else:
            assert cut is not None and sorted(cut.tolist()) == sorted(full.tolist())

    @given(st.integers(1, 40), st.floats(1, 25), st.floats(0, 60), coords, coords)
    def test_cell_window_covers_any_query_point_in_the_cell(self, n, cell, radius, qx, qy):
        g = _grid(_scatter(np.random.default_rng(n), n), cell)
        cx, cy = math.floor(qx / cell), math.floor(qy / cell)
        point = set(g.candidate_slots(qx, qy, radius).tolist())
        assert point <= set(g.candidate_slots_cell(cx, cy, radius).tolist())


class TestChurnAgainstModel:
    @pytest.mark.parametrize("seed", range(3))
    def test_random_churn_matches_model(self, seed):
        rng = np.random.default_rng(seed)
        cell = float(rng.uniform(2.0, 20.0))
        g = SlotGridIndex(cell)
        pos: list[tuple[float, float]] = []  # live slots are 0..len(pos)-1
        for _ in range(150):
            op = int(rng.integers(0, 4))
            if op in (0, 1) or not pos:
                x, y = (float(v) for v in rng.uniform(-50.0, 150.0, 2))
                g.insert(len(pos), x, y)
                pos.append((x, y))
            elif op == 2:
                slot, last = int(rng.integers(0, len(pos))), len(pos) - 1
                g.remove(slot)
                if slot != last:  # the digraph renumbers its last slot
                    g.rename(last, slot)
                    pos[slot] = pos[last]
                pos.pop()
            else:
                slot = int(rng.integers(0, len(pos)))
                pos[slot] = tuple(float(v) for v in rng.uniform(-50.0, 150.0, 2))
                g.move(slot, *pos[slot])
            n = len(pos)
            assert len(g) == n and n not in g
            cells = [(math.floor(x / cell), math.floor(y / cell)) for x, y in pos]
            assert [g.cell_of(s) for s in range(n)] == cells
            assert g.cell_count == len(set(cells))
            assert sorted(g.candidate_slots(50.0, 50.0, 1e6).tolist()) == list(range(n))
            arr = np.asarray(pos, dtype=float).reshape(-1, 2)
            qx, qy, r = (float(v) for v in rng.uniform(0.0, 100.0, 3))
            got = filtered(g.candidate_slots(qx, qy, r), arr, qx, qy, r)
            assert got == brute_force_disc(arr, qx, qy, r)


class TestBasics:
    def test_negative_coordinates_supported(self):
        g = SlotGridIndex(10.0)
        g.insert(0, -25.0, -3.0)
        assert g.cell_of(0) == (-3, -1)
        assert g.candidate_slots(-25.0, -3.0, 0.5).tolist() == [0]
        assert g.candidate_slots(25.0, 3.0, 0.5).size == 0

    def test_move_across_cells_leaves_the_old_window(self):
        g = SlotGridIndex(10.0)
        g.insert(0, 1.0, 1.0)
        g.move(0, 95.0, 95.0)
        assert g.candidate_slots(1.0, 1.0, 5.0).size == 0
        assert g.candidate_slots(95.0, 95.0, 5.0).tolist() == [0]
        assert g.cell_of(0) == (9, 9) and g.cell_count == 1

    def test_move_within_a_cell_keeps_the_bucket_order(self):
        g = SlotGridIndex(10.0)
        for slot in range(3):
            g.insert(slot, 1.0 + slot, 1.0)
        g.move(1, 9.5, 9.5)  # same cell: no detach, no re-append
        assert g.candidate_slots(5.0, 5.0, 1.0).tolist() == [0, 1, 2]
        assert g.cell_of(1) == (0, 0)

    def test_rename_unknown_raises(self):
        with pytest.raises(UnknownNodeError):
            SlotGridIndex(1.0).rename(5, 6)

    @pytest.mark.parametrize("cell", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_cell_size_rejected(self, cell):
        with pytest.raises(ConfigurationError):
            SlotGridIndex(cell)

    def test_copy_is_independent_under_moves_and_renames(self):
        g = SlotGridIndex(10.0)
        for slot, (x, y) in enumerate([(5.0, 5.0), (6.0, 6.0), (55.0, 55.0)]):
            g.insert(slot, x, y)
        dup = g.copy()
        dup.move(2, 5.0, 5.0)  # shares a bucket with slots 0 and 1 now
        dup.remove(0)
        dup.rename(2, 0)
        assert sorted(g.candidate_slots(5.0, 5.0, 1.0).tolist()) == [0, 1]
        assert g.cell_of(2) == (5, 5) and g.cell_count == 2
        assert sorted(dup.candidate_slots(5.0, 5.0, 1.0).tolist()) == [0, 1]
        assert 2 not in dup and dup.cell_count == 1
        assert dup.cell_size == g.cell_size

    def test_bucket_grows_past_its_initial_capacity(self):
        g = SlotGridIndex(10.0)
        n = 3 * _BUCKET_CAPACITY + 1
        for slot in range(n):
            g.insert(slot, 5.0, 5.0)  # one cell
        for slot in range(0, n, 2):
            g.remove(slot)
        assert g.cell_count == 1
        assert sorted(g.candidate_slots(5.0, 5.0, 1.0).tolist()) == list(range(1, n, 2))
