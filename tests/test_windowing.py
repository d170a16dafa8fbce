import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwin import hexgeom
from hexwin.errors import CoverageError, InputError, SlotCollisionError
from hexwin.hexgeom import SQRT3, LatticeScale, cells_for_points, estimate_scale, hex_distance
from hexwin.model import ModelConfig, build_geometry, scale_and_cells
from hexwin.synth import SynthConfig, generate
from hexwin.windowing import (MAX_SLOTS, _unique_rows, check_partition,
                              format_partition_records, neighbor_coverage_rate, partition,
                              partition_square, shift_schedule, six_neighbor_pairs)
from oracles import axial_to_cartesian

UNIT = LatticeScale(1.0, (0.0, 0.0))


def hex_disk(radius):
    return np.array([(q, r) for q in range(-radius, radius + 1)
                     for r in range(-radius, radius + 1)
                     if max(abs(q), abs(r), abs(q + r)) <= radius])


def lattice_points(radius, scale=UNIT, jitter=0.0, seed=0):
    cells = hex_disk(radius)
    order = np.lexsort((cells[:, 1], cells[:, 0],
                        np.maximum(np.maximum(abs(cells[:, 0]), abs(cells[:, 1])),
                                   abs(cells.sum(axis=1)))))
    cells = cells[order]
    pts = axial_to_cartesian(cells.astype(float), scale)
    if jitter:
        pts = pts + np.random.default_rng(seed).normal(0, jitter * scale.d_med,
                                                       pts.shape)
    return pts


def center_lattice(scale, radius, shift):
    """README's window-center lattice, defined here apart from the package:
    e1 = (0, sqrt3*K*s), e2 = (1.5*K*s, (sqrt3/2)*K*s) with hexagon side
    s = d_med/sqrt3, translated by 0, e1/2 or e2/2 for shift 0, 1 or 2. The
    float operations run in partition's order, so centers compare exactly."""
    ks = radius * (scale.d_med / math.sqrt(3.0))
    e1 = np.array([0.0, math.sqrt(3.0) * ks])
    e2 = np.array([1.5 * ks, (math.sqrt(3.0) / 2.0) * ks])
    return e1, e2, [np.zeros(2), 0.5 * e1, 0.5 * e2][shift]


def brute_force_centers(pts, scale, radius, shift):
    """Every shifted center over an (alpha, beta) box around the bounding box,
    plus each spot's nearest and second-nearest center index (ties: lower
    index, i.e. lower (alpha, beta))."""
    e1, e2, delta = center_lattice(scale, radius, shift)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    corners = np.array([lo, [hi[0], lo[1]], [lo[0], hi[1]], hi])
    ab = (corners - scale.anchor - delta) @ np.linalg.inv(np.stack([e1, e2], axis=1)).T
    a_lo, b_lo = np.floor(ab.min(axis=0)).astype(int) - 2
    a_hi, b_hi = np.ceil(ab.max(axis=0)).astype(int) + 2
    ids = np.array([(a, b) for a in range(a_lo, a_hi + 1)
                    for b in range(b_lo, b_hi + 1)])
    centers = scale.anchor + ids[:, :1] * e1 + ids[:, 1:] * e2 + delta
    d2 = ((pts[:, None] - centers[None]) ** 2).sum(-1)
    first = np.argmin(d2, axis=1)
    d2[np.arange(len(pts)), first] = np.inf
    return centers, first, np.argmin(d2, axis=1)


def same_grouping(win_a, win_b):
    groups_a, groups_b = {}, {}
    for i in range(len(win_a)):
        groups_a.setdefault(int(win_a[i]), set()).add(i)
        groups_b.setdefault(int(win_b[i]), set()).add(i)
    return (set(map(frozenset, groups_a.values()))
            == set(map(frozenset, groups_b.values())))


class TestSlotSet:
    """A radius-K window's slots are hexgeom.hex_disk(K)."""

    def test_radius_zero(self):
        ss = hexgeom.hex_disk(0)
        assert len(ss) == 1
        np.testing.assert_array_equal(ss, [[0, 0]])

    def test_radius_one_has_seven(self):
        assert len(hexgeom.hex_disk(1)) == 7

    def test_radius_three_has_thirty_seven(self):
        assert len(hexgeom.hex_disk(3)) == 37

    @pytest.mark.parametrize("k", range(9))
    def test_cardinality_formula_vs_enumeration(self, k):
        ss = hexgeom.hex_disk(k)
        # independent oracle: cells within graph distance k of the origin
        disk = {(int(q), int(r)) for q, r in hex_disk(6 * max(k, 1))
                if hex_distance(np.array([q, r]), np.zeros(2, dtype=int)) <= k}
        assert len(ss) == 3 * k * k + 3 * k + 1
        assert {tuple(o) for o in ss} == disk

    def test_deterministic_lexicographic_order(self):
        off = hexgeom.hex_disk(2)
        assert sorted(map(tuple, off)) == list(map(tuple, off))

    @pytest.mark.parametrize("kind,size", [("hex", 148), ("hex", 10 ** 6),
                                           ("square", 129), ("square", 10 ** 6)])
    def test_partition_over_slot_budget(self, kind, size):
        pts = lattice_points(2)
        fn = partition if kind == "hex" else partition_square
        with pytest.raises(InputError, match=f"{size} needs .* slots, over the budget of 65536"):
            fn(pts, cells_for_points(pts, UNIT), UNIT, size, 0)

    @pytest.mark.parametrize("kind,size", [("hex", 147), ("square", 128)])
    def test_partition_at_slot_budget(self, kind, size):
        pts = lattice_points(2)
        fn = partition if kind == "hex" else partition_square
        cells = cells_for_points(pts, UNIT)
        part = fn(pts, cells, UNIT, size, 0)
        assert part.n_slots <= MAX_SLOTS
        check_partition(part, cells)


class TestCenters:
    def test_origin_center_exists_for_anchor_spot(self):
        pts = np.array([[0.0, 0.0]])
        part = partition(pts, cells_for_points(pts, UNIT), UNIT, 2, 0)
        np.testing.assert_array_equal(part.centers, [UNIT.anchor])

    def test_shift_translates_centers(self):
        pts = lattice_points(6)
        cells = cells_for_points(pts, UNIT)
        for shift in (0, 1, 2):
            e1, e2, delta = center_lattice(UNIT, 2, shift)
            centers = partition(pts, cells, UNIT, 2, shift).centers
            ab = (centers - UNIT.anchor - delta) @ np.linalg.inv(np.stack([e1, e2], axis=1)).T
            np.testing.assert_allclose(ab, np.round(ab), atol=1e-9)

    def test_every_spot_near_a_center(self):
        pts = lattice_points(8)
        cells = cells_for_points(pts, UNIT)
        part = partition(pts, cells, UNIT, 2, 0)
        assert hex_distance(cells, part.center_cells[part.window_of_spot]).max() <= 2

    def test_radius_zero_rejected(self):
        pts = lattice_points(2)
        with pytest.raises(InputError):
            partition(pts, cells_for_points(pts, UNIT), UNIT, 0, 0)

    @pytest.mark.parametrize("builder", [partition, partition_square])
    @pytest.mark.parametrize("size,shift", [(0, 0), (1, 3), (1, -1)])
    def test_bad_size_or_shift_rejected(self, builder, size, shift):
        pts = lattice_points(2)
        with pytest.raises(InputError):
            builder(pts, cells_for_points(pts, UNIT), UNIT, size, shift)

    @pytest.mark.parametrize("builder", [partition, partition_square])
    def test_non_finite_coordinates_rejected(self, builder):
        pts = lattice_points(2)
        cells = cells_for_points(pts, UNIT)
        pts[3, 1] = np.nan
        with pytest.raises(InputError):
            builder(pts, cells, UNIT, 1, 0)

    @pytest.mark.parametrize("variant", ["exact", "jittered", "moved"])
    def test_matches_brute_force_enumeration(self, variant):
        scale = UNIT
        pts = lattice_points(7, jitter=0.1 if variant == "jittered" else 0.0, seed=3)
        if variant == "moved":
            pts = 37.5 * pts + np.array([-812.25, 90.125])
            scale = estimate_scale(pts, 6)
        cells = cells_for_points(pts, scale)
        for k in (1, 2, 3, 4):
            for shift in (0, 1, 2):
                part = partition(pts, cells, scale, k, shift)
                centers, first, _ = brute_force_centers(pts, scale, k, shift)
                assert same_grouping(part.window_of_spot, first)
                np.testing.assert_array_equal(part.centers[part.window_of_spot],
                                              centers[first])
                np.testing.assert_array_equal(part.center_cells[part.window_of_spot],
                                              cells_for_points(centers[first], scale))


class TestPartition:
    def test_singleton(self):
        pts = np.array([[0.37, -0.12]])
        scale = LatticeScale(1.0, pts[0])
        part = partition(pts, cells_for_points(pts, scale), scale, 1, 0)
        assert part.n_windows == 1
        assert part.window_of_spot[0] == 0
        check_partition(part, cells_for_points(pts, scale))

    def test_perfect_patch_matches_brute_force_voronoi(self):
        pts = lattice_points(4)
        cells = cells_for_points(pts, UNIT)
        part = partition(pts, cells, UNIT, 1, 0)
        _, oracle, _ = brute_force_centers(pts, UNIT, 1, 0)
        # window indices are renumbered after dropping empties; compare by
        # grouping structure
        assert same_grouping(part.window_of_spot, oracle)
        assert np.bincount(part.window_of_spot).max() <= 7
        check_partition(part, cells)

    def test_three_shifts_differ(self):
        pts = lattice_points(5)
        cells = cells_for_points(pts, UNIT)
        parts = [partition(pts, cells, UNIT, 2, s) for s in (0, 1, 2)]
        pairs = six_neighbor_pairs(cells)
        for a in range(3):
            for b in range(a + 1, 3):
                wa, wb = parts[a].window_of_spot, parts[b].window_of_spot
                co_a = wa[pairs[:, 0]] == wa[pairs[:, 1]]
                co_b = wb[pairs[:, 0]] == wb[pairs[:, 1]]
                assert np.any(co_a != co_b)

    def test_slot_bound_and_partition_properties(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            scale0 = LatticeScale(1.0, (0.0, 0.0))
            pts = lattice_points(7, scale0, jitter=0.04, seed=seed)
            keep = rng.random(len(pts)) >= 0.08
            pts = pts[keep]
            scale = estimate_scale(pts, 6)
            cells = cells_for_points(pts, scale)
            for k in (1, 2):
                for shift in (0, 1, 2):
                    part = partition(pts, cells, scale, k, shift)
                    check_partition(part, cells)
                    assigned = part.window_of_spot >= 0
                    assert assigned.all()
                    assert hex_distance(cells, part.center_cells[part.window_of_spot]).max() <= k

    def test_strict_collision_raises(self):
        # two spots in the same cell
        pts = np.array([[0.0, 0.0], [0.05, 0.0], [SQRT3, 0.0], [2 * SQRT3, 0.0],
                        [0.5 * SQRT3, 1.5], [-0.5 * SQRT3, 1.5]])
        scale = LatticeScale(SQRT3, (0.0, 0.0))
        cells = cells_for_points(pts, scale)
        with pytest.raises(SlotCollisionError,
                           match=r"^spots 0 and 1 both map to window \d+ slot \d+$"):
            partition(pts, cells, scale, 1, 0)

    def test_determinism(self):
        pts = lattice_points(6, jitter=0.05, seed=9)
        scale = estimate_scale(pts, 6)
        cells = cells_for_points(pts, scale)
        a = partition(pts, cells, scale, 2, 1)
        b = partition(pts, cells, scale, 2, 1)
        np.testing.assert_array_equal(a.window_of_spot, b.window_of_spot)
        np.testing.assert_array_equal(a.slot_of_spot, b.slot_of_spot)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)
        ids = [f"s{i}" for i in range(len(pts))]
        assert format_partition_records(a, ids) == format_partition_records(b, ids)


class TestSquarePartition:
    def test_singleton(self):
        pts = np.array([[0.1, 0.2]])
        scale = LatticeScale(1.0, pts[0])
        part = partition_square(pts, cells_for_points(pts, scale), scale, 2, 0)
        assert part.n_windows == 1

    def test_four_spots_one_tile(self):
        scale = LatticeScale(1.0, (0.0, 0.0))
        pts = np.array([[0.2, 0.2], [1.7, 0.2], [0.2, 1.7], [1.7, 1.7]])
        part = partition_square(pts, cells_for_points(pts, scale), scale, 2, 0)
        assert part.n_windows == 1
        assert len(set(part.slot_of_spot.tolist())) == 4

    def test_square_splits_a_hex_kept_pair(self):
        pts = lattice_points(4)
        cells = cells_for_points(pts, UNIT)
        hexpart = partition(pts, cells, UNIT, 2, 0)
        sqpart = partition_square(pts, cells, UNIT, 4, 0)
        pairs = six_neighbor_pairs(cells)
        wh, ws = hexpart.window_of_spot, sqpart.window_of_spot
        together_hex = wh[pairs[:, 0]] == wh[pairs[:, 1]]
        split_square = ws[pairs[:, 0]] != ws[pairs[:, 1]]
        assert np.any(together_hex & split_square)

    def test_collision_raises(self):
        # spots 0 and 1 share subcell 0 of the one tile
        pts = np.array([[0.1, 0.1], [0.15, 0.1], [1.2, 0.3], [0.3, 1.4]])
        cells = cells_for_points(pts, UNIT)
        with pytest.raises(SlotCollisionError,
                           match="^spots 0 and 1 both map to window 0 slot 0$"):
            partition_square(pts, cells, UNIT, 2, 0)

    def test_jittered_lattice_is_collision_free(self):
        for seed in range(5):
            pts = lattice_points(6, jitter=0.05, seed=seed)
            scale = estimate_scale(pts, 6)
            cells = cells_for_points(pts, scale)
            part = partition_square(pts, cells, scale, 3, seed % 3)
            check_partition(part, cells)


class TestShiftMachinery:
    def test_schedule_restarts_each_stage(self):
        assert shift_schedule(3) == [0, 1, 2]
        assert shift_schedule(5) == [0, 1, 2, 0, 1]
        assert shift_schedule(1) == [0]

    def test_basis_lengths(self):
        # window centers lie K * d_med apart: the nearest two of the partition's
        # centers on a radius-10 lattice, at shift 0
        pts = lattice_points(10)
        cells = cells_for_points(pts, UNIT)
        for k in (1, 2, 3, 4):
            centers = partition(pts, cells, UNIT, k, 0).centers
            gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
            assert gaps[~np.eye(len(centers), dtype=bool)].min() == pytest.approx(k * UNIT.d_med)

    def test_neighbor_coverage_rate_by_stage(self):
        pts = lattice_points(10, jitter=0.02, seed=1)
        scale = estimate_scale(pts, 6)
        cells = cells_for_points(pts, scale)
        rates = {}
        for k in (1, 2, 4):
            parts = [partition(pts, cells, scale, k, s) for s in (0, 1, 2)]
            rates[k] = neighbor_coverage_rate(parts, cells)
        print(f"\n3-shift neighbor coverage by radius: "
              f"{ {k: round(v, 4) for k, v in rates.items()} }")
        # K=1 windows are as dense as the spot lattice, so coverage is
        # structurally low there; the property is asserted at the largest
        # windowed stage
        assert rates[4] >= 0.9
        assert rates[2] > rates[1]


def test_check_partition_catches_tampering():
    pts = lattice_points(3)
    cells = cells_for_points(pts, UNIT)
    part = partition(pts, cells, UNIT, 1, 0)
    check_partition(part, cells)
    win, slot = part.window_of_spot, part.slot_of_spot
    j, i = np.flatnonzero(win == np.bincount(win).argmax())[:2]   # share a window

    def edited(array, index, value):
        out = array.copy()
        out[index] = value
        return out

    hacked = part.occupancy.copy()
    hacked[0, 0] = ~hacked[0, 0]
    cases = [
        (dict(occupancy=hacked), "occupancy"),
        (dict(window_of_spot=edited(win, 0, part.n_windows)), "outside the"),
        (dict(window_of_spot=edited(win, 0, -1)), "outside the"),
        (dict(slot_of_spot=edited(slot, 0, part.n_slots)), "outside the"),
        # slot - S wraps around to the same occupied mask column
        (dict(slot_of_spot=edited(slot, 0, slot[0] - part.n_slots)), "spot 0 has"),
        (dict(slot_of_spot=edited(slot, i, slot[j])),
         rf"duplicate \(window, slot\) \({win[j]}, {slot[j]}\)"),
        # a center moved by radius + 1 leaves its own spot outside the window
        (dict(center_cells=edited(part.center_cells, win[j], cells[j] + (part.size + 1, 0))),
         "slot offset exceeds window radius"),
    ]
    for changes, message in cases:
        with pytest.raises(CoverageError, match=message):
            check_partition(dataclasses.replace(part, **changes), cells)


def dict_neighbor_pairs(cells):
    """Oracle: one dict lookup per cell and direction; a shared cell maps to its last spot."""
    where = {(int(q), int(r)): i for i, (q, r) in enumerate(cells)}
    pairs = [(i, where[(int(q) + dq, int(r) + dr)])
             for i, (q, r) in enumerate(cells)
             for dq, dr in ((1, 0), (0, 1), (-1, 1))
             if (int(q) + dq, int(r) + dr) in where]
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def test_six_neighbor_pairs_match_dict_oracle():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pts = lattice_points(6, jitter=0.05, seed=seed)
        pts = pts[rng.random(len(pts)) >= 0.1] + rng.normal(0, 50, 2)
        cells = cells_for_points(pts, estimate_scale(pts, 6))
        np.testing.assert_array_equal(six_neighbor_pairs(cells), dict_neighbor_pairs(cells))
    # spots 0 and 3 share a cell; spot 4's lookup finds the last of them, spot 3
    cells = np.array([[0, 0], [1, 0], [0, 1], [0, 0], [-1, 0], [-5, 9]])
    got = six_neighbor_pairs(cells)
    np.testing.assert_array_equal(got, dict_neighbor_pairs(cells))
    np.testing.assert_array_equal(got, [[0, 1], [0, 2], [1, 2], [3, 1], [3, 2], [4, 3]])
    assert six_neighbor_pairs(np.zeros((0, 2), dtype=np.int64)).shape == (0, 2)


def oracle_assignment(pts, cells, scale, kind, size, shift):
    """Per spot, one at a time: its (window, slot) key and its window center.

    A key is the window's lattice id (hex: its index among brute-force centers;
    square: its tile) followed by the slot (hex: the cell offset; square: the
    subcell). Both orders of window ids are the partition's window order."""
    if kind == "hex":
        centers, first, _ = brute_force_centers(pts, scale, size, shift)
        offsets = cells - cells_for_points(centers[first], scale)
        keys = [(int(first[i]), *map(int, offsets[i])) for i in range(len(pts))]
        return keys, centers[first]
    # the same float operations, in the same order, as partition_square
    tile, grid = size * scale.d_med, 2 * size
    (ax, ay), (dx, dy) = scale.anchor, [(0.0, 0.0), (tile / 2.0, 0.0), (0.0, tile / 2.0)][shift]
    keys, centers = [], []
    for x, y in pts:
        u, v = (x - ax - dx) / tile, (y - ay - dy) / tile
        tu, tv = math.floor(u), math.floor(v)
        su, sv = min(int((u - tu) * grid), grid - 1), min(int((v - tv) * grid), grid - 1)
        keys.append((tu, tv, su, sv))
        centers.append((ax + dx + (tu + 0.5) * tile, ay + dy + (tv + 0.5) * tile))
    return keys, np.array(centers)


@settings(max_examples=150)
@given(radius=st.integers(1, 6), jitter=st.sampled_from([0.0, 0.03, 0.1]),
       spacing=st.floats(0.01, 500.0), origin=st.tuples(st.floats(-1e4, 1e4),
                                                         st.floats(-1e4, 1e4)),
       kind=st.sampled_from(["hex", "square"]), size=st.integers(1, 4),
       shift=st.integers(0, 2), copies=st.integers(0, 4), seed=st.integers(0, 2**16))
def test_partition_properties_on_random_lattices(radius, jitter, spacing, origin, kind,
                                                 size, shift, copies, seed):
    """Both window kinds on jittered, scaled and translated lattices, with
    exact and nudged copies of some spots injected in shuffled order. When a
    dict oracle's (window, slot) keys repeat, the partition raises and names
    the first repeated spot in index order and that key's first holder. The
    spots that hold a key first get the oracle's window center and slot."""
    rng = np.random.default_rng(seed)
    pts = lattice_points(radius, jitter=jitter, seed=seed) * spacing + np.array(origin)
    scale = estimate_scale(pts, 6)
    picks = rng.integers(0, len(pts), 2 * copies)
    nudge = rng.normal(0.0, 0.02 * scale.d_med, (copies, 2))
    pts = np.concatenate([pts, pts[picks[:copies]], pts[picks[copies:]] + nudge])
    pts = pts[rng.permutation(len(pts))]
    cells = cells_for_points(pts, scale)
    build = partition if kind == "hex" else partition_square

    keys, centers = oracle_assignment(pts, cells, scale, kind, size, shift)
    windows = sorted({key[:-2] for key in keys})
    offsets = hexgeom.hex_disk(size).tolist()

    def window_and_slot(key):
        slot = offsets.index(list(key[1:])) if kind == "hex" else key[3] * 2 * size + key[2]
        return windows.index(key[:-2]), slot

    first_holder = {}
    for i, key in enumerate(keys):
        first_holder.setdefault(key, i)
    repeats = [i for i, key in enumerate(keys) if first_holder[key] != i]
    if kind == "hex" and len(np.unique(cells, axis=0)) == len(pts):
        assert not repeats
    if repeats:
        i = repeats[0]
        w, slot = window_and_slot(keys[i])
        with pytest.raises(SlotCollisionError, match=f"^spots {first_holder[keys[i]]} and {i} "
                                                     f"both map to window {w} slot {slot}$"):
            build(pts, cells, scale, size, shift)
    # without the repeats, the first holders partition alone into the same windows
    kept = sorted(first_holder.values())
    part = build(pts[kept], cells[kept], scale, size, shift)
    check_partition(part, cells[kept])
    np.testing.assert_array_equal(part.centers[part.window_of_spot], centers[kept])
    np.testing.assert_array_equal(np.stack([part.window_of_spot, part.slot_of_spot], axis=1),
                                  [window_and_slot(keys[i]) for i in kept])
    if kind == "hex":
        assert hex_distance(cells[kept], part.center_cells[part.window_of_spot]).max() <= size


# sha256 over (window_of_spot, slot_of_spot, occupancy, centers, center_cells)
# of every partition build_geometry makes on the acceptance suite's
# learnability slide; a change that moves any partition on purpose updates these
PINNED_PARTITIONS = {
    "hex": "7221152eba7438418b553c4e021d16faa653872815b636db2ea725287e346c6e",
    "square": "aee9340153b5f9a0c32dad7d585c549ee6fdb8cd082575e4648abffcbb9e8119",
}
# sha256 over format_partition_records of that slide's hex partitions at
# K = 1, 2, 4 and square partitions at sides 2, 4, 8, each at shifts 0-2
PINNED_RECORDS = "bdd7e9f5a3b685eb9fa6188c5630df684030a9be807abc368fe1a1c98b4aa130"


def learnability_slide():
    return generate(SynthConfig(radius=10, jitter=0.05, dropout=0.05, seed=7, assay_seed=1234,
                                patterns=("boundary",) * 4 + ("gradient",) * 4
                                + ("sparse",) * 4 + ("noise",) * 4,
                                token_dim=32, token_noise=0.05, boundary_high=6.0,
                                transcriptomic_dim=16))


@pytest.mark.parametrize("window", ["hex", "square"])
def test_build_geometry_partitions_are_pinned(window):
    cfg = ModelConfig(in_dim=32, genes=16, dim=32, heads=4, stages=4, blocks=3,
                      radii=(1, 2, 4), out_dim=16, t_dim=16, window=window)
    digest = hashlib.sha256()
    for row in build_geometry(learnability_slide().coords, cfg).partitions[:-1]:
        for part in row:
            for array in (part.window_of_spot.astype("<i8"), part.slot_of_spot.astype("<i8"),
                          part.occupancy, part.centers.astype("<f8"),
                          part.center_cells.astype("<i8")):
                digest.update(array.tobytes())
    assert digest.hexdigest() == PINNED_PARTITIONS[window]


def test_partition_records_are_pinned():
    ds = learnability_slide()
    scale, cells = scale_and_cells(ds.coords)
    digest = hashlib.sha256()
    for build, sizes in ((partition, (1, 2, 4)), (partition_square, (2, 4, 8))):
        for size in sizes:
            for shift in (0, 1, 2):
                part = build(ds.coords, cells, scale, size, shift)
                digest.update(format_partition_records(part, ds.spot_ids).encode())
    assert digest.hexdigest() == PINNED_RECORDS


@pytest.mark.parametrize("spread", [3, 1 << 40])
def test_unique_rows_matches_numpy_unique_rows(spread):
    # lexicographic window numbering, as np.unique(axis=0) gives it
    rng = np.random.default_rng(spread % 97)
    for n in (0, 1, 2, 50, 400):
        ids = rng.integers(-spread, spread + 1, (n, 2))
        uniq, inverse = _unique_rows(ids)
        want, want_inverse = np.unique(ids, axis=0, return_inverse=True)
        np.testing.assert_array_equal(uniq, want.reshape(-1, 2))
        np.testing.assert_array_equal(inverse, want_inverse.ravel())
