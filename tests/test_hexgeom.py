import numpy as np
import pytest

from hexwin.errors import DegenerateInputError, InputError
from hexwin.hexgeom import (SQRT3, LatticeScale, _knn_distances, cartesian_to_axial_frac,
                            cells_for_points, cube_round, estimate_scale,
                            hex_distance)
from oracles import axial_to_cartesian

NEIGHBOR_DIRS = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def hex_disk(radius):
    return np.array([(q, r) for q in range(-radius, radius + 1)
                     for r in range(-radius, radius + 1)
                     if max(abs(q), abs(r), abs(q + r)) <= radius])


def bfs_distance(a, b, bound=30):
    """Shortest-path oracle on the 6-neighbor graph."""
    if tuple(a) == tuple(b):
        return 0
    frontier = {tuple(a)}
    seen = {tuple(a)}
    for depth in range(1, 4 * bound):
        nxt = set()
        for q, r in frontier:
            for dq, dr in NEIGHBOR_DIRS:
                cell = (q + dq, r + dr)
                if cell == tuple(b):
                    return depth
                if cell not in seen and max(abs(cell[0]), abs(cell[1]),
                                            abs(cell[0] + cell[1])) <= 2 * bound:
                    seen.add(cell)
                    nxt.add(cell)
        frontier = nxt
    raise AssertionError("BFS failed to terminate")


def hexagon_with_center(circumradius=1.0):
    angles = np.arange(6) * np.pi / 3
    corners = circumradius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return np.vstack([[0.0, 0.0], corners])


class TestEstimateScale:
    def test_seven_point_hexagon(self):
        # center + 6 corners at circumradius 1: the pooled 6-NN distances are
        # 24 x 1.0, 12 x sqrt(3), 6 x 2.0, so the median neighbor distance is 1
        scale = estimate_scale(hexagon_with_center(1.0), k=6)
        assert scale.d_med == pytest.approx(1.0, abs=1e-12)
        assert scale.s_spot == pytest.approx(1.0 / SQRT3, abs=1e-12)
        np.testing.assert_allclose(scale.anchor, [0.0, 0.0])

    @pytest.mark.parametrize("radius,jitter,chunk", [(10, 0.0, 256), (11, 0.25, 256),
                                                     (6, 0.1, 7), (3, 0.05, 5)])
    def test_knn_equals_broadcast_formula(self, radius, jitter, chunk):
        # (N, N, 2) broadcast reference; the chunked per-axis form does the
        # same arithmetic, so the distances must be bitwise equal
        rng = np.random.default_rng(radius)
        pts = axial_to_cartesian(hex_disk(radius), LatticeScale(2.5, [3.0, -1.0]))
        pts = pts + rng.normal(0.0, jitter * 2.5, pts.shape)
        pts = pts[rng.permutation(len(pts))]
        assert len(pts) > chunk           # at least one chunk boundary
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(d2, np.inf)
        expect = np.sqrt(np.sort(np.partition(d2, 5, axis=1)[:, :6], axis=1))
        np.testing.assert_array_equal(_knn_distances(pts, 6, chunk=chunk), expect)

    @pytest.mark.parametrize("cloud", ["vertical-line", "horizontal-line", "far-clusters",
                                       "duplicates"])
    @pytest.mark.parametrize("chunk", [64, 5])
    def test_knn_band_search_equals_broadcast_formula(self, cloud, chunk):
        # shapes where an x band holds too few or the wrong neighbours
        rng = np.random.default_rng(4)
        ring = axial_to_cartesian(hex_disk(6), LatticeScale(1.0, [0.0, 0.0]))
        pts = {"vertical-line": np.c_[np.zeros(150), rng.permutation(150) * 1.0],
               "horizontal-line": np.c_[rng.permutation(150) * 1.0, np.zeros(150)],
               "far-clusters": np.r_[ring, ring + [1e6, 3.0]],
               "duplicates": np.r_[ring, ring[::3]]}[cloud]
        d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        np.fill_diagonal(d2, np.inf)
        expect = np.sqrt(np.sort(np.partition(d2, 5, axis=1)[:, :6], axis=1))
        np.testing.assert_array_equal(_knn_distances(pts, 6, chunk=chunk), expect)

    def test_coincident_points_degenerate(self):
        pts = np.zeros((4, 2))
        with pytest.raises(DegenerateInputError):
            estimate_scale(pts, k=1)

    def test_lattice_spacing_two(self):
        cells = hex_disk(5)
        pts = axial_to_cartesian(cells, LatticeScale(2.0, (0.0, 0.0)))
        scale = estimate_scale(pts, k=6)
        assert scale.d_med == pytest.approx(2.0, abs=1e-12)
        assert scale.s_spot == pytest.approx(2.0 / SQRT3, abs=1e-12)

    def test_too_few_points(self):
        with pytest.raises(InputError):
            estimate_scale(np.random.default_rng(0).normal(0, 1, (6, 2)), k=6)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_is_rejected(self, bad):
        # a NaN once dropped out of the k-NN pool silently: d_med came back 1.0
        with pytest.raises(InputError, match="finite"):
            estimate_scale([[0.0, 0.0], [1.0, 0.0], [bad, 1.0], [2.0, 2.0]], k=1)

    def test_translation_changes_only_anchor(self):
        rng = np.random.default_rng(3)
        pts = axial_to_cartesian(hex_disk(4), LatticeScale(1.0, (0, 0)))
        pts = pts + rng.normal(0, 0.02, pts.shape)
        base = estimate_scale(pts, k=6)
        moved = estimate_scale(pts + np.array([13.0, -4.5]), k=6)
        assert moved.d_med == pytest.approx(base.d_med, rel=1e-12)
        assert moved.s_spot == pytest.approx(base.s_spot, rel=1e-12)
        np.testing.assert_allclose(moved.anchor - base.anchor, [13.0, -4.5])


class TestAxialConversion:
    scale = LatticeScale(SQRT3 * 0.8, (2.0, -1.0))  # s_spot = 0.8

    def test_anchor_maps_to_origin(self):
        out = cartesian_to_axial_frac(np.array([2.0, -1.0]), self.scale)
        np.testing.assert_allclose(out, [0.0, 0.0], atol=1e-15)

    def test_north_offset(self):
        p = self.scale.anchor + np.array([0.0, 1.5 * self.scale.s_spot])
        out = cartesian_to_axial_frac(p, self.scale)
        np.testing.assert_allclose(out, [-0.5, 1.0], atol=1e-12)

    def test_east_lattice_neighbor(self):
        p = self.scale.anchor + np.array([SQRT3 * self.scale.s_spot, 0.0])
        out = cartesian_to_axial_frac(p, self.scale)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_inverse_composition(self):
        cells = hex_disk(6).astype(float)
        back = cartesian_to_axial_frac(axial_to_cartesian(cells, self.scale),
                                       self.scale)
        np.testing.assert_allclose(back, cells, atol=1e-9)


def brute_force_nearest_cells(frac):
    """All cells whose Cartesian position is (tied-)closest to the point."""
    scale = LatticeScale(SQRT3, (0.0, 0.0))
    p = axial_to_cartesian(frac, scale)
    base = np.floor(frac).astype(int)
    cands = np.array([(base[0] + dq, base[1] + dr)
                      for dq in range(-2, 4) for dr in range(-2, 4)])
    d = np.linalg.norm(axial_to_cartesian(cands.astype(float), scale) - p, axis=1)
    return cands[d <= d.min() + 1e-9], d.min(), np.sort(d)[1] if len(d) > 1 else d.min()


class TestCubeRound:
    def test_exact_lattice_points(self):
        np.testing.assert_array_equal(cube_round(np.array([0.0, 0.0])), [0, 0])
        np.testing.assert_array_equal(cube_round(np.array([2.0, -1.0])), [2, -1])

    def test_repair_case(self):
        # (0.6, 0.6) lifts to (0.6, 0.6, -1.2); naive rounding gives sum 1 and
        # the u/v error tie repairs u, landing on (0, 1); the point is exactly
        # equidistant from cells (0,1) and (1,0), so assert membership in the
        # brute-force nearest set plus the documented tie-break
        got = cube_round(np.array([0.6, 0.6]))
        assert got[0] + got[1] + (-got[0] - got[1]) == 0
        nearest, _, _ = brute_force_nearest_cells(np.array([0.6, 0.6]))
        assert any(np.array_equal(got, c) for c in nearest)
        np.testing.assert_array_equal(got, [0, 1])

    def test_matches_brute_force_on_grid(self):
        # acceptance criterion grid is covered in test_acceptance; here a
        # random sample keeps the unit suite fast
        rng = np.random.default_rng(0)
        frac = rng.uniform(-5, 5, (500, 2))
        got = cube_round(frac)
        for f, g in zip(frac, got):
            nearest, dmin, dsecond = brute_force_nearest_cells(f)
            if dsecond - dmin < 1e-9:
                assert any(np.array_equal(g, c) for c in nearest)
            else:
                np.testing.assert_array_equal(g, nearest[0])

    def test_round_trip_identity_on_lattice(self):
        scale = LatticeScale(0.7 * SQRT3, (0.3, 0.9))
        cells = np.array([(q, r) for q in range(-20, 21) for r in range(-20, 21)])
        pts = axial_to_cartesian(cells.astype(float), scale)
        np.testing.assert_array_equal(cells_for_points(pts, scale), cells)

    def test_constraint_holds_on_grid(self):
        xs = np.arange(-5.0, 5.0, 0.25)
        frac = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
        out = cube_round(frac)
        w = -out[:, 0] - out[:, 1]
        assert np.all(out[:, 0] + out[:, 1] + w == 0)


class TestHexDistance:
    def test_identity(self):
        assert hex_distance(np.array([3, -2]), np.array([3, -2])) == 0

    def test_unit_neighbor(self):
        assert hex_distance(np.array([0, 0]), np.array([1, 0])) == 1

    def test_two_steps(self):
        assert hex_distance(np.array([0, 0]), np.array([2, -1])) == 2
        assert bfs_distance((0, 0), (2, -1)) == 2

    def test_matches_bfs_within_radius_three(self):
        cells = hex_disk(3)
        for a in cells:
            for b in cells:
                assert hex_distance(a, b) == bfs_distance(tuple(a), tuple(b), 6)

    @pytest.mark.parametrize("seed", range(4))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        trip = rng.integers(-30, 30, (250, 3, 2))
        a, b, c = trip[:, 0], trip[:, 1], trip[:, 2]
        dab = hex_distance(a, b)
        assert np.all(dab >= 0)
        assert np.all(hex_distance(a, a) == 0)
        assert np.all((dab == 0) == np.all(a == b, axis=1))
        np.testing.assert_array_equal(dab, hex_distance(b, a))
        assert np.all(hex_distance(a, c) <= dab + hex_distance(b, c))


def test_lattice_scale_validation():
    with pytest.raises(DegenerateInputError):
        LatticeScale(0.0, np.zeros(2))
