import numpy as np
import pytest

from hexwin.errors import InputError, ShapeError
from hexwin.rope import (apply_hex_rope, apply_hex_rope_vjp, apply_rope_2d,
                         apply_rope_2d_vjp, axial_to_cube, per_axis, rope_angles,
                         rotate, rotations)


def random_cube_offsets(rng, shape):
    qr = rng.integers(-6, 7, shape + (2,))
    return axial_to_cube(qr).astype(float)


class TestAngles:
    def test_zero_offset(self):
        np.testing.assert_array_equal(rope_angles(0, 4), [0.0, 0.0])  # 4 channels per axis

    def test_single_frequency(self):
        np.testing.assert_allclose(rope_angles(1, 2), [1.0])  # D_c = 2 -> one pair, omega = 1

    def test_two_frequencies(self):
        # D_c = 4, omega_1 = 1e4^(-1/2)
        np.testing.assert_allclose(rope_angles(2, 4), [2.0, 0.02], atol=1e-15)

    def test_channel_split_invariant(self):
        for d in (6, 7, 8, 12, 16, 64):
            for axes in (2, 3):
                dc = per_axis(d, axes)
                assert 0 <= d - axes * dc < 2 * axes
                assert dc % 2 == 0


class TestHexRope:
    def test_zero_offsets_exact_identity(self):
        rng = np.random.default_rng(0)
        h = rng.normal(0, 1, (5, 6))
        out = apply_hex_rope(h, np.zeros((5, 3)))
        np.testing.assert_array_equal(out, h)

    def test_unit_vector_rotation_by_axis(self):
        # offsets (1, 0, -1): u pair rotates by +1, v unchanged, w pair by -1
        off = np.array([[1.0, 0.0, -1.0]])
        e_u = np.zeros((1, 6))
        e_u[0, 0] = 1.0
        out = apply_hex_rope(e_u, off)
        np.testing.assert_allclose(out[0, :2], [np.cos(1.0), np.sin(1.0)], atol=1e-15)
        np.testing.assert_allclose(out[0, 2:], [0, 0, 0, 0], atol=0)

        e_v = np.zeros((1, 6))
        e_v[0, 2] = 1.0
        np.testing.assert_array_equal(apply_hex_rope(e_v, off), e_v)

        e_w = np.zeros((1, 6))
        e_w[0, 4] = 1.0
        out = apply_hex_rope(e_w, off)
        np.testing.assert_allclose(out[0, 4:], [np.cos(1.0), -np.sin(1.0)], atol=1e-15)

    @pytest.mark.parametrize("head_dim", (6, 8, 14))
    def test_norm_preserved(self, head_dim):
        rng = np.random.default_rng(head_dim)
        h = rng.normal(0, 1, (40, head_dim))
        off = random_cube_offsets(rng, (40,))
        out = apply_hex_rope(h, off)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                                   np.linalg.norm(h, axis=-1), atol=1e-12)

    def test_relative_position_property(self):
        # dot(rot(q, p1), rot(k, p2)) depends only on p1 - p2
        rng = np.random.default_rng(42)
        for _ in range(200):
            q = rng.normal(0, 1, 16)
            k = rng.normal(0, 1, 16)
            p1 = random_cube_offsets(rng, ())
            p2 = random_cube_offsets(rng, ())
            delta = random_cube_offsets(rng, ())
            base = apply_hex_rope(q, p1) @ apply_hex_rope(k, p2)
            moved = apply_hex_rope(q, p1 + delta) @ apply_hex_rope(k, p2 + delta)
            assert abs(base - moved) < 1e-9

    def test_axis_independence(self):
        # with v, w and remainder channels zeroed the score depends only on du
        rng = np.random.default_rng(5)
        q = np.zeros(12)
        k = np.zeros(12)
        q[:4] = rng.normal(0, 1, 4)
        k[:4] = rng.normal(0, 1, 4)
        du = 3
        scores = set()
        for dv in range(-3, 4):
            dw = -du - dv
            off = np.array([du, dv, dw], dtype=float)
            s = apply_hex_rope(q, off) @ apply_hex_rope(k, np.zeros(3))
            scores.add(round(float(s), 9))
        assert len(scores) == 1

    def test_cube_constraint_enforced(self):
        with pytest.raises(InputError):
            apply_hex_rope(np.zeros(6), np.array([1.0, 1.0, 1.0]))

    def test_vjp_is_inverse_rotation(self):
        rng = np.random.default_rng(7)
        h = rng.normal(0, 1, (10, 6))
        off = random_cube_offsets(rng, (10,))
        np.testing.assert_allclose(
            apply_hex_rope_vjp(apply_hex_rope(h, off), off), h,
            atol=1e-12)


class TestRope2d:
    def test_zero_offsets_identity(self):
        rng = np.random.default_rng(1)
        h = rng.normal(0, 1, (3, 4))
        np.testing.assert_array_equal(apply_rope_2d(h, np.zeros((3, 2))), h)

    def test_quarter_turn(self):
        # one pair per axis, omega_0 = 1: dx = pi/2 rotates the x pair 90 deg
        h = np.array([[1.0, 0.0, 0.0, 0.0]])
        out = apply_rope_2d(h, np.array([[np.pi / 2, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0, 0.0]], atol=1e-15)

    def test_norm_preserved(self):
        rng = np.random.default_rng(2)
        h = rng.normal(0, 1, (20, 10))
        off = rng.normal(0, 3, (20, 2))
        out = apply_rope_2d(h, off)
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1),
                                   np.linalg.norm(h, axis=-1), atol=1e-12)

    def test_relative_position_property_real_offsets(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q, k = rng.normal(0, 1, (2, 8))
            p1, p2, delta = rng.normal(0, 2, (3, 2))
            base = apply_rope_2d(q, p1) @ apply_rope_2d(k, p2)
            moved = apply_rope_2d(q, p1 + delta) @ apply_rope_2d(k, p2 + delta)
            assert abs(base - moved) < 1e-9

    def test_vjp_is_inverse_rotation(self):
        rng = np.random.default_rng(4)
        h = rng.normal(0, 1, (6, 4))
        off = rng.normal(0, 2, (6, 2))
        np.testing.assert_allclose(
            apply_rope_2d_vjp(apply_rope_2d(h, off), off), h,
            atol=1e-12)


def test_remainder_channels_pass_through():
    rng = np.random.default_rng(9)
    h = rng.normal(0, 1, (4, 8))  # head dim 8: 2 channels per axis, 2 left over
    off = random_cube_offsets(rng, (4,))
    out = apply_hex_rope(h, off)
    np.testing.assert_array_equal(out[:, 6:], h[:, 6:])


def test_frequencies_follow_base_power_law():
    # head dim 24 over 3 axes: D_c = 8 -> k = 0..3, base 10000
    np.testing.assert_allclose(rope_angles(1, per_axis(24, 3)), [1.0, 0.1, 0.01, 0.001])


def test_axial_to_cube_sums_to_zero():
    rng = np.random.default_rng(0)
    qr = rng.integers(-9, 10, (50, 2))
    cube = axial_to_cube(qr)
    assert np.all(cube.sum(axis=-1) == 0)


def per_axis_rotation(h, offsets):
    """Reference: each axis block's pairs turned with real cos/sin arithmetic."""
    out = h.copy()
    dc = per_axis(h.shape[-1], offsets.shape[-1])
    for a in range(offsets.shape[-1]):
        theta = rope_angles(offsets[..., a], dc)
        cos, sin = np.cos(theta), np.sin(theta)
        x, y = h[..., a * dc:(a + 1) * dc:2], h[..., a * dc + 1:(a + 1) * dc:2]
        out[..., a * dc:(a + 1) * dc:2] = x * cos - y * sin
        out[..., a * dc + 1:(a + 1) * dc:2] = x * sin + y * cos
    return out


class TestComplexRotation:
    """rotate/rotations against the per-axis formula, at even, odd and
    remainder-carrying head dims."""

    @staticmethod
    def case(head_dim, n_axes, seed=0):
        rng = np.random.default_rng(seed + 10 * head_dim + n_axes)
        h = rng.normal(0, 3, (40, 2, head_dim))
        if n_axes == 3:
            off = random_cube_offsets(rng, (40, 1))
        else:
            off = rng.normal(0, 4, (40, 1, 2))
        return h, off

    @pytest.mark.parametrize("n_axes", (2, 3))
    @pytest.mark.parametrize("head_dim", (6, 8, 9, 12))
    def test_matches_per_axis_formula(self, head_dim, n_axes):
        # numpy may fuse the complex multiply into FMAs: ~1 ulp apart
        h, off = self.case(head_dim, n_axes)
        rot = rotations(off, head_dim)
        assert rot.shape == (40, 1, n_axes * per_axis(head_dim, n_axes) // 2)
        tol = 1e-15 * np.abs(h).max()
        assert np.abs(rotate(h, rot) - per_axis_rotation(h, off)).max() <= tol
        assert np.abs(rotate(h, rot, inverse=True)
                      - per_axis_rotation(h, -off)).max() <= tol

    @pytest.mark.parametrize("n_axes", (2, 3))
    @pytest.mark.parametrize("head_dim", (6, 8, 9, 12))
    def test_exact_identities(self, head_dim, n_axes):
        h, off = self.case(head_dim, n_axes, seed=1)
        rotated = n_axes * per_axis(head_dim, n_axes)
        out = rotate(h, rotations(off, head_dim))
        np.testing.assert_array_equal(out[..., rotated:], h[..., rotated:])
        for inverse in (False, True):
            np.testing.assert_array_equal(
                rotate(h, rotations(np.zeros_like(off), head_dim), inverse), h)
        np.testing.assert_allclose(rotate(out, rotations(off, head_dim), inverse=True), h,
                                   rtol=0, atol=1e-14 * np.abs(h).max())

    def test_input_left_untouched_and_offsets_checked(self):
        h, off = self.case(9, 3)
        before = h.copy()
        rotate(h, rotations(off, 9))
        np.testing.assert_array_equal(h, before)
        # the axis count is the offsets' width: 2 or 3, and each pair takes its own
        for bad in (off[..., :1], np.concatenate([off, off[..., :1]], axis=-1), np.float64(1.0)):
            with pytest.raises(ShapeError):
                rotations(bad, 9)
        with pytest.raises(ShapeError):
            apply_hex_rope(h, off[..., :2])
        with pytest.raises(ShapeError):
            apply_rope_2d(h, off)
