"""Rotary positional encoding on lattice positions.

The axis count comes from the positions' width: 3 for integer cube
coordinates (u, v, w), 2 for the Cartesian ablation's real-valued (x, y),
in units of the lattice spacing. Head channels are split as evenly as
possible across the axes; within each axis block, channel pairs (2k, 2k+1)
rotate by theta_k = position * 10000^(-2k/D_c), with RoFormer's base (Su et
al., 2021). Channels left over when the head dim is not divisible by the
axis count pass through unrotated. Rotations are isometries, and because
angles are linear in the positions, query/key dot products depend only on
position differences. A rotation is one complex multiply: pair (x, y) read
as x + iy, times e^(i theta).
"""

from __future__ import annotations

import numpy as np

from .errors import InputError, ShapeError


def per_axis(head_dim: int, n_axes: int) -> int:
    """Channels per axis block, D_c; even so pairs rotate together."""
    return 2 * (head_dim // (2 * n_axes))


def rope_angles(delta, per_axis: int) -> np.ndarray:
    """delta * omega_k with omega_k = 10000^(-2k/D_c), shape (..., D_c/2)."""
    delta = np.asarray(delta, dtype=np.float64)
    return delta[..., None] * 10000.0 ** (-2.0 * np.arange(per_axis // 2) / per_axis)


def rotations(positions, head_dim: int) -> np.ndarray:
    """(..., n_axes * D_c / 2) complex e^(i theta) per rotated pair, axis block by block."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[-1:] not in ((2,), (3,)):
        raise ShapeError(f"positions last axis must be 2 or 3, got shape {positions.shape}")
    n_axes = positions.shape[-1]
    dc = per_axis(head_dim, n_axes)
    theta = rope_angles(positions, dc).reshape(positions.shape[:-1] + (n_axes * dc // 2,))
    return np.cos(theta) + 1j * np.sin(theta)


def rotate(h: np.ndarray, rot: np.ndarray, inverse: bool = False) -> np.ndarray:
    """h with its leading channel pairs, as complex numbers, times rot (conj if inverse)."""
    out = np.array(h, dtype=np.float64, order="C")
    pairs = out[..., :2 * rot.shape[-1]].view(np.complex128)
    pairs *= np.conj(rot) if inverse else rot
    return out


def _rope(h, offsets, n_axes: int, inverse: bool) -> np.ndarray:
    h, offsets = np.asarray(h, dtype=np.float64), np.asarray(offsets, dtype=np.float64)
    if offsets.shape[-1:] != (n_axes,):
        raise ShapeError(f"{'hex' if n_axes == 3 else '2d'} rope needs {n_axes}-wide "
                         f"offsets, got shape {offsets.shape}")
    if n_axes == 3 and np.any(np.abs(np.sum(offsets, axis=-1)) > 1e-9):
        raise InputError("cube offsets must satisfy du + dv + dw = 0")
    return rotate(h, rotations(offsets, h.shape[-1]), inverse)


def apply_hex_rope(h: np.ndarray, cube_offsets: np.ndarray) -> np.ndarray:
    """Rotate per-head features by their integer cube offsets (du, dv, dw)."""
    return _rope(h, cube_offsets, 3, inverse=False)


def apply_hex_rope_vjp(grad: np.ndarray, cube_offsets: np.ndarray) -> np.ndarray:
    """Gradient through the rotation: rotate back by the same offsets."""
    return _rope(grad, cube_offsets, 3, inverse=True)


def apply_rope_2d(h: np.ndarray, xy_offsets: np.ndarray) -> np.ndarray:
    """Two-axis Cartesian variant with real-valued offsets."""
    return _rope(h, xy_offsets, 2, inverse=False)


def apply_rope_2d_vjp(grad: np.ndarray, xy_offsets: np.ndarray) -> np.ndarray:
    return _rope(grad, xy_offsets, 2, inverse=True)


def axial_to_cube(offsets: np.ndarray) -> np.ndarray:
    """Lift integer axial offsets (dq, dr) to cube triples (dq, dr, -dq-dr)."""
    offsets = np.asarray(offsets)
    w = -offsets[..., 0] - offsets[..., 1]
    return np.concatenate([offsets, w[..., None]], axis=-1)
