"""Rotary positional encoding on lattice offsets.

Head channels are split as evenly as possible across the three cube axes
(u, v, w); within each axis block, channel pairs (2k, 2k+1) rotate by
theta_k = offset * 10000^(-2k/D_c), with RoFormer's base (Su et al., 2021).
Channels left over when the head dim is not divisible by the axis count
pass through unrotated. Rotations are isometries, and because angles are
linear in the offsets, query/key dot products depend only on offset
differences. A rotation is one complex multiply: pair (x, y) read as
x + iy, times e^(i theta).

A two-axis variant with real-valued (x, y) offsets serves as the Cartesian
ablation; offsets there are expected in units of the lattice spacing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ShapeError


@dataclass(frozen=True)
class RopeConfig:
    """Channel layout for rotary encoding over n_axes lattice axes."""

    head_dim: int
    n_axes: int = 3

    def __post_init__(self):
        if self.head_dim < 1:
            raise InputError("head_dim must be >= 1")
        if self.n_axes not in (2, 3):
            raise InputError("n_axes must be 2 or 3")

    @property
    def per_axis(self) -> int:
        """Channels per axis block; even so pairs rotate together."""
        return 2 * (self.head_dim // (2 * self.n_axes))

    @property
    def remainder(self) -> int:
        return self.head_dim - self.n_axes * self.per_axis


def rope_frequencies(cfg: RopeConfig) -> np.ndarray:
    """omega_k = 10000^(-2k/D_c) for k = 0 .. D_c/2 - 1."""
    return 10000.0 ** (-2.0 * np.arange(cfg.per_axis // 2) / cfg.per_axis)


def rope_angles(cfg: RopeConfig, delta) -> np.ndarray:
    """Rotation angles for one axis offset: delta * omega_k, shape (..., D_c/2)."""
    delta = np.asarray(delta, dtype=np.float64)
    return delta[..., None] * rope_frequencies(cfg)


def rotations(offsets, cfg: RopeConfig) -> np.ndarray:
    """(..., n_axes * D_c / 2) complex e^(i theta) per rotated pair, axis block by block."""
    offsets = np.asarray(offsets, dtype=np.float64)
    if offsets.shape[-1] != cfg.n_axes:
        raise ShapeError(f"offsets last axis must be {cfg.n_axes}")
    theta = rope_angles(cfg, offsets).reshape(
        offsets.shape[:-1] + (cfg.n_axes * cfg.per_axis // 2,))
    return np.cos(theta) + 1j * np.sin(theta)


def rotate(h: np.ndarray, rot: np.ndarray, inverse: bool = False) -> np.ndarray:
    """h with its leading channel pairs, as complex numbers, times rot (conj if inverse)."""
    out = np.array(h, dtype=np.float64, order="C")
    pairs = out[..., :2 * rot.shape[-1]].view(np.complex128)
    pairs *= np.conj(rot) if inverse else rot
    return out


def _rope(h, offsets, cfg: RopeConfig, n_axes: int, inverse: bool) -> np.ndarray:
    if cfg.n_axes != n_axes:
        raise InputError(f"{'hex' if n_axes == 3 else '2d'} rope needs a {n_axes}-axis config")
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != cfg.head_dim:
        raise ShapeError(f"feature dim {h.shape[-1]} != head_dim {cfg.head_dim}")
    rot = rotations(offsets, cfg)
    if n_axes == 3 and np.any(np.abs(np.sum(offsets, axis=-1)) > 1e-9):
        raise InputError("cube offsets must satisfy du + dv + dw = 0")
    return rotate(h, rot, inverse)


def apply_hex_rope(h: np.ndarray, cube_offsets: np.ndarray,
                   cfg: RopeConfig) -> np.ndarray:
    """Rotate per-head features by their integer cube offsets (du, dv, dw)."""
    return _rope(h, cube_offsets, cfg, 3, inverse=False)


def apply_hex_rope_vjp(grad: np.ndarray, cube_offsets: np.ndarray,
                       cfg: RopeConfig) -> np.ndarray:
    """Gradient through the rotation: rotate back by the same offsets."""
    return _rope(grad, cube_offsets, cfg, 3, inverse=True)


def apply_rope_2d(h: np.ndarray, xy_offsets: np.ndarray,
                  cfg: RopeConfig) -> np.ndarray:
    """Two-axis Cartesian variant with real-valued offsets."""
    return _rope(h, xy_offsets, cfg, 2, inverse=False)


def apply_rope_2d_vjp(grad: np.ndarray, xy_offsets: np.ndarray,
                      cfg: RopeConfig) -> np.ndarray:
    return _rope(grad, xy_offsets, cfg, 2, inverse=True)


def axial_to_cube(offsets: np.ndarray) -> np.ndarray:
    """Lift integer axial offsets (dq, dr) to cube triples (dq, dr, -dq-dr)."""
    offsets = np.asarray(offsets)
    w = -offsets[..., 0] - offsets[..., 1]
    return np.concatenate([offsets, w[..., None]], axis=-1)
