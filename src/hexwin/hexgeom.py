"""Pointy-top hexagonal lattice geometry for spot arrays.

Spots arrive as raw 2D Cartesian coordinates. A lattice scale is estimated
from observed neighbor distances, coordinates are normalized relative to an
anchor spot, converted to fractional axial coordinates, and snapped to
integer cells by cube rounding. Axial coordinates are (q, r); cube
coordinates are (u, v, w) = (q, r, -q-r) with u + v + w = 0.

All functions are pure and vectorized over leading axes; coordinate pairs
live in the last axis of shape (..., 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, InputError

SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class LatticeScale:
    """Estimated lattice geometry: spacing d_med, hexagon side, and anchor point."""

    d_med: float
    s_spot: float
    anchor: np.ndarray

    def __post_init__(self):
        if not (self.d_med > 0.0 and self.s_spot > 0.0):
            raise DegenerateInputError("lattice scale must be positive")
        if abs(self.s_spot - self.d_med / SQRT3) > 1e-12 * self.d_med:
            raise InputError("s_spot must equal d_med / sqrt(3)")
        anchor = np.asarray(self.anchor, dtype=np.float64)
        if anchor.shape != (2,):
            raise InputError("anchor must be a 2-vector")
        anchor = anchor.copy()
        anchor.setflags(write=False)
        object.__setattr__(self, "anchor", anchor)

    @classmethod
    def from_spacing(cls, d_med: float, anchor) -> "LatticeScale":
        return cls(d_med=float(d_med), s_spot=float(d_med) / SQRT3,
                   anchor=np.asarray(anchor, dtype=np.float64))


def _lower_median(values: np.ndarray) -> float:
    # even-length convention: lower-middle element, so oracles agree exactly
    values = np.sort(values)
    return float(values[(len(values) - 1) // 2])


def _knn_distances(points: np.ndarray, k: int, chunk: int = 256) -> np.ndarray:
    """(N, k) Euclidean distances from each point to its k nearest others.

    Squared distances are dx*dx + dy*dy, formed one chunk of rows at a time
    in O(chunk * N) memory.
    """
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    out = np.empty((n, k))
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        d2 = x[start:stop, None] - x
        d2 *= d2
        dy = y[start:stop, None] - y
        dy *= dy
        d2 += dy
        rows = np.arange(stop - start)
        d2[rows, start + rows] = np.inf
        part = np.partition(d2, k - 1, axis=1)[:, :k]
        out[start:stop] = np.sqrt(np.sort(part, axis=1))
    return out


def estimate_scale(points: np.ndarray, k: int = 6) -> LatticeScale:
    """Estimate the spot lattice spacing from pooled k-neighborhood distances.

    Pools each spot's distances to its k nearest neighbors, takes the lower
    median, then re-takes it over values <= 1.5x the first pass. The trim
    discards second-ring distances (sqrt(3) x spacing) that leak in at patch
    boundaries and around missing spots, which would otherwise bias the
    estimate upward. The anchor is the first point in input order.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise InputError(f"points must have shape (N, 2), got {points.shape}")
    if k < 1:
        raise InputError("k must be >= 1")
    if len(points) < k + 1:
        raise InputError(f"need at least k+1={k + 1} points, got {len(points)}")
    pool = _knn_distances(points, k).ravel()
    d0 = _lower_median(pool)
    if d0 <= 0.0:
        raise DegenerateInputError("median neighbor distance is zero")
    d_med = _lower_median(pool[pool <= 1.5 * d0])
    return LatticeScale.from_spacing(d_med, points[0])


def cartesian_to_axial_frac(points: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Anchor-relative, scale-normalized fractional axial coordinates (..., 2)."""
    points = np.asarray(points, dtype=np.float64)
    t = (points - scale.anchor) / scale.s_spot
    q = (SQRT3 / 3.0) * t[..., 0] - (1.0 / 3.0) * t[..., 1]
    r = (2.0 / 3.0) * t[..., 1]
    return np.stack([q, r], axis=-1)


def axial_to_cartesian(cells: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Cartesian positions of (fractional or integer) axial coordinates."""
    cells = np.asarray(cells, dtype=np.float64)
    q = cells[..., 0]
    r = cells[..., 1]
    x = SQRT3 * scale.s_spot * (q + 0.5 * r)
    y = 1.5 * scale.s_spot * r
    return np.stack([x, y], axis=-1) + scale.anchor


def cube_round(frac: np.ndarray) -> np.ndarray:
    """Snap fractional axial coordinates to the nearest integer lattice cell.

    Lifts to cube coordinates, rounds each component (ties to even), then
    repairs the component with the largest rounding error so u + v + w = 0.
    Error ties repair the smallest axis index among (u, v, w).
    """
    frac = np.asarray(frac, dtype=np.float64)
    qf = frac[..., 0]
    rf = frac[..., 1]
    wf = -qf - rf
    u = np.rint(qf)
    v = np.rint(rf)
    w = np.rint(wf)
    eu = np.abs(u - qf)
    ev = np.abs(v - rf)
    ew = np.abs(w - wf)
    fix_u = (eu >= ev) & (eu >= ew)
    fix_v = ~fix_u & (ev >= ew)
    # repairing w leaves (u, v) as rounded; w is rederived as -q-r downstream
    u = np.where(fix_u, -v - w, u)
    v = np.where(fix_v, -u - w, v)
    return np.stack([u, v], axis=-1).astype(np.int64)


def hex_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lattice graph distance: max(|dq|, |dr|, |dq + dr|)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    dq = a[..., 0] - b[..., 0]
    dr = a[..., 1] - b[..., 1]
    return np.maximum(np.maximum(np.abs(dq), np.abs(dr)), np.abs(dq + dr))


def cells_for_points(points: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Integer lattice cell of each Cartesian point (composition of the above)."""
    return cube_round(cartesian_to_axial_frac(points, scale))
