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
    """Estimated lattice geometry: spacing d_med and anchor point."""

    d_med: float
    anchor: np.ndarray

    def __post_init__(self):
        d_med = float(self.d_med)
        if not d_med > 0.0:
            raise DegenerateInputError("lattice scale must be positive")
        anchor = np.array(self.anchor, dtype=np.float64)
        if anchor.shape != (2,):
            raise InputError("anchor must be a 2-vector")
        anchor.setflags(write=False)
        object.__setattr__(self, "d_med", d_med)
        object.__setattr__(self, "anchor", anchor)

    @property
    def s_spot(self) -> float:
        """Hexagon side: d_med / sqrt(3)."""
        return self.d_med / SQRT3


def _lower_median(values: np.ndarray) -> float:
    # even-length convention: lower-middle element, so oracles agree exactly
    values = np.sort(values)
    return float(values[(len(values) - 1) // 2])


def _k_smallest_sq(points: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   own: np.ndarray, k: int) -> np.ndarray:
    """Sorted k smallest dx*dx + dy*dy from points[rows] to points[cols] but own."""
    d2 = ((points[rows, None, 0] - points[cols, 0]) ** 2
          + (points[rows, None, 1] - points[cols, 1]) ** 2)
    d2[np.arange(len(rows)), own] = np.inf
    return np.sort(np.partition(d2, k - 1, axis=1)[:, :k], axis=1)


def _knn_distances(points: np.ndarray, k: int, chunk: int = 64) -> np.ndarray:
    """(N, k) Euclidean distances from each point to its k nearest others.

    Chunks of rows in x order are searched against the points within ~3
    spacings in x; a row whose k-th distance could reach past that band is
    redone against all points, so the result is the all-pairs one bit for bit.
    """
    n = len(points)
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    edge = np.concatenate([[-np.inf], xs, [np.inf]])     # edge[i + 1] = xs[i]
    reach = 3.0 * np.sqrt(np.prod(np.ptp(points, axis=0)) / n)    # ~3 spacings if spots fill their box
    out = np.empty((n, k))
    for start in range(0, n, chunk):
        rows, own = order[start:start + chunk], np.arange(start, min(n, start + chunk))
        x = points[rows, 0]
        lo = min(np.searchsorted(xs, x[0] - reach), start)
        hi = max(np.searchsorted(xs, x[-1] + reach, side="right"), own[-1] + 1)
        if hi - lo <= k:
            lo, hi = 0, n
        near = _k_smallest_sq(points, rows, order[lo:hi], own - lo, k)
        # no point outside the band is nearer a row in x than the band's edges
        redo = ~(near[:, -1] <= np.minimum(x - edge[lo], edge[hi + 1] - x) ** 2)
        if redo.any():
            near[redo] = _k_smallest_sq(points, rows[redo], order, own[redo], k)
        out[rows] = np.sqrt(near)
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
    if not np.isfinite(points).all():
        raise InputError("points must be finite")
    if k < 1:
        raise InputError("k must be >= 1")
    if len(points) < k + 1:
        raise InputError(f"need at least k+1={k + 1} points, got {len(points)}")
    pool = _knn_distances(points, k).ravel()
    d0 = _lower_median(pool)
    if d0 <= 0.0:
        raise DegenerateInputError("median neighbor distance is zero")
    d_med = _lower_median(pool[pool <= 1.5 * d0])
    return LatticeScale(d_med, points[0])


def cartesian_to_axial_frac(points: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Anchor-relative, scale-normalized fractional axial coordinates (..., 2)."""
    points = np.asarray(points, dtype=np.float64)
    t = (points - scale.anchor) / scale.s_spot
    q = (SQRT3 / 3.0) * t[..., 0] - (1.0 / 3.0) * t[..., 1]
    r = (2.0 / 3.0) * t[..., 1]
    return np.stack([q, r], axis=-1)


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


def hex_disk(radius: int) -> np.ndarray:
    """(S, 2) axial cells within hex distance `radius` of the origin, in
    lexicographic (q, r) order; S = 3K^2 + 3K + 1 for radius K >= 0."""
    side = np.arange(-radius, radius + 1, dtype=np.int64)
    q, r = np.repeat(side, len(side)), np.tile(side, len(side))
    keep = np.abs(q + r) <= radius
    return np.stack([q[keep], r[keep]], axis=1)


def cells_for_points(points: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Integer lattice cell of each Cartesian point (composition of the above)."""
    return cube_round(cartesian_to_axial_frac(points, scale))
