"""Shifted window partitions over spot arrays.

Hexagonal windows: centers live on a coarse hexagonal lattice with spacing
K * d_med, spots are assigned to their nearest (possibly shifted) center,
and each spot occupies the slot matching its integer cell offset from the
center's cell. The slot set of radius K has 3K^2 + 3K + 1 entries shared by
every window at a stage. A square tiling variant provides the
geometry-mismatched ablation baseline. Either kind places every spot or
raises: two spots in one (window, slot) are a SlotCollisionError.

Successive blocks shift the whole center set by 0, e1/2, e2/2 where e1, e2
are the coarse-lattice basis vectors; the cycle restarts at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InputError, SlotCollisionError
from .hexgeom import (SQRT3, LatticeScale, cells_for_points, cube_round, hex_disk,
                      hex_distance)

# Most slots one window may have (hex radius K <= 147, square side <= 128),
# checked before anything O(K^2) is allocated; holds any slide of <= 65k spots
MAX_SLOTS = 1 << 16


def build_slot_set(radius: int) -> np.ndarray:
    """The (S, 2) read-only int array of the 3K^2 + 3K + 1 cell offsets with
    max(|dq|,|dr|,|dq+dr|) <= K, in lexicographic order: one window's slots."""
    if not (0 <= radius and 3 * radius * (radius + 1) + 1 <= MAX_SLOTS):
        raise InputError(f"slot radius must be >= 0 with at most {MAX_SLOTS} slots, got {radius}")
    arr = hex_disk(radius)
    arr.setflags(write=False)
    return arr


def center_basis(scale: LatticeScale, radius: int) -> tuple[np.ndarray, np.ndarray]:
    """Basis vectors of the coarse center lattice for window radius K."""
    s_center = radius * scale.s_spot
    e1 = np.array([0.0, SQRT3 * s_center])
    e2 = np.array([1.5 * s_center, (SQRT3 / 2.0) * s_center])
    return e1, e2


def shift_delta(scale: LatticeScale, radius: int, shift: int) -> np.ndarray:
    """Center translation for shift id 0, 1 or 2: 0, e1/2, e2/2."""
    if shift not in (0, 1, 2):
        raise InputError("shift must be 0, 1 or 2")
    e1, e2 = center_basis(scale, radius)
    return (np.zeros(2), 0.5 * e1, 0.5 * e2)[shift]


def shift_schedule(n_blocks: int) -> list[int]:
    """Per-block shift ids within one stage; block 0 is always unshifted."""
    return [b % 3 for b in range(n_blocks)]


@dataclass(frozen=True)
class WindowPartition:
    """Assignment of every spot to one (window, slot), plus packing masks.

    Windows without spots are dropped.
    """

    kind: str                    # "hex" or "square"
    size: int                    # hex radius K, or square side in spacings
    stage: int
    block: int
    window_of_spot: np.ndarray   # (N,) int
    slot_of_spot: np.ndarray     # (N,) int
    occupancy: np.ndarray        # (M, S) bool
    centers: np.ndarray          # (M, 2) float
    center_cells: np.ndarray     # (M, 2) int

    @property
    def dropped(self) -> np.ndarray:
        """Indices of the spots no window holds: always empty, since a partition
        places every spot or raises. perfbench/counters.py reads it."""
        return np.flatnonzero(self.window_of_spot < 0)

    @property
    def n_windows(self) -> int:
        return self.occupancy.shape[0]

    @property
    def n_slots(self) -> int:
        return self.occupancy.shape[1]


# the nearest center and its six neighbours, in lexicographic (alpha, beta) order
_NEAREST_AND_RING = np.array([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)])


def _check_args(coords, cells, size: int, shift: int, what: str,
                n_slots: int) -> tuple[np.ndarray, np.ndarray]:
    """The argument check both window kinds share; n_slots is a window's slot count."""
    coords = np.asarray(coords, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    if coords.shape != (len(cells), 2) or cells.shape[1:] != (2,):
        raise InputError("coords and cells must both have shape (N, 2)")
    if not np.isfinite(coords).all():
        raise InputError("spot coordinates must be finite")
    if size < 1:
        raise InputError(f"{what} must be >= 1")
    if n_slots > MAX_SLOTS:
        raise InputError(f"{what} {size} needs {n_slots} slots, over the budget of {MAX_SLOTS}")
    if shift not in (0, 1, 2):
        raise InputError("shift must be 0, 1 or 2")
    return coords, cells


def _unique_rows(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(ids, axis=0, return_inverse=True) on 1-D keys of column ranks."""
    r0, r1 = (np.unique(col, return_inverse=True)[1] for col in ids.T)
    _, first, inverse = np.unique(r0 * len(ids) + r1, return_index=True, return_inverse=True)
    return ids[first], inverse


def _center_positions(ids, scale: LatticeScale, radius: int, shift: int) -> np.ndarray:
    """Cartesian positions of shifted coarse-lattice centers with ids (alpha, beta)."""
    e1, e2 = center_basis(scale, radius)
    return (scale.anchor + ids[..., :1] * e1 + ids[..., 1:] * e2
            + shift_delta(scale, radius, shift))


def _nearest_centers(coords: np.ndarray, scale: LatticeScale, radius: int,
                     shift: int) -> np.ndarray:
    """(N, 2) lattice ids (alpha, beta) of each spot's nearest shifted center;
    distance ties go to the lower id.

    Cube rounding the fractional (alpha, beta) finds the nearest center of the
    hexagonal center lattice up to rounding error, so the exact distances to
    it and its six neighbours decide.
    """
    e1, e2 = center_basis(scale, radius)
    basis_inv = np.linalg.inv(np.stack([e1, e2], axis=1))
    frac = (coords - scale.anchor - shift_delta(scale, radius, shift)) @ basis_inv.T
    cand = cube_round(frac)[:, None, :] + _NEAREST_AND_RING
    d2 = ((coords[:, None, :] - _center_positions(cand, scale, radius, shift)) ** 2
          ).sum(axis=-1)
    return cand[np.arange(len(cand)), d2.argmin(axis=1)]


def _finish_partition(kind, size, stage, block, win, slot, n_slots, centers,
                      center_cells) -> WindowPartition:
    """Mark the occupied slots; two spots in one (window, slot) raise
    SlotCollisionError. Every window keeps a spot."""
    occupancy = np.zeros((len(centers), n_slots), dtype=bool)
    occupancy[win, slot] = True
    if occupancy.sum() < len(win):
        # name the first spot, in index order, whose (window, slot) is taken
        key = win * n_slots + slot
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        i = int(np.flatnonzero(first[inverse] != np.arange(len(key)))[0])
        raise SlotCollisionError(f"spots {first[inverse[i]]} and {i} both map to "
                                 f"window {win[i]} slot {slot[i]}")
    return WindowPartition(kind=kind, size=size, stage=stage, block=block,
                           window_of_spot=win, slot_of_spot=slot,
                           occupancy=occupancy, centers=centers,
                           center_cells=center_cells)


def partition(coords: np.ndarray, cells: np.ndarray, scale: LatticeScale,
              radius: int, shift: int, *, stage: int = 0, block: int = 0) -> WindowPartition:
    """Voronoi-style hexagonal window partition at one (stage, block).

    Every spot joins its nearest shifted center (ties: lowest lattice id)
    and occupies the slot matching its cell offset from the center cell. A
    spot whose offset exceeds the radius is a coverage-contract violation.
    Two spots in one cell of one window collide and raise SlotCollisionError.
    """
    coords, cells = _check_args(coords, cells, radius, shift, "window radius",
                                3 * radius * (radius + 1) + 1)
    ids, win = _unique_rows(_nearest_centers(coords, scale, radius, shift))
    centers = _center_positions(ids, scale, radius, shift)
    center_cells = cells_for_points(centers, scale)
    off = cells - center_cells[win]
    dist = hex_distance(off, np.zeros(2, dtype=np.int64))
    if np.any(dist > radius):
        i = int(np.argmax(dist > radius))
        raise CoverageError(f"spot {i} sits {int(dist[i])} cells from its nearest center "
                            f"(radius {radius}); coverage contract violated")
    offsets = build_slot_set(radius)
    slot_table = np.full((2 * radius + 1, 2 * radius + 1), -1, dtype=np.int64)
    slot_table[offsets[:, 0] + radius, offsets[:, 1] + radius] = np.arange(len(offsets))
    return _finish_partition("hex", radius, stage, block, win,
                             slot_table[off[:, 0] + radius, off[:, 1] + radius],
                             len(offsets), centers, center_cells)


def partition_square(coords: np.ndarray, cells: np.ndarray, scale: LatticeScale,
                     side: int, shift: int, *, stage: int = 0,
                     block: int = 0) -> WindowPartition:
    """Axis-aligned square tiling ablation with half-tile shifts.

    Tiles have edge side * d_med; each tile is subdivided into a
    (2*side) x (2*side) grid of half-spacing subcells acting as slots.
    Two spots in one subcell collide and raise SlotCollisionError.
    """
    coords, cells = _check_args(coords, cells, side, shift, "square window side",
                                4 * side * side)
    tile = side * scale.d_med
    delta = (np.zeros(2), np.array([tile / 2.0, 0.0]), np.array([0.0, tile / 2.0]))[shift]
    grid = 2 * side
    u = (coords - scale.anchor - delta) / tile
    tiles = np.floor(u).astype(np.int64)
    sub = np.minimum(((u - tiles) * grid).astype(np.int64), grid - 1)
    uniq, win = _unique_rows(tiles)
    centers = scale.anchor + delta + (uniq + 0.5) * tile
    return _finish_partition("square", side, stage, block, win, sub[:, 1] * grid + sub[:, 0],
                             grid * grid, centers, cells_for_points(centers, scale))


def check_partition(part: WindowPartition, cells: np.ndarray) -> None:
    """Re-assert the partition invariants; raises CoverageError on violation."""
    cells = np.asarray(cells, dtype=np.int64)
    win, slot = part.window_of_spot, part.slot_of_spot
    m, s = part.occupancy.shape
    bad = np.flatnonzero((win < 0) | (win >= m) | (slot < 0) | (slot >= s))
    if len(bad):
        raise CoverageError(f"spot {bad[0]} has (window, slot) ({win[bad[0]]}, "
                            f"{slot[bad[0]]}) outside the {m} x {s} occupancy mask")
    _, first, inverse = np.unique(win * s + slot, return_index=True, return_inverse=True)
    bad = np.flatnonzero(first[inverse] != np.arange(len(win)))
    if len(bad):
        raise CoverageError(f"duplicate (window, slot) ({win[bad[0]]}, {slot[bad[0]]})")
    bad = np.flatnonzero(~part.occupancy[win, slot])
    if len(bad):
        raise CoverageError(f"occupancy mask does not cover spot {bad[0]}")
    if int(part.occupancy.sum()) != len(win):
        raise CoverageError("occupancy marks slots with no spot")
    if part.kind == "hex" and np.any(hex_distance(cells, part.center_cells[win]) > part.size):
        raise CoverageError("slot offset exceeds window radius")


def six_neighbor_pairs(cells: np.ndarray) -> np.ndarray:
    """Index pairs of spots occupying adjacent lattice cells (each pair once).

    Pairs come in spot order, then direction order (1, 0), (0, 1), (-1, 1);
    a cell that several spots share is found as its last spot.
    """
    cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    if not len(cells):
        return np.zeros((0, 2), dtype=np.int64)
    # pack cells, shifted one past each edge, into sortable integer keys
    shifted = cells - cells.min(axis=0) + 1
    width = int(shifted[:, 1].max()) + 2
    keys = shifted[:, 0] * width + shifted[:, 1]
    uniq, last = np.unique(keys[::-1], return_index=True)
    last = len(keys) - 1 - last
    step = np.array([width, 1, 1 - width])          # (1, 0), (0, 1), (-1, 1)
    want = keys[:, None] + step
    pos = np.minimum(np.searchsorted(uniq, want), len(uniq) - 1)
    found = uniq[pos] == want
    i, d = np.nonzero(found)
    return np.stack([i, last[pos[i, d]]], axis=1).astype(np.int64)


def neighbor_coverage_rate(partitions: list[WindowPartition],
                           cells: np.ndarray) -> float:
    """Fraction of 6-neighbor pairs co-windowed by at least one partition."""
    pairs = six_neighbor_pairs(cells)
    if len(pairs) == 0:
        return 1.0
    covered = np.zeros(len(pairs), dtype=bool)
    for part in partitions:
        w = part.window_of_spot
        covered |= w[pairs[:, 0]] == w[pairs[:, 1]]
    return float(covered.mean())


def format_partition_records(part: WindowPartition, spot_ids) -> str:
    """One tab-separated record per spot: id, stage, block, window, slot, center."""
    lines = ["spot_id\tstage\tblock\twindow\tslot\tcenter_x\tcenter_y"]
    for i, sid in enumerate(spot_ids):
        w = int(part.window_of_spot[i])
        cx, cy = (float(v) for v in part.centers[w])
        lines.append(f"{sid}\t{part.stage}\t{part.block}\t{w}\t"
                     f"{int(part.slot_of_spot[i])}\t{cx!r}\t{cy!r}")
    return "\n".join(lines) + "\n"
