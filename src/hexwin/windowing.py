"""Shifted window partitions over spot arrays.

Hexagonal windows: centers live on a coarse hexagonal lattice with spacing
K * d_med, spots are assigned to their nearest (possibly shifted) center,
and each assigned spot occupies the slot matching its integer cell offset
from the center's cell. The slot set of radius K has 3K^2 + 3K + 1 entries
shared by every window at a stage. A square tiling variant provides the
geometry-mismatched ablation baseline.

Successive blocks shift the whole center set by 0, e1/2, e2/2 where e1, e2
are the coarse-lattice basis vectors; the cycle restarts at each stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, InputError, SlotCollisionError
from .hexgeom import (SQRT3, LatticeScale, axial_to_cartesian, cells_for_points,
                      cube_round, hex_distance)


@dataclass(frozen=True)
class SlotSet:
    """Fixed per-window slot layout: all cell offsets within hex radius K."""

    radius: int
    offsets: np.ndarray  # (S, 2) int, lexicographically ordered

    def __len__(self) -> int:
        return len(self.offsets)


def build_slot_set(radius: int) -> SlotSet:
    """Enumerate the 3K^2 + 3K + 1 offsets with max(|dq|,|dr|,|dq+dr|) <= K."""
    if radius < 0:
        raise InputError("slot radius must be >= 0")
    offsets = [(dq, dr)
               for dq in range(-radius, radius + 1)
               for dr in range(-radius, radius + 1)
               if max(abs(dq), abs(dr), abs(dq + dr)) <= radius]
    arr = np.array(sorted(offsets), dtype=np.int64).reshape(-1, 2)
    arr.setflags(write=False)
    return SlotSet(radius=radius, offsets=arr)


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
    """Per-block shift ids within one stage; block 1 is always unshifted."""
    return [b % 3 for b in range(n_blocks)]


@dataclass(frozen=True)
class WindowPartition:
    """Assignment of every spot to one (window, slot), plus packing masks.

    cell_offsets are integer (dq, dr) offsets of each spot's cell from its
    window center's cell; cart_offsets are the spot's Cartesian offset from
    the window center in units of d_med. Windows without spots are dropped.
    """

    kind: str                    # "hex" or "square"
    size: int                    # hex radius K, or square side in spacings
    shift_id: int
    stage: int
    block: int
    window_of_spot: np.ndarray   # (N,) int
    slot_of_spot: np.ndarray     # (N,) int, -1 for dropped spots
    occupancy: np.ndarray        # (M, S) bool
    centers: np.ndarray          # (M, 2) float
    center_cells: np.ndarray     # (M, 2) int
    cell_offsets: np.ndarray     # (N, 2) int
    cart_offsets: np.ndarray     # (N, 2) float
    dropped: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def n_windows(self) -> int:
        return self.occupancy.shape[0]

    @property
    def n_slots(self) -> int:
        return self.occupancy.shape[1]


# the nearest center and its six neighbours, in lexicographic (alpha, beta) order
_NEAREST_AND_RING = np.array([(-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1), (1, -1), (1, 0)])


def _check_spots(coords, cells) -> tuple[np.ndarray, np.ndarray]:
    coords = np.asarray(coords, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.int64)
    if coords.shape != (len(cells), 2) or cells.shape[1:] != (2,):
        raise InputError("coords and cells must both have shape (N, 2)")
    if not np.isfinite(coords).all():
        raise InputError("spot coordinates must be finite")
    return coords, cells


def _center_positions(ids, scale: LatticeScale, radius: int, shift: int) -> np.ndarray:
    """Cartesian positions of shifted coarse-lattice centers with ids (alpha, beta)."""
    e1, e2 = center_basis(scale, radius)
    return (scale.anchor + ids[..., :1] * e1 + ids[..., 1:] * e2
            + shift_delta(scale, radius, shift))


def _two_nearest_centers(coords: np.ndarray, scale: LatticeScale, radius: int,
                         shift: int) -> np.ndarray:
    """(N, 2, 2) lattice ids (alpha, beta) of each spot's nearest and
    second-nearest shifted center; distance ties go to the lower id.

    Cube rounding the fractional (alpha, beta) finds the nearest center of the
    hexagonal center lattice; the second-nearest is one of its six neighbours.
    """
    e1, e2 = center_basis(scale, radius)
    basis_inv = np.linalg.inv(np.stack([e1, e2], axis=1))
    frac = (coords - scale.anchor - shift_delta(scale, radius, shift)) @ basis_inv.T
    cand = cube_round(frac)[:, None, :] + _NEAREST_AND_RING
    d2 = ((coords[:, None, :] - _center_positions(cand, scale, radius, shift)) ** 2
          ).sum(axis=-1)
    order = np.argsort(d2, axis=1, kind="stable")[:, :2]
    return np.take_along_axis(cand, order[..., None], axis=1)


def _resolve_collisions(cand_win, cand_slot, keep_metric, n_slots, strict):
    """Place each spot at its first (window, slot) candidate; on collision keep
    the closer spot and move the other to its next free candidate, else drop it.

    cand_win, cand_slot: (N, C) candidates in order of preference; slot -1
    marks a window that cannot hold the spot. keep_metric: (N,) distance of
    each spot to its claimed cell/subcell center.
    Returns (window_of_spot, slot_of_spot, dropped list).
    """
    win, slot = cand_win[:, 0].copy(), cand_slot[:, 0].copy()
    if len(np.unique(win * n_slots + slot)) == len(win):
        return win, slot, []
    taken: dict[tuple[int, int], int] = {}
    dropped: list[int] = []
    for i in range(len(win)):
        key = (int(win[i]), int(slot[i]))
        holder = taken.get(key)
        if holder is None:
            taken[key] = i
            continue
        if strict:
            raise SlotCollisionError(
                f"spots {holder} and {i} both map to window {key[0]} slot {key[1]}")
        if keep_metric[i] >= keep_metric[holder]:
            loser = i
        else:  # evict the current holder, keep i
            loser = holder
            taken[key] = i
        win[loser], slot[loser] = -1, -1
        for w2, s2 in zip(cand_win[loser, 1:].tolist(), cand_slot[loser, 1:].tolist()):
            if s2 >= 0 and (w2, s2) not in taken:
                taken[(w2, s2)] = loser
                win[loser], slot[loser] = w2, s2
                break
        else:
            dropped.append(loser)
    return win, slot, dropped


def _finish_partition(kind, size, shift, stage, block, coords, cells, scale,
                      win, slot, n_slots, centers, center_cells,
                      dropped) -> WindowPartition:
    """Drop empty windows, renumber survivors in original center order and
    attach each spot's cell and Cartesian offsets from its window center."""
    kept, new_win = np.unique(win, return_inverse=True)
    if len(kept) and kept[0] < 0:  # dropped spots (-1) sort first and stay -1
        kept, new_win = kept[1:], new_win - 1
    new_win = new_win.astype(np.int64)
    valid = new_win >= 0
    occupancy = np.zeros((len(kept), n_slots), dtype=bool)
    occupancy[new_win[valid], slot[valid]] = True
    kept_centers, kept_cells = centers[kept], center_cells[kept]
    cell_offsets = np.zeros((len(coords), 2), dtype=np.int64)
    cart_offsets = np.zeros((len(coords), 2), dtype=np.float64)
    cell_offsets[valid] = cells[valid] - kept_cells[new_win[valid]]
    cart_offsets[valid] = (coords[valid] - kept_centers[new_win[valid]]) / scale.d_med
    return WindowPartition(kind=kind, size=size, shift_id=shift, stage=stage,
                           block=block, window_of_spot=new_win, slot_of_spot=slot,
                           occupancy=occupancy, centers=kept_centers,
                           center_cells=kept_cells, cell_offsets=cell_offsets,
                           cart_offsets=cart_offsets,
                           dropped=np.array(sorted(dropped), dtype=np.int64))


def partition(coords: np.ndarray, cells: np.ndarray, scale: LatticeScale,
              radius: int, shift: int, *, strict: bool = True,
              stage: int = 0, block: int = 0) -> WindowPartition:
    """Voronoi-style hexagonal window partition at one (stage, block).

    Every spot joins its nearest shifted center (ties: lowest lattice id)
    and occupies the slot matching its cell offset from the center cell. A
    spot whose offset exceeds the radius is a coverage-contract violation.
    Two spots in one cell collide: strict mode raises, lenient mode keeps
    the spot nearer the cell center and reroutes the other to its
    second-nearest window or drops it.
    """
    coords, cells = _check_spots(coords, cells)
    if radius < 1:
        raise InputError("window radius must be >= 1")
    ids, cand_win = np.unique(_two_nearest_centers(coords, scale, radius, shift)
                              .reshape(-1, 2), axis=0, return_inverse=True)
    cand_win = cand_win.reshape(-1, 2)
    centers = _center_positions(ids, scale, radius, shift)
    center_cells = cells_for_points(centers, scale)

    width = 2 * radius + 1
    offsets = build_slot_set(radius).offsets
    slot_table = np.full((width, width), -1, dtype=np.int64)
    slot_table[offsets[:, 0] + radius, offsets[:, 1] + radius] = np.arange(len(offsets))
    off = cells[:, None, :] - center_cells[cand_win]
    inside = np.abs(off).max(axis=-1) <= radius
    box = np.clip(off + radius, 0, width - 1)
    cand_slot = np.where(inside, slot_table[box[..., 0], box[..., 1]], -1)
    if np.any(cand_slot[:, 0] < 0):
        i = int(np.flatnonzero(cand_slot[:, 0] < 0)[0])
        raise CoverageError(
            f"spot {i} sits {int(hex_distance(off[i, 0], np.zeros(2, dtype=np.int64)))} "
            f"cells from its nearest center (radius {radius}); coverage contract violated")

    cell_pos = axial_to_cartesian(cells, scale)
    keep_metric = np.linalg.norm(coords - cell_pos, axis=1)
    win, slot, dropped = _resolve_collisions(cand_win, cand_slot, keep_metric,
                                             len(offsets), strict)
    return _finish_partition("hex", radius, shift, stage, block, coords, cells, scale,
                             win, slot, len(offsets), centers, center_cells, dropped)


def partition_square(coords: np.ndarray, cells: np.ndarray, scale: LatticeScale,
                     side: int, shift: int, *, strict: bool = True,
                     stage: int = 0, block: int = 0) -> WindowPartition:
    """Axis-aligned square tiling ablation with half-tile shifts.

    Tiles have edge side * d_med; each tile is subdivided into a
    (2*side) x (2*side) grid of half-spacing subcells acting as slots.
    Tiles do not overlap, so a spot's own tile is its only window: lenient
    mode keeps the spot nearer the subcell center and drops the other.
    """
    coords, cells = _check_spots(coords, cells)
    if side < 1:
        raise InputError("square window side must be >= 1")
    tile = side * scale.d_med
    deltas = (np.zeros(2), np.array([tile / 2.0, 0.0]), np.array([0.0, tile / 2.0]))
    if shift not in (0, 1, 2):
        raise InputError("shift must be 0, 1 or 2")
    delta = deltas[shift]
    grid = 2 * side
    u = (coords - scale.anchor - delta) / tile
    tiles = np.floor(u).astype(np.int64)
    frac = u - tiles
    sub = np.minimum((frac * grid).astype(np.int64), grid - 1)
    slots = sub[:, 1] * grid + sub[:, 0]

    uniq, win0 = np.unique(tiles, axis=0, return_inverse=True)
    centers = scale.anchor + delta + (uniq + 0.5) * tile
    center_cells = cells_for_points(centers, scale)

    subcell_center = (tiles + (sub + 0.5) / grid) * tile + scale.anchor + delta
    keep_metric = np.linalg.norm(coords - subcell_center, axis=1)
    win, slot, dropped = _resolve_collisions(win0.reshape(-1, 1), slots[:, None],
                                             keep_metric, grid * grid, strict)
    return _finish_partition("square", side, shift, stage, block, coords, cells,
                             scale, win, slot, grid * grid, centers, center_cells,
                             dropped)


def check_partition(part: WindowPartition, cells: np.ndarray) -> None:
    """Re-assert the partition invariants; raises CoverageError on violation."""
    cells = np.asarray(cells, dtype=np.int64)
    n = len(part.window_of_spot)
    assigned = part.window_of_spot >= 0
    if len(part.dropped) != int((~assigned).sum()):
        raise CoverageError("dropped list inconsistent with assignments")
    pairs = set()
    for i in np.flatnonzero(assigned):
        key = (int(part.window_of_spot[i]), int(part.slot_of_spot[i]))
        if key in pairs:
            raise CoverageError(f"duplicate (window, slot) {key}")
        pairs.add(key)
        if not part.occupancy[key]:
            raise CoverageError(f"occupancy mask does not cover spot {i}")
    if int(part.occupancy.sum()) != len(pairs):
        raise CoverageError("occupancy marks slots with no spot")
    if part.kind == "hex":
        off = part.cell_offsets[assigned]
        dist = hex_distance(off, np.zeros_like(off))
        if np.any(dist > part.size):
            raise CoverageError("slot offset exceeds window radius")
    if n and not np.array_equal(
            part.cell_offsets[assigned],
            cells[assigned] - part.center_cells[part.window_of_spot[assigned]]):
        raise CoverageError("cell offsets inconsistent with window centers")


def six_neighbor_pairs(cells: np.ndarray) -> np.ndarray:
    """Index pairs of spots occupying adjacent lattice cells (each pair once)."""
    cells = np.asarray(cells, dtype=np.int64)
    where = {(int(q), int(r)): i for i, (q, r) in enumerate(cells)}
    pairs = []
    for i, (q, r) in enumerate(cells):
        for dq, dr in ((1, 0), (0, 1), (-1, 1)):
            j = where.get((int(q) + dq, int(r) + dr))
            if j is not None:
                pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def neighbor_coverage_rate(partitions: list[WindowPartition],
                           cells: np.ndarray) -> float:
    """Fraction of 6-neighbor pairs co-windowed by at least one partition."""
    pairs = six_neighbor_pairs(cells)
    if len(pairs) == 0:
        return 1.0
    covered = np.zeros(len(pairs), dtype=bool)
    for part in partitions:
        w = part.window_of_spot
        covered |= (w[pairs[:, 0]] == w[pairs[:, 1]]) & (w[pairs[:, 0]] >= 0)
    return float(covered.mean())


def format_partition_records(part: WindowPartition, spot_ids) -> str:
    """One tab-separated record per spot: id, stage, block, window, slot, center."""
    lines = ["spot_id\tstage\tblock\twindow\tslot\tcenter_x\tcenter_y"]
    for i, sid in enumerate(spot_ids):
        w = int(part.window_of_spot[i])
        if w >= 0:
            cx, cy = (float(v) for v in part.centers[w])
            lines.append(f"{sid}\t{part.stage}\t{part.block}\t{w}\t"
                         f"{int(part.slot_of_spot[i])}\t{cx!r}\t{cy!r}")
        else:
            lines.append(f"{sid}\t{part.stage}\t{part.block}\t-1\t-1\tnan\tnan")
    return "\n".join(lines) + "\n"
