"""Exact work counters computed from hexwin's public geometry objects.

Every counter is a pure function of the slide and the model config, so it
repeats exactly from run to run. Counts are summed over the blocks of a
stage and over the heads; the score-cell counts are the entries of the
(window, head, slot, slot) score tensors, padded as the model allocates
them and useful as occupied-by-occupied pairs. The global-attention bytes
are computed, not measured: one float64 (heads, N, N) attention matrix per
global block, which a training forward keeps for the backward pass.
"""

from __future__ import annotations

import numpy as np

from hexwin.windowing import neighbor_coverage_rate


def geometry_counts(geometry, cfg) -> dict[str, float]:
    """Counters of one built Geometry under ModelConfig cfg."""
    out: dict[str, float] = {}
    dropped = 0
    for stage in range(cfg.stages - 1):
        parts = geometry.partitions[stage]
        occ_per_window = [p.occupancy.sum(axis=1) for p in parts]
        out[f"windowing.windows.stage{stage}"] = sum(p.n_windows for p in parts)
        out[f"windowing.slots.stage{stage}"] = sum(p.occupancy.size for p in parts)
        out[f"windowing.occupied.stage{stage}"] = sum(int(o.sum()) for o in occ_per_window)
        out[f"windowing.neighbor_coverage.stage{stage}"] = neighbor_coverage_rate(
            parts, geometry.cells)
        out[f"model.score_cells.stage{stage}"] = sum(
            p.n_windows * cfg.heads * p.n_slots ** 2 for p in parts)
        out[f"model.score_cells_useful.stage{stage}"] = sum(
            cfg.heads * int((o.astype(np.int64) ** 2).sum()) for o in occ_per_window)
        dropped += sum(len(p.dropped) for p in parts)
    n = len(geometry.cells)
    last = cfg.stages - 1
    out[f"model.score_cells.stage{last}"] = cfg.blocks * cfg.heads * n * n
    out[f"model.score_cells_useful.stage{last}"] = cfg.blocks * cfg.heads * n * n
    out["model.global_attn_mb"] = cfg.blocks * cfg.heads * n * n * 8 / 1e6
    out["windowing.dropped"] = dropped
    return out


def combine(counts: list[dict[str, float]]) -> dict[str, float]:
    """Counters over several geometries: counts add, ratios pool.

    Slot fill is occupied slots over allocated slots; neighbour coverage is
    the mean over geometries; global-attention bytes take the largest.
    """
    out: dict[str, float] = {}
    for key in counts[0]:
        values = [c[key] for c in counts]
        if ".neighbor_coverage." in key:
            out[key] = float(np.mean(values))
        elif key == "model.global_attn_mb":
            out[key] = max(values)
        else:
            out[key] = sum(values)
    stages = [k.rsplit("stage", 1)[1] for k in out if k.startswith("windowing.slots.")]
    for s in stages:
        out[f"windowing.slot_fill.stage{s}"] = (out.pop(f"windowing.occupied.stage{s}")
                                                / out.pop(f"windowing.slots.stage{s}"))
    return out
