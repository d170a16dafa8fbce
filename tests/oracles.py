"""Reference implementations that only tests use."""

import numpy as np

from hexwin.hexgeom import SQRT3, LatticeScale


def axial_to_cartesian(cells: np.ndarray, scale: LatticeScale) -> np.ndarray:
    """Cartesian positions of (fractional or integer) axial coordinates."""
    cells = np.asarray(cells, dtype=np.float64)
    q = cells[..., 0]
    r = cells[..., 1]
    x = SQRT3 * scale.s_spot * (q + 0.5 * r)
    y = 1.5 * scale.s_spot * r
    return np.stack([x, y], axis=-1) + scale.anchor
