"""Plain portable pixmap renderers for partitions and gene heatmaps.

Images are binary P6 with no external imaging dependency. Spots are drawn
as filled disks on a white canvas; partition images color spots by window
via a fixed palette, heatmaps by a blue-red ramp over the per-gene min-max
range.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

PALETTE = np.array([
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
    (152, 223, 138), (255, 152, 150), (197, 176, 213), (196, 156, 148),
], dtype=np.uint8)

# widest image in pixels; no image is taller than it is wide
MAX_WIDTH = 4096


def write_ppm(path: str, rgb: np.ndarray) -> None:
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise InputError("write_ppm expects an (H, W, 3) uint8 array")
    with open(path, "wb") as fh:
        fh.write(f"P6\n{rgb.shape[1]} {rgb.shape[0]}\n255\n".encode())
        fh.write(rgb.tobytes())


def draw_spots(coords: np.ndarray, colors: np.ndarray, width: int = 400) -> np.ndarray:
    """White canvas with one filled disk per spot; y grows upward."""
    if width > MAX_WIDTH:
        raise InputError(f"image width {width} exceeds the limit of {MAX_WIDTH} pixels")
    coords = np.asarray(coords, dtype=np.float64)
    colors = np.asarray(colors, dtype=np.uint8)
    lo = coords.min(axis=0)
    hi = coords.max(axis=0)
    span = max(float((hi - lo).max()), 1e-9)
    pad = 0.05 * span
    scale = (width - 1) / (span + 2 * pad)
    px = ((coords[:, 0] - lo[0] + pad) * scale).astype(int)
    py = ((hi[1] - coords[:, 1] + pad) * scale).astype(int)
    height = int(np.ceil((hi[1] - lo[1] + 2 * pad) * scale)) + 1
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    n_cols = max(1, int(round(np.sqrt(len(coords)))))
    radius = max(1, int(scale * span / n_cols / 3))
    yy, xx = np.mgrid[-radius:radius + 1, -radius:radius + 1]
    disk = (yy ** 2 + xx ** 2) <= radius ** 2
    dy, dx = np.nonzero(disk)
    dy -= radius
    dx -= radius
    for i in range(len(coords)):
        ys = py[i] + dy
        xs = px[i] + dx
        ok = (ys >= 0) & (ys < height) & (xs >= 0) & (xs < width)
        img[ys[ok], xs[ok]] = colors[i]
    return img


def partition_image(coords: np.ndarray, window_of_spot: np.ndarray,
                    width: int = 400) -> np.ndarray:
    """Spots colored by window index from the fixed palette."""
    win = np.asarray(window_of_spot, dtype=np.int64)
    return draw_spots(coords, PALETTE[win % len(PALETTE)], width)


def heatmap_colors(values: np.ndarray) -> np.ndarray:
    """Blue-to-red ramp after per-array min-max normalization."""
    values = np.asarray(values, dtype=np.float64)
    span = float(values.max() - values.min())
    t = (values - values.min()) / span if span > 0 else np.zeros_like(values)
    r = np.clip(255 * t, 0, 255)
    b = np.clip(255 * (1.0 - t), 0, 255)
    g = np.clip(255 * (1.0 - np.abs(2 * t - 1.0)) * 0.6, 0, 255)
    return np.stack([r, g, b], axis=-1).astype(np.uint8)


def heatmap_annotation(name: str, values: np.ndarray) -> str:
    """The 'mean +/- std (min-max)' line that accompanies each heatmap."""
    values = np.asarray(values, dtype=np.float64)
    return (f"{name}: {values.mean():.4f} +/- {values.std():.4f} "
            f"({values.min():.4f}-{values.max():.4f})")
