"""Synthetic spot-array generator.

Produces a jittered hexagonal patch of spots with planted per-gene spatial
structure (sharp boundary steps, smooth gradients, clustered sparse genes,
pure noise), visual tokens that either encode the expression linearly
(learnable) or are pure noise (negative control), and mock transcriptomic
embeddings. Deterministic given the seed.

On-disk layout: coordinates and expression in one tab-separated text file
with a header row; tokens and transcriptomic embeddings as flat little-endian
float64 binaries with a JSON sidecar describing dtype and shape, so real
encoder exports can replace the synthetic ones byte-compatibly.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .hexgeom import SQRT3, hex_disk, hex_distance
from .model import MAX_PARAMS

PATTERN_KINDS = ("boundary", "gradient", "sparse", "noise")
JITTER_MAX = 0.05            # largest Gaussian jitter sigma, in lattice spacings


@dataclass(frozen=True)
class SynthConfig:
    radius: int = 10
    jitter: float = 0.0          # Gaussian sigma per axis, fraction of spacing
    dropout: float = 0.0
    patterns: tuple[str, ...] = ("boundary", "gradient", "sparse", "noise")
    token_rule: str = "informative"
    token_dim: int = 16
    transcriptomic_dim: int = 16  # 0 disables the mock embeddings
    expression_noise: float = 0.25
    boundary_high: float = 2.0   # planted step height; floored at 4x noise
    token_noise: float = 0.1
    seed: int = 0
    assay_seed: int = -1         # token mixing / embedding maps; -1 follows seed
    max_spots: int = 0           # 0 keeps everything

    def __post_init__(self):
        if self.radius < 0:
            raise InputError("radius must be >= 0")
        # every offset carries the anchor spot's jitter too, so its variance
        # doubles: radius-28 slides put two spots in one cell in 0/80 builds
        # at 0.05 and 0.06, 4/80 at 0.07 and 50/80 at 0.1
        if not 0.0 <= self.jitter <= JITTER_MAX:
            raise InputError(f"jitter must lie in [0, {JITTER_MAX}]: the anchor spot's own "
                             f"jitter doubles every offset's variance, and above "
                             f"{JITTER_MAX} spots start to share a lattice cell")
        if not 0.0 <= self.dropout < 1.0:
            raise InputError("dropout must lie in [0, 1)")
        if not self.patterns or not set(self.patterns) <= set(PATTERN_KINDS):
            raise InputError(f"patterns must be one or more of {', '.join(PATTERN_KINDS)}, "
                             f"got {list(self.patterns)}")
        if self.token_rule not in ("informative", "pure-noise"):
            raise InputError("token_rule must be 'informative' or 'pure-noise'")
        if self.seed < 0 or self.assay_seed < -1:
            raise InputError("seed must be >= 0 and assay_seed >= -1")
        if self.token_dim < 1 or min(self.expression_noise, self.token_noise,
                                     self.transcriptomic_dim, self.max_spots) < 0:
            raise InputError("token_dim must be >= 1 and expression_noise, token_noise, "
                             "transcriptomic_dim and max_spots >= 0")
        # the whole disk's coords, tokens, embeddings and genes, held to the model's
        # parameter budget before any of them is allocated
        n_cells = 3 * self.radius * (self.radius + 1) + 1
        width = 2 + self.token_dim + self.transcriptomic_dim + len(self.patterns)
        if n_cells * width > MAX_PARAMS:
            raise InputError(f"radius {self.radius} gives {n_cells} spots x {width} values "
                             f"per spot, over the budget of {MAX_PARAMS} float64 values")


@dataclass(frozen=True)
class GenePattern:
    """Generator metadata for one gene; enough to recompute region masks."""

    kind: str
    theta: float = 0.0
    high: float = 0.0
    low: float = 0.0
    high_region: np.ndarray | None = None  # (N,) bool over kept spots


@dataclass(frozen=True)
class SpotDataset:
    coords: np.ndarray                 # (N, 2)
    tokens: np.ndarray                 # (N, D_in)
    expression: np.ndarray             # (N, G)
    transcriptomic: np.ndarray | None  # (N, D_t) or None
    spot_ids: list[str]
    gene_names: list[str]
    patterns: list[GenePattern] = field(default_factory=list)  # generator only
    true_cells: np.ndarray | None = None                       # generator only

    def __post_init__(self):
        n = len(self.coords)
        if not (len(self.tokens) == len(self.expression) == len(self.spot_ids) == n):
            raise InputError("dataset row counts disagree")
        if self.transcriptomic is not None and len(self.transcriptomic) != n:
            raise InputError("dataset row counts disagree")

    @property
    def n_spots(self) -> int:
        return len(self.coords)

    @property
    def n_genes(self) -> int:
        return self.expression.shape[1]


def hex_patch_cells(radius: int) -> np.ndarray:
    """Axial cells of a radius-R patch, ring by ring from the center (anchor stays central)."""
    cells = hex_disk(radius)
    return cells[np.argsort(hex_distance(cells, np.zeros(2)), kind="stable")]


def _lattice_positions(cells: np.ndarray) -> np.ndarray:
    q = cells[:, 0].astype(np.float64)
    r = cells[:, 1].astype(np.float64)
    return np.stack([q + 0.5 * r, (SQRT3 / 2.0) * r], axis=1)


def generate(cfg: SynthConfig) -> SpotDataset:
    """Build the synthetic dataset described by cfg."""
    rng = np.random.default_rng(cfg.seed)
    cells = hex_patch_cells(cfg.radius)
    true_pos = _lattice_positions(cells)
    n_all = len(cells)

    coords = true_pos + rng.normal(0.0, cfg.jitter, size=(n_all, 2))
    keep = rng.random(n_all) >= cfg.dropout
    if not keep.any():
        raise InputError("dropout removed every spot")
    kept = np.flatnonzero(keep)
    if cfg.max_spots and len(kept) > cfg.max_spots:
        # cells enumerate center-first, so this keeps a contiguous central
        # patch; a random subset would thin the lattice beyond what any
        # neighbor-distance scale estimate tolerates
        kept = kept[:cfg.max_spots]

    cells = cells[kept]
    true_pos = true_pos[kept]
    coords = coords[kept]
    n = len(kept)

    genes = len(cfg.patterns)
    expression = np.zeros((n, genes))
    patterns: list[GenePattern] = []
    sigma = cfg.expression_noise
    for g, kind in enumerate(cfg.patterns):
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        direction = np.array([np.cos(theta), np.sin(theta)])
        proj = true_pos @ direction
        if kind == "boundary":
            low, high = 0.0, max(cfg.boundary_high, 4.0 * sigma)
            mask = proj > np.median(proj)
            expression[:, g] = np.where(mask, high, low) + rng.normal(0.0, sigma, n)
            patterns.append(GenePattern(kind, theta, high, low, mask))
        elif kind == "gradient":
            span = proj.max() - proj.min()
            ramp = 2.0 * (proj - proj.min()) / (span if span > 0 else 1.0)
            expression[:, g] = ramp + rng.normal(0.0, sigma, n)
            patterns.append(GenePattern(kind, theta))
        elif kind == "sparse":
            hot = rng.choice(n, size=min(3, n), replace=False)
            reach = max(1, cfg.radius // 4)
            on = hex_distance(cells[:, None], cells[hot]).min(axis=1) <= reach
            values = rng.normal(1.5, sigma, n)
            expression[:, g] = np.where(on, values, 0.0)
            patterns.append(GenePattern(kind, theta, high_region=on))
        else:  # noise
            expression[:, g] = rng.normal(0.0, 1.0, n)
            patterns.append(GenePattern(kind, theta))

    # the token mixing and mock-embedding maps model the assay, not the
    # slide: slides generated with a shared assay_seed stay byte-compatible
    # targets for one trained model
    assay_seed = cfg.seed if cfg.assay_seed < 0 else cfg.assay_seed
    if cfg.token_rule == "informative":
        assay_rng = np.random.default_rng(assay_seed ^ 0x70CE17)
        mixing = assay_rng.normal(0.0, 1.0 / np.sqrt(genes), size=(genes, cfg.token_dim))
        tokens = expression @ mixing + cfg.token_noise * rng.normal(0.0, 1.0, (n, cfg.token_dim))
    else:
        tokens = rng.normal(0.0, 1.0, (n, cfg.token_dim))

    transcriptomic = (mock_transcriptomic(expression, cfg.transcriptomic_dim, assay_seed)
                      if cfg.transcriptomic_dim else None)
    spot_ids = [f"s{int(i):05d}" for i in kept]
    gene_names = [f"g{g:03d}_{kind}" for g, kind in enumerate(cfg.patterns)]
    return SpotDataset(coords=coords, tokens=tokens, expression=expression,
                       transcriptomic=transcriptomic, spot_ids=spot_ids,
                       gene_names=gene_names, patterns=patterns, true_cells=cells)


def mock_transcriptomic(expression: np.ndarray, d_t: int, seed: int) -> np.ndarray:
    """Deterministic stand-in embedding: fixed random map, tanh, unit rows."""
    if d_t < 1:
        raise InputError("d_t must be >= 1")
    expression = np.asarray(expression, dtype=np.float64)
    rng = np.random.default_rng(seed ^ 0x5EED)
    mixing = rng.normal(0.0, 1.0 / np.sqrt(expression.shape[1]),
                        size=(expression.shape[1], d_t))
    offset = 0.5 * rng.normal(0.0, 1.0, size=d_t)
    raw = np.tanh(expression @ mixing + offset)
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    fallback = np.zeros((1, d_t))
    fallback[0, 0] = 1.0
    return np.where(norms > 0.0, raw / np.where(norms == 0.0, 1.0, norms), fallback)


def save_dataset(ds: SpotDataset, outdir: str) -> None:
    """Write spots.tsv plus binary token / transcriptomic containers."""
    os.makedirs(outdir, exist_ok=True)
    header = "spot_id\tx\ty\t" + "\t".join(ds.gene_names)
    rows = np.hstack([ds.coords, ds.expression], dtype=np.float64).tolist()
    lines = [header] + [sid + "\t" + "\t".join(map(repr, row))
                        for sid, row in zip(ds.spot_ids, rows)]
    with open(os.path.join(outdir, "spots.tsv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_matrix(os.path.join(outdir, "tokens"), ds.tokens)
    stem = os.path.join(outdir, "transcriptomic")
    if ds.transcriptomic is not None:
        _write_matrix(stem, ds.transcriptomic)
    else:   # an earlier slide's embeddings would load as this one's
        for name in (stem + ".bin", stem + ".json"):
            if os.path.exists(name):
                os.remove(name)


def load_dataset(indir: str) -> SpotDataset:
    path = os.path.join(indir, "spots.tsv")
    # lines end at \n alone, so a lone \r stays inside its field; CRLF loses its \r
    with open(path, newline="\n") as fh:
        try:
            rows = [line.rstrip("\n").removesuffix("\r").split("\t")
                    for line in fh if line.strip()]
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: {exc}") from None
    header = rows[0] if rows else []
    if header[:3] != ["spot_id", "x", "y"]:
        raise InputError(f"{path}: unexpected header {header[:3]}")
    if len(rows) < 2:
        raise InputError(f"{path}: no spot rows")
    for r in rows[1:]:
        if len(r) != len(header):
            raise InputError(f"{path}: spot {r[0]!r} has {len(r)} fields, "
                             f"the header has {len(header)}")
    gene_names = header[3:]
    seen: set[str] = set()
    for name in gene_names:  # render writes <out>/<name>.ppm
        if not name or not name.isprintable() or "/" in name or name in seen:
            raise InputError(f"{path}: gene {name!r}: gene names must be non-empty, "
                             f"printable, unique and free of '/'")
        seen.add(name)
    spot_ids = [r[0] for r in rows[1:]]
    seen = set()
    for sid in spot_ids:
        if sid in seen:
            raise InputError(f"{path}: duplicate spot id {sid!r}")
        seen.add(sid)
    try:
        coords = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        expression = np.array([[float(v) for v in r[3:]] for r in rows[1:]])
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    tokens = _read_matrix(os.path.join(indir, "tokens"))
    tstem = os.path.join(indir, "transcriptomic")
    # either file of the pair makes it present, so a lone one is reported missing its mate
    transcriptomic = (_read_matrix(tstem) if os.path.exists(tstem + ".bin")
                      or os.path.exists(tstem + ".json") else None)
    for where, arr in ((path, np.hstack([coords, expression])),
                       (os.path.join(indir, "tokens.bin"), tokens), (tstem + ".bin", transcriptomic)):
        if arr is not None and len(arr) != len(spot_ids):
            raise InputError(f"{where} has {len(arr)} rows, spots.tsv has {len(spot_ids)} spots")
        bad = [] if arr is None else np.flatnonzero(~np.isfinite(arr).all(axis=1))
        if len(bad):
            raise InputError(f"{where}: spot {spot_ids[bad[0]]!r} has a non-finite value")
    return SpotDataset(coords=coords, tokens=tokens, expression=expression,
                       transcriptomic=transcriptomic, spot_ids=spot_ids,
                       gene_names=gene_names)


def _write_matrix(stem: str, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    with open(stem + ".bin", "wb") as fh:
        fh.write(arr.tobytes())
    meta = {"dtype": "<f8", "order": "C", "shape": list(arr.shape)}
    with open(stem + ".json", "w") as fh:
        json.dump(meta, fh, sort_keys=True)
        fh.write("\n")


def _read_matrix(stem: str) -> np.ndarray:
    with open(stem + ".json") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{stem}.json: not a JSON sidecar: {exc}") from None
    shape = meta.get("shape") if isinstance(meta, dict) else None
    if (not isinstance(shape, list) or len(shape) != 2 or meta.get("dtype") != "<f8"
            or meta.get("order") != "C" or not all(isinstance(d, int) and d >= 0 for d in shape)):
        raise InputError(f"{stem}.json: need dtype '<f8', order 'C' and a 2-entry shape")
    size = os.path.getsize(stem + ".bin")
    if size != 8 * shape[0] * shape[1]:
        raise InputError(f"{stem}.bin holds {size} bytes, its shape {shape} "
                         f"needs {8 * shape[0] * shape[1]}")
    return np.fromfile(stem + ".bin", dtype="<f8").reshape(shape).astype(np.float64)
