"""Staged windowed-attention network over spot tokens.

Input visual tokens are linearly embedded, pass through L stages of B
pre-norm attention blocks (norm, window attention, residual; norm, FFN,
residual), with shifted window partitions per block and full attention over
all spots in the final stage. A projection MLP yields output embeddings Z,
a linear gene head predicts expression, and during training a deviation
head reads batch-centered embeddings.

Backward passes are explicit reverse-mode over this fixed graph; every
gradient is certified against the finite-difference oracle in the tests.
Parameters live in an ordered name -> float64 array mapping.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InputError, ShapeError
from .hexgeom import LatticeScale, cells_for_points, estimate_scale
from .numerics import gelu, gelu_vjp, layer_norm_fwd, layer_norm_vjp, \
    masked_softmax, masked_softmax_vjp
from .rope import RopeConfig, apply_hex_rope, apply_hex_rope_vjp, \
    apply_rope_2d, apply_rope_2d_vjp, axial_to_cube
from .windowing import WindowPartition, partition, partition_square, shift_schedule

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    in_dim: int
    genes: int
    dim: int = 32
    heads: int = 4
    stages: int = 4
    blocks: int = 3
    radii: tuple[int, ...] = (1, 2, 4)
    out_dim: int = 16
    t_dim: int = 16              # 0 disables the alignment projection head
    window: str = "hex"          # "hex" or "square"
    pe: str = "hexrope"          # "hexrope" or "rope2d"
    square_sides: tuple[int, ...] = ()   # defaults to 2*K per stage
    mlp_hidden: int = 0          # defaults to dim
    rope_base: float = 10000.0
    knn_k: int = 6

    def __post_init__(self):
        if min(self.dim, self.heads, self.stages, self.blocks, *self.radii,
               *self.square_sides) < 1:
            raise InputError("dim, heads, stages, blocks, radii and square "
                             "sides must be >= 1")
        if self.dim % self.heads:
            raise InputError("dim must be divisible by heads")
        if len(self.radii) != self.stages - 1:
            raise InputError("need one window radius per non-global stage")
        if self.window not in ("hex", "square"):
            raise InputError("window must be 'hex' or 'square'")
        if self.pe not in ("hexrope", "rope2d"):
            raise InputError("pe must be 'hexrope' or 'rope2d'")
        if self.square_sides and len(self.square_sides) != self.stages - 1:
            raise InputError("need one square side per non-global stage")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn_hidden(self) -> int:
        return 4 * self.dim

    @property
    def proj_hidden(self) -> int:
        return self.mlp_hidden or self.dim

    def stage_sides(self) -> tuple[int, ...]:
        return self.square_sides or tuple(2 * k for k in self.radii)

    def rope_config(self) -> RopeConfig:
        axes = 3 if self.pe == "hexrope" else 2
        return RopeConfig(head_dim=self.head_dim, base=self.rope_base, n_axes=axes)

    def to_dict(self) -> dict:
        return asdict(self)


# config modules postpone annotations, so a field's type is its annotation string
_JSON_SCALARS = {"int": int, "float": (int, float), "str": str, "bool": bool}


def config_from_dict(cls, section, name: str, **overrides):
    """Build config dataclass cls from one JSON object plus overrides.

    Lists become tuples for tuple-valued fields. Unknown keys, values of the
    wrong JSON type and values cls rejects all raise InputError.
    """
    if not isinstance(section, dict):
        raise InputError(f"{name} config must be a JSON object")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise InputError(f"unknown {name} config key(s) {', '.join(unknown)}; "
                         f"allowed: {', '.join(known)}")
    values = {k: tuple(v) if isinstance(v, list) and isinstance(known[k].default, tuple)
              else v for k, v in section.items()}
    values.update(overrides)
    for key, value in values.items():
        want = _JSON_SCALARS.get(known[key].type)
        if want and (not isinstance(value, want)
                     or isinstance(value, bool) != (want is bool)):
            raise InputError(f"{name}.{key} must be {known[key].type}, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} config: {exc}") from None


def init_params(cfg: ModelConfig, seed: int = 0) -> Params:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    params: Params = {}

    def linear(name: str, fan_in: int, fan_out: int):
        bound = 1.0 / np.sqrt(fan_in)
        params[f"{name}.w"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params[f"{name}.b"] = np.zeros(fan_out)

    def norm(name: str, width: int):
        params[f"{name}.g"] = np.ones(width)
        params[f"{name}.b"] = np.zeros(width)

    d = cfg.dim
    linear("embed", cfg.in_dim, d)
    for s in range(cfg.stages):
        for b in range(cfg.blocks):
            p = f"s{s}b{b}"
            norm(f"{p}.ln1", d)
            for proj in ("q", "k", "v", "o"):
                linear(f"{p}.attn.{proj}", d, d)
            norm(f"{p}.ln2", d)
            linear(f"{p}.ffn.1", d, cfg.ffn_hidden)
            linear(f"{p}.ffn.2", cfg.ffn_hidden, d)
    linear("proj.1", d, cfg.proj_hidden)
    linear("proj.2", cfg.proj_hidden, cfg.out_dim)
    linear("gene", cfg.out_dim, cfg.genes)
    linear("dev", cfg.out_dim, cfg.genes)
    if cfg.t_dim:
        linear("tfa", cfg.out_dim, cfg.t_dim)
    return params


def zeros_like_params(params: Params) -> Params:
    return {k: np.zeros_like(v) for k, v in params.items()}


def params_to_vector(params: Params) -> np.ndarray:
    return np.concatenate([v.ravel() for v in params.values()])


def vector_to_params(vec: np.ndarray, template: Params) -> Params:
    out: Params = {}
    pos = 0
    for k, v in template.items():
        out[k] = vec[pos:pos + v.size].reshape(v.shape).copy()
        pos += v.size
    if pos != vec.size:
        raise ShapeError("parameter vector length mismatch")
    return out


@dataclass(frozen=True)
class _Packing:
    """Gather plan from spot rows into compact (window, slot) tensors.

    Each window's spots fill slots 0..occ-1 in ascending order of their
    partition slot ids, so the packed width S' is the largest window
    occupancy. Rotary offsets stay with the spot rows.
    """

    win: np.ndarray        # (N,)
    slot: np.ndarray       # (N,) compact slot, < S'
    occ: np.ndarray        # (M, S') bool
    off: np.ndarray        # (N, 3) cube offsets (hexrope) or (N, 2) xy offsets (rope2d)


def _compact_packing(win: np.ndarray, key: np.ndarray, n_windows: int,
                     off: np.ndarray) -> _Packing:
    """Rank each spot within its window by `key` and pack to the largest window."""
    order = np.lexsort((key, win))
    counts = np.bincount(win, minlength=n_windows)
    starts = np.cumsum(counts) - counts
    slot = np.empty(len(win), dtype=np.int64)
    slot[order] = np.arange(len(win)) - starts[win[order]]
    occ = np.arange(counts.max(initial=1)) < counts[:, None]
    return _Packing(win=win, slot=slot, occ=occ, off=off)


def _spot_offsets(cell_offsets, xy_offsets, cfg: ModelConfig) -> np.ndarray:
    if cfg.pe == "hexrope":
        return axial_to_cube(cell_offsets).astype(np.float64)
    return np.asarray(xy_offsets, dtype=np.float64)


def _packing_from_partition(part: WindowPartition, cfg: ModelConfig) -> _Packing:
    if len(part.dropped):
        raise InputError("model forward requires a partition with no dropped spots")
    return _compact_packing(part.window_of_spot, part.slot_of_spot, part.n_windows,
                            _spot_offsets(part.cell_offsets, part.cart_offsets, cfg))


def _global_packing(coords, cells, scale: LatticeScale, cfg: ModelConfig) -> _Packing:
    """All spots in one window, in row order."""
    n = len(coords)
    off = _spot_offsets(cells, (coords - scale.anchor) / scale.d_med, cfg)
    return _compact_packing(np.zeros(n, dtype=np.int64), np.arange(n), 1, off)


@dataclass(frozen=True)
class Geometry:
    """Precomputed per-(stage, block) packings for one slide."""

    scale: LatticeScale
    cells: np.ndarray
    packings: list[list[_Packing]]
    partitions: list[list[WindowPartition | None]]


def build_geometry(coords: np.ndarray, cfg: ModelConfig, *,
                   scale: LatticeScale | None = None,
                   strict: bool = True) -> Geometry:
    """Estimate the lattice scale and build every stage/block partition.

    Datasets too small for k-NN estimation fall back to unit spacing; with a
    single spot the geometry is irrelevant anyway.
    """
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    if scale is None:
        if n >= cfg.knn_k + 1:
            scale = estimate_scale(coords, cfg.knn_k)
        elif n >= 2:
            scale = estimate_scale(coords, n - 1)
        else:
            scale = LatticeScale.from_spacing(1.0, coords[0])
    cells = cells_for_points(coords, scale)
    schedule = shift_schedule(cfg.blocks)
    packings: list[list[_Packing]] = []
    partitions: list[list[WindowPartition | None]] = []
    for stage in range(cfg.stages):
        row_pack, row_part = [], []
        for block in range(cfg.blocks):
            if stage == cfg.stages - 1:
                row_pack.append(_global_packing(coords, cells, scale, cfg))
                row_part.append(None)
            else:
                if cfg.window == "hex":
                    part = partition(coords, cells, scale, cfg.radii[stage],
                                     schedule[block], strict=strict,
                                     stage=stage, block=block)
                else:
                    part = partition_square(coords, cells, scale,
                                            cfg.stage_sides()[stage],
                                            schedule[block], strict=strict,
                                            stage=stage, block=block)
                row_pack.append(_packing_from_partition(part, cfg))
                row_part.append(part)
        packings.append(row_pack)
        partitions.append(row_part)
    return Geometry(scale=scale, cells=cells, packings=packings,
                    partitions=partitions)


def _rope_apply(x, pack: _Packing, cfg: ModelConfig, inverse: bool = False):
    """Rotate (N, H, dh) token rows by each spot's own offset."""
    if cfg.pe == "hexrope":
        fn = apply_hex_rope_vjp if inverse else apply_hex_rope
    else:
        fn = apply_rope_2d_vjp if inverse else apply_rope_2d
    return fn(x, pack.off[:, None], cfg.rope_config())


def _to_windows(x: np.ndarray, pack: _Packing) -> np.ndarray:
    """Scatter (N, H, dh) token rows into zero-padded (M, H, S', dh) windows."""
    m, s = pack.occ.shape
    out = np.zeros((m, x.shape[1], s, x.shape[2]))
    out[pack.win, :, pack.slot] = x
    return out


def _attention_forward(a: np.ndarray, pack: _Packing, params: Params,
                       prefix: str, cfg: ModelConfig):
    """Multi-head attention within each packed window; returns (out, cache).

    q/k/v are projected and rotated on the (N, dim) token rows and only then
    gathered into windows.
    """
    n = len(a)
    q, k, v = ((a @ params[f"{prefix}.attn.{name}.w"] + params[f"{prefix}.attn.{name}.b"])
               .reshape(n, cfg.heads, cfg.head_dim) for name in ("q", "k", "v"))
    qw = _to_windows(_rope_apply(q, pack, cfg), pack)
    kw = _to_windows(_rope_apply(k, pack, cfg), pack)
    vw = _to_windows(v, pack)
    inv = 1.0 / np.sqrt(cfg.head_dim)
    scores = (qw @ kw.transpose(0, 1, 3, 2)) * inv
    attn = masked_softmax(scores, pack.occ[:, None, None, :], axis=-1)
    ctx_tok = (attn @ vw)[pack.win, :, pack.slot].reshape(n, cfg.dim)
    out = ctx_tok @ params[f"{prefix}.attn.o.w"] + params[f"{prefix}.attn.o.b"]
    cache = (a, qw, kw, vw, attn, ctx_tok)
    return out, cache


def _attention_backward(d_out: np.ndarray, cache, pack: _Packing, params: Params,
                        prefix: str, cfg: ModelConfig, grads: Params) -> np.ndarray:
    a, qw, kw, vw, attn, ctx_tok = cache
    n = len(a)
    grads[f"{prefix}.attn.o.w"] += ctx_tok.T @ d_out
    grads[f"{prefix}.attn.o.b"] += d_out.sum(axis=0)
    d_ctx_tok = d_out @ params[f"{prefix}.attn.o.w"].T
    d_ctx = _to_windows(d_ctx_tok.reshape(n, cfg.heads, cfg.head_dim), pack)
    d_attn = d_ctx @ vw.transpose(0, 1, 3, 2)
    d_v = (attn.transpose(0, 1, 3, 2) @ d_ctx)[pack.win, :, pack.slot]
    inv = 1.0 / np.sqrt(cfg.head_dim)
    d_scores = masked_softmax_vjp(d_attn, attn, axis=-1) * inv
    d_q = _rope_apply((d_scores @ kw)[pack.win, :, pack.slot], pack, cfg, inverse=True)
    d_k = _rope_apply((d_scores.transpose(0, 1, 3, 2) @ qw)[pack.win, :, pack.slot],
                      pack, cfg, inverse=True)
    d_a = np.zeros_like(a)
    for name, d_h in (("q", d_q), ("k", d_k), ("v", d_v)):
        flat = d_h.reshape(n, cfg.dim)
        grads[f"{prefix}.attn.{name}.w"] += a.T @ flat
        grads[f"{prefix}.attn.{name}.b"] += flat.sum(axis=0)
        d_a += flat @ params[f"{prefix}.attn.{name}.w"].T
    return d_a


def _block_forward(h: np.ndarray, pack: _Packing, params: Params,
                   prefix: str, cfg: ModelConfig):
    a, ln1c = layer_norm_fwd(h, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    attn_out, attn_cache = _attention_forward(a, pack, params, prefix, cfg)
    h1 = h + attn_out
    f, ln2c = layer_norm_fwd(h1, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    u = f @ params[f"{prefix}.ffn.1.w"] + params[f"{prefix}.ffn.1.b"]
    g = gelu(u)
    h2 = h1 + g @ params[f"{prefix}.ffn.2.w"] + params[f"{prefix}.ffn.2.b"]
    return h2, (ln1c, attn_cache, ln2c, f, u, g)


def _block_backward(d_h2: np.ndarray, cache, pack: _Packing, params: Params,
                    prefix: str, cfg: ModelConfig, grads: Params) -> np.ndarray:
    ln1c, attn_cache, ln2c, f, u, g = cache
    grads[f"{prefix}.ffn.2.w"] += g.reshape(-1, g.shape[-1]).T @ d_h2.reshape(-1, d_h2.shape[-1])
    grads[f"{prefix}.ffn.2.b"] += d_h2.sum(axis=0)
    d_g = d_h2 @ params[f"{prefix}.ffn.2.w"].T
    d_u = gelu_vjp(d_g, u)
    grads[f"{prefix}.ffn.1.w"] += f.T @ d_u
    grads[f"{prefix}.ffn.1.b"] += d_u.sum(axis=0)
    d_f = d_u @ params[f"{prefix}.ffn.1.w"].T
    d_h1, d_g2, d_b2 = layer_norm_vjp(d_f, ln2c)
    grads[f"{prefix}.ln2.g"] += d_g2
    grads[f"{prefix}.ln2.b"] += d_b2
    d_h1 = d_h1 + d_h2
    d_a = _attention_backward(d_h1, attn_cache, pack, params, prefix, cfg, grads)
    d_h, d_g1, d_b1 = layer_norm_vjp(d_a, ln1c)
    grads[f"{prefix}.ln1.g"] += d_g1
    grads[f"{prefix}.ln1.b"] += d_b1
    return d_h + d_h1


@dataclass
class ForwardOutput:
    z: np.ndarray                    # (N, D_out) output embeddings
    y_hat: np.ndarray                # (N, G)
    y_dev_hat: np.ndarray | None     # (N, G), training only
    caches: tuple = ()


def forward(tokens: np.ndarray, geometry: Geometry, params: Params,
            cfg: ModelConfig, train: bool = True) -> ForwardOutput:
    """Run the staged network; caches stay attached for backward()."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != cfg.in_dim:
        raise ShapeError(f"tokens must be (N, {cfg.in_dim}), got {tokens.shape}")
    h = tokens @ params["embed.w"] + params["embed.b"]
    block_caches = []
    for stage in range(cfg.stages):
        for block in range(cfg.blocks):
            pack = geometry.packings[stage][block]
            h, cache = _block_forward(h, pack, params, f"s{stage}b{block}", cfg)
            block_caches.append(cache)
    m1 = h @ params["proj.1.w"] + params["proj.1.b"]
    mg = gelu(m1)
    z = mg @ params["proj.2.w"] + params["proj.2.b"]
    y_hat = z @ params["gene.w"] + params["gene.b"]
    y_dev_hat = None
    zc = None
    if train:
        zc = z - z.mean(axis=0)
        y_dev_hat = zc @ params["dev.w"] + params["dev.b"]
    caches = (tokens, h, m1, mg, z, zc, block_caches)
    return ForwardOutput(z=z, y_hat=y_hat, y_dev_hat=y_dev_hat, caches=caches)


def backward(out: ForwardOutput, geometry: Geometry, params: Params,
             cfg: ModelConfig, d_y_hat: np.ndarray,
             d_y_dev_hat: np.ndarray | None = None,
             d_z_extra: np.ndarray | None = None) -> Params:
    """Reverse-mode gradients for every parameter.

    d_z_extra carries loss gradients that hit the embeddings directly (the
    alignment projection path); deviation-head gradients flow through the
    batch centering.
    """
    tokens, h, m1, mg, z, zc, block_caches = out.caches
    grads = zeros_like_params(params)
    grads["gene.w"] += z.T @ d_y_hat
    grads["gene.b"] += d_y_hat.sum(axis=0)
    d_z = d_y_hat @ params["gene.w"].T
    if d_z_extra is not None:
        d_z = d_z + d_z_extra
    if d_y_dev_hat is not None:
        if zc is None:
            raise InputError("deviation gradients need a training-mode forward")
        grads["dev.w"] += zc.T @ d_y_dev_hat
        grads["dev.b"] += d_y_dev_hat.sum(axis=0)
        d_zc = d_y_dev_hat @ params["dev.w"].T
        d_z = d_z + d_zc - d_zc.mean(axis=0)
    grads["proj.2.w"] += mg.T @ d_z
    grads["proj.2.b"] += d_z.sum(axis=0)
    d_mg = d_z @ params["proj.2.w"].T
    d_m1 = gelu_vjp(d_mg, m1)
    grads["proj.1.w"] += h.T @ d_m1
    grads["proj.1.b"] += d_m1.sum(axis=0)
    d_h = d_m1 @ params["proj.1.w"].T
    idx = len(block_caches) - 1
    for stage in range(cfg.stages - 1, -1, -1):
        for block in range(cfg.blocks - 1, -1, -1):
            pack = geometry.packings[stage][block]
            d_h = _block_backward(d_h, block_caches[idx], pack, params,
                                  f"s{stage}b{block}", cfg, grads)
            idx -= 1
    grads["embed.w"] += tokens.T @ d_h
    grads["embed.b"] += d_h.sum(axis=0)
    return grads


def _one_window(h_window, occupancy, offsets, cfg: ModelConfig):
    """Occupied slots of one window as token rows, with their packing.

    Hex offsets may be axial (S, 2) or cube (S, 3); 2-d offsets are xy.
    """
    rows = np.flatnonzero(np.asarray(occupancy, dtype=bool))
    off = np.asarray(offsets, dtype=np.float64)[rows]
    if cfg.pe == "hexrope" and off.shape[-1] == 2:
        off = axial_to_cube(off)
    pack = _compact_packing(np.zeros(len(rows), dtype=np.int64), rows, 1, off)
    return rows, np.asarray(h_window, dtype=np.float64)[rows], pack


def window_attention(h_window: np.ndarray, occupancy: np.ndarray,
                     offsets: np.ndarray, params: Params, prefix: str,
                     cfg: ModelConfig):
    """Attention core for one window: returns (context, attention weights).

    The context is the per-slot concatenation of head outputs before the
    output projection; unoccupied slots are zero, as are their attention
    rows and columns.
    """
    s = len(h_window)
    rows, tokens, pack = _one_window(h_window, occupancy, offsets, cfg)
    _, (_, _, _, _, attn, ctx_tok) = _attention_forward(tokens, pack, params, prefix, cfg)
    ctx = np.zeros((s, cfg.dim))
    ctx[rows] = ctx_tok
    weights = np.zeros((cfg.heads, s, s))
    weights[:, rows[:, None], rows] = attn[0, :, :len(rows), :len(rows)]
    return ctx, weights


def hexmsa_block(h_window: np.ndarray, occupancy: np.ndarray,
                 offsets: np.ndarray, params: Params, prefix: str,
                 cfg: ModelConfig) -> np.ndarray:
    """Full pre-norm block on one packed window; unoccupied slots emit zeros."""
    rows, tokens, pack = _one_window(h_window, occupancy, offsets, cfg)
    out = np.zeros((len(h_window), cfg.dim))
    out[rows] = _block_forward(tokens, pack, params, prefix, cfg)[0]
    return out


CHECKPOINT_MAGIC = b"HEXWIN-CKPT-v1\n"


def save_checkpoint(path: str, params: Params, cfg: ModelConfig) -> None:
    """Self-describing container: magic, JSON header, packed float64 blobs."""
    header = {
        "config": cfg.to_dict(),
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in params.items()],
        "version": 1,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(f"{len(head)}\n".encode())
    buf.write(head)
    for v in params.values():
        buf.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_checkpoint(path: str) -> tuple[Params, ModelConfig]:
    """Read a save_checkpoint file; any malformed or mis-sized one is an InputError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise InputError(f"{path} is not a checkpoint file")
    rest = blob[len(CHECKPOINT_MAGIC):]
    try:
        nl = rest.index(b"\n")
        head_len = int(rest[:nl])
        header = json.loads(rest[nl + 1:nl + 1 + head_len])
        cfg = config_from_dict(ModelConfig, header["config"], "model")
        specs = [(str(t["name"]), tuple(int(d) for d in t["shape"]))
                 for t in header["tensors"]]
        if head_len < 0 or any(d < 0 for _, shape in specs for d in shape):
            raise ValueError("negative length")
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed checkpoint header: "
                         f"{type(exc).__name__}: {exc}") from None
    pos = nl + 1 + head_len
    counts = [int(np.prod(shape)) for _, shape in specs]
    if len(rest) != pos + 8 * sum(counts):
        raise InputError(f"{path}: checkpoint holds {len(rest) - pos} tensor bytes, "
                         f"its header declares {8 * sum(counts)}")
    params: Params = {}
    for (name, shape), count in zip(specs, counts):
        arr = np.frombuffer(rest, dtype="<f8", count=count, offset=pos)
        params[name] = arr.reshape(shape).astype(np.float64)
        pos += count * 8
    return params, cfg
