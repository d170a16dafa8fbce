"""Staged windowed-attention network over spot tokens.

Input visual tokens are linearly embedded, pass through L stages of B
pre-norm attention blocks (norm, window attention, residual; norm, FFN,
residual), with shifted window partitions per block and full attention over
all spots in the final stage. A projection MLP yields output embeddings Z,
a linear gene head predicts expression, and during training a deviation
head reads batch-centered embeddings and an alignment head projects Z onto
the transcriptomic embedding space.

Backward passes are explicit reverse-mode over this fixed graph; every
gradient is certified against the finite-difference oracle in the tests.
Parameters live in an ordered name -> float64 array mapping.
"""

from __future__ import annotations

import io
import json
import math
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InputError, ShapeError
from .hexgeom import LatticeScale, cells_for_points, estimate_scale
from .numerics import _run_pair, _split, gelu, gelu_vjp, layer_norm_fwd, layer_norm_vjp
# unused here; stay importable from hexwin.model for perfbench's tracer
from .numerics import masked_softmax, masked_softmax_vjp  # noqa: F401
from .rope import apply_hex_rope, apply_hex_rope_vjp, apply_rope_2d, apply_rope_2d_vjp  # noqa: F401
from .rope import axial_to_cube, rotate, rotations
from .windowing import WindowPartition, partition, partition_square, shift_schedule

Params = dict[str, np.ndarray]

# Most parameters a model may have: 512 MiB per float64 copy, of which
# training holds about six (parameters, best snapshot, gradients, two Adam
# moments and scratch). Checked on the config, before any layout is built.
MAX_PARAMS = 1 << 26


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

    def __post_init__(self):
        if min(self.in_dim, self.genes, self.dim, self.heads, self.stages, self.blocks,
               self.out_dim, *self.radii) < 1:
            raise InputError("in_dim, genes, dim, heads, stages, blocks, out_dim "
                             "and radii must be >= 1")
        if self.t_dim < 0:
            raise InputError("t_dim must be >= 0")
        if self.dim % self.heads:
            raise InputError("dim must be divisible by heads")
        if len(self.radii) != self.stages - 1:
            raise InputError("need one window radius per non-global stage")
        if self.window not in ("hex", "square"):
            raise InputError("window must be 'hex' or 'square'")
        if self.pe not in ("hexrope", "rope2d"):
            raise InputError("pe must be 'hexrope' or 'rope2d'")
        n_axes = 3 if self.pe == "hexrope" else 2
        if self.head_dim < 2 * n_axes:
            raise InputError(f"head dim {self.head_dim} (dim / heads) leaves {self.pe} "
                             f"no channel pair to rotate; need >= {2 * n_axes}")
        # param_layout's sizes in closed form: a block holds 12 dim^2 + 13 dim
        d, out = self.dim, self.out_dim
        n_params = ((self.in_dim + 1) * d + self.stages * self.blocks * (12 * d * d + 13 * d)
                    + (d + 1) * (d + out) + (out + 1) * (2 * self.genes + self.t_dim))
        if n_params > MAX_PARAMS:
            raise InputError(f"model has {n_params} parameters, over the budget of {MAX_PARAMS}")

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    @property
    def ffn_hidden(self) -> int:
        return 4 * self.dim

    def stage_sides(self) -> tuple[int, ...]:
        """Square window side per windowed stage: 2K spacings for radius K."""
        return tuple(2 * k for k in self.radii)


# config modules postpone annotations, so a field's type is its annotation string
_JSON_SCALARS = {"int": int, "float": (int, float), "str": str, "bool": bool}


def config_from_dict(cls, section, name: str, **overrides):
    """Build config dataclass cls from one JSON object plus overrides.

    Lists become tuples for tuple-valued fields. Unknown keys, wrong JSON types
    (also of tuple elements), non-finite floats and values cls rejects raise InputError.
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
        kind = known[key].type
        want = _JSON_SCALARS.get(kind.removeprefix("tuple[").removesuffix(", ...]"))
        items = value if isinstance(value, tuple) else (value,)
        if kind.startswith("tuple[") != isinstance(value, tuple) or want and any(
                not isinstance(v, want) or isinstance(v, bool) != (want is bool) for v in items):
            raise InputError(f"{name}.{key} must be {kind}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"{name}.{key} must be finite, got {value!r}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} config: {exc}") from None


def _block_prefixes(cfg: ModelConfig) -> list[str]:
    """Parameter prefix of every attention block, in forward order."""
    return [f"s{s}b{b}" for s in range(cfg.stages) for b in range(cfg.blocks)]


def param_layout(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter, in init_params order; weights are (fan_in, fan_out)."""
    d, layout = cfg.dim, []

    def linear(name: str, fan_in: int, fan_out: int):
        layout.extend([(f"{name}.w", (fan_in, fan_out)), (f"{name}.b", (fan_out,))])

    def norm(name: str, width: int):
        layout.extend([(f"{name}.g", (width,)), (f"{name}.b", (width,))])

    linear("embed", cfg.in_dim, d)
    for p in _block_prefixes(cfg):
        norm(f"{p}.ln1", d)
        for proj in ("q", "k", "v", "o"):
            linear(f"{p}.attn.{proj}", d, d)
        norm(f"{p}.ln2", d)
        linear(f"{p}.ffn.1", d, cfg.ffn_hidden)
        linear(f"{p}.ffn.2", cfg.ffn_hidden, d)
    linear("proj.1", d, d)
    linear("proj.2", d, cfg.out_dim)
    linear("gene", cfg.out_dim, cfg.genes)
    linear("dev", cfg.out_dim, cfg.genes)
    if cfg.t_dim:
        linear("tfa", cfg.out_dim, cfg.t_dim)
    return layout


def init_params(cfg: ModelConfig, seed: int = 0) -> Params:
    """Uniform(+-1/sqrt(fan_in)) weights, zero biases, unit norm gains."""
    rng = np.random.default_rng(seed)
    params: Params = {}
    for name, shape in param_layout(cfg):
        bound = 1.0 / np.sqrt(shape[0])
        params[name] = (rng.uniform(-bound, bound, size=shape) if name.endswith(".w")
                        else np.full(shape, 1.0 if name.endswith(".g") else 0.0))
    return params


def params_to_vector(params: Params) -> np.ndarray:
    return np.concatenate([v.ravel() for v in params.values()])


def param_views(vec: np.ndarray, template: Params) -> Params:
    """template's names and shapes over consecutive slices of vec, as views."""
    out: Params = {}
    pos = 0
    for k, v in template.items():
        out[k] = vec[pos:pos + v.size].reshape(v.shape)
        pos += v.size
    if pos != vec.size:
        raise ShapeError("parameter vector length mismatch")
    return out


@dataclass(frozen=True)
class _Packing:
    """Gather plan from spot rows into compact (window, slot) tensors.

    Each window's spots fill slots 0..occ-1 in ascending order of their
    partition slot ids, so the packed width S' is the largest window
    occupancy.
    """

    win: np.ndarray        # (N,)
    slot: np.ndarray       # (N,) compact slot, < S'
    occ: np.ndarray        # (M, S') bool


def _compact_packing(win: np.ndarray, key: np.ndarray, n_windows: int) -> _Packing:
    """Rank each spot within its window by `key` and pack to the largest window."""
    order = np.lexsort((key, win))
    counts = np.bincount(win, minlength=n_windows)
    starts = np.cumsum(counts) - counts
    slot = np.empty(len(win), dtype=np.int64)
    slot[order] = np.arange(len(win)) - starts[win[order]]
    occ = np.arange(counts.max(initial=1)) < counts[:, None]
    return _Packing(win=win, slot=slot, occ=occ)


@dataclass(frozen=True)
class Geometry:
    """Precomputed per-(stage, block) packings and rotary factors for one slide.

    Every block rotates queries and keys by the spot's position on the
    slide, so scores depend only on offsets between spots and the windows
    only decide who attends to whom.
    """

    cells: np.ndarray
    packings: list[list[_Packing]]
    partitions: list[list[WindowPartition | None]]
    rot: np.ndarray        # (N, 1, pairs) complex e^(i theta), broadcast over heads


def scale_and_cells(coords: np.ndarray) -> tuple[LatticeScale, np.ndarray]:
    """The slide's lattice scale and every spot's hexagonal cell.

    The scale pools each spot's 6 nearest neighbours, its hexagonal
    neighbourhood, or every other spot on a slide of 7 or fewer. A single
    spot gets unit spacing; its geometry is irrelevant anyway.
    """
    n = len(coords)
    scale = estimate_scale(coords, min(6, n - 1)) if n >= 2 else LatticeScale(1.0, coords[0])
    return scale, cells_for_points(coords, scale)


def build_geometry(coords: np.ndarray, cfg: ModelConfig) -> Geometry:
    """Estimate the lattice scale and build every stage/block partition, plus
    the rotary factors of each spot's cube cell (hexrope) or its xy position
    in lattice spacings from the anchor (rope2d)."""
    coords = np.asarray(coords, dtype=np.float64)
    n = len(coords)
    scale, cells = scale_and_cells(coords)
    partitions: list[list[WindowPartition | None]] = [
        [partition(coords, cells, scale, radius, shift, stage=stage, block=block)
         if cfg.window == "hex" else
         partition_square(coords, cells, scale, side, shift, stage=stage, block=block)
         for block, shift in enumerate(shift_schedule(cfg.blocks))]
        for stage, (radius, side) in enumerate(zip(cfg.radii, cfg.stage_sides()))]
    # every partition places every spot or has raised SlotCollisionError
    packings = [[_compact_packing(part.window_of_spot, part.slot_of_spot, part.n_windows)
                 for part in row] for row in partitions]
    # every global block takes all spots as one window, in row order
    packings.append([_compact_packing(np.zeros(n, dtype=np.int64), np.arange(n), 1)] * cfg.blocks)
    partitions.append([None] * cfg.blocks)
    pos = axial_to_cube(cells) if cfg.pe == "hexrope" else (coords - scale.anchor) / scale.d_med
    return Geometry(cells=cells, packings=packings, partitions=partitions,
                    rot=rotations(pos, cfg.head_dim)[:, None])


def _blocks(geometry: Geometry, cfg: ModelConfig) -> list[tuple[str, _Packing]]:
    """(parameter prefix, packing) of every attention block, in forward order."""
    return list(zip(_block_prefixes(cfg), (p for row in geometry.packings for p in row), strict=True))


def _to_windows(x: np.ndarray, pack: _Packing) -> np.ndarray:
    """Scatter (N, H, dh) token rows into zero-padded (M, H, S', dh + 1) windows.

    The extra column is left zero for the per-row term the caller puts there.
    """
    m, s = pack.occ.shape
    out = np.zeros((m, x.shape[1], s, x.shape[2] + 1))
    out[pack.win, :, pack.slot, :-1] = x
    return out


# Score cells (windows x heads x query rows x keys) in one attention tile,
# 512 KiB of float64. Measured when every block took its own tile buffers
# (each thread now keeps its own, see _buffer): glibc hands freed buffers of
# 1 MiB and more back to the OS, so larger tiles faulted in again on every
# call: at 2^17 cells training on the ~300-spot acceptance slide took ~5x the
# minor page faults of 2^16 and ran ~5% slower on a 2-core host; 2^15 made
# 2.3k-spot training ~25% slower.
TILE_CELLS = 1 << 16

# Largest bound on a block's |scores| for which forward takes exp(S) with no
# row-max shift: e^600 times any spot count stays finite and e^-600 is a
# normal float, so no row sum overflows or underflows. Above it forward first
# finds each row's largest valid score over the same tiles and shifts by it.
EXP_LIMIT = 600.0


def _tiles(m: int, s: int, heads: int) -> list[tuple[slice, slice, slice]]:
    """The (window, query-row, key) slices of every tile; the first is the largest.

    Whole windows are grouped while they fit in TILE_CELLS. A window too
    large for one tile, such as the global one, is cut into square
    (query x key) blocks, with as many query rows as the budget leaves (at
    least one of each).
    """
    n_win = min(m, max(1, TILE_CELLS // (heads * s * s)))
    cols = min(s, max(1, math.isqrt(TILE_CELLS // heads)))
    rows = min(s, max(1, TILE_CELLS // (n_win * heads * cols)))
    return [(slice(w0, w0 + n_win), slice(r0, r0 + rows), slice(k0, k0 + cols))
            for w0 in range(0, m, n_win) for r0 in range(0, s, rows)
            for k0 in range(0, s, cols)]


def _tile_parts(m: int, s: int, heads: int) -> list[list]:
    """`_tiles` as one part, or as two halves of the (window, query-row)
    blocks when each window is cut into several key blocks and has at least
    numerics.SPLIT_ROWS rows. Forward and backward cut the same halves."""
    tiles = _tiles(m, s, heads)
    n_k = -(-s // tiles[0][2].stop)           # key blocks per window
    if n_k < 2 or not _split(s):
        return [tiles]
    cut = len(tiles) // n_k // 2 * n_k
    return [tiles[:cut], tiles[cut:]]


def _each(fn, parts: list) -> None:
    """fn(part) for each of one or two parts; two run at once (`_run_pair`)."""
    if len(parts) == 1:
        fn(parts[0])
    else:
        _run_pair(lambda: fn(parts[0]), lambda: fn(parts[1]))


_local = threading.local()          # each thread's tile buffers


def _buffer(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """This thread's buffer `name` as a C-contiguous float64 array of `shape`.

    A buffer grows on demand and is kept across blocks and calls, so no tile
    faults its memory in again.
    """
    size = math.prod(shape)
    buf = getattr(_local, name, None)
    if buf is None or buf.size < size:
        buf = np.empty(size)
        setattr(_local, name, buf)
    return buf[:size].reshape(shape)


def _tile_scores(qa: np.ndarray, kta: np.ndarray, ws: slice, rs: slice, ks: slice) -> np.ndarray:
    """[q | -c] [K^T; occ] on one tile: S - c on occupied keys, 0 on empty ones.

    c is the per-row term in the extra query column, so exp of the result is
    the tile's weights on occupied keys. On empty keys it is exactly 1, and
    every matmul it enters meets a zero there: [V | occ] in forward and
    [V^T; occ] in backward.
    """
    q_t, k_t = qa[ws, :, rs], kta[ws, :, :, ks]
    return np.matmul(q_t, k_t, out=_buffer("p", q_t.shape[:3] + k_t.shape[3:]))


def _dense_vjp(d_out: np.ndarray, x: np.ndarray, params: Params, grads: Params,
               name: str) -> np.ndarray:
    """Add dense layer `name`'s weight and bias gradients into grads; return d_x."""
    grads[f"{name}.w"] += x.T @ d_out
    grads[f"{name}.b"] += d_out.sum(axis=0)
    return d_out @ params[f"{name}.w"].T


def _windows(q: np.ndarray, k: np.ndarray, v: np.ndarray, neg_c, pack: _Packing):
    """[q | -c], [K^T; occ] and [V | occ] windows of (N, H, dh) token rows; -c is neg_c."""
    (m, s), dh = pack.occ.shape, q.shape[2]
    qa, va = _to_windows(q, pack), _to_windows(v, pack)
    qa[pack.win, :, pack.slot, dh] = neg_c
    kta = np.zeros((m, q.shape[1], dh + 1, s))
    kta[pack.win, :, :dh, pack.slot] = k
    kta[:, :, dh] = va[..., dh] = pack.occ[:, None]
    return qa, kta, va


def _qkv(a: np.ndarray, rot: np.ndarray, params: Params, prefix: str, cfg: ModelConfig):
    """Rotated (N, H, dh) q, k, v token rows of norm output a; q carries 1/sqrt(head_dim).
    Both passes call it, so backward's q, k, v are forward's bit for bit."""
    n, dh = len(a), cfg.head_dim
    q, k, v = ((a @ params[f"{prefix}.attn.{name}.w"] + params[f"{prefix}.attn.{name}.b"])
               .reshape(n, cfg.heads, dh) for name in ("q", "k", "v"))
    return rotate(q, rot) * (1.0 / np.sqrt(dh)), rotate(k, rot), v


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, pack: _Packing):
    """Softmax attention of rotated, scaled (N, H, dh) q, k, v rows within each
    packed window; returns the (N, H, dh) context and each query's (N, H) -LSE.

    The rows are packed into windows here and the windows die on return.
    Scores exist one (window, query, key) tile at a time, the tiles backward
    walks too, and are not kept; each query row's log-sum-exp is, so
    backward rebuilds any tile of weights in one pass (FlashAttention-2,
    Dao 2023). Every per-row term rides in one extra matmul column: queries
    carry -c against the keys' occupancy row, and values carry an occupancy
    column that sums each row of weights as the key blocks add up, so no tile
    is masked. c is 0 when no score of the block can overflow exp, else each
    row's largest valid score, found in a max-only pass over the tiles.
    """
    dh = q.shape[2]
    qa, kta, va = _windows(q, k, v, 0.0, pack)     # qa is [q | -c], then [q | -LSE]
    ctx = np.zeros_like(va)                        # [numerator | row sum]
    # each part owns its query rows, which add up their key blocks in order
    parts = _tile_parts(*pack.occ.shape, q.shape[1])

    def max_pass(tiles):
        for ws, rs, ks in tiles:
            p = _tile_scores(qa, kta, ws, rs, ks)
            np.copyto(p, -np.inf, where=~pack.occ[ws, None, None, ks])
            np.maximum(peak[ws, :, rs], p.max(axis=-1), out=peak[ws, :, rs])

    def exp_pass(tiles):
        for ws, rs, ks in tiles:
            p = _tile_scores(qa, kta, ws, rs, ks)
            np.exp(p, out=p)
            c = ctx[ws, :, rs]
            c += np.matmul(p, va[ws, :, ks], out=_buffer("c", c.shape))

    # Cauchy-Schwarz: no score of the block exceeds this bound in magnitude
    if math.sqrt(np.max(np.vecdot(q, q)) * np.max(np.vecdot(k, k))) > EXP_LIMIT:
        peak = np.full(qa.shape[:3], -np.inf)
        _each(max_pass, parts)
        qa[..., dh] = -peak
    _each(exp_pass, parts)
    qa[..., dh] -= np.log(ctx[..., dh])
    ctx[..., :dh] /= ctx[..., dh:]
    return ctx[pack.win, :, pack.slot, :dh], qa[pack.win, :, pack.slot, dh]


def _attend_vjp(d_ctx: np.ndarray, ctx: np.ndarray, windows, pack: _Packing):
    """Gradients (d_q, d_k, d_v) of `_attend` as (N, H, dh) rows from the
    context, its gradient and `windows`, `_windows` of forward's q, k, v and
    -LSE. Given the only reference to them, no window outlives the call.

    FlashAttention-2 backward over (window group, query block, key block)
    tiles. An empty query slot's -LSE is 0 here, not forward's -log(row sum),
    but its dCtx row and -D are 0, so every tile term it enters is exactly 0.
    A tile's weights are P = exp([q | -LSE] [K^T; occ]) = exp(S - LSE), built
    as in forward, and dS = P * ([dCtx | -D] [V^T; occ]) = P * (dP - D) with
    the softmax vjp's row term D = rowsum(dCtx * Ctx), taken once on the
    token rows; on empty keys dS is 0. So a tile makes two elementwise passes
    (exp and one multiply) and adds only into its own rows of dQ and its own
    keys of dK and dV. Each part of `_tile_parts` owns its query rows of dQ
    and adds into its own dK and dV; the second part's are then added into
    the first's.
    """
    dh = d_ctx.shape[2]
    qa, kta = windows[:2]
    vta = np.ascontiguousarray(windows[2].transpose(0, 1, 3, 2))     # [V^T; occ]
    del windows                                    # frees [V | occ]
    # K: dQ's matmul is slower on a strided view
    kw = np.ascontiguousarray(kta[:, :, :dh].transpose(0, 1, 3, 2))
    dca = _to_windows(d_ctx, pack)                 # [dCtx | -D]
    dca[pack.win, :, pack.slot, dh] = -np.vecdot(d_ctx, ctx)
    d_qw = np.zeros(qa.shape[:3] + (dh,))
    parts = _tile_parts(*pack.occ.shape, d_ctx.shape[1])
    d_kvs = [np.zeros((2,) + d_qw.shape) for _ in parts]      # each part's dK and dV

    def vjp_pass(part):
        tiles, d_kv = part
        for ws, rs, ks in tiles:
            q_t, k_t, d_c = qa[ws, :, rs, :dh], kw[ws, :, ks], dca[ws, :, rs, :dh]
            p = _tile_scores(qa, kta, ws, rs, ks)
            np.exp(p, out=p)
            d_s = np.matmul(dca[ws, :, rs], vta[ws, :, :, ks], out=_buffer("dp", p.shape))
            d_s *= p
            # views of the gradients, so += adds in place with no write-back copy
            d_q_t, d_k_t, d_v_t = d_qw[ws, :, rs], d_kv[0, ws, :, ks], d_kv[1, ws, :, ks]
            d_kv_t = _buffer("dh", d_k_t.shape)
            d_v_t += np.matmul(p.transpose(0, 1, 3, 2), d_c, out=d_kv_t)
            d_k_t += np.matmul(d_s.transpose(0, 1, 3, 2), q_t, out=d_kv_t)
            d_q_t += np.matmul(d_s, k_t, out=_buffer("dh", q_t.shape))

    _each(vjp_pass, list(zip(parts, d_kvs)))
    for d_kv in d_kvs[1:]:
        d_kvs[0] += d_kv
    return tuple(d[pack.win, :, pack.slot] for d in (d_qw, *d_kvs[0]))


def _block_forward(h: np.ndarray, pack: _Packing, rot: np.ndarray, params: Params,
                   prefix: str, cfg: ModelConfig):
    a, ln1c = layer_norm_fwd(h, params[f"{prefix}.ln1.g"], params[f"{prefix}.ln1.b"])
    ctx, neg_lse = _attend(*_qkv(a, rot, params, prefix, cfg), pack)
    h1 = h + (ctx.reshape(len(h), cfg.dim) @ params[f"{prefix}.attn.o.w"]
              + params[f"{prefix}.attn.o.b"])
    f, ln2c = layer_norm_fwd(h1, params[f"{prefix}.ln2.g"], params[f"{prefix}.ln2.b"])
    u = f @ params[f"{prefix}.ffn.1.w"] + params[f"{prefix}.ffn.1.b"]
    g, cdf = gelu(u)
    h2 = h1 + g @ params[f"{prefix}.ffn.2.w"] + params[f"{prefix}.ffn.2.b"]
    return h2, (ln1c, neg_lse, ctx, ln2c, cdf)


def _block_backward(d_h2: np.ndarray, cache, pack: _Packing, rot: np.ndarray,
                    params: Params, prefix: str, cfg: ModelConfig, grads: Params) -> np.ndarray:
    """The block input's gradient; adds the block's parameter gradients to grads.
    q, k, v die once packed and the windows in `_attend_vjp`, so none is alive
    in the inverse rotations and the q/k/v projection gradients after it."""
    ln1c, neg_lse, ctx, ln2c, cdf = cache
    n, dh = len(d_h2), cfg.head_dim
    f = ln2c[0] * params[f"{prefix}.ln2.g"] + params[f"{prefix}.ln2.b"]
    u = f @ params[f"{prefix}.ffn.1.w"] + params[f"{prefix}.ffn.1.b"]
    # (0.5 * u) * (2.0 * cdf) is gelu(u), bit for bit; each FFN temporary
    # goes after its last use, so none is alive in the attention backward
    d_g = _dense_vjp(d_h2, (0.5 * u) * (2.0 * cdf), params, grads, f"{prefix}.ffn.2")
    d_u = gelu_vjp(d_g, u, cdf)
    del d_g, u
    d_h1, d_g2, d_b2 = layer_norm_vjp(_dense_vjp(d_u, f, params, grads, f"{prefix}.ffn.1"), ln2c)
    del d_u, f
    grads[f"{prefix}.ln2.g"] += d_g2
    grads[f"{prefix}.ln2.b"] += d_b2
    d_h1 = d_h1 + d_h2
    d_ctx = _dense_vjp(d_h1, ctx.reshape(n, cfg.dim), params, grads, f"{prefix}.attn.o")
    a = ln1c[0] * params[f"{prefix}.ln1.g"] + params[f"{prefix}.ln1.b"]
    d_q, d_k, d_v = _attend_vjp(d_ctx.reshape(n, cfg.heads, dh), ctx,
                                _windows(*_qkv(a, rot, params, prefix, cfg), neg_lse, pack),
                                pack)
    d_q = rotate(d_q * (1.0 / np.sqrt(dh)), rot, inverse=True)
    d_k = rotate(d_k, rot, inverse=True)
    d_a = sum(_dense_vjp(d.reshape(n, cfg.dim), a, params, grads, f"{prefix}.attn.{name}")
              for name, d in (("q", d_q), ("k", d_k), ("v", d_v)))
    d_h, d_g1, d_b1 = layer_norm_vjp(d_a, ln1c)
    grads[f"{prefix}.ln1.g"] += d_g1
    grads[f"{prefix}.ln1.b"] += d_b1
    return d_h + d_h1


@dataclass
class ForwardOutput:
    z: np.ndarray                    # (N, D_out) output embeddings
    y_hat: np.ndarray                # (N, G)
    y_dev_hat: np.ndarray | None     # (N, G), training only
    t_hat: np.ndarray | None = None  # (N, D_t), training with t_dim > 0 only
    caches: tuple = ()               # training only


def forward(tokens: np.ndarray, geometry: Geometry, params: Params,
            cfg: ModelConfig, train: bool = True) -> ForwardOutput:
    """Run the staged network.

    A training-mode forward keeps every block's cache attached for
    backward(); an eval-mode one keeps none and returns only predictions.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 2 or tokens.shape[1] != cfg.in_dim:
        raise ShapeError(f"tokens must be (N, {cfg.in_dim}), got {tokens.shape}")
    h = tokens @ params["embed.w"] + params["embed.b"]
    block_caches = []
    for prefix, pack in _blocks(geometry, cfg):
        h, cache = _block_forward(h, pack, geometry.rot, params, prefix, cfg)
        if train:
            block_caches.append(cache)
    m1 = h @ params["proj.1.w"] + params["proj.1.b"]
    mg, cdf = gelu(m1)
    z = mg @ params["proj.2.w"] + params["proj.2.b"]
    y_hat = z @ params["gene.w"] + params["gene.b"]
    if not train:
        return ForwardOutput(z=z, y_hat=y_hat, y_dev_hat=None)
    zc = z - z.mean(axis=0)
    y_dev_hat = zc @ params["dev.w"] + params["dev.b"]
    t_hat = z @ params["tfa.w"] + params["tfa.b"] if cfg.t_dim else None
    caches = (tokens, h, m1, cdf, z, zc, block_caches)
    return ForwardOutput(z=z, y_hat=y_hat, y_dev_hat=y_dev_hat, t_hat=t_hat, caches=caches)


def backward(out: ForwardOutput, geometry: Geometry, params: Params,
             cfg: ModelConfig, d_y_hat: np.ndarray,
             d_y_dev_hat: np.ndarray | None = None,
             d_t_hat: np.ndarray | None = None) -> Params:
    """Reverse-mode gradients for every parameter, given each head's upstream
    gradient; deviation-head gradients flow through the batch centering.

    A block caches each norm's (xhat, inv), -LSE and context as token rows,
    and the FFN's CDF. Backward rebuilds the rest bit for bit from `params`,
    which must be the ones forward saw, and writes into no cache; one block's
    windows at a time are alive, and only inside its `_attend_vjp`.
    """
    if not out.caches:
        raise InputError("backward needs the caches of a training-mode forward")
    tokens, h, m1, cdf, z, zc, block_caches = out.caches
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_z = _dense_vjp(d_y_hat, z, params, grads, "gene")
    if d_t_hat is not None:
        d_z += _dense_vjp(d_t_hat, z, params, grads, "tfa")
    if d_y_dev_hat is not None:
        d_zc = _dense_vjp(d_y_dev_hat, zc, params, grads, "dev")
        d_z = d_z + d_zc - d_zc.mean(axis=0)
    mg = (0.5 * m1) * (2.0 * cdf)        # gelu(m1), bit for bit
    d_mg = _dense_vjp(d_z, mg, params, grads, "proj.2")
    d_m1 = gelu_vjp(d_mg, m1, cdf)
    d_h = _dense_vjp(d_m1, h, params, grads, "proj.1")
    for (prefix, pack), cache in zip(reversed(_blocks(geometry, cfg)), reversed(block_caches)):
        d_h = _block_backward(d_h, cache, pack, geometry.rot, params, prefix, cfg, grads)
    grads["embed.w"] += tokens.T @ d_h
    grads["embed.b"] += d_h.sum(axis=0)
    return grads


CHECKPOINT_MAGIC = b"HEXWIN-CKPT-v1\n"


def save_checkpoint(path: str, params: Params, cfg: ModelConfig) -> None:
    """Self-describing container: magic, JSON header, packed float64 blobs."""
    header = {
        "config": asdict(cfg),
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
        if head_len < 0:
            raise ValueError("negative length")
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: malformed checkpoint header: "
                         f"{type(exc).__name__}: {exc}") from None
    layout = param_layout(cfg)
    if specs != layout:
        got, want = next(p for p in zip(specs + ["nothing"], layout + ["nothing"]) if p[0] != p[1])
        raise InputError(f"{path}: header lists {got} where its config has {want}")
    pos = nl + 1 + head_len
    counts = [int(np.prod(shape)) for _, shape in specs]
    if len(rest) != pos + 8 * sum(counts):
        raise InputError(f"{path}: checkpoint holds {len(rest) - pos} tensor bytes, "
                         f"its header declares {8 * sum(counts)}")
    params: Params = {}
    for (name, shape), count in zip(specs, counts):
        arr = np.frombuffer(rest, dtype="<f8", count=count, offset=pos)
        if not np.isfinite(arr).all():
            raise InputError(f"{path}: tensor {name} holds non-finite values")
        params[name] = arr.reshape(shape).astype(np.float64)
        pos += count * 8
    return params, cfg
