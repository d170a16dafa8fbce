import dataclasses
import math
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexwin import model, numerics, trainer
from hexwin.errors import InputError
from hexwin.model import (ForwardOutput, ModelConfig, _Packing, backward, build_geometry,
                          forward, init_params, load_checkpoint, param_views,
                          params_to_vector, save_checkpoint, scale_and_cells)
from hexwin.numerics import finite_diff_grad, relative_error
from hexwin.rope import axial_to_cube, rotate, rotations
from hexwin.synth import SynthConfig, generate

TINY = ModelConfig(in_dim=5, genes=3, dim=6, heads=1, stages=2, blocks=3,
                   radii=(1,), out_dim=4, t_dim=3)


def tiny_dataset(seed=0, n=12):
    return generate(SynthConfig(radius=3, jitter=0.02, dropout=0.0, seed=seed,
                                patterns=("boundary", "gradient", "noise"),
                                token_dim=5, transcriptomic_dim=3, max_spots=n))


def generic_params(cfg, seed=0, scale=0.05):
    params = init_params(cfg, seed)
    rng = np.random.default_rng(seed + 1000)
    return {k: v + rng.normal(0, scale, v.shape) for k, v in params.items()}


def worst_gradient_error(cfg, ds, params):
    """Largest relative error of backward() against central differences."""
    geo = build_geometry(ds.coords, cfg)
    rng = np.random.default_rng(2)
    d_y = rng.normal(0, 1, (ds.n_spots, cfg.genes))
    d_dev = rng.normal(0, 1, (ds.n_spots, cfg.genes))
    # without t_dim there is no alignment head: no t_hat, no gradient for it
    d_t = rng.normal(0, 1, (ds.n_spots, cfg.t_dim)) if cfg.t_dim else None
    out = forward(ds.tokens, geo, params, cfg, train=True)
    assert (out.t_hat is None) == (d_t is None)
    grads = backward(out, geo, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                     d_t_hat=d_t)

    def scalar(vec):
        p = param_views(vec, params)
        o = forward(ds.tokens, geo, p, cfg, train=True)
        return float(np.sum(o.y_hat * d_y) + np.sum(o.y_dev_hat * d_dev)
                     + (0.0 if d_t is None else np.sum(o.t_hat * d_t)))

    fd = param_views(finite_diff_grad(scalar, params_to_vector(params)), params)
    return max(relative_error(grads[k], fd[k]) for k in params)


def spy_tile_scores(monkeypatch):
    """A list that gains one entry per score tile model._tile_scores builds."""
    calls = []
    real = model._tile_scores

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(model, "_tile_scores", spy)
    return calls


def spy_workspace(monkeypatch):
    """Record (name, cells) of every _Workspace buffer a pass takes."""
    views = []
    real = model._Workspace.view

    def spy(self, name, shape):
        views.append((name, math.prod(shape)))
        return real(self, name, shape)
    monkeypatch.setattr(model._Workspace, "view", spy)
    return views


def cached_arrays(cache):
    """Every array in a nested tuple of caches."""
    if isinstance(cache, np.ndarray):
        return [cache]
    return [arr for item in cache for arr in cached_arrays(item)]


def shares_params(arr, params):
    return any(np.shares_memory(arr, p) for p in params.values())


def forward_and_grads(cfg, ds, geo, params, seed=4):
    rng = np.random.default_rng(seed)
    d_y = rng.normal(0, 1, (ds.n_spots, cfg.genes))
    d_dev = rng.normal(0, 1, (ds.n_spots, cfg.genes))
    d_t = rng.normal(0, 1, (ds.n_spots, cfg.t_dim))
    out = forward(ds.tokens, geo, params, cfg, train=True)
    return out, backward(out, geo, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                         d_t_hat=d_t)


class TestWindowAttention:
    """Properties of `_attend` and `_attend_vjp`, the attention op training
    runs, on hand-built (N, H, dh) rows and packings."""

    @staticmethod
    def attend(q, k, v, win):
        """_attend of rows q, k, v within windows `win`; returns (ctx, -LSE, pack)."""
        win = np.asarray(win, dtype=np.int64)
        pack = model._compact_packing(win, np.arange(len(win)), int(win.max()) + 1)
        return *model._attend(q, k, v, pack, model._Workspace()), pack

    @staticmethod
    def rows(rng, n, heads=2, dh=3):
        return tuple(rng.normal(0, 1, (n, heads, dh)) for _ in range(3))

    def test_single_occupied_slot_returns_value_projection(self):
        # window 1 holds one spot, padded to window 0's width of three slots
        q, k, v = self.rows(np.random.default_rng(3), 4)
        ctx, _, pack = self.attend(q, k, v, [0, 0, 0, 1])
        assert pack.occ.shape == (2, 3) and pack.occ[1].sum() == 1
        np.testing.assert_allclose(ctx[3], v[3], rtol=0, atol=1e-12)

    def test_identical_keys_average_values(self):
        # every key of a window is the same row, so all its weights are equal
        rng = np.random.default_rng(4)
        q, _, v = self.rows(rng, 6)
        win = np.array([1, 0, 1, 0, 0, 1])
        k = rng.normal(0, 1, (2, 2, 3))[win]
        ctx, _, _ = self.attend(q, k, v, win)
        for w in (0, 1):
            mean = v[win == w].mean(axis=0)
            np.testing.assert_allclose(ctx[win == w], np.broadcast_to(mean, (3, 2, 3)),
                                       rtol=0, atol=1e-12)

    def test_slot_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        n = 9
        q, k, v = self.rows(rng, n)
        win = np.array([0, 1, 2, 0, 1, 0, 0, 2, 1])
        ctx, neg_lse, _ = self.attend(q, k, v, win)
        perm = rng.permutation(n)
        ctx_p, neg_lse_p, _ = self.attend(q[perm], k[perm], v[perm], win[perm])
        np.testing.assert_allclose(ctx_p, ctx[perm], rtol=0, atol=1e-12)
        np.testing.assert_allclose(neg_lse_p, neg_lse[perm], rtol=0, atol=1e-12)

    def test_attention_rows_sum_to_one_over_occupied(self):
        # the windows backward packs from q, k, v and the -LSE rebuild the weights
        q, k, v = self.rows(np.random.default_rng(6), 7)
        ctx, neg_lse, pack = self.attend(q, k, v, [0, 1, 0, 0, 1, 0, 2])
        qa, kta, va = model._windows(q, k, v, neg_lse, pack)
        weights = np.exp(qa @ kta) * pack.occ[:, None, None, :]
        row_sums = weights.sum(-1).transpose(0, 2, 1)[pack.occ]    # (spots, heads)
        np.testing.assert_allclose(row_sums, 1.0, rtol=0, atol=1e-12)
        ctx_w = (weights @ va[..., :-1])[pack.win, :, pack.slot]
        np.testing.assert_allclose(ctx_w, ctx, rtol=0, atol=1e-12)

    def test_poisoned_window_does_not_leak(self):
        rng = np.random.default_rng(7)
        q, k, v = self.rows(rng, 7)
        win = np.array([0, 1, 1, 0, 1, 1, 1])
        ctx, _, _ = self.attend(q, k, v, win)
        poisoned = [x.copy() for x in (q, k, v)]
        for x in poisoned:
            x[win == 1] = 1e6
        # scores of 1e12 take the row-max fallback, so this is not bitwise
        ctx_p, _, _ = self.attend(*poisoned, win)
        np.testing.assert_allclose(ctx_p[win == 0], ctx[win == 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("exp_limit", [model.EXP_LIMIT, 0.0])
    def test_vjp_matches_finite_differences(self, exp_limit, monkeypatch):
        # windows of 5, 3, 2 and 1 spots; at 8 score cells and 2 heads the
        # widest window is cut into 2 x 2 (query x key) blocks
        monkeypatch.setattr(model, "EXP_LIMIT", exp_limit)
        monkeypatch.setattr(model, "TILE_CELLS", 8)
        rng = np.random.default_rng(8)
        win = np.array([0, 1, 0, 2, 0, 1, 3, 0, 1, 2, 0])
        q, k, v = self.rows(rng, len(win))
        d_ctx = rng.normal(0, 1, q.shape)
        ctx, neg_lse, pack = self.attend(q, k, v, win)
        (m, s), heads = pack.occ.shape, q.shape[1]
        _, rs, ks = model._tiles(m, s, heads)[0]
        assert s == 5 and rs.stop < s and ks.stop < s
        grads = model._attend_vjp(d_ctx, ctx, model._windows(q, k, v, neg_lse, pack), pack,
                                  model._Workspace())
        fd = finite_diff_grad(lambda x: float(np.sum(self.attend(*x, win)[0] * d_ctx)),
                              np.stack([q, k, v]))
        assert relative_error(np.stack(grads), fd) < 1e-7


class TestForward:
    def test_single_spot_degenerates_to_mlp(self):
        ds = tiny_dataset(n=1)
        assert ds.n_spots == 1
        geo = build_geometry(ds.coords, TINY)
        out = forward(ds.tokens, geo, generic_params(TINY), TINY, train=False)
        assert out.y_hat.shape == (1, 3)
        assert np.all(np.isfinite(out.y_hat))

    def test_zero_gene_head_gives_zero_predictions(self):
        ds = tiny_dataset()
        geo = build_geometry(ds.coords, TINY)
        params = generic_params(TINY)
        params["gene.w"] = np.zeros_like(params["gene.w"])
        params["gene.b"] = np.zeros_like(params["gene.b"])
        out = forward(ds.tokens, geo, params, TINY, train=False)
        np.testing.assert_array_equal(out.y_hat, np.zeros((ds.n_spots, 3)))

    def test_translation_invariance(self):
        ds = tiny_dataset(seed=3, n=19)
        params = generic_params(TINY, seed=3)
        geo = build_geometry(ds.coords, TINY)
        base = forward(ds.tokens, geo, params, TINY, train=True)
        shift = np.array([12.34, -56.78])
        geo2 = build_geometry(ds.coords + shift, TINY)
        moved = forward(ds.tokens, geo2, params, TINY, train=True)
        np.testing.assert_allclose(moved.y_hat, base.y_hat, atol=1e-9)
        np.testing.assert_allclose(moved.y_dev_hat, base.y_dev_hat, atol=1e-9)

    def test_permutation_equivariance_with_pinned_anchor(self):
        ds = tiny_dataset(seed=4, n=19)
        params = generic_params(TINY, seed=4)
        rng = np.random.default_rng(0)
        perm = np.r_[0, 1 + rng.permutation(ds.n_spots - 1)]
        geo = build_geometry(ds.coords, TINY)
        base = forward(ds.tokens, geo, params, TINY, train=False)
        geo_p = build_geometry(ds.coords[perm], TINY)
        permuted = forward(ds.tokens[perm], geo_p, params, TINY, train=False)
        np.testing.assert_allclose(permuted.y_hat, base.y_hat[perm], atol=1e-9)

    def test_forward_deterministic(self):
        ds = tiny_dataset(seed=5)
        params = generic_params(TINY, seed=5)
        geo = build_geometry(ds.coords, TINY)
        a = forward(ds.tokens, geo, params, TINY, train=True)
        b = forward(ds.tokens, geo, params, TINY, train=True)
        np.testing.assert_array_equal(a.y_hat, b.y_hat)
        np.testing.assert_array_equal(a.y_dev_hat, b.y_dev_hat)

    @pytest.mark.parametrize("window,pe", [("hex", "rope2d"), ("square", "rope2d"),
                                           ("square", "hexrope")])
    def test_variant_configurations_run(self, window, pe):
        cfg = ModelConfig(in_dim=5, genes=3, dim=6, heads=1, stages=2, blocks=2,
                          radii=(1,), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = tiny_dataset(seed=6, n=19)
        geo = build_geometry(ds.coords, cfg)
        out = forward(ds.tokens, geo, generic_params(cfg, seed=6), cfg, train=True)
        assert np.all(np.isfinite(out.y_hat))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        ds = tiny_dataset(seed=7)
        params = generic_params(TINY, seed=7)
        geo = build_geometry(ds.coords, TINY)
        out = forward(ds.tokens, geo, params, TINY, train=True)
        grads = backward(out, geo, params, TINY,
                         d_y_hat=np.zeros_like(out.y_hat),
                         d_y_dev_hat=np.zeros_like(out.y_dev_hat),
                         d_t_hat=np.zeros_like(out.t_hat))
        for v in grads.values():
            np.testing.assert_array_equal(v, np.zeros_like(v))

    @pytest.mark.parametrize("exp_limit", [model.EXP_LIMIT, 0.0])
    def test_backward_is_repeatable(self, exp_limit, monkeypatch):
        # backward packs its windows anew from the cached token rows: a write
        # into a cached row, such as the -LSE column, would change the second call
        monkeypatch.setattr(model, "EXP_LIMIT", exp_limit)
        ds = tiny_dataset(seed=8, n=19)
        params = generic_params(TINY, seed=8)
        geo = build_geometry(ds.coords, TINY)
        out = forward(ds.tokens, geo, params, TINY, train=True)
        d_y = np.random.default_rng(4).normal(0, 1, out.y_hat.shape)
        first, second = (backward(out, geo, params, TINY, d_y_hat=d_y, d_y_dev_hat=-d_y,
                                  d_t_hat=out.t_hat) for _ in range(2))
        for k in params:
            np.testing.assert_array_equal(second[k], first[k], err_msg=k)

    MEMORY_CFG = ModelConfig(in_dim=5, genes=3, dim=16, heads=2, stages=4, blocks=3,
                             radii=(1, 2, 4), out_dim=4, t_dim=3)

    def memory_run(self):
        """(dataset, geometry, params, training forward) on a ~318-spot slide."""
        cfg = self.MEMORY_CFG
        ds = generate(SynthConfig(radius=10, jitter=0.05, dropout=0.05, seed=3, token_dim=5,
                                  transcriptomic_dim=3, patterns=("boundary", "noise")))
        assert 290 <= ds.n_spots <= 331
        params = generic_params(cfg, seed=3)
        geo = build_geometry(ds.coords, cfg)
        return ds, geo, params, forward(ds.tokens, geo, params, cfg, train=True)

    def test_block_cache_footprint(self):
        # per spot: two layer norms' xhat and inv, the context and -LSE per
        # head, and the FFN's CDF. Backward rebuilds the rest from these: the
        # norm outputs a and f and the FFN's u with one affine map, q, k and v
        # with their projections and rotations, and no padded window is kept
        cfg = self.MEMORY_CFG
        ds, _, params, out = self.memory_run()
        bound = ds.n_spots * (3 * cfg.dim + cfg.ffn_hidden + cfg.heads + 2) * 8
        for cache in out.caches[-1]:
            owners = {}
            for arr in cached_arrays(cache):
                if not shares_params(arr, params):
                    while arr.base is not None:     # the buffer a view keeps alive
                        arr = arr.base
                    owners[id(arr)] = arr.nbytes
            assert sum(owners.values()) <= bound

    def test_backward_peak_memory(self):
        # above what it is given, backward holds the gradients, the two score
        # tiles ("p" and "dp") and one block's rebuilt activations and
        # windows: ~502 floats per spot on this slide, bounded at 560 (~12%
        # up). Keeping the windows alive through the q/k/v projection
        # gradients read ~586, and the FFN temporaries through the
        # attention backward ~874
        cfg = self.MEMORY_CFG
        ds, geo, params, out = self.memory_run()
        d_y = np.random.default_rng(4).normal(0, 1, out.y_hat.shape)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            backward(out, geo, params, cfg, d_y_hat=d_y, d_y_dev_hat=-d_y, d_t_hat=out.t_hat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grad_bytes = sum(v.nbytes for v in params.values())
        bound = grad_bytes + 2 * model.TILE_CELLS * 8 + ds.n_spots * 560 * 8
        assert peak - entry <= bound

    def test_upstream_linearity(self):
        ds = tiny_dataset(seed=8)
        params = generic_params(TINY, seed=8)
        geo = build_geometry(ds.coords, TINY)
        out = forward(ds.tokens, geo, params, TINY, train=True)
        rng = np.random.default_rng(1)
        d_y = rng.normal(0, 1, out.y_hat.shape)
        g1 = backward(out, geo, params, TINY, d_y_hat=d_y)
        g2 = backward(out, geo, params, TINY, d_y_hat=2.0 * d_y)
        for k in g1:
            np.testing.assert_allclose(g2[k], 2.0 * g1[k], atol=1e-12)

    @pytest.mark.parametrize("cfg", [
        *(pytest.param(dataclasses.replace(TINY, window=window, pe=pe), id=f"{window}-{pe}")
          for window, pe in (("hex", "hexrope"), ("hex", "rope2d"), ("square", "rope2d"))),
        pytest.param(dataclasses.replace(TINY, t_dim=0), id="no-alignment-head")])
    def test_full_gradient_vs_finite_differences(self, cfg):
        # shifted blocks included (blocks=3 cycles all three deltas)
        ds = tiny_dataset(seed=9, n=12)
        params = generic_params(cfg, seed=9)
        assert worst_gradient_error(cfg, ds, params) < 1e-4

    @pytest.mark.parametrize("pe", ["hexrope", "rope2d"])
    def test_odd_head_dim_vs_finite_differences(self, pe):
        # head dim 9: rope turns a prefix of 6 (hexrope) or 8 (rope2d)
        # channels and passes the rest through
        cfg = ModelConfig(in_dim=5, genes=3, dim=9, heads=1, stages=2, blocks=1,
                          radii=(1,), out_dim=4, t_dim=3, pe=pe)
        assert cfg.head_dim == 9
        ds = tiny_dataset(seed=10, n=12)
        params = generic_params(cfg, seed=10)
        assert worst_gradient_error(cfg, ds, params) < 1e-4

    @settings(max_examples=6)
    @given(heads=st.integers(1, 2), extra_dim=st.integers(0, 1),
           radii=st.lists(st.integers(1, 2), min_size=1, max_size=2),
           blocks=st.integers(1, 2), window=st.sampled_from(["hex", "square"]),
           pe=st.sampled_from(["hexrope", "rope2d"]), t_dim=st.sampled_from([0, 3]),
           exp_limit=st.sampled_from([model.EXP_LIMIT, 0.0]), seed=st.integers(0, 3))
    def test_random_config_vs_finite_differences(self, heads, extra_dim, radii, blocks,
                                                 window, pe, t_dim, exp_limit, seed):
        # several heads and windowed stages, odd head dims, with and without
        # the alignment head, and both the plain and the row-max-shifted exp
        head_dim = (6 if pe == "hexrope" else 4) + extra_dim
        cfg = ModelConfig(in_dim=5, genes=3, dim=heads * head_dim, heads=heads,
                          stages=len(radii) + 1, blocks=blocks, radii=tuple(radii),
                          out_dim=4, t_dim=t_dim, window=window, pe=pe)
        # differencing costs about parameters x blocks forward-block passes;
        # this bound keeps every example under ~10 s
        n_params = sum(math.prod(shape) for _, shape in model.param_layout(cfg))
        assume(n_params * cfg.stages * cfg.blocks <= 20_000)
        ds = tiny_dataset(seed=seed, n=12)
        with mock.patch.object(model, "EXP_LIMIT", exp_limit):
            assert worst_gradient_error(cfg, ds, generic_params(cfg, seed=seed)) < 1e-4


class TestCompactPacking:
    @staticmethod
    def padded_geometry(geo):
        """The same geometry with every window packed to its full slot set."""
        def full(part, pack):
            if part is None:
                return pack
            return _Packing(part.window_of_spot, part.slot_of_spot, part.occupancy)
        return dataclasses.replace(geo, packings=[
            [full(part, pack) for part, pack in zip(parts, packs)]
            for parts, packs in zip(geo.partitions, geo.packings)])

    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d"),
                                           ("square", "hexrope")])
    def test_matches_padded_layout(self, window, pe):
        cfg = ModelConfig(in_dim=5, genes=3, dim=12, heads=2, stages=4, blocks=3,
                          radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=12,
                                  token_dim=5, transcriptomic_dim=3,
                                  patterns=("boundary", "gradient", "noise")))
        params = generic_params(cfg, seed=12)
        geo = build_geometry(ds.coords, cfg)
        padded = self.padded_geometry(geo)
        narrower = False
        for parts, packs in zip(geo.partitions[:-1], geo.packings[:-1]):
            for part, pack in zip(parts, packs):
                occ = part.occupancy.sum(axis=1)
                assert pack.occ.shape == (part.n_windows, occ.max())
                np.testing.assert_array_equal(pack.occ.sum(axis=1), occ)
                order = np.lexsort((part.slot_of_spot, part.window_of_spot))
                np.testing.assert_array_equal(
                    pack.slot[order], np.concatenate([np.arange(c) for c in occ]))
                narrower |= occ.max() < part.n_slots
        assert narrower

        rng = np.random.default_rng(3)
        d_y = rng.normal(0, 1, (ds.n_spots, 3))
        d_dev = rng.normal(0, 1, (ds.n_spots, 3))
        d_t = rng.normal(0, 1, (ds.n_spots, 3))
        results = []
        for g in (geo, padded):
            out = forward(ds.tokens, g, params, cfg, train=True)
            grads = backward(out, g, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                             d_t_hat=d_t)
            results.append((out, grads))
        (out, grads), (ref, ref_grads) = results
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)


@pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                       ("square", "rope2d"), ("square", "hexrope")])
def test_slide_rotation_matches_window_relative_offsets(window, pe):
    """Rotating by each spot's slide position gives every windowed block the
    attention that rotating by its offset from the window center gives:
    RoPE scores depend only on position differences within a window."""
    cfg = ModelConfig(in_dim=5, genes=3, dim=16, heads=2, stages=4, blocks=3,
                      radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
    ds = generate(SynthConfig(radius=10, jitter=0.05, dropout=0.05, seed=3, token_dim=5,
                              transcriptomic_dim=3, patterns=("boundary", "noise")))
    assert 290 <= ds.n_spots <= 331
    scale, cells = scale_and_cells(ds.coords)
    geo = build_geometry(ds.coords, cfg)
    params = generic_params(cfg, seed=3)
    rng = np.random.default_rng(5)
    a = rng.normal(0, 1, (ds.n_spots, cfg.dim))
    d_ctx = rng.normal(0, 1, (ds.n_spots, cfg.heads, cfg.head_dim))

    def attend(pack, rot, prefix):
        # the context, -LSE and the gradients of the unrotated q, k and v
        q, k, v = model._qkv(a, rot, params, prefix, cfg)
        ctx, neg_lse = model._attend(q, k, v, pack, model._Workspace())
        d_q, d_k, d_v = model._attend_vjp(d_ctx, ctx, model._windows(q, k, v, neg_lse, pack),
                                          pack, model._Workspace())
        return [ctx, neg_lse, rotate(d_q, rot, inverse=True), rotate(d_k, rot, inverse=True), d_v]

    prefixes = iter(model._block_prefixes(cfg))
    for parts, packs in zip(geo.partitions[:-1], geo.packings[:-1]):
        for part, pack in zip(parts, packs):
            win = part.window_of_spot
            off = (axial_to_cube(cells - part.center_cells[win]) if pe == "hexrope"
                   else (ds.coords - part.centers[win]) / scale.d_med)
            prefix = next(prefixes)
            for got, want in zip(attend(pack, geo.rot, prefix),
                                 attend(pack, rotations(off, cfg.head_dim)[:, None], prefix)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), prefix


class TestQueryTiles:
    TILE = 200      # score cells: every stage below splits into >= 3 tiles per pass

    @staticmethod
    def tile_count(pack, heads):
        """Tiles of one packing at the current budget, in forward and backward."""
        m, s = pack.occ.shape
        return len(model._tiles(m, s, heads))

    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d"),
                                           ("square", "hexrope")])
    def test_tiled_matches_one_tile(self, window, pe, monkeypatch):
        cfg = ModelConfig(in_dim=5, genes=3, dim=12, heads=2, stages=4, blocks=3,
                          radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=13,
                                  token_dim=5, transcriptomic_dim=3,
                                  patterns=("boundary", "gradient", "noise")))
        params = generic_params(cfg, seed=13)
        geo = build_geometry(ds.coords, cfg)
        rng = np.random.default_rng(4)
        d_y = rng.normal(0, 1, (ds.n_spots, 3))
        d_dev = rng.normal(0, 1, (ds.n_spots, 3))
        d_t = rng.normal(0, 1, (ds.n_spots, 3))
        # every score tile is a workspace buffer ("p" weights, "dp" their
        # gradient); scores this small never take the shifted pre-pass, so
        # forward and backward each build every tile's weights once
        views = spy_workspace(monkeypatch)
        scored = spy_tile_scores(monkeypatch)
        packs = [pack for row in geo.packings for pack in row]
        results = []
        for tile in (self.TILE, 1 << 40):
            monkeypatch.setattr(model, "TILE_CELLS", tile)
            counts = [self.tile_count(pack, cfg.heads) for pack in packs]
            assert min(counts) >= 3 if tile == self.TILE else max(counts) == 1
            if tile == self.TILE:
                # the global window is cut along its keys as well
                m, s = packs[-1].occ.shape
                assert model._tiles(m, s, cfg.heads)[0][2].stop < s
            views.clear()
            scored.clear()
            out = forward(ds.tokens, geo, params, cfg, train=True)
            fwd_views = list(views)
            assert len(scored) == sum(counts)
            views.clear()
            grads = backward(out, geo, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                             d_t_hat=d_t)
            assert len(scored) == 2 * sum(counts)
            for calls, names in ((fwd_views, {"p"}), (views, {"p", "dp"})):
                cells = [size for name, size in calls if name in ("p", "dp")]
                assert {name for name, _ in calls} - {"dh", "c"} == names
                assert max(cells) <= tile
            # token rows and parameters only: no score, weight or padded
            # (M, H, S', .) window tensor is kept
            assert len(out.caches[-1]) == len(packs)
            for arr in cached_arrays(out.caches[-1]):
                assert len(arr) == ds.n_spots or shares_params(arr, params), arr.shape
            results.append((out, grads))
        (out, grads), (ref, ref_grads) = results
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)

    def test_budget_below_one_global_row(self, monkeypatch):
        # one global query row alone (heads x N scores) overshoots this
        # budget; every score buffer of forward and backward still fits
        cfg = dataclasses.replace(TINY, dim=12, heads=2)
        ds = tiny_dataset(seed=16, n=37)
        params = generic_params(cfg, seed=16)
        geo = build_geometry(ds.coords, cfg)
        ref, ref_grads = forward_and_grads(cfg, ds, geo, params)
        tile = cfg.heads * ds.n_spots // 3
        monkeypatch.setattr(model, "TILE_CELLS", tile)
        views = spy_workspace(monkeypatch)
        out, grads = forward_and_grads(cfg, ds, geo, params)
        cells = [size for name, size in views if name in ("p", "dp")]
        assert cells and max(cells) <= tile
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)

    @settings(max_examples=300)
    @given(m=st.integers(1, 6), s=st.integers(1, 40), heads=st.integers(1, 4),
           budget=st.integers(1, 3000))
    def test_tiles_cover_every_cell_once(self, m, s, heads, budget):
        with mock.patch.object(model, "TILE_CELLS", budget):
            tiles = model._tiles(m, s, heads)
        hits = np.zeros((m, s, s), dtype=np.int64)
        cells = []
        for ws, rs, ks in tiles:
            hits[ws, rs, ks] += 1
            cells.append(heads * hits[ws, rs, ks].size)
        np.testing.assert_array_equal(hits, 1)
        assert cells[0] == max(cells)
        if budget >= heads:
            assert max(cells) <= budget

    def test_one_cell_tiles_match_one_tile(self, monkeypatch):
        # the slide, config and point TestBackward certifies against central
        # differences (hex-hexrope): tiles of one query row by one key give the
        # one-tile pass to 1e-12, so they inherit that certificate
        ds = tiny_dataset(seed=9, n=12)
        params = generic_params(TINY, seed=9)
        geo = build_geometry(ds.coords, TINY)
        monkeypatch.setattr(model, "TILE_CELLS", 1 << 40)
        ref, ref_grads = forward_and_grads(TINY, ds, geo, params)
        monkeypatch.setattr(model, "TILE_CELLS", 1)
        for row in geo.packings:
            for pack in row:
                m, s = pack.occ.shape
                first = model._tiles(m, s, TINY.heads)[0]
                assert [sl.stop for sl in first] == [1, 1, 1]
                assert self.tile_count(pack, TINY.heads) >= 3
        out, grads = forward_and_grads(TINY, ds, geo, params)
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)


def split_over_threads(monkeypatch, on: bool):
    """Split every job of two or more rows over two threads (on), or none."""
    monkeypatch.setattr(numerics, "SPLIT_ROWS", 2 if on else 1 << 62)


def tile_threads(monkeypatch):
    """The names of the threads that build score tiles."""
    names = set()
    real = model._tile_scores

    def spy(*args):
        names.add(threading.current_thread().name)
        return real(*args)
    monkeypatch.setattr(model, "_tile_scores", spy)
    return names


def count_pairs(monkeypatch):
    """A list that gains one entry per job handed to the worker thread."""
    calls = []
    real = numerics._run_pair

    def spy(here, there):
        calls.append(1)
        return real(here, there)
    monkeypatch.setattr(numerics, "_run_pair", spy)
    monkeypatch.setattr(model, "_run_pair", spy)
    return calls


@pytest.fixture()
def interleaved():
    """Switch threads every microsecond, so two parts interleave even on tiny tiles."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


@pytest.mark.usefixtures("interleaved")
class TestTwoThreads:
    """A cut window's tiles, split over this thread and the worker, give the
    serial bits: forward by query-row blocks, backward by key blocks."""

    @pytest.mark.parametrize("exp_limit", [model.EXP_LIMIT, 0.0])
    @pytest.mark.parametrize("win", [np.zeros(30, dtype=np.int64), np.arange(30) % 4],
                             ids=["global", "four-windows"])
    def test_attend_and_vjp_match_serial(self, exp_limit, win, monkeypatch):
        # 8 score cells and 2 heads cut every window into 2 x 2 (query x key) tiles
        monkeypatch.setattr(model, "EXP_LIMIT", exp_limit)
        monkeypatch.setattr(model, "TILE_CELLS", 8)
        threads = tile_threads(monkeypatch)
        rng = np.random.default_rng(11)
        q, k, v, d_ctx = (rng.normal(0, 1, (30, 2, 3)) for _ in range(4))
        pack = model._compact_packing(win, np.arange(30), int(win.max()) + 1)
        results = []
        for on in (False, True):
            split_over_threads(monkeypatch, on)
            threads.clear()
            ctx, neg_lse = model._attend(q, k, v, pack, model._Workspace())
            grads = model._attend_vjp(d_ctx, ctx, model._windows(q, k, v, neg_lse, pack), pack,
                                      model._Workspace())
            assert len(threads) == 1 + on
            results.append((ctx, neg_lse, *grads))
        for serial, split in zip(*results):
            np.testing.assert_array_equal(split, serial)

    @pytest.mark.parametrize("exp_limit", [model.EXP_LIMIT, 0.0])
    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d")])
    def test_loss_and_grads_match_serial(self, window, pe, exp_limit, monkeypatch):
        cfg = ModelConfig(in_dim=5, genes=3, dim=12, heads=2, stages=4, blocks=3,
                          radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=13,
                                  token_dim=5, transcriptomic_dim=3,
                                  patterns=("boundary", "gradient", "noise")))
        params = generic_params(cfg, seed=13)
        geo = build_geometry(ds.coords, cfg)
        monkeypatch.setattr(model, "EXP_LIMIT", exp_limit)
        monkeypatch.setattr(model, "TILE_CELLS", 64)
        monkeypatch.setattr(numerics, "ERF_BLOCK", 64)   # GELU's (N, 48) splits too
        pairs = count_pairs(monkeypatch)
        results = []
        for on in (False, True):
            split_over_threads(monkeypatch, on)
            pairs.clear()
            results.append(trainer._loss_and_grads(ds, np.arange(ds.n_spots), geo, params, cfg,
                                                   trainer.LossWeights()))
            assert bool(pairs) == on
        (report, grads, y_hat), (report2, grads2, y_hat2) = results
        assert report2 == report
        np.testing.assert_array_equal(y_hat2, y_hat)
        for name in params:
            np.testing.assert_array_equal(grads2[name], grads[name], err_msg=name)

    @pytest.mark.parametrize("where", ["MainThread", "hexwin"])
    def test_tile_error_on_either_thread_is_raised_here(self, where, monkeypatch):
        # backward's second thread waits for the first: an error on either
        # one ends the call, and the next call runs as before
        monkeypatch.setattr(model, "TILE_CELLS", 8)
        split_over_threads(monkeypatch, True)
        rng = np.random.default_rng(12)
        q, k, v, d_ctx = (rng.normal(0, 1, (30, 2, 3)) for _ in range(4))
        pack = model._compact_packing(np.zeros(30, dtype=np.int64), np.arange(30), 1)
        ctx, neg_lse = model._attend(q, k, v, pack, model._Workspace())

        def vjp():
            return model._attend_vjp(d_ctx, ctx, model._windows(q, k, v, neg_lse, pack), pack,
                                     model._Workspace())
        want = vjp()
        real = model._tile_scores

        def failing(*args):
            if threading.current_thread().name.startswith(where):
                raise KeyError(where)
            return real(*args)
        monkeypatch.setattr(model, "_tile_scores", failing)
        with pytest.raises(KeyError, match=where):
            vjp()
        monkeypatch.setattr(model, "_tile_scores", real)
        for got, serial in zip(vjp(), want):
            np.testing.assert_array_equal(got, serial)

    def test_one_cpu_runs_serially(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        split_over_threads(monkeypatch, True)
        monkeypatch.setattr(model, "TILE_CELLS", 8)
        monkeypatch.setattr(numerics, "ERF_BLOCK", 16)
        pairs = count_pairs(monkeypatch)
        ds = tiny_dataset(seed=9, n=19)
        geo = build_geometry(ds.coords, TINY)
        forward_and_grads(TINY, ds, geo, generic_params(TINY, seed=9))
        assert pairs == []


class TestExpBound:
    """Blocks whose score bound exceeds EXP_LIMIT take the row-max shift."""

    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d"),
                                           ("square", "hexrope")])
    def test_fallback_matches_fast_path(self, window, pe, monkeypatch):
        cfg = ModelConfig(in_dim=5, genes=3, dim=12, heads=2, stages=4, blocks=3,
                          radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=14,
                                  token_dim=5, transcriptomic_dim=3,
                                  patterns=("boundary", "gradient", "noise")))
        params = generic_params(cfg, seed=14)
        geo = build_geometry(ds.coords, cfg)
        n_tiles = sum(len(model._tiles(*pack.occ.shape, cfg.heads))
                      for row in geo.packings for pack in row)
        scored = spy_tile_scores(monkeypatch)
        out, grads = forward_and_grads(cfg, ds, geo, params)
        assert len(scored) == 2 * n_tiles        # forward and backward
        scored.clear()
        monkeypatch.setattr(model, "EXP_LIMIT", 0.0)
        ref, ref_grads = forward_and_grads(cfg, ds, geo, params)
        assert len(scored) == 3 * n_tiles        # and the forward's max pre-pass
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)

    def test_fallback_gradient_vs_finite_differences(self, monkeypatch):
        monkeypatch.setattr(model, "EXP_LIMIT", 0.0)
        ds = tiny_dataset(seed=9, n=12)
        assert worst_gradient_error(TINY, ds, generic_params(TINY, seed=9)) < 1e-4

    def test_large_scores_stay_finite(self, monkeypatch):
        ds = tiny_dataset(seed=15, n=19)
        geo = build_geometry(ds.coords, TINY)
        params = generic_params(TINY, seed=15)
        for name in params:
            if ".attn.q." in name or ".attn.k." in name:
                params[name] = params[name] * 60.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out, grads = forward_and_grads(TINY, ds, geo, params)
        for value in (out.z, out.y_hat, out.y_dev_hat, *grads.values()):
            assert np.all(np.isfinite(value))
        # exp without the row-max shift would overflow on these scores
        monkeypatch.setattr(model, "EXP_LIMIT", np.inf)
        with pytest.warns(RuntimeWarning):
            forward(ds.tokens, geo, params, TINY, train=True)
        monkeypatch.setattr(model, "EXP_LIMIT", 0.0)
        ref, ref_grads = forward_and_grads(TINY, ds, geo, params)
        for name in ("z", "y_hat", "y_dev_hat", "t_hat"):
            np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))
        for k in params:
            np.testing.assert_array_equal(grads[k], ref_grads[k], err_msg=k)


class TestEvalMode:
    def test_eval_forward_keeps_no_caches(self):
        ds = tiny_dataset(seed=10)
        params = generic_params(TINY, seed=10)
        geo = build_geometry(ds.coords, TINY)
        out = forward(ds.tokens, geo, params, TINY, train=False)
        assert out.caches == () and out.y_dev_hat is None and out.t_hat is None
        train_out = forward(ds.tokens, geo, params, TINY, train=True)
        np.testing.assert_array_equal(out.y_hat, train_out.y_hat)
        np.testing.assert_array_equal(out.z, train_out.z)
        with pytest.raises(InputError) as info:
            backward(out, geo, params, TINY, d_y_hat=np.ones_like(out.y_hat))
        assert "\n" not in str(info.value)

    def test_backward_rejects_empty_caches(self):
        ds = tiny_dataset(seed=10)
        geo = build_geometry(ds.coords, TINY)
        y = np.zeros((ds.n_spots, TINY.genes))
        out = ForwardOutput(z=np.zeros((ds.n_spots, TINY.out_dim)), y_hat=y, y_dev_hat=y)
        with pytest.raises(InputError) as info:
            backward(out, geo, generic_params(TINY), TINY, d_y_hat=y, d_y_dev_hat=y)
        assert "\n" not in str(info.value)


class TestCheckpoint:
    def test_round_trip_exact_and_byte_stable(self, tmp_path):
        params = generic_params(TINY, seed=11)
        path = str(tmp_path / "ckpt.bin")
        save_checkpoint(path, params, TINY)
        loaded, cfg = load_checkpoint(path)
        assert cfg == TINY
        assert list(loaded) == list(params)
        for k in params:
            np.testing.assert_array_equal(loaded[k], params[k])
        path2 = str(tmp_path / "again.bin")
        save_checkpoint(path2, loaded, cfg)
        assert (tmp_path / "ckpt.bin").read_bytes() == \
            (tmp_path / "again.bin").read_bytes()

    def test_rejects_non_checkpoint(self, tmp_path):
        bogus = tmp_path / "x.bin"
        bogus.write_bytes(b"not a checkpoint")
        with pytest.raises(InputError):
            load_checkpoint(str(bogus))

    @pytest.mark.parametrize("edit", [
        lambda head, body: (b"", b""),                          # no length line
        lambda head, body: (b"12x\n" + head, body),             # non-integer length
        lambda head, body: (b"%d\n" % len(head), b"#" + head[1:] + body),
        lambda head, body: (b"2\n{}", body),                    # missing keys
        lambda head, body: (b"%d\n" % len(head) + head, body[:-1]),
        lambda head, body: (b"%d\n" % len(head) + head, body + b"\0"),
    ], ids=["no-newline", "bad-length", "bad-json", "missing-keys", "truncated",
            "trailing-byte"])
    def test_rejects_malformed(self, tmp_path, edit):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(str(path), generic_params(TINY), TINY)
        magic, rest = path.read_bytes().split(b"\n", 1)
        length, rest = rest.split(b"\n", 1)
        head, body = rest[:int(length)], rest[int(length):]
        prefix, tail = edit(head, body)
        path.write_bytes(magic + b"\n" + prefix + tail)
        with pytest.raises(InputError) as info:
            load_checkpoint(str(path))
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("field", [dict(dim=0), dict(heads=0), dict(stages=0, radii=()),
                                   dict(blocks=0), dict(radii=(1, 0, 4)),
                                   dict(window="square", radii=(2, 0, 8)),
                                   dict(in_dim=0), dict(genes=0), dict(out_dim=0),
                                   dict(t_dim=-1), dict(radii=(1, 2)), dict(dim=30),
                                   dict(window="triangle"), dict(pe="sinusoidal"),
                                   dict(dim=16), dict(dim=12, pe="rope2d")])
def test_config_rejects_zero_sizes(field):
    """Non-positive sizes, and the shapes and names the model cannot build."""
    with pytest.raises(InputError):
        ModelConfig(**{"in_dim": 5, "genes": 3, **field})


@pytest.mark.parametrize("cfg", [TINY, ModelConfig(in_dim=7, genes=5, t_dim=0),
                                 ModelConfig(in_dim=3, genes=2, dim=12, heads=3, stages=1,
                                             radii=(), window="square", pe="rope2d")])
def test_parameter_budget_counts_the_layout(cfg):
    n = sum(math.prod(shape) for _, shape in model.param_layout(cfg))
    with mock.patch.object(model, "MAX_PARAMS", n):
        dataclasses.replace(cfg)
    with mock.patch.object(model, "MAX_PARAMS", n - 1), pytest.raises(
            InputError, match=f"model has {n} parameters, over the budget of {n - 1}$"):
        dataclasses.replace(cfg)


def test_vector_round_trip():
    params = init_params(TINY, 0)
    vec = params_to_vector(params)
    back = param_views(vec, params)
    for k in params:
        np.testing.assert_array_equal(back[k], params[k])
    assert vec.size == sum(v.size for v in params.values())


def test_geometry_small_n_fallbacks():
    cfg = TINY
    one = np.array([[1.0, 2.0]])
    build_geometry(one, cfg)
    assert scale_and_cells(one)[0].d_med == 1.0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
    build_geometry(pts, cfg)
    assert scale_and_cells(pts)[0].d_med > 0
