import dataclasses

import numpy as np
import pytest

from hexwin.errors import InputError
from hexwin.model import (ModelConfig, _Packing, backward, build_geometry,
                          forward, hexmsa_block, init_params, load_checkpoint,
                          params_to_vector, save_checkpoint, vector_to_params,
                          window_attention, zeros_like_params)
from hexwin.numerics import finite_diff_grad, relative_error
from hexwin.rope import axial_to_cube
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


class TestWindowAttention:
    def test_single_occupied_slot_returns_value_projection(self):
        params = generic_params(TINY)
        rng = np.random.default_rng(3)
        h = rng.normal(0, 1, (7, 6))
        occ = np.zeros(7, dtype=bool)
        occ[2] = True
        offsets = axial_to_cube(np.zeros((7, 2))).astype(float)
        ctx, attn = window_attention(h, occ, offsets, params, "s0b0", TINY)
        value = h[2] @ params["s0b0.attn.v.w"] + params["s0b0.attn.v.b"]
        np.testing.assert_allclose(ctx[2], value, atol=1e-12)
        np.testing.assert_allclose(ctx[occ == False], 0.0, atol=0)

    def test_identical_keys_average_values(self):
        params = generic_params(TINY)
        params["s0b0.attn.k.w"] = np.zeros_like(params["s0b0.attn.k.w"])
        rng = np.random.default_rng(4)
        h = rng.normal(0, 1, (7, 6))
        occ = np.zeros(7, dtype=bool)
        occ[1] = occ[5] = True
        offsets = np.zeros((7, 3))
        ctx, attn = window_attention(h, occ, offsets, params, "s0b0", TINY)
        values = h @ params["s0b0.attn.v.w"] + params["s0b0.attn.v.b"]
        mean = 0.5 * (values[1] + values[5])
        np.testing.assert_allclose(ctx[1], mean, atol=1e-12)
        np.testing.assert_allclose(ctx[5], mean, atol=1e-12)

    def test_slot_permutation_equivariance(self):
        params = generic_params(TINY)
        rng = np.random.default_rng(5)
        s = 7
        h = rng.normal(0, 1, (s, 6))
        occ = rng.random(s) < 0.7
        occ[0] = True
        offsets = axial_to_cube(rng.integers(-1, 2, (s, 2))).astype(float)
        ctx, _ = window_attention(h, occ, offsets, params, "s0b0", TINY)
        perm = rng.permutation(s)
        ctx_p, _ = window_attention(h[perm], occ[perm], offsets[perm], params,
                                    "s0b0", TINY)
        np.testing.assert_allclose(ctx_p, ctx[perm], atol=1e-12)

    def test_attention_rows_sum_to_one_over_occupied(self):
        params = generic_params(TINY)
        rng = np.random.default_rng(6)
        h = rng.normal(0, 1, (7, 6))
        occ = np.array([True, False, True, True, False, False, True])
        offsets = np.zeros((7, 3))
        _, attn = window_attention(h, occ, offsets, params, "s0b0", TINY)
        np.testing.assert_allclose(attn[:, occ, :].sum(-1), 1.0, atol=1e-12)
        assert np.all(attn[:, :, ~occ] == 0.0)

    def test_sentinel_values_in_empty_slots_do_not_leak(self):
        params = generic_params(TINY)
        rng = np.random.default_rng(7)
        h = rng.normal(0, 1, (7, 6))
        occ = np.array([True, True, False, True, False, False, False])
        offsets = axial_to_cube(rng.integers(-1, 2, (7, 2))).astype(float)
        ctx, _ = window_attention(h, occ, offsets, params, "s0b0", TINY)
        poisoned = h.copy()
        poisoned[~occ] = 1e6
        ctx_p, _ = window_attention(poisoned, occ, offsets, params, "s0b0", TINY)
        np.testing.assert_allclose(ctx_p[occ], ctx[occ], atol=1e-9)
        np.testing.assert_allclose(ctx_p[~occ], 0.0, atol=0)

    def test_hexmsa_block_zeroes_unoccupied(self):
        params = generic_params(TINY)
        rng = np.random.default_rng(8)
        h = rng.normal(0, 1, (7, 6))
        occ = np.array([True, False, True, False, True, False, True])
        offsets = np.zeros((7, 3))
        out = hexmsa_block(h, occ, offsets, params, "s0b0", TINY)
        assert out.shape == (7, 6)
        np.testing.assert_allclose(out[~occ], 0.0, atol=0)
        assert np.all(np.isfinite(out))


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
                         d_z_extra=np.zeros_like(out.z))
        for v in grads.values():
            np.testing.assert_array_equal(v, np.zeros_like(v))

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

    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d")])
    def test_full_gradient_vs_finite_differences(self, window, pe):
        # shifted blocks included (blocks=3 cycles all three deltas)
        cfg = ModelConfig(in_dim=5, genes=3, dim=6, heads=1, stages=2, blocks=3,
                          radii=(1,), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = tiny_dataset(seed=9, n=12)
        params = generic_params(cfg, seed=9)
        geo = build_geometry(ds.coords, cfg)
        rng = np.random.default_rng(2)
        d_y = rng.normal(0, 1, (ds.n_spots, 3))
        d_dev = rng.normal(0, 1, (ds.n_spots, 3))
        d_z = rng.normal(0, 1, (ds.n_spots, 4))

        out = forward(ds.tokens, geo, params, cfg, train=True)
        grads = backward(out, geo, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                         d_z_extra=d_z)

        def scalar(vec):
            p = vector_to_params(vec, params)
            o = forward(ds.tokens, geo, p, cfg, train=True)
            return float(np.sum(o.y_hat * d_y) + np.sum(o.y_dev_hat * d_dev)
                         + np.sum(o.z * d_z))

        fd = vector_to_params(finite_diff_grad(scalar, params_to_vector(params)),
                              params)
        worst = max(relative_error(grads[k], fd[k]) for k in params)
        assert worst < 1e-4


class TestCompactPacking:
    @staticmethod
    def padded_geometry(geo, cfg):
        """The same geometry with every window packed to its full slot set."""
        def full(part, pack):
            if part is None:
                return pack
            off = (axial_to_cube(part.cell_offsets).astype(float)
                   if cfg.pe == "hexrope" else part.cart_offsets)
            return _Packing(win=part.window_of_spot, slot=part.slot_of_spot,
                            occ=part.occupancy, off=off)
        return dataclasses.replace(geo, packings=[
            [full(part, pack) for part, pack in zip(parts, packs)]
            for parts, packs in zip(geo.partitions, geo.packings)])

    @pytest.mark.parametrize("window,pe", [("hex", "hexrope"), ("hex", "rope2d"),
                                           ("square", "rope2d"),
                                           ("square", "hexrope")])
    def test_matches_padded_layout(self, window, pe):
        cfg = ModelConfig(in_dim=5, genes=3, dim=8, heads=2, stages=4, blocks=3,
                          radii=(1, 2, 4), out_dim=4, t_dim=3, window=window, pe=pe)
        ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=12,
                                  token_dim=5, transcriptomic_dim=3,
                                  patterns=("boundary", "gradient", "noise")))
        params = generic_params(cfg, seed=12)
        geo = build_geometry(ds.coords, cfg)
        padded = self.padded_geometry(geo, cfg)
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
        d_z = rng.normal(0, 1, (ds.n_spots, 4))
        results = []
        for g in (geo, padded):
            out = forward(ds.tokens, g, params, cfg, train=True)
            grads = backward(out, g, params, cfg, d_y_hat=d_y, d_y_dev_hat=d_dev,
                             d_z_extra=d_z)
            results.append((out, grads))
        (out, grads), (ref, ref_grads) = results
        for name in ("z", "y_hat", "y_dev_hat"):
            np.testing.assert_allclose(getattr(out, name), getattr(ref, name),
                                       rtol=1e-12, atol=1e-12)
        for k in params:
            np.testing.assert_allclose(grads[k], ref_grads[k], rtol=1e-12,
                                       atol=1e-12, err_msg=k)


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
                                   dict(window="square", square_sides=(2, 0, 8))])
def test_config_rejects_zero_sizes(field):
    with pytest.raises(InputError):
        ModelConfig(in_dim=5, genes=3, **field)


def test_vector_round_trip():
    params = init_params(TINY, 0)
    vec = params_to_vector(params)
    back = vector_to_params(vec, params)
    for k in params:
        np.testing.assert_array_equal(back[k], params[k])
    assert vec.size == sum(v.size for v in params.values())


def test_zeros_like_params_matches_shapes():
    params = init_params(TINY, 0)
    zeros = zeros_like_params(params)
    assert all(zeros[k].shape == params[k].shape for k in params)
    assert all(np.all(zeros[k] == 0) for k in params)


def test_geometry_small_n_fallbacks():
    cfg = TINY
    geo1 = build_geometry(np.array([[1.0, 2.0]]), cfg)
    assert geo1.scale.d_med == 1.0
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]])
    geo3 = build_geometry(pts, cfg)
    assert geo3.scale.d_med > 0
