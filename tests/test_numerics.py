import numpy as np
import pytest
from scipy.special import erf, logsumexp

from hexwin.errors import NumericError, ShapeError
from hexwin.numerics import (finite_diff_grad, gelu, gelu_vjp,
                             layer_norm_fwd, layer_norm_vjp, masked_softmax,
                             masked_softmax_vjp, relative_error)


class TestMaskedSoftmax:
    def test_uniform_symmetry(self):
        out = masked_softmax(np.zeros(3), np.ones(3, dtype=bool))
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_single_valid_entry(self):
        out = masked_softmax(np.array([5.0, -100.0]), np.array([True, False]))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=0)

    def test_hand_evaluated(self):
        # exp(ln 2) = 2, exp(0) = 1 -> 2/3, 1/3
        out = masked_softmax(np.array([np.log(2.0), 0.0]), np.ones(2, dtype=bool))
        np.testing.assert_allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_fully_invalid_slice_returns_zeros(self):
        out = masked_softmax(np.array([[1.0, 2.0], [3.0, 4.0]]),
                             np.array([[True, True], [False, False]]))
        np.testing.assert_allclose(out[1], [0.0, 0.0], atol=0)
        np.testing.assert_allclose(out[0].sum(), 1.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_valid_weights_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 5, (4, 9))
        valid = rng.random((4, 9)) < 0.6
        valid[0] = True
        out = masked_softmax(scores, valid)
        sums = out.sum(axis=-1)
        expect = valid.any(axis=-1).astype(float)
        np.testing.assert_allclose(sums, expect, atol=1e-12)
        assert np.all(out[~valid] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 3, 11)
        valid = rng.random(11) < 0.7
        valid[0] = True
        shifted = masked_softmax(scores + 17.3, valid)
        np.testing.assert_allclose(masked_softmax(scores, valid), shifted,
                                   atol=1e-12)

    @pytest.mark.parametrize("alias", [True, False], ids=["in-place", "buffer"])
    def test_out_matches_pure_call(self, alias):
        rng = np.random.default_rng(11)
        scores = rng.normal(0, 4, (3, 2, 5, 7))
        valid = rng.random((3, 1, 1, 7)) < 0.6
        valid[0] = False                       # every slice of window 0 is empty
        valid[1] = True
        expect = masked_softmax(scores, valid)
        kept = scores.copy()
        out = scores if alias else np.full_like(scores, np.nan)
        got = masked_softmax(scores, valid, out=out)
        assert got is out
        np.testing.assert_array_equal(got, expect)
        np.testing.assert_array_equal(got[0], 0.0)
        if not alias:
            np.testing.assert_array_equal(scores, kept)

    def test_out_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_softmax(np.zeros((2, 3)), np.ones(3, dtype=bool), out=np.zeros(3))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            masked_softmax(np.zeros(3), np.ones(4, dtype=bool))

    @pytest.mark.parametrize("seed", range(5))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 2, (2, 6))
        valid = rng.random((2, 6)) < 0.7
        valid[:, 0] = True
        upstream = rng.normal(0, 1, (2, 6))

        def f(x):
            return float(np.sum(masked_softmax(x, valid) * upstream))

        out = masked_softmax(scores, valid)
        analytic = masked_softmax_vjp(upstream, out)
        fd = finite_diff_grad(f, scores)
        assert relative_error(analytic, fd) < 1e-7


class TestLogSumExp:
    @staticmethod
    def case(seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(0, 4, (3, 2, 5, 7))
        valid = rng.random((3, 1, 1, 7)) < 0.6
        valid[0] = False                       # every slice of window 0 is empty
        valid[1] = True
        return scores, valid

    @staticmethod
    def lse(scores, valid):
        """Log-sum-exp of each slice's valid scores; 0 in window 0, which has none."""
        out = np.zeros(scores.shape[:-1] + (1,))
        out[1:] = logsumexp(np.where(valid, scores, -np.inf)[1:], axis=-1, keepdims=True)
        return out

    @pytest.mark.parametrize("seed", range(3))
    def test_softmax_is_exp_of_shift_by_lse(self, seed):
        # masked_softmax shifts each slice by its largest valid score, so
        # scores far past exp's range still give exp(S - LSE) on valid entries
        scores, valid = self.case(seed)
        scores = 200.0 * scores
        expect = np.exp(np.where(valid, scores - self.lse(scores, valid), -np.inf))
        got = masked_softmax(scores, valid)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-300)
        # a slice with no valid entry weighs zero, not NaN
        np.testing.assert_array_equal(got[0], 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_weights_from_lse_on_key_blocks(self, seed):
        # -LSE as an extra query column, against a row of ones under the keys,
        # makes the score matmul give S - LSE: exp of it is the weights on any
        # block of keys once empty keys are masked
        _, valid = self.case(seed)
        rng = np.random.default_rng(seed + 20)
        q, k = rng.normal(0, 1, (3, 2, 5, 4)), rng.normal(0, 1, (3, 2, 7, 4))
        scores = q @ k.transpose(0, 1, 3, 2)
        expect = masked_softmax(scores, valid)
        q_aug = np.concatenate([q, -self.lse(scores, valid)], axis=-1)
        kt_aug = np.concatenate([k.transpose(0, 1, 3, 2), np.ones((3, 2, 1, 7))], axis=-2)
        for keys in (slice(0, 3), slice(3, 7)):
            block = q_aug @ kt_aug[..., keys]
            np.copyto(block, -np.inf, where=~valid[..., keys])
            got = np.exp(block)
            np.testing.assert_allclose(got, expect[..., keys], rtol=1e-13, atol=1e-16)
            np.testing.assert_array_equal(got[0], 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_vjp_row_term_matches_vecdot(self, seed):
        # for attention C = W V, the vjp's row term sum(dW * W) is
        # D = rowsum(dC * C); as an extra column of dC against a row of ones
        # under V^T the dW matmul gives dW - D, so each block of keys stands
        # on its own
        scores, valid = self.case(seed)
        rng = np.random.default_rng(seed + 50)
        v, d_c = rng.normal(0, 1, (3, 2, 7, 4)), rng.normal(0, 1, (3, 2, 5, 4))
        weights = masked_softmax(scores, valid)
        expect = masked_softmax_vjp(d_c @ v.transpose(0, 1, 3, 2), weights)
        d = np.vecdot(d_c, weights @ v)[..., None]
        d_c_aug = np.concatenate([d_c, -d], axis=-1)
        vt_aug = np.concatenate([v.transpose(0, 1, 3, 2), np.ones((3, 2, 1, 7))], axis=-2)
        for keys in (slice(0, 4), slice(4, 7)):
            got = weights[..., keys] * (d_c_aug @ vt_aug[..., keys])
            np.testing.assert_allclose(got, expect[..., keys], rtol=1e-12, atol=1e-15)


class TestLayerNorm:
    def test_constant_vector(self):
        out = layer_norm_fwd(np.ones(3), np.ones(3), np.zeros(3), 1e-5)[0]
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_already_normalized(self):
        out = layer_norm_fwd(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2), 0.0)[0]
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-12)

    def test_normalize_then_affine(self):
        out = layer_norm_fwd(np.array([0.0, 2.0]), np.full(2, 2.0), np.ones(2), 0.0)[0]
        np.testing.assert_allclose(out, [-1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 16)
        a, b = float(rng.uniform(0.2, 5.0)), float(rng.normal(0, 3))
        g, z = np.ones(16), np.zeros(16)
        np.testing.assert_allclose(layer_norm_fwd(x, g, z, 0.0)[0],
                                   layer_norm_fwd(a * x + b, g, z, 0.0)[0], atol=1e-9)

    def test_zero_length_axis(self):
        with pytest.raises(ShapeError):
            layer_norm_fwd(np.zeros((3, 0)), np.zeros(0), np.zeros(0))

    @pytest.mark.parametrize("seed", range(5))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, (4, 7))
        gain = rng.normal(1, 0.3, 7)
        bias = rng.normal(0, 0.3, 7)
        upstream = rng.normal(0, 1, (4, 7))

        out, cache = layer_norm_fwd(x, gain, bias)
        d_x, d_gain, d_bias = layer_norm_vjp(upstream, cache)
        fd_x = finite_diff_grad(
            lambda v: float(np.sum(layer_norm_fwd(v, gain, bias)[0] * upstream)), x)
        fd_g = finite_diff_grad(
            lambda v: float(np.sum(layer_norm_fwd(x, v, bias)[0] * upstream)), gain)
        fd_b = finite_diff_grad(
            lambda v: float(np.sum(layer_norm_fwd(x, gain, v)[0] * upstream)), bias)
        assert relative_error(d_x, fd_x) < 1e-7
        assert relative_error(d_gain, fd_g) < 1e-7
        assert relative_error(d_bias, fd_b) < 1e-7


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]))
        np.testing.assert_allclose(grad, [6.0], atol=1e-6)

    def test_linear_sum(self):
        x = np.arange(6, dtype=float).reshape(2, 3)
        grad = finite_diff_grad(lambda v: float(v.sum()), x)
        np.testing.assert_allclose(grad, np.ones((2, 3)), atol=1e-9)

    def test_non_finite_evaluation(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda x: float("nan"), np.zeros(2))

    def test_requires_positive_h(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda x: 0.0, np.zeros(1), h=0.0)


class TestGelu:
    def test_known_values(self):
        np.testing.assert_allclose(gelu(np.zeros(3))[0], np.zeros(3), atol=0)
        # gelu(x) -> x for large x, -> 0 for very negative x
        np.testing.assert_allclose(gelu(np.array([10.0]))[0], [10.0], atol=1e-8)
        np.testing.assert_allclose(gelu(np.array([-10.0]))[0], [0.0], atol=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_vjp_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 2, 9)
        upstream = rng.normal(0, 1, 9)
        analytic = gelu_vjp(upstream, x, gelu(x)[1])
        fd = finite_diff_grad(lambda v: float(np.sum(gelu(v)[0] * upstream)), x)
        assert relative_error(analytic, fd) < 1e-7

    def test_cdf_reuse_is_bitwise(self):
        # gelu and its vjp from a kept CDF equal the formulas that take erf
        # in each pass, bit for bit, out to where the CDF saturates
        rng = np.random.default_rng(7)
        x = rng.normal(0, 3, (318, 128))
        x[0, :4] = (-40.0, -30.0, 30.0, 40.0)
        upstream = rng.normal(0, 1, x.shape)
        g, cdf = gelu(x)
        phi = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
        np.testing.assert_array_equal(g, 0.5 * x * (1.0 + erf(x * (1.0 / np.sqrt(2.0)))))
        np.testing.assert_array_equal(cdf, phi)
        # the rebuild that block backward uses in place of a cached gelu(x)
        np.testing.assert_array_equal((0.5 * x) * (2.0 * cdf), g)
        pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
        np.testing.assert_array_equal(gelu_vjp(upstream, x, cdf), upstream * (phi + x * pdf))


def test_relative_error_zero_for_zero_pair():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
