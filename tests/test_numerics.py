import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf as scipy_erf
from scipy.special import logsumexp

import hexwin
from hexwin import numerics
from hexwin.errors import NumericError, ShapeError
from hexwin.numerics import (ERF_BLOCK, erf, finite_diff_grad, gelu, gelu_vjp,
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
    @pytest.fixture
    def exact(self, monkeypatch):
        """No epsilon under the variance, so unit-variance rows come out exact."""
        monkeypatch.setattr(numerics, "LAYER_NORM_EPS", 0.0)

    def test_constant_vector(self):
        out = layer_norm_fwd(np.ones(3), np.ones(3), np.zeros(3))[0]
        np.testing.assert_allclose(out, np.zeros(3), atol=1e-12)

    def test_already_normalized(self, exact):
        out = layer_norm_fwd(np.array([-1.0, 1.0]), np.ones(2), np.zeros(2))[0]
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-12)

    def test_normalize_then_affine(self, exact):
        out = layer_norm_fwd(np.array([0.0, 2.0]), np.full(2, 2.0), np.ones(2))[0]
        np.testing.assert_allclose(out, [-1.0, 3.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_scale_shift_invariance(self, seed, exact):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 16)
        a, b = float(rng.uniform(0.2, 5.0)), float(rng.normal(0, 3))
        g, z = np.ones(16), np.zeros(16)
        np.testing.assert_allclose(layer_norm_fwd(x, g, z)[0],
                                   layer_norm_fwd(a * x + b, g, z)[0], atol=1e-9)

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


class TestErf:
    SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                1.0, -1.0, np.nextafter(1.0, 2.0), 8.0, -8.0, 26.6, 30.0, -31.0]

    def test_within_one_ulp_of_scipy(self):
        # scipy's erf is the oracle: a grid over [-40, 40], N(0, 3) draws and
        # the special values, with no floating-point warning on the way
        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(-40.0, 40.0, 2_000_001), rng.normal(0, 3, 1_000_000),
                            self.SPECIALS])
        with np.errstate(all="raise", under="ignore"):
            got = erf(x)
        ref = scipy_erf(x)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        both = ~np.isnan(ref)
        assert np.all(np.abs(got - ref)[both] <= np.spacing(np.abs(ref[both])))
        assert np.mean(got.view(np.int64) == ref.view(np.int64)) >= 0.999
        np.testing.assert_array_equal(np.signbit(got[both]), np.signbit(ref[both]))

    def test_shapes_and_blocks(self):
        # more entries, and more |z| > 1 entries, than one block holds
        x = np.random.default_rng(1).normal(0, 4, (3, 7, ERF_BLOCK // 14 + 5))
        assert np.count_nonzero(np.abs(x) > 1.0) > ERF_BLOCK
        np.testing.assert_array_equal(erf(x), erf(x.ravel()).reshape(x.shape))
        np.testing.assert_array_equal(erf(x[:, ::2].T), erf(x[:, ::2]).T)
        assert erf(np.empty((0, 4))).shape == (0, 4)
        assert erf(np.float64(0.5)).shape == ()

    def test_exactly_one_from_six(self):
        # the erfc tail is clamped at |z| = 8: floats spaced evenly in bit
        # pattern over [6, 32] and [6, 1e308], and inf, read exactly +-1
        bits = [np.linspace(*np.array([6.0, hi]).view(np.int64), 100_001).astype(np.int64)
                for hi in (32.0, 1e308)]
        x = np.append(np.concatenate(bits).view(np.float64), np.inf)
        np.testing.assert_array_equal(erf(x), np.ones_like(x))
        np.testing.assert_array_equal(erf(-x), -np.ones_like(x))


def test_runtime_imports_no_scipy():
    # scipy is a test-only oracle: the package and its CLI import numpy alone;
    # the package root re-exports nothing, so importing it loads no module
    src = str(Path(hexwin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", "import sys, hexwin; "
                          "print(sorted(m for m in sys.modules if m.startswith('hexwin.') "
                          "or m.split('.')[0] == 'numpy')); import hexwin.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
                          "import threading; print(threading.active_count())"],
                         env=env, capture_output=True, text=True, check=True, timeout=120)
    # and starts no thread: the worker starts with the first job split over two
    assert out.stdout == "[]\n[]\n1\n"


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
        # in each pass, bit for bit, out to where the CDF saturates; the erf is
        # hexwin's, as this pins CDF reuse, not one erf's bits
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


class TestTwoThreadGelu:
    """GELU and its vjp over two ERF_BLOCK-aligned halves, one per thread."""

    @pytest.fixture(autouse=True)
    def interleaved(self):
        # switch threads every microsecond, so the halves interleave
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(old)

    @staticmethod
    def split(monkeypatch, on):
        monkeypatch.setattr(numerics, "ERF_BLOCK", 16)
        monkeypatch.setattr(numerics, "SPLIT_ROWS", 2 if on else 1 << 62)

    @staticmethod
    def inputs():
        rng = np.random.default_rng(8)
        x = rng.normal(0, 3, (50, 7))
        x[-1, -4:] = (-40.0, -8.0, 8.0, 40.0)      # erf's tail, in the second half
        return x, rng.normal(0, 1, x.shape)

    def test_halves_match_serial(self, monkeypatch):
        x, upstream = self.inputs()
        threads = set()
        for name in ("erf", "_gelu_vjp_into"):
            def spy(*args, real=getattr(numerics, name), **kwargs):
                threads.add(threading.current_thread().name)
                return real(*args, **kwargs)
            monkeypatch.setattr(numerics, name, spy)
        results = []
        for on in (False, True):
            self.split(monkeypatch, on)
            threads.clear()
            g, cdf = gelu(x)
            results.append((g, cdf, gelu_vjp(upstream, x, cdf)))
            assert len(threads) == 1 + on
        for serial, split in zip(*results):
            np.testing.assert_array_equal(split, serial)

    def test_worker_overflow_raises_here(self, monkeypatch):
        # a plain worker thread would run at numpy's default error state and
        # only warn; it runs in a copy of this thread's context instead
        self.split(monkeypatch, True)
        x, upstream = self.inputs()
        x[-1, -1] = 1e200                          # x * x overflows in the second half
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            gelu_vjp(upstream, x, np.full_like(x, 0.5))

    def test_worker_error_raises_here_and_next_call_runs(self, monkeypatch):
        self.split(monkeypatch, True)
        x, upstream = self.inputs()
        want = gelu_vjp(upstream, x, gelu(x)[1])
        real = numerics._gelu_vjp_into

        def failing(*args):
            if threading.current_thread() is not threading.main_thread():
                raise KeyError("worker")
            real(*args)
        monkeypatch.setattr(numerics, "_gelu_vjp_into", failing)
        with pytest.raises(KeyError, match="worker"):
            gelu_vjp(upstream, x, gelu(x)[1])
        monkeypatch.setattr(numerics, "_gelu_vjp_into", real)
        np.testing.assert_array_equal(gelu_vjp(upstream, x, gelu(x)[1]), want)


def test_relative_error_zero_for_zero_pair():
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
