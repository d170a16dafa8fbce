import numpy as np
import pytest

from hexwin.errors import InputError, ShapeError
from hexwin.losses import (LossReport, LossWeights, loss_dev_grad, loss_mse_grad,
                           loss_pearson_grad, loss_tfa_grads, loss_total)
from hexwin.numerics import finite_diff_grad, relative_error


class TestMse:
    def test_perfect_prediction(self):
        y = np.arange(6.0).reshape(2, 3)
        assert loss_mse_grad(y, y)[0] == 0.0

    def test_single_entry(self):
        assert loss_mse_grad(np.array([[2.0]]), np.array([[0.0]]))[0] == 4.0

    def test_hand_expanded_sum(self):
        y_hat = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert loss_mse_grad(y_hat, np.zeros((2, 2)))[0] == 0.5


@pytest.mark.parametrize("loss", [loss_mse_grad, loss_pearson_grad, loss_tfa_grads,
                                  loss_dev_grad], ids=["mse", "pearson", "tfa", "dev"])
def test_shape_mismatch(loss):
    with pytest.raises(ShapeError):
        loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestPearson:
    def test_perfect_prediction(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, (8, 3))
        assert loss_pearson_grad(y, y)[0] == pytest.approx(0.0, abs=1e-12)

    def test_anticorrelated(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, (8, 3))
        assert loss_pearson_grad(-y, y)[0] == pytest.approx(2.0, abs=1e-12)

    def test_zero_variance_convention(self):
        y = np.stack([np.arange(5.0), np.arange(5.0)], axis=1)
        y_hat = y.copy()
        y_hat[:, 1] = 3.0  # constant prediction column -> PCC 0
        assert loss_pearson_grad(y_hat, y)[0] == pytest.approx(0.5, abs=1e-12)

    def test_requires_two_spots(self):
        with pytest.raises(InputError):
            loss_pearson_grad(np.zeros((1, 3)), np.zeros((1, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_range_and_affine_invariance(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1, (12, 4))
        y_hat = rng.normal(0, 1, (12, 4))
        val = loss_pearson_grad(y_hat, y)[0]
        assert 0.0 <= val <= 2.0
        a = float(rng.uniform(0.1, 4.0))
        b = float(rng.normal(0, 2))
        assert loss_pearson_grad(a * y_hat + b, y)[0] == pytest.approx(val, abs=1e-9)


class TestTfa:
    def test_aligned(self):
        t = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert loss_tfa_grads(t, t)[0] == pytest.approx(0.0, abs=1e-12)

    def test_antialigned(self):
        t = np.array([[1.0, 0.0], [0.5, 0.5]])
        assert loss_tfa_grads(-t, t)[0] == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal(self):
        t_hat = np.array([[1.0, 0.0]])
        t = np.array([[0.0, 1.0]])
        assert loss_tfa_grads(t_hat, t)[0] == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_contributes_one(self):
        t_hat = np.zeros((1, 2))
        t = np.array([[0.0, 1.0]])
        assert loss_tfa_grads(t_hat, t)[0] == pytest.approx(1.0, abs=1e-12)


class TestDev:
    def test_matched_deviations_zero(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 2, (9, 4))
        dev = y - y.mean(axis=0)
        assert loss_dev_grad(dev, y)[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_truth_column(self):
        y = np.full((4, 1), 3.0)
        p = np.array([[1.0], [-1.0], [2.0], [-2.0]])
        # truth deviations standardize to 0; contribution is mean of the
        # standardized predictions squared
        sigma = float(np.sqrt(np.mean((p - p.mean()) ** 2)))
        expect = float(np.mean((p / (sigma + 1e-8)) ** 2))
        assert loss_dev_grad(p, y)[0] == pytest.approx(expect, abs=1e-12)

    def test_two_spot_hand_case(self):
        y = np.array([[0.0], [2.0]])
        p = np.array([[-1.0], [1.0]])
        assert loss_dev_grad(p, y)[0] == pytest.approx(0.0, abs=1e-12)

    def test_centering_invariance(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, (7, 3))
        p = rng.normal(0, 1, (7, 3))
        c = rng.normal(0, 5, (1, 3))
        centered = lambda m: m - m.mean(axis=0)
        assert loss_dev_grad(centered(p + c), y)[0] == pytest.approx(
            loss_dev_grad(centered(p), y)[0], abs=1e-9)


class TestTotal:
    def test_all_zero(self):
        rep = loss_total(0, 0, 0, 0)
        assert rep.total == 0.0

    def test_weighted_sum_example(self):
        rep = loss_total(1.0, 1.0, 1.0, 1.0)
        assert rep.total == pytest.approx(1.201, abs=1e-12)
        assert isinstance(rep, LossReport)

    def test_zero_weights(self):
        rep = loss_total(5.0, 7.0, 9.0, 11.0, LossWeights(0, 0, 0, 0))
        assert rep.total == 0.0

    def test_report_consistency(self):
        w = LossWeights()
        rep = loss_total(0.3, 0.7, 1.1, 0.2, w)
        expect = w.mse * 0.3 + w.pearson * 0.7 + w.tfa * 1.1 + w.dev * 0.2
        assert rep.total == pytest.approx(expect, abs=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            LossWeights(mse=-0.1)


class TestGradients:
    @pytest.mark.parametrize("seed", range(5))
    def test_mse_grad(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1, (6, 3))
        y_hat = rng.normal(0, 1, (6, 3))
        _, grad = loss_mse_grad(y_hat, y)
        fd = finite_diff_grad(lambda v: loss_mse_grad(v, y)[0], y_hat)
        assert relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_pearson_grad(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1, (7, 4))
        y_hat = rng.normal(0, 1, (7, 4))
        _, grad = loss_pearson_grad(y_hat, y)
        fd = finite_diff_grad(lambda v: loss_pearson_grad(v, y)[0], y_hat)
        assert relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_tfa_grads(self, seed):
        rng = np.random.default_rng(seed)
        t_hat = rng.normal(0, 1, (6, 3))
        t = rng.normal(0, 1, (6, 3))
        _, grad = loss_tfa_grads(t_hat, t)
        fd = finite_diff_grad(lambda v: loss_tfa_grads(v, t)[0], t_hat)
        assert relative_error(grad, fd) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_dev_grad_through_standardization(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.normal(0, 1.5, (8, 4))
        p = rng.normal(0, 1, (8, 4))
        _, grad = loss_dev_grad(p, y)
        fd = finite_diff_grad(lambda v: loss_dev_grad(v, y)[0], p)
        assert relative_error(grad, fd) < 1e-4
