from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hexwin import numerics
from hexwin.errors import InputError, NumericError
from hexwin.losses import LossWeights
from hexwin.model import ModelConfig, build_geometry, init_params
from hexwin.numerics import relative_error
from hexwin.synth import SynthConfig, generate
from hexwin.trainer import (TrainConfig, _loss_and_grads, grad_check, split_indices,
                            toy_grad_check_inputs, train)

CFG = ModelConfig(in_dim=5, genes=3, dim=6, heads=1, stages=2, blocks=2,
                  radii=(1,), out_dim=4, t_dim=3)


def small_dataset(seed=0):
    return generate(SynthConfig(radius=3, jitter=0.02, dropout=0.0, seed=seed,
                                patterns=("boundary", "gradient", "noise"),
                                token_dim=5, transcriptomic_dim=3))


class TestTrainLoop:
    def test_zero_learning_rate_keeps_params(self):
        ds = small_dataset()
        tcfg = TrainConfig(steps=3, lr=0.0, seed=0, val_fraction=0.0)
        res = train(ds, CFG, tcfg)
        init = init_params(CFG, 0)
        for k in init:
            np.testing.assert_array_equal(res.final_params[k], init[k])

    def test_single_adam_step_matches_kingma_ba(self):
        # the first step from zero moments, written out as in Kingma and Ba (2015)
        ds = small_dataset(1)
        lr = 0.05
        tcfg = TrainConfig(steps=1, lr=lr, seed=1, val_fraction=0.0)
        res = train(ds, CFG, tcfg)
        params = init_params(CFG, 1)
        geometry = build_geometry(ds.coords, CFG)
        rows = np.arange(ds.n_spots)
        _, grads, _ = _loss_and_grads(ds, rows, geometry, params, CFG, tcfg.weights)
        for k in params:
            g = grads[k]
            m_hat = g * (1 - 0.9) / (1 - 0.9)
            v_hat = np.square(g) * (1 - 0.999) / (1 - 0.999)
            np.testing.assert_array_equal(res.final_params[k],
                                          params[k] - (m_hat * lr) / (np.sqrt(v_hat) + 1e-8))

    def test_determinism_bitwise(self):
        ds = small_dataset(2)
        tcfg = TrainConfig(steps=8, lr=1e-2, seed=2, eval_every=4)
        a = train(ds, CFG, tcfg)
        b = train(ds, CFG, tcfg)
        assert a.log_lines == b.log_lines
        for k in a.final_params:
            np.testing.assert_array_equal(a.final_params[k], b.final_params[k])

    def test_toggle_off_equals_zero_weight(self):
        # a zero weight switches the term off: it logs 0 and its head never moves
        ds = small_dataset(3)
        tcfg = TrainConfig(steps=6, lr=1e-2, seed=3, val_fraction=0.0,
                           weights=LossWeights(tfa=0.0))
        zeroed = train(ds, CFG, tcfg)
        assert all(line.split("\t")[3] == "0.0" for line in zeroed.log_lines[1:])
        init = init_params(CFG, tcfg.seed)
        for k in ("tfa.w", "tfa.b"):
            np.testing.assert_array_equal(zeroed.final_params[k], init[k])
        assert not np.array_equal(zeroed.final_params["gene.w"], init["gene.w"])

    def test_best_checkpoint_tracks_minimum_total(self):
        ds = small_dataset(4)
        res = train(ds, CFG, TrainConfig(steps=20, lr=5e-3, seed=4,
                                         val_fraction=0.0))
        totals = [float(line.split("\t")[-1]) for line in res.log_lines[1:]]
        assert res.best_step == int(np.argmin(totals)) + 1

    def test_non_finite_loss_aborts_with_diagnostic(self):
        ds = small_dataset(5)
        ds.tokens[0, 0] = np.nan
        with pytest.raises(NumericError, match="step 1"):
            train(ds, CFG, TrainConfig(steps=2, lr=1e-3, seed=5,
                                       val_fraction=0.0))

    def test_early_stop_on_plateau(self):
        ds = generate(SynthConfig(radius=3, seed=6, token_rule="pure-noise",
                                  patterns=("noise", "noise", "noise"),
                                  token_dim=5, transcriptomic_dim=3))
        tcfg = TrainConfig(steps=400, lr=1e-3, seed=6, eval_every=5, patience=3)
        res = train(ds, CFG, tcfg)
        assert res.steps_run < 400

    def test_missing_transcriptomic_with_tfa_enabled(self):
        ds = generate(SynthConfig(radius=3, seed=7, transcriptomic_dim=0,
                                  patterns=("noise", "noise", "noise"),
                                  token_dim=5))
        with pytest.raises(InputError):
            train(ds, CFG, TrainConfig(steps=1, val_fraction=0.0))

    def test_log_format(self):
        ds = small_dataset(8)
        res = train(ds, CFG, TrainConfig(steps=2, lr=1e-3, seed=8,
                                         val_fraction=0.0))
        assert res.log_lines[0] == "step\tmse\tpearson\ttfa\tdev\ttotal"
        fields = res.log_lines[1].split("\t")
        assert fields[0] == "1" and len(fields) == 6
        mse, pearson, tfa, dev, total = map(float, fields[1:])
        w = LossWeights()
        assert total == pytest.approx(w.mse * mse + w.pearson * pearson
                                      + w.tfa * tfa + w.dev * dev, abs=1e-12)


def test_acceptance_slide_step_stays_on_one_thread(monkeypatch):
    # below numerics.SPLIT_ROWS a training step runs today's serial loops:
    # the acceptance slide (N ~ 311) hands no job to the worker thread
    def refuse(*args, **kwargs):
        raise AssertionError("job handed to the worker thread")
    monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
    cfg = ModelConfig(in_dim=32, genes=16, dim=32, heads=4, stages=4, blocks=3,
                      radii=(1, 2, 4), out_dim=16, t_dim=16)
    patterns = ("boundary",) * 4 + ("gradient",) * 4 + ("sparse",) * 4 + ("noise",) * 4
    ds = generate(SynthConfig(radius=10, jitter=0.05, dropout=0.05, seed=7, assay_seed=1234,
                              patterns=patterns, token_dim=32, token_noise=0.05,
                              boundary_high=6.0, transcriptomic_dim=16))
    assert 290 <= ds.n_spots < numerics.SPLIT_ROWS
    report, _, _ = _loss_and_grads(ds, np.arange(ds.n_spots), build_geometry(ds.coords, cfg),
                                   init_params(cfg, 7), cfg, LossWeights())
    assert np.isfinite(report.total)


class TestSplit:
    def test_split_is_deterministic_partition(self):
        tr1, va1 = split_indices(50, 0.2, 9)
        tr2, va2 = split_indices(50, 0.2, 9)
        np.testing.assert_array_equal(tr1, tr2)
        np.testing.assert_array_equal(va1, va2)
        assert len(va1) == 10
        assert sorted(set(tr1) | set(va1)) == list(range(50))
        assert not set(tr1) & set(va1)

    def test_zero_fraction(self):
        tr, va = split_indices(10, 0.0, 0)
        assert len(tr) == 10 and len(va) == 0


class TestGradCheck:
    def test_parameter_budget_enforced(self):
        ds, _ = toy_grad_check_inputs(0)
        big = ModelConfig(in_dim=8, genes=4, dim=24, heads=2, stages=2,
                          blocks=3, radii=(1,), out_dim=8, t_dim=4)
        with pytest.raises(InputError):
            grad_check(ds, big, seed=0)

    def test_corrupted_gradient_fails(self):
        # negative control: a 1 percent error in one term must be caught
        ds, cfg = toy_grad_check_inputs(0)
        weights = LossWeights()
        geometry = build_geometry(ds.coords, cfg)
        params = init_params(cfg, 0)
        jig = np.random.default_rng(123)
        params = {k: v + jig.normal(0, 0.02, v.shape) for k, v in params.items()}
        rows = np.arange(ds.n_spots)
        _, grads, _ = _loss_and_grads(ds, rows, geometry, params, cfg, weights)

        from hexwin.model import forward
        from hexwin.numerics import finite_diff_grad
        from hexwin.trainer import objective

        def total(w):  # only embed.w's coordinates are differenced
            out = forward(ds.tokens, geometry, {**params, "embed.w": w}, cfg, train=True)
            rep, *_ = objective(out, ds, rows, weights)
            return rep.total

        fd = finite_diff_grad(total, params["embed.w"])
        clean = relative_error(grads["embed.w"], fd)
        broken = relative_error(1.01 * grads["embed.w"], fd)
        assert clean < 1e-4 < broken

    def test_config_validation(self):
        with pytest.raises(InputError):
            TrainConfig(steps=0)
        with pytest.raises(InputError):
            TrainConfig(lr=-1.0)

