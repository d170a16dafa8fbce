"""Whole-slide training loop and the gradient certification harness.

Each step runs one forward over all spots, computes the enabled loss terms
on the training rows, backpropagates hand-derived gradients, and applies an
SGD or Adam update. The Pearson and deviation losses need the slide as the
batch, so there is no minibatching. Everything is deterministic given the
seed: step logs are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericError
from .losses import (LossReport, LossWeights, loss_dev_grad, loss_mse_grad,
                     loss_pearson_grad, loss_tfa_grads, loss_total)
from .metrics import EvalReport, evaluate
from .model import (ForwardOutput, Geometry, ModelConfig, Params, backward,
                    build_geometry, forward, init_params, params_to_vector,
                    vector_to_params, zeros_like_params)
from .numerics import finite_diff_grad, relative_error
from .synth import SpotDataset


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    lr: float = 3e-3
    optimizer: str = "adam"      # "adam" or "sgd"
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)  # 0 turns a term off
    eval_every: int = 10
    val_fraction: float = 0.2
    patience: int = 50           # evals without val improvement before stopping
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if self.lr < 0.0:
            raise InputError("learning rate must be nonnegative")
        if self.optimizer not in ("adam", "sgd"):
            raise InputError("optimizer must be 'adam' or 'sgd'")
        if not 0.0 <= self.val_fraction < 1.0:
            raise InputError("val_fraction must lie in [0, 1)")


@dataclass
class TrainResult:
    params: Params               # best-by-total-loss snapshot
    final_params: Params
    best_step: int
    steps_run: int
    log_lines: list[str]
    eval_log: list[tuple[int, EvalReport]]
    train_idx: np.ndarray
    val_idx: np.ndarray
    geometry: Geometry


LOG_HEADER = "step\tmse\tpearson\ttfa\tdev\ttotal"


def format_log_line(step: int, report: LossReport) -> str:
    return (f"{step}\t{report.mse!r}\t{report.pearson!r}\t{report.tfa!r}"
            f"\t{report.dev!r}\t{report.total!r}")


def split_indices(n: int, val_fraction: float, seed: int):
    """Deterministic train/validation row split."""
    rng = np.random.default_rng(seed ^ 0xA11CE)
    n_val = int(round(val_fraction * n))
    if n_val == 0:
        return np.arange(n), np.zeros(0, dtype=np.int64)
    perm = rng.permutation(n)
    val = np.sort(perm[:n_val])
    train = np.sort(perm[n_val:])
    return train, val


def objective(out: ForwardOutput, ds: SpotDataset, rows: np.ndarray,
              params: Params, cfg: ModelConfig, tcfg: TrainConfig):
    """Loss report plus upstream gradients for the terms with nonzero weight.

    Returns (report, d_y_hat, d_y_dev_hat, d_z_extra, head_grads) where the
    gradient arrays are already weighted and scattered to full (N, ...) shape.
    Zero-weight terms contribute exactly nothing, value and gradient alike.
    """
    w = tcfg.weights
    n, g = out.y_hat.shape
    y = ds.expression
    d_y_hat = np.zeros((n, g))
    d_y_dev = None
    d_z = None
    head_grads: Params = {}
    mse = pearson = tfa = dev = 0.0
    if w.mse != 0.0:
        mse, grad = loss_mse_grad(out.y_hat[rows], y[rows])
        d_y_hat[rows] += w.mse * grad
    if w.pearson != 0.0:
        pearson, grad = loss_pearson_grad(out.y_hat[rows], y[rows])
        d_y_hat[rows] += w.pearson * grad
    if w.tfa != 0.0 and cfg.t_dim:
        if ds.transcriptomic is None:
            raise InputError("alignment loss enabled but the dataset has no "
                             "transcriptomic embeddings")
        tfa, g_z, g_w, g_b = loss_tfa_grads(out.z[rows], ds.transcriptomic[rows],
                                            params["tfa.w"], params["tfa.b"])
        d_z = np.zeros_like(out.z)
        d_z[rows] = w.tfa * g_z
        head_grads["tfa.w"] = w.tfa * g_w
        head_grads["tfa.b"] = w.tfa * g_b
    if w.dev != 0.0:
        if out.y_dev_hat is None:
            raise InputError("deviation loss needs a training-mode forward")
        dev, grad = loss_dev_grad(out.y_dev_hat[rows], y[rows])
        d_y_dev = np.zeros((n, g))
        d_y_dev[rows] = w.dev * grad
    report = loss_total(mse, pearson, tfa, dev, w)
    return report, d_y_hat, d_y_dev, d_z, head_grads


def _loss_and_grads(tokens, ds, rows, geometry, params, cfg, tcfg):
    out = forward(tokens, geometry, params, cfg, train=True)
    report, d_y_hat, d_y_dev, d_z, head_grads = objective(out, ds, rows, params,
                                                          cfg, tcfg)
    grads = backward(out, geometry, params, cfg, d_y_hat,
                     d_y_dev_hat=d_y_dev, d_z_extra=d_z)
    for k, v in head_grads.items():
        grads[k] += v
    return report, grads, out


def train(ds: SpotDataset, cfg: ModelConfig, tcfg: TrainConfig) -> TrainResult:
    """Optimize the model on one slide; returns best and final parameters."""
    geometry = build_geometry(ds.coords, cfg)
    params = init_params(cfg, tcfg.seed)
    train_idx, val_idx = split_indices(ds.n_spots, tcfg.val_fraction, tcfg.seed)
    if len(train_idx) < 2:
        raise InputError("need at least 2 training spots")

    moments1 = zeros_like_params(params)
    moments2 = zeros_like_params(params)
    best_total = np.inf
    best_params = {k: v.copy() for k, v in params.items()}
    best_step = 0
    best_val = -np.inf
    evals_since_improve = 0
    log_lines = [LOG_HEADER]
    eval_log: list[tuple[int, EvalReport]] = []
    steps_run = 0

    for step in range(1, tcfg.steps + 1):
        report, grads, out = _loss_and_grads(ds.tokens, ds, train_idx, geometry,
                                             params, cfg, tcfg)
        if not np.isfinite(report.total):
            worst = max(params, key=lambda k: float(np.max(np.abs(params[k]))))
            raise NumericError(
                f"non-finite loss at step {step}: mse={report.mse} "
                f"pearson={report.pearson} tfa={report.tfa} dev={report.dev}; "
                f"largest-magnitude parameter group {worst}")
        log_lines.append(format_log_line(step, report))
        if report.total < best_total:
            best_total = report.total
            best_params = {k: v.copy() for k, v in params.items()}
            best_step = step

        if tcfg.optimizer == "sgd":
            for k in params:
                params[k] = params[k] - tcfg.lr * grads[k]
        else:
            b1, b2 = tcfg.adam_beta1, tcfg.adam_beta2
            for k in params:
                moments1[k] = b1 * moments1[k] + (1.0 - b1) * grads[k]
                moments2[k] = b2 * moments2[k] + (1.0 - b2) * grads[k] ** 2
                m_hat = moments1[k] / (1.0 - b1 ** step)
                v_hat = moments2[k] / (1.0 - b2 ** step)
                params[k] = params[k] - tcfg.lr * m_hat / (np.sqrt(v_hat) + tcfg.adam_eps)
        steps_run = step

        if len(val_idx) and step % tcfg.eval_every == 0:
            rep = evaluate(out.y_hat[val_idx], ds.expression[val_idx],
                           ds.gene_names, bins=min(16, max(2, len(val_idx))))
            eval_log.append((step, rep))
            if rep.pcc_f > best_val:
                best_val = rep.pcc_f
                evals_since_improve = 0
            else:
                evals_since_improve += 1
                if evals_since_improve >= tcfg.patience:
                    break

    return TrainResult(params=best_params, final_params=params,
                       best_step=best_step, steps_run=steps_run,
                       log_lines=log_lines, eval_log=eval_log,
                       train_idx=train_idx, val_idx=val_idx, geometry=geometry)


def count_params(params: Params) -> int:
    return int(sum(v.size for v in params.values()))


def grad_check(ds: SpotDataset, cfg: ModelConfig, h: float = 1e-5,
               seed: int = 0, tcfg: TrainConfig | None = None) -> dict:
    """Compare the analytic gradient of the full objective against central
    finite differences; returns per-parameter-group relative errors.

    All spots are training rows here. The relative error is
    ||g_analytic - g_fd|| / (||g_analytic|| + ||g_fd||) per group.
    """
    tcfg = tcfg or TrainConfig(steps=1, val_fraction=0.0, seed=seed)
    geometry = build_geometry(ds.coords, cfg)
    params = init_params(cfg, seed)
    # check at a generic point: the zero-bias init sits on a measure-zero
    # surface where some gradients (e.g. the deviation head bias) vanish
    # identically, which turns the relative error into pure noise
    jig = np.random.default_rng(seed ^ 0x9E3779B9)
    params = {k: v + jig.normal(0.0, 0.02, v.shape) for k, v in params.items()}
    n_params = count_params(params)
    if n_params >= 5000:
        raise InputError(f"{n_params} parameters is too many for finite "
                         f"differencing; keep the toy under 5000")
    rows = np.arange(ds.n_spots)

    _, grads, _ = _loss_and_grads(ds.tokens, ds, rows, geometry, params, cfg, tcfg)

    def total_loss(vec: np.ndarray) -> float:
        p = vector_to_params(vec, params)
        out = forward(ds.tokens, geometry, p, cfg, train=True)
        report, *_ = objective(out, ds, rows, p, cfg, tcfg)
        return report.total

    fd_vec = finite_diff_grad(total_loss, params_to_vector(params), h)
    fd = vector_to_params(fd_vec, params)
    per_group = {k: relative_error(grads[k], fd[k]) for k in params}
    return {
        "n_params": n_params,
        "per_group": per_group,
        "max_rel_error": max(per_group.values()),
        "worst_group": max(per_group, key=per_group.get),
    }


def toy_grad_check_inputs(seed: int = 0):
    """The 20-spot, 2-stage, 2-head configuration used by the certification."""
    from .synth import SynthConfig, generate
    synth = SynthConfig(radius=3, jitter=0.02, dropout=0.0, seed=seed,
                        patterns=("boundary", "gradient", "sparse", "noise"),
                        token_dim=8, transcriptomic_dim=4, max_spots=20)
    ds = generate(synth)
    cfg = ModelConfig(in_dim=8, genes=4, dim=12, heads=2, stages=2, blocks=1,
                      radii=(1,), out_dim=8, t_dim=4)
    return ds, cfg


__all__ = ["TrainConfig", "TrainResult", "train", "grad_check", "objective",
           "split_indices", "count_params", "toy_grad_check_inputs",
           "format_log_line", "LOG_HEADER"]
