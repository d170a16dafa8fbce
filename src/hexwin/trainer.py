"""Whole-slide training loop and the gradient certification harness.

Each step runs one forward over all spots, computes the enabled loss terms
on the training rows, backpropagates hand-derived gradients, and applies an
Adam update. The Pearson and deviation losses need the slide as the
batch, so there is no minibatching. Everything is deterministic given the
seed: step logs are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from .errors import InputError, NumericError
from .losses import (LossReport, LossWeights, loss_dev_grad, loss_mse_grad,
                     loss_pearson_grad, loss_tfa_grads, loss_total)
from .metrics import EvalReport, evaluate
from .model import (ForwardOutput, Geometry, ModelConfig, Params, backward,
                    build_geometry, forward, init_params, param_views,
                    params_to_vector)
from .numerics import finite_diff_grad, relative_error
from .synth import SpotDataset


@dataclass(frozen=True)
class TrainConfig:
    steps: int = 500
    lr: float = 3e-3
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)  # 0 turns a term off
    eval_every: int = 10
    val_fraction: float = 0.2
    patience: int = 50           # evals without val improvement before stopping

    def __post_init__(self):
        if self.steps < 1:
            raise InputError("steps must be >= 1")
        if not 0.0 <= self.lr < np.inf:
            raise InputError("learning rate must be finite and nonnegative")
        if not 0.0 <= self.val_fraction < 1.0:
            raise InputError("val_fraction must lie in [0, 1)")
        if self.eval_every < 1 or self.seed < 0:
            raise InputError("eval_every must be >= 1 and seed >= 0")


@dataclass
class TrainResult:
    params: Params               # best-by-total-loss snapshot
    final_params: Params
    best_step: int
    log_lines: list[str]         # header, then one line per step run
    eval_log: list[tuple[int, EvalReport]]
    geometry: Geometry

    @property
    def steps_run(self) -> int:
        return len(self.log_lines) - 1


LOG_HEADER = "\t".join(["step", *(f.name for f in fields(LossReport))])


def format_log_line(step: int, report: LossReport) -> str:
    return "\t".join([str(step), *map(repr, astuple(report))])


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
              weights: LossWeights):
    """Loss report plus upstream gradients for the terms with nonzero weight.

    Returns (report, d_y_hat, d_y_dev_hat, d_t_hat): each head's gradient,
    weighted and scattered to full (N, ...) shape, or None where no term reads
    that head. A zero-weight term contributes nothing, value and gradient alike.
    """
    if not out.caches:
        raise InputError("objective needs a training-mode forward")
    if weights.tfa != 0.0 and out.t_hat is not None and ds.transcriptomic is None:
        raise InputError("alignment loss enabled but the dataset has no transcriptomic embeddings")
    y, values = ds.expression, dict.fromkeys(asdict(weights), 0.0)
    grads = {"y_hat": np.zeros_like(out.y_hat)}  # other heads get one at their first term
    for term, loss, head, target in (
            ("mse", loss_mse_grad, "y_hat", y), ("pearson", loss_pearson_grad, "y_hat", y),
            ("tfa", loss_tfa_grads, "t_hat", ds.transcriptomic), ("dev", loss_dev_grad, "y_dev_hat", y)):
        weight, pred = getattr(weights, term), getattr(out, head)
        if weight == 0.0 or pred is None:
            continue
        values[term], grad = loss(pred[rows], target[rows])
        if head in grads:
            grads[head][rows] += weight * grad
        else:  # assigned, not added to zeros, so -0.0 entries stay as they are
            grads[head] = np.zeros_like(pred)
            grads[head][rows] = weight * grad
    return (loss_total(**values, weights=weights), grads["y_hat"],
            grads.get("y_dev_hat"), grads.get("t_hat"))


def _loss_and_grads(ds, rows, geometry, params, cfg, weights: LossWeights):
    out = forward(ds.tokens, geometry, params, cfg, train=True)
    report, d_y_hat, d_y_dev, d_t_hat = objective(out, ds, rows, weights)
    grads = backward(out, geometry, params, cfg, d_y_hat,
                     d_y_dev_hat=d_y_dev, d_t_hat=d_t_hat)
    # only the predictions outlive the step: the block caches are freed here,
    # before the next step's forward builds its own
    return report, grads, out.y_hat


def _update(flat, grad, moments1, moments2, step: int, tcfg: TrainConfig) -> None:
    """One Adam step on the flat parameters, in place; grad is overwritten.
    Per element: p - lr * m_hat / (sqrt(v_hat) + eps) with beta1 = 0.9,
    beta2 = 0.999 and eps = 1e-8 (Kingma and Ba, 2015)."""
    b1, b2 = 0.9, 0.999
    scratch = np.multiply(grad, 1.0 - b1)
    moments1 *= b1
    moments1 += scratch
    moments2 *= b2
    moments2 += np.multiply(np.square(grad, out=grad), 1.0 - b2, out=grad)
    denom = np.sqrt(np.divide(moments2, 1.0 - b2 ** step, out=grad), out=grad)
    denom += 1e-8
    np.multiply(np.divide(moments1, 1.0 - b1 ** step, out=scratch), tcfg.lr, out=scratch)
    flat -= np.divide(scratch, denom, out=scratch)


def train(ds: SpotDataset, cfg: ModelConfig, tcfg: TrainConfig) -> TrainResult:
    """Optimize the model on one slide; returns best and final parameters."""
    geometry = build_geometry(ds.coords, cfg)
    params = init_params(cfg, tcfg.seed)
    train_idx, val_idx = split_indices(ds.n_spots, tcfg.val_fraction, tcfg.seed)
    if len(train_idx) < 2:
        raise InputError("need at least 2 training spots")

    flat = params_to_vector(params)       # params[k] are views of it
    params = param_views(flat, params)
    best_flat = flat.copy()
    moments1, moments2 = np.zeros_like(flat), np.zeros_like(flat)
    best_total = np.inf
    best_step = 0
    best_val = -np.inf
    evals_since_improve = 0
    log_lines = [LOG_HEADER]
    eval_log: list[tuple[int, EvalReport]] = []

    for step in range(1, tcfg.steps + 1):
        report, grads, y_hat = _loss_and_grads(ds, train_idx, geometry, params, cfg,
                                               tcfg.weights)
        if not np.isfinite(report.total):
            worst = max(params, key=lambda k: float(np.max(np.abs(params[k]))))
            terms = " ".join(f"{f.name}={getattr(report, f.name)}" for f in fields(tcfg.weights))
            raise NumericError(f"non-finite loss at step {step}: {terms}; "
                               f"largest-magnitude parameter group {worst}")
        log_lines.append(format_log_line(step, report))
        if report.total < best_total:
            best_total = report.total
            np.copyto(best_flat, flat)
            best_step = step

        _update(flat, params_to_vector(grads), moments1, moments2, step, tcfg)
        del grads  # not held through the next step's forward and backward

        if len(val_idx) and step % tcfg.eval_every == 0:
            rep = evaluate(y_hat[val_idx], ds.expression[val_idx],
                           ds.gene_names, bins=min(16, max(2, len(val_idx))))
            eval_log.append((step, rep))
            if rep.pcc_f > best_val:
                best_val = rep.pcc_f
                evals_since_improve = 0
            else:
                evals_since_improve += 1
                if evals_since_improve >= tcfg.patience:
                    break

    return TrainResult(params=param_views(best_flat, params), final_params=params,
                       best_step=best_step, log_lines=log_lines, eval_log=eval_log,
                       geometry=geometry)


def grad_check(ds: SpotDataset, cfg: ModelConfig, seed: int = 0) -> dict:
    """Compare the analytic gradient of the full objective against central
    finite differences (step 1e-5); returns per-parameter-group relative errors.

    All spots are training rows here. The relative error is
    ||g_analytic - g_fd|| / (||g_analytic|| + ||g_fd||) per group.
    """
    weights = LossWeights()
    geometry = build_geometry(ds.coords, cfg)
    params = init_params(cfg, seed)
    # check at a generic point: the zero-bias init sits on a measure-zero
    # surface where some gradients (e.g. the deviation head bias) vanish
    # identically, which turns the relative error into pure noise
    jig = np.random.default_rng(seed ^ 0x9E3779B9)
    params = {k: v + jig.normal(0.0, 0.02, v.shape) for k, v in params.items()}
    n_params = sum(v.size for v in params.values())
    if n_params >= 5000:
        raise InputError(f"{n_params} parameters is too many for finite "
                         f"differencing; keep the toy under 5000")
    rows = np.arange(ds.n_spots)

    _, grads, _ = _loss_and_grads(ds, rows, geometry, params, cfg, weights)

    def total_loss(vec: np.ndarray) -> float:
        p = param_views(vec, params)
        out = forward(ds.tokens, geometry, p, cfg, train=True)
        report, *_ = objective(out, ds, rows, weights)
        return report.total

    fd = param_views(finite_diff_grad(total_loss, params_to_vector(params)), params)
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
