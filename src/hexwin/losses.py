"""The four training objectives and their weighted total.

Conventions shared with every derived test oracle: standard deviations are
population (divide by N); a gene column with zero variance in either
argument contributes Pearson correlation 0; the cosine of a zero vector is
0. Each loss function maps (prediction, target) to (value, d_prediction),
its analytic gradient certified against the central finite-difference oracle.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import InputError, ShapeError

DEV_EPS = 1e-8      # added to each gene's deviation std in loss_dev_grad


@dataclass(frozen=True)
class LossWeights:
    mse: float = 0.001
    pearson: float = 1.0
    tfa: float = 0.1
    dev: float = 0.1

    def __post_init__(self):
        if not all(0.0 <= w < np.inf for w in astuple(self)):
            raise InputError("loss weights must be finite and nonnegative")


@dataclass(frozen=True)
class LossReport:
    mse: float
    pearson: float
    tfa: float
    dev: float
    total: float


def matching_pair(a, b, op: str) -> tuple[np.ndarray, np.ndarray]:
    """Both arguments as float64 arrays; ShapeError unless they are equal-shape (N, D)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"{op} needs two equal-shape (N, D) arrays, "
                         f"got {a.shape} and {b.shape}")
    return a, b


def cosine(a: np.ndarray, b: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Cosine between a and b along axis, and its gradient with respect to a;
    where either vector is zero the cosine and its gradient are 0."""
    na = np.sqrt((a ** 2).sum(axis=axis, keepdims=True))
    nb = np.sqrt((b ** 2).sum(axis=axis, keepdims=True))
    ok = (na > 0.0) & (nb > 0.0)
    denom = np.where(ok, na * nb, 1.0)
    cos = np.where(ok, (a * b).sum(axis=axis, keepdims=True) / denom, 0.0)
    # d cos / d a = b/(|a| |b|) - cos * a / |a|^2
    grad = np.where(ok, b / denom - cos * a / np.where(ok, na ** 2, 1.0), 0.0)
    return cos.squeeze(axis), grad


def loss_mse_grad(y_hat, y) -> tuple[float, np.ndarray]:
    """Mean squared prediction error over all (spot, gene) entries; returns (loss, d_y_hat)."""
    y_hat, y = matching_pair(y_hat, y, "loss_mse_grad")
    diff = y_hat - y
    return float(np.mean(diff ** 2)), 2.0 * diff / diff.size


def loss_pearson_grad(y_hat, y) -> tuple[float, np.ndarray]:
    """1 - mean over genes of the across-spot Pearson correlation; returns (loss, d_y_hat)."""
    y_hat, y = matching_pair(y_hat, y, "loss_pearson_grad")
    if len(y) < 2:
        raise InputError("loss_pearson_grad requires at least 2 spots")
    # d rho / d u is zero-mean per column, so centering passes it through
    rho, d_rho = cosine(y_hat - y_hat.mean(axis=0), y - y.mean(axis=0), 0)
    return 1.0 - float(rho.mean()), -d_rho / y.shape[1]


def loss_tfa_grads(t_hat, t) -> tuple[float, np.ndarray]:
    """Mean (1 - cosine) between projected embeddings t_hat_i and targets t_i;
    returns (loss, d_t_hat)."""
    t_hat, t = matching_pair(t_hat, t, "loss_tfa_grads")
    cos, d_cos = cosine(t_hat, t, 1)
    return float(np.mean(1.0 - cos)), -d_cos / len(t_hat)


def loss_dev_grad(y_dev_hat, y):
    """Squared error between gene-standardized deviations of truth and prediction;
    returns (loss, d_y_dev_hat).

    Ground-truth deviations are the gene columns of y minus their means; both
    deviation matrices are standardized per gene by (population std + DEV_EPS).
    """
    y_dev_hat, y = matching_pair(y_dev_hat, y, "loss_dev_grad")
    n, g = y.shape
    if n < 2:
        raise InputError("loss_dev_grad requires at least 2 spots")
    t_dev = y - y.mean(axis=0)
    t_std = np.sqrt(np.mean(t_dev ** 2, axis=0))
    t_tilde = t_dev / (t_std + DEV_EPS)
    p = y_dev_hat
    p_mu = p.mean(axis=0)
    p_sigma = np.sqrt(np.mean((p - p_mu) ** 2, axis=0))
    s = p_sigma + DEV_EPS
    p_tilde = p / s
    diff = t_tilde - p_tilde
    loss = float(np.mean(diff ** 2))
    # gradient flows through both p/s and sigma(p); zero-variance columns get
    # no sigma term (subgradient choice)
    inner = (diff * p_tilde).sum(axis=0)
    sigma_safe = np.where(p_sigma > 0.0, p_sigma, 1.0)
    dsigma = np.where(p_sigma > 0.0, (p - p_mu) / (n * sigma_safe), 0.0)
    grad = (2.0 / diff.size) * (-diff / s + inner * dsigma / s)
    return loss, grad


def loss_total(mse: float, pearson: float, tfa: float, dev: float,
               weights: LossWeights = LossWeights()) -> LossReport:
    """Weighted sum of the four terms."""
    total = (weights.mse * mse + weights.pearson * pearson
             + weights.tfa * tfa + weights.dev * dev)
    return LossReport(mse=float(mse), pearson=float(pearson), tfa=float(tfa),
                      dev=float(dev), total=float(total))
