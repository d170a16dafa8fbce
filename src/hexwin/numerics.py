"""Dense float64 tensor helpers: masked softmax, layer norm, smooth nonlinearity,
and the central finite-difference oracle used by every gradient test.

Arrays are plain C-contiguous numpy float64; boolean arrays act as occupancy
masks and must broadcast against what they mask. No function mutates its
inputs, except that the masked softmax and its vjp write into an ``out``
array they are given.
Backward passes are hand-derived per operation (suffix ``_vjp``), not taped.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import erf

from .errors import NumericError, ShapeError

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def masked_softmax(scores: np.ndarray, valid: np.ndarray, axis: int = -1,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along ``axis`` restricted to entries where ``valid`` is True.

    Invalid positions get exactly zero weight; slices with no valid entry
    return all zeros instead of raising (empty window slots are routine).
    The weights are computed in ``out`` when given (it may be ``scores``
    itself), otherwise in one fresh copy of ``scores``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    try:
        shape = np.broadcast_shapes(scores.shape, valid.shape)
    except ValueError as exc:
        raise ShapeError(f"mask shape {valid.shape} does not broadcast against "
                         f"scores shape {scores.shape}") from exc
    if shape != scores.shape:
        raise ShapeError(f"mask shape {valid.shape} broadcasts to {shape}, "
                         f"not to scores shape {scores.shape}")
    if out is None:
        out = scores.copy()
    elif out.shape != scores.shape or out.dtype != np.float64:
        raise ShapeError(f"out must be float64 {scores.shape}, got {out.dtype} {out.shape}")
    elif out is not scores:
        np.copyto(out, scores)
    if not valid.all():
        np.copyto(out, -np.inf, where=~valid)
    peak = np.max(out, axis=axis, keepdims=True)
    np.copyto(peak, 0.0, where=~np.isfinite(peak))
    out -= peak
    np.exp(out, out=out)
    total = np.sum(out, axis=axis, keepdims=True)
    total[total == 0.0] = 1.0
    out /= total
    return out


def masked_softmax_vjp(grad_out: np.ndarray, weights: np.ndarray, axis: int = -1,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of masked_softmax w.r.t. scores, given its output ``weights``.

    Invalid positions already carry zero weight, so they receive zero
    gradient without special casing. The result is written to ``out`` when
    given (it may be ``grad_out`` itself).
    """
    inner = np.expand_dims(np.vecdot(grad_out, weights, axis=axis), axis)
    out = np.subtract(grad_out, inner, out=out)
    out *= weights
    return out


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float = 1e-5):
    """Normalize the last axis to zero mean / unit variance, then scale and
    shift; returns (out, cache for layer_norm_vjp)."""
    x = np.asarray(x, dtype=np.float64)
    gain = np.asarray(gain, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ShapeError("layer_norm requires a non-empty last axis")
    if gain.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ShapeError(f"gain/bias must have shape ({x.shape[-1]},), "
                         f"got {gain.shape} and {bias.shape}")
    mean = x.mean(axis=-1, keepdims=True)
    var = np.mean((x - mean) ** 2, axis=-1, keepdims=True)
    denom = np.sqrt(var + eps)
    inv = np.where(denom > 0.0, 1.0 / np.where(denom == 0.0, 1.0, denom), 0.0)
    xhat = (x - mean) * inv
    return xhat * gain + bias, (xhat, inv, gain)


def layer_norm_vjp(grad_out, cache):
    """Gradients of layer_norm_fwd: returns (d_x, d_gain, d_bias)."""
    xhat, inv, gain = cache
    lead = tuple(range(grad_out.ndim - 1))
    d_gain = np.sum(grad_out * xhat, axis=lead)
    d_bias = np.sum(grad_out, axis=lead)
    g = grad_out * gain
    g_mean = g.mean(axis=-1, keepdims=True)
    gx_mean = np.mean(g * xhat, axis=-1, keepdims=True)
    d_x = inv * (g - g_mean - xhat * gx_mean)
    return d_x, d_gain, d_bias


def gelu(x: np.ndarray):
    """Exact GELU x * Phi(x), with the standard normal CDF: returns (gelu, Phi).

    ``(0.5 * x) * (2 * Phi)`` rebuilds the first bit for bit, so a caller
    keeps Phi alone for ``gelu_vjp``.
    """
    cdf = 0.5 * (1.0 + erf(x * INV_SQRT2))
    return (0.5 * x) * (2.0 * cdf), cdf


def gelu_vjp(grad_out: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Gradient of gelu at x, given its CDF output Phi(x)."""
    pdf = np.exp(-0.5 * x * x) * INV_SQRT_2PI
    return grad_out * (cdf + x * pdf)


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray,
                     h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, coordinatewise.

    The oracle every analytic gradient in this package is certified against;
    it never shares code with the paths it checks.
    """
    if h <= 0.0:
        raise ShapeError("finite_diff_grad requires h > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1).copy()
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = float(f(flat.reshape(x.shape)))
        flat[i] = orig - h
        f_minus = float(f(flat.reshape(x.shape)))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"non-finite evaluation while differencing "
                               f"coordinate {i}")
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b|| / (||a|| + ||b||), the metric used by all gradient checks.

    Zero when both arguments are exactly zero.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = float(np.linalg.norm(a) + np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom
