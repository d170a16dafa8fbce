"""Dense float64 tensor helpers: masked softmax, layer norm, the error function
and the smooth nonlinearity built on it, the central finite-difference
oracle used by every gradient test, and `in_halves`, the one runner that
cuts a large job in two and runs the second half on a short-lived thread
where the process may use two CPUs. Whether a job is cut depends on its
size alone, so the results never depend on the CPU count.

Arrays are plain C-contiguous numpy float64; boolean arrays act as occupancy
masks and must broadcast against what they mask. No function mutates its
inputs. Backward passes are hand-derived per operation (suffix ``_vjp``),
not taped.
"""

from __future__ import annotations

import contextvars
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError

INV_SQRT2 = 1.0 / np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
LAYER_NORM_EPS = 1e-5      # added to each row's variance in layer_norm_fwd

# Cephes' erf and erfc (Moshier, ndtr.c), highest power first
ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
         7.00332514112805075473E3, 5.55923013010394962768E4)
ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
         2.26290000613890934246E4, 4.92673942608635921086E4)
ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
          4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
          9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
# elements per pass of erf: its 256 KiB buffers stay in a core's L2 cache
ERF_BLOCK = 1 << 15

# Fewest rows (spots) of a job that `in_halves` cuts in two: the global
# attention block and the GELU of an (N, F) activation. Smaller jobs run in
# the serial loops. The halves run at once when the process may use two
# CPUs, else one after the other. Attention backward adds each half's tiles
# into its own dK and dV, so this also sets how those sums are grouped. One
# training step of the acceptance model, every job split against none
# (interleaved medians of 12 in one process, 2-vCPU x86_64 VM, OpenBLAS at 1
# thread): N = 315: 65.2 -> 84.5 ms (1/12 faster); 600: 133 -> 153 ms
# (3/12); 867: 208 -> 208 ms (8/12); 1,198: 323 -> 301 ms (11/12); 2,323:
# 751 -> 598 ms (12/12).
SPLIT_ROWS = 1000


def in_halves(fn: Callable[[Sequence], object], items: Sequence, rows: int) -> list:
    """[fn(items)], or [fn(first half), fn(second half)] when the job has at
    least SPLIT_ROWS rows and two or more items.

    The second half runs on a new thread named "hexwin", joined before this
    returns, while this thread runs the first; on one CPU this thread runs
    it after the first. It runs in a copy of this thread's context, so an
    np.errstate in force here holds there too (a new thread starts at
    numpy's defaults and only warns). An exception either half raises is
    raised here, once both have ended; neither half may wait on the other.
    """
    half = len(items) // 2
    if rows < SPLIT_ROWS or half == 0:
        return [fn(items)]
    affinity = getattr(os, "sched_getaffinity", None)      # Linux only
    if (len(affinity(0)) if affinity else os.cpu_count() or 1) < 2:
        return [fn(items[:half]), fn(items[half:])]
    second = {}

    def run():
        try:
            second["out"] = fn(items[half:])
        except BaseException as exc:
            second["exc"] = exc
    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,), name="hexwin")
    thread.start()
    try:
        first = fn(items[:half])
    finally:
        thread.join()           # the second half may still write into shared arrays
    if "exc" in second:
        raise second["exc"]
    return [first, second["out"]]


def masked_softmax(scores: np.ndarray, valid: np.ndarray, axis: int = -1) -> np.ndarray:
    """Softmax along ``axis`` restricted to entries where ``valid`` is True.

    Invalid positions get exactly zero weight; slices with no valid entry
    return all zeros instead of raising (empty window slots are routine).
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
    out = np.where(valid, scores, -np.inf)
    peak = np.max(out, axis=axis, keepdims=True)
    np.copyto(peak, 0.0, where=~np.isfinite(peak))
    out -= peak
    np.exp(out, out=out)
    total = np.sum(out, axis=axis, keepdims=True)
    total[total == 0.0] = 1.0
    out /= total
    return out


def masked_softmax_vjp(grad_out: np.ndarray, weights: np.ndarray, axis: int = -1) -> np.ndarray:
    """Gradient of masked_softmax w.r.t. scores, given its output ``weights``.

    Invalid positions already carry zero weight, so they receive zero
    gradient without special casing.
    """
    inner = np.expand_dims(np.vecdot(grad_out, weights, axis=axis), axis)
    return (grad_out - inner) * weights


def layer_norm_fwd(x: np.ndarray, gain: np.ndarray, bias: np.ndarray):
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
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(centered ** 2, axis=-1, keepdims=True) + LAYER_NORM_EPS)
    xhat = centered * inv
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


def _horner(x: np.ndarray, coef, out: np.ndarray) -> np.ndarray:
    """The polynomial with coefficients ``coef`` (highest power first) at x,
    written into ``out``."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def erf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The error function, elementwise: Cephes' double-precision erf in numpy;
    written into `out`, a C-contiguous float64 array of x's size, when given.

    z T(z^2) / U(z^2), Cephes' form for |z| <= 1, runs over the whole array
    one cache-sized block at a time. The |z| > 1 entries are then overwritten
    with +-(1 - erfc(a)), erfc(a) = exp(-a^2) P(a) / Q(a) at a = min(|z|, 8).
    Cephes switches to R/S at 8, but erfc(8) ~ 1.1e-29 is far below half an
    ulp of 1, so 1 - erfc is exactly 1.0 on either side of the clamp (erf
    reads exactly +-1 from |z| = 6). NaN stays NaN. Within one ulp of the C
    routine.
    """
    z = np.asarray(x, dtype=np.float64)
    flat = z.reshape(-1)
    out = np.empty(flat.size) if out is None else out.reshape(-1)
    tail = np.empty(flat.size, dtype=bool)
    sq = np.empty(min(flat.size, ERF_BLOCK))
    den = np.empty_like(sq)
    # huge or infinite |z| overflow here; the tail overwrites their entries
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, flat.size, ERF_BLOCK):
            zb, ob = flat[s:s + ERF_BLOCK], out[s:s + ERF_BLOCK]
            q = np.multiply(zb, zb, out=sq[:zb.size])
            np.greater(q, 1.0, out=tail[s:s + ERF_BLOCK])
            _horner(q, ERF_T, ob)
            ob *= zb
            ob /= _horner(q, ERF_U, den[:zb.size])
    idx = np.flatnonzero(tail)
    for s in range(0, idx.size, ERF_BLOCK):
        i = idx[s:s + ERF_BLOCK]
        zt = flat[i]
        a = np.minimum(np.abs(zt), 8.0)
        e = np.multiply(a, a)
        np.negative(e, out=e)
        np.exp(e, out=e)
        erfc = _horner(a, ERFC_P, np.empty_like(a))
        erfc *= e
        erfc /= _horner(a, ERFC_Q, e)
        np.subtract(1.0, erfc, out=erfc)
        out[i] = np.copysign(erfc, zt, out=erfc)
    return out.reshape(z.shape)


def _gelu_into(x: np.ndarray, g: np.ndarray, cdf: np.ndarray) -> None:
    # Phi = 0.5 * (1 + erf(x / sqrt 2)) and (0.5 * x) * (2 * Phi), in place:
    # 1 + erf lies in [0, 2] and is never subnormal, so 2 * Phi is it exactly
    erf(np.multiply(x, INV_SQRT2, out=g), out=cdf)
    cdf += 1.0
    np.multiply(x, 0.5, out=g)
    g *= cdf
    cdf *= 0.5


def gelu(x: np.ndarray):
    """Exact GELU x * Phi(x), with the standard normal CDF: returns (gelu, Phi).

    ``(0.5 * x) * (2 * Phi)`` rebuilds the first bit for bit, so a caller
    keeps Phi alone for ``gelu_vjp``.
    """
    x = np.asarray(x, dtype=np.float64)
    g, cdf = np.empty(x.shape), np.empty(x.shape)
    flats = [a.reshape(-1) for a in (x, g, cdf)]       # the outputs as views
    # elementwise, so the halves' cut (on an ERF_BLOCK boundary) changes no bit
    in_halves(lambda blocks: _gelu_into(*(a[blocks.start:blocks.stop] for a in flats)),
              range(0, x.size, ERF_BLOCK), len(x) if x.ndim else 1)
    return g, cdf


def _gelu_vjp_into(d: np.ndarray, x: np.ndarray, cdf: np.ndarray, out: np.ndarray) -> None:
    # d * (cdf + x * pdf), pdf = exp(-0.5 * x * x) * INV_SQRT_2PI, in place
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= INV_SQRT_2PI
    out *= x
    out += cdf
    out *= d


def gelu_vjp(grad_out: np.ndarray, x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Gradient of gelu at x, given its CDF output Phi(x)."""
    d, x, cdf = np.broadcast_arrays(*(np.asarray(a, dtype=np.float64) for a in (grad_out, x, cdf)))
    out = np.empty(x.shape)
    flats = [a.reshape(-1) for a in (d, x, cdf, out)]
    in_halves(lambda blocks: _gelu_vjp_into(*(a[blocks.start:blocks.stop] for a in flats)),
              range(0, x.size, ERF_BLOCK), len(x) if x.ndim else 1)
    return out


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function, coordinatewise,
    with step h = 1e-5.

    The oracle every analytic gradient in this package is certified against;
    it never shares code with the paths it checks.
    """
    h = 1e-5
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
