"""Evaluation metrics: gene-wise and spot-wise correlation, quantile-binned
mutual information, and rank AUCs against zero/nonzero and median labels.

The AUC is the Mann-Whitney statistic with midrank tie handling, pooled over
all (spot, gene) cells. MI uses 16 quantile bins unless told otherwise, so
absolute MI values are comparable only within this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError


def midranks(x: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their ranks."""
    x = np.asarray(x)
    order = np.argsort(x, kind="mergesort")
    sorted_x = x[order]
    n = len(x)
    starts = np.r_[0, np.flatnonzero(np.diff(sorted_x) != 0) + 1]
    stops = np.r_[starts[1:], n]
    avg = (starts + stops + 1) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(avg, stops - starts)
    return ranks


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray) -> tuple[float, bool]:
    """Probability a positive outranks a negative (ties count half).

    Returns (auc, degenerate); degenerate is True when only one class is
    present, in which case the auc defaults to 0.5.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ShapeError("scores and labels must have the same length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, True
    ranks = midranks(scores)
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg)), False


def _column_pcc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column Pearson correlation; zero-variance columns contribute 0."""
    u = a - a.mean(axis=0)
    v = b - b.mean(axis=0)
    su = np.sqrt((u ** 2).sum(axis=0))
    sv = np.sqrt((v ** 2).sum(axis=0))
    ok = (su > 0.0) & (sv > 0.0)
    return np.where(ok, (u * v).sum(axis=0) / np.where(ok, su * sv, 1.0), 0.0)


def pcc_genewise(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean over genes of the correlation across spots."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    if len(y) < 2:
        raise InputError("pcc_genewise requires at least 2 spots")
    return float(_column_pcc(y_hat, y).mean())


def pcc_spotwise(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean over spots of the correlation across genes."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    if y.shape[1] < 2:
        raise InputError("pcc_spotwise requires at least 2 genes")
    return float(_column_pcc(y_hat.T, y.T).mean())


def quantile_bins(x: np.ndarray, bins: int) -> np.ndarray:
    """Bin indices by the 1/bins .. (bins-1)/bins quantile edges."""
    edges = np.quantile(np.asarray(x, dtype=np.float64), np.arange(1, bins) / bins)
    return np.searchsorted(edges, x, side="right")


def _discrete_mi(bi: np.ndarray, bj: np.ndarray, bins: int) -> float:
    joint = np.bincount(bi * bins + bj, minlength=bins * bins).astype(np.float64)
    p = (joint / joint.sum()).reshape(bins, bins)
    pi = p.sum(axis=1)
    pj = p.sum(axis=0)
    nz = p > 0.0
    outer = pi[:, None] * pj[None, :]
    return float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))


def mi_genewise(y_hat: np.ndarray, y: np.ndarray, bins: int = 16) -> float:
    """Mean over genes of the discrete MI (natural log) of quantile-binned values."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    if bins < 2:
        raise InputError("bins must be >= 2")
    if len(y) < bins:
        raise InputError(f"need at least bins={bins} spots, got {len(y)}")
    vals = [_discrete_mi(quantile_bins(y_hat[:, g], bins),
                         quantile_bins(y[:, g], bins), bins)
            for g in range(y.shape[1])]
    return float(np.mean(vals))


def auc_0_vs_nonzero(y_hat: np.ndarray, y: np.ndarray) -> float:
    """AUC of predictions as scores for the label (truth > 0)."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    return mann_whitney_auc(y_hat.ravel(), y.ravel() > 0.0)[0]


def auc_q50(y_hat: np.ndarray, y: np.ndarray) -> float:
    """AUC for the label (truth > global median); median ties are negatives."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    return mann_whitney_auc(y_hat.ravel(), y.ravel() > float(np.median(y)))[0]


def _as_matrix_pair(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ShapeError(f"expected equal (N, G) shapes, got {a.shape} and {b.shape}")
    return a, b


@dataclass(frozen=True)
class EvalReport:
    pcc_f: float
    pcc_s: float
    mi_f: float
    auc_0vnz: float
    auc_q50: float
    auc_0vnz_degenerate: bool
    auc_q50_degenerate: bool
    gene_names: list[str] = field(default_factory=list)
    per_gene_pcc: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_gene_mi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_gene_auc_0vnz: np.ndarray = field(default_factory=lambda: np.zeros(0))
    per_gene_auc_q50: np.ndarray = field(default_factory=lambda: np.zeros(0))


def evaluate(y_hat: np.ndarray, y: np.ndarray, gene_names=None,
             bins: int = 16) -> EvalReport:
    """Full metric sweep with a per-gene breakdown; pcc_s is nan below 2 genes
    and mi_f below `bins` spots."""
    y_hat, y = _as_matrix_pair(y_hat, y)
    n, g = y.shape
    names = list(gene_names) if gene_names is not None else [f"g{i:03d}" for i in range(g)]
    med = float(np.median(y))
    auc0, deg0 = mann_whitney_auc(y_hat.ravel(), y.ravel() > 0.0)
    auc5, deg5 = mann_whitney_auc(y_hat.ravel(), y.ravel() > med)
    per_pcc = _column_pcc(y_hat, y)
    per_mi = np.array([_discrete_mi(quantile_bins(y_hat[:, j], bins),
                                    quantile_bins(y[:, j], bins), bins)
                       for j in range(g)]) if n >= bins else np.full(g, np.nan)
    per_a0 = np.array([mann_whitney_auc(y_hat[:, j], y[:, j] > 0.0)[0]
                       for j in range(g)])
    per_a5 = np.array([mann_whitney_auc(y_hat[:, j], y[:, j] > med)[0]
                       for j in range(g)])
    mi_f = float(np.nanmean(per_mi)) if n >= bins else float("nan")
    pcc_s = pcc_spotwise(y_hat, y) if g >= 2 else float("nan")
    return EvalReport(pcc_f=float(per_pcc.mean()), pcc_s=pcc_s,
                      mi_f=mi_f, auc_0vnz=auc0, auc_q50=auc5,
                      auc_0vnz_degenerate=deg0, auc_q50_degenerate=deg5,
                      gene_names=names, per_gene_pcc=per_pcc, per_gene_mi=per_mi,
                      per_gene_auc_0vnz=per_a0, per_gene_auc_q50=per_a5)


def format_eval_report(report: EvalReport) -> str:
    """Summary block plus a tab-separated per-gene table."""
    lines = [
        f"pcc_f\t{report.pcc_f!r}",
        f"pcc_s\t{report.pcc_s!r}",
        f"mi_f\t{report.mi_f!r}",
        f"auc_0vnz\t{report.auc_0vnz!r}\tdegenerate={report.auc_0vnz_degenerate}",
        f"auc_q50\t{report.auc_q50!r}\tdegenerate={report.auc_q50_degenerate}",
        "",
        "gene\tpcc\tmi\tauc_0vnz\tauc_q50",
    ]
    for j, name in enumerate(report.gene_names):
        lines.append(f"{name}\t{float(report.per_gene_pcc[j])!r}"
                     f"\t{float(report.per_gene_mi[j])!r}"
                     f"\t{float(report.per_gene_auc_0vnz[j])!r}"
                     f"\t{float(report.per_gene_auc_q50[j])!r}")
    return "\n".join(lines) + "\n"
