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
from .losses import cosine, matching_pair


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


def mann_whitney_auc(scores: np.ndarray, labels: np.ndarray,
                     ranks: np.ndarray | None = None) -> tuple[float, bool]:
    """Probability a positive outranks a negative (ties count half).

    Returns (auc, degenerate); degenerate is True when only one class is
    present, in which case the auc defaults to 0.5. `ranks`, when given,
    must be midranks(scores): one rank pass then serves several labelings.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels, dtype=bool).ravel()
    if scores.shape != labels.shape:
        raise ShapeError("scores and labels must have the same length")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5, True
    ranks = midranks(scores) if ranks is None else ranks
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg)), False


def _column_pcc(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-column Pearson correlation; zero-variance columns contribute 0."""
    return cosine(a - a.mean(axis=0), b - b.mean(axis=0), 0)[0]


def pcc_spotwise(y_hat: np.ndarray, y: np.ndarray) -> float:
    """Mean over spots of the correlation across genes."""
    y_hat, y = matching_pair(y_hat, y, "pcc_spotwise")
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


@dataclass(frozen=True)
class EvalReport:
    pcc_f: float                 # mean over genes of the across-spot correlation
    pcc_s: float                 # mean over spots of the across-gene correlation
    mi_f: float                  # mean over genes of quantile-binned MI (nats)
    auc_0vnz: float              # pooled over all cells, label truth > 0
    auc_q50: float               # label truth > global median; median ties are negatives
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
    y_hat, y = matching_pair(y_hat, y, "evaluate")
    n, g = y.shape
    names = list(gene_names) if gene_names is not None else [f"g{i:03d}" for i in range(g)]
    med = float(np.median(y))
    # each score vector is ranked once, for both of its labelings
    flat = y_hat.ravel()
    ranks = midranks(flat)
    auc0, deg0 = mann_whitney_auc(flat, y.ravel() > 0.0, ranks)
    auc5, deg5 = mann_whitney_auc(flat, y.ravel() > med, ranks)
    per_pcc = _column_pcc(y_hat, y)
    per_mi = np.array([_discrete_mi(quantile_bins(y_hat[:, j], bins),
                                    quantile_bins(y[:, j], bins), bins)
                       for j in range(g)]) if n >= bins else np.full(g, np.nan)
    per_a0, per_a5 = np.zeros(g), np.zeros(g)
    for j in range(g):
        ranks = midranks(y_hat[:, j])
        per_a0[j] = mann_whitney_auc(y_hat[:, j], y[:, j] > 0.0, ranks)[0]
        per_a5[j] = mann_whitney_auc(y_hat[:, j], y[:, j] > med, ranks)[0]
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
