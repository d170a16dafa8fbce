import itertools

import numpy as np
import pytest

from hexwin.errors import InputError
from hexwin.metrics import (evaluate, format_eval_report, mann_whitney_auc,
                            midranks, pcc_spotwise, quantile_bins)


def pair_counting_auc(scores, labels):
    """Brute-force oracle: concordant pairs plus half ties over all pairs."""
    pos = [s for s, l in zip(scores, labels) if l]
    neg = [s for s, l in zip(scores, labels) if not l]
    total = 0.0
    for p, n in itertools.product(pos, neg):
        if p > n:
            total += 1.0
        elif p == n:
            total += 0.5
    return total / (len(pos) * len(neg))


class TestMannWhitney:
    def test_perfect_separation(self):
        auc, deg = mann_whitney_auc([1, 2, 3, 10, 11], [0, 0, 0, 1, 1])
        assert auc == 1.0 and not deg

    def test_constant_scores(self):
        auc, _ = mann_whitney_auc([5, 5, 5, 5], [0, 1, 0, 1])
        assert auc == 0.5

    def test_anti_ordered(self):
        auc, _ = mann_whitney_auc([1, 2, 3], [1, 0, 0])
        assert auc == pytest.approx(0.0)

    def test_degenerate_single_class(self):
        auc, deg = mann_whitney_auc([1, 2, 3], [1, 1, 1])
        assert auc == 0.5 and deg

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 200))
        # integer-ish scores force plenty of ties
        scores = rng.integers(0, 8, n).astype(float)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        auc, _ = mann_whitney_auc(scores, labels)
        assert auc == pytest.approx(pair_counting_auc(scores, labels), abs=1e-12)

    @pytest.mark.parametrize("seed", range(20))
    def test_invariant_under_monotone_transforms(self, seed):
        rng = np.random.default_rng(1000 + seed)
        scores = rng.normal(0, 1, 60)
        labels = rng.random(60) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        base, _ = mann_whitney_auc(scores, labels)
        for transform in (lambda s: 3 * s + 7, np.exp,
                          lambda s: np.arctan(s) * 2):
            same, _ = mann_whitney_auc(transform(scores), labels)
            assert same == pytest.approx(base, abs=1e-12)

    def test_midranks_average_ties(self):
        np.testing.assert_allclose(midranks(np.array([10.0, 20.0, 20.0, 30.0])),
                                   [1.0, 2.5, 2.5, 4.0])


class TestPcc:
    def test_identity_is_one(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, (10, 5))
        assert evaluate(y, y).pcc_f == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, (10, 5))
        assert evaluate(-y, y).pcc_f == pytest.approx(-1.0, abs=1e-12)

    def test_half_correlated_half_zero(self):
        y = np.stack([np.array([1.0, -1.0, 1.0, -1.0]),
                      np.array([1.0, -1.0, 1.0, -1.0])], axis=1)
        y_hat = y.copy()
        y_hat[:, 1] = np.array([1.0, 1.0, -1.0, -1.0])  # orthogonal, PCC 0
        assert evaluate(y_hat, y).pcc_f == pytest.approx(0.5, abs=1e-12)

    def test_spotwise_mirrors_genewise(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, (6, 9))
        y_hat = rng.normal(0, 1, (6, 9))
        assert pcc_spotwise(y_hat, y) == pytest.approx(
            evaluate(y_hat.T, y.T).pcc_f, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(InputError):
            pcc_spotwise(np.zeros((3, 1)), np.zeros((3, 1)))


class TestMutualInformation:
    def test_identical_distinct_values(self):
        rng = np.random.default_rng(0)
        y = rng.normal(0, 1, (64, 3))
        assert evaluate(y, y, bins=4).mi_f == pytest.approx(np.log(4), abs=1e-12)

    def test_independent_shuffle_near_zero(self):
        rng = np.random.default_rng(7)
        y = rng.normal(0, 1, (4096, 2))
        y_hat = y[rng.permutation(4096)]
        assert evaluate(y_hat, y, bins=16).mi_f < 0.05

    def test_constant_predictions(self):
        y = np.random.default_rng(1).normal(0, 1, (32, 2))
        assert evaluate(np.ones_like(y), y, bins=4).mi_f == 0.0

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, (128, 4))
        b = rng.normal(0, 1, (128, 4)) + 0.5 * a
        assert evaluate(a, b, bins=8).mi_f == pytest.approx(
            evaluate(b, a, bins=8).mi_f, abs=1e-12)

    def test_requires_enough_spots(self):
        # fewer spots than bins: no MI is defined, and evaluate reports nan
        rep = evaluate(np.zeros((3, 2)), np.zeros((3, 2)), bins=4)
        assert np.isnan(rep.mi_f) and np.isnan(rep.per_gene_mi).all()

    def test_quantile_bins_balanced_on_distinct(self):
        x = np.random.default_rng(0).permutation(32).astype(float)
        counts = np.bincount(quantile_bins(x, 4), minlength=4)
        np.testing.assert_array_equal(counts, [8, 8, 8, 8])


class TestAucVariants:
    def test_zero_vs_nonzero(self):
        y = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
        y_hat = np.array([[0.1, 5.0], [0.2, 6.0], [0.3, 7.0]])
        assert evaluate(y_hat, y).auc_0vnz == 1.0

    def test_q50_median_ties_are_negative(self):
        y = np.array([[1.0, 1.0], [1.0, 2.0]])  # median 1.0; only 2.0 is above
        y_hat = np.array([[0.0, 0.0], [0.0, 9.0]])
        assert evaluate(y_hat, y).auc_q50 == 1.0

    def test_per_gene_mode_runs(self):
        rng = np.random.default_rng(4)
        y = np.abs(rng.normal(0, 1, (30, 3)))
        y[rng.random((30, 3)) < 0.3] = 0.0
        y_hat = y + rng.normal(0, 0.1, (30, 3))
        rep = evaluate(y_hat, y)
        pooled, per_gene = rep.auc_0vnz, rep.per_gene_auc_0vnz.mean()
        assert 0.5 < pooled <= 1.0 and 0.5 < per_gene <= 1.0


class TestEvalReport:
    @pytest.mark.parametrize("tied", [False, True])
    def test_aucs_equal_one_rank_pass_per_labeling(self, tied):
        # evaluate ranks each score vector once for both labelings; every
        # AUC equals mann_whitney_auc's own, bit for bit
        rng = np.random.default_rng(5)
        y = np.abs(rng.normal(0, 1, (50, 4)))
        y[rng.random(y.shape) < 0.3] = 0.0
        y_hat = y + rng.normal(0, 0.5, y.shape)
        if tied:
            y_hat, y = np.round(y_hat, 1), np.round(y, 1)
            assert len(np.unique(y_hat)) < y_hat.size / 2
        rep = evaluate(y_hat, y)
        med = np.median(y)
        for value, threshold in ((rep.auc_0vnz, 0.0), (rep.auc_q50, med)):
            assert value == mann_whitney_auc(y_hat, y > threshold)[0]
        for per_gene, threshold in ((rep.per_gene_auc_0vnz, 0.0), (rep.per_gene_auc_q50, med)):
            want = [mann_whitney_auc(y_hat[:, j], y[:, j] > threshold)[0] for j in range(4)]
            np.testing.assert_array_equal(per_gene, want)

    def test_report_on_identity(self):
        rng = np.random.default_rng(0)
        y = np.abs(rng.normal(0, 1, (40, 4)))
        y[rng.random((40, 4)) < 0.25] = 0.0
        rep = evaluate(y, y, gene_names=[f"gene{i}" for i in range(4)], bins=8)
        assert rep.pcc_f == pytest.approx(1.0, abs=1e-12)
        assert rep.pcc_s == pytest.approx(1.0, abs=1e-12)
        assert rep.auc_0vnz == 1.0
        assert not rep.auc_0vnz_degenerate
        assert len(rep.per_gene_pcc) == 4

    def test_format_is_tab_separated(self):
        rng = np.random.default_rng(1)
        y = rng.normal(0, 1, (20, 3))
        text = format_eval_report(evaluate(y, y, bins=4))
        lines = text.strip().split("\n")
        assert lines[0].startswith("pcc_f\t")
        assert lines[6] == "gene\tpcc\tmi\tauc_0vnz\tauc_q50"
        assert len(lines) == 7 + 3
