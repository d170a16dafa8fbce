import numpy as np
import pytest

from hexwin.errors import InputError
from hexwin.hexgeom import cells_for_points, estimate_scale, hex_distance
from hexwin.synth import (SpotDataset, SynthConfig, generate, hex_patch_cells,
                          load_dataset, mock_transcriptomic, save_dataset)


def centered_hex_count(radius):
    # independent oracle: count cells within graph distance radius of origin
    grid = [(q, r) for q in range(-radius, radius + 1)
            for r in range(-radius, radius + 1)]
    return sum(1 for q, r in grid
               if hex_distance(np.array([q, r]), np.zeros(2, dtype=int)) <= radius)


class TestGenerate:
    def test_radius_zero_single_spot(self):
        ds = generate(SynthConfig(radius=0, patterns=("noise",)))
        assert ds.n_spots == 1
        np.testing.assert_allclose(ds.coords[0], [0.0, 0.0])

    def test_radius_three_spot_count(self):
        ds = generate(SynthConfig(radius=3, patterns=("noise",)))
        assert ds.n_spots == centered_hex_count(3) == 37

    def test_determinism(self):
        cfg = SynthConfig(radius=4, jitter=0.05, dropout=0.1, seed=11)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.tokens, b.tokens)
        np.testing.assert_array_equal(a.expression, b.expression)
        assert a.spot_ids == b.spot_ids

    def test_all_spots_dropped_is_input_error(self):
        with pytest.raises(InputError):
            generate(SynthConfig(radius=0, dropout=0.98, seed=0))

    def test_jitter_bound_enforced(self):
        with pytest.raises(InputError):
            SynthConfig(radius=2, jitter=0.5)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(InputError):
            SynthConfig(radius=2, patterns=("volcano",))

    def test_max_spots_keeps_central_patch(self):
        ds = generate(SynthConfig(radius=3, max_spots=7, patterns=("noise",)))
        assert ds.n_spots == 7
        dist = hex_distance(ds.true_cells, np.zeros_like(ds.true_cells))
        assert dist.max() <= 1

    def test_boundary_contrast_at_least_four_sigma(self):
        cfg = SynthConfig(radius=6, seed=5, expression_noise=0.25,
                          patterns=("boundary", "boundary", "gradient", "noise"))
        ds = generate(cfg)
        for g, pat in enumerate(ds.patterns):
            if pat.kind != "boundary":
                continue
            assert pat.high - pat.low >= 4.0 * cfg.expression_noise
            hi = pat.high_region
            realized = ds.expression[hi, g].mean() - ds.expression[~hi, g].mean()
            assert realized >= 3.0 * cfg.expression_noise

    def test_sparse_genes_have_exact_zeros(self):
        ds = generate(SynthConfig(radius=5, seed=2, patterns=("sparse", "sparse")))
        assert np.mean(ds.expression == 0.0) > 0.3

    def test_assay_seed_shares_token_mixing(self):
        a = generate(SynthConfig(radius=2, seed=1, assay_seed=99, jitter=0.0))
        b = generate(SynthConfig(radius=2, seed=2, assay_seed=99, jitter=0.0))
        c = generate(SynthConfig(radius=2, seed=2, assay_seed=100, jitter=0.0))
        # same expression row must embed to the same token direction under a
        # shared assay; a and b differ only in noise draws
        ra = np.linalg.lstsq(a.expression, a.tokens, rcond=None)[0]
        rb = np.linalg.lstsq(b.expression, b.tokens, rcond=None)[0]
        rc = np.linalg.lstsq(c.expression, c.tokens, rcond=None)[0]
        assert np.linalg.norm(ra - rb) < 0.2 * np.linalg.norm(ra)
        assert np.linalg.norm(ra - rc) > 0.5 * np.linalg.norm(ra)


class TestRoundTrip:
    def test_zero_jitter_recovers_cells_exactly(self):
        ds = generate(SynthConfig(radius=10, jitter=0.0, dropout=0.0, seed=0,
                                  patterns=("noise",)))
        scale = estimate_scale(ds.coords, 6)
        cells = cells_for_points(ds.coords, scale)
        np.testing.assert_array_equal(cells, ds.true_cells - ds.true_cells[0])

    def test_jitter_recovery_rate(self):
        # statistical: aggregate recovery over 20 seeds at the worst allowed
        # jitter; the rate is reported either way
        hits = total = 0
        for seed in range(20):
            ds = generate(SynthConfig(radius=10, jitter=0.1, dropout=0.0,
                                      seed=seed, patterns=("noise",)))
            scale = estimate_scale(ds.coords, 6)
            cells = cells_for_points(ds.coords, scale)
            want = ds.true_cells - ds.true_cells[0]
            hits += int(np.all(cells == want, axis=1).sum())
            total += ds.n_spots
        rate = hits / total
        print(f"\nround-trip recovery at jitter 0.1: {rate:.4f}")
        assert rate >= 0.99


class TestMockTranscriptomic:
    def test_identical_rows_identical_embeddings(self):
        expr = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 5.0]])
        t = mock_transcriptomic(expr, 6, seed=0)
        np.testing.assert_array_equal(t[0], t[1])
        assert not np.array_equal(t[0], t[2])

    def test_unit_norm_rows(self):
        rng = np.random.default_rng(0)
        t = mock_transcriptomic(rng.normal(0, 1, (20, 5)), 8, seed=3)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-12)

    def test_correlated_pair_beats_anticorrelated(self):
        base = np.array([1.0, -0.5, 2.0, 0.3])
        expr = np.stack([base, 1.1 * base, -base])
        t = mock_transcriptomic(expr, 8, seed=1)
        cos_corr = t[0] @ t[1]
        cos_anti = t[0] @ t[2]
        assert cos_corr > cos_anti

    def test_zero_row_gets_unit_fallback_or_bias(self):
        t = mock_transcriptomic(np.zeros((2, 3)), 4, seed=0)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0, atol=1e-12)


class TestDatasetIo:
    def test_round_trip_exact(self, tmp_path):
        ds = generate(SynthConfig(radius=3, jitter=0.03, dropout=0.1, seed=4))
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        np.testing.assert_array_equal(back.coords, ds.coords)
        np.testing.assert_array_equal(back.expression, ds.expression)
        np.testing.assert_array_equal(back.tokens, ds.tokens)
        np.testing.assert_array_equal(back.transcriptomic, ds.transcriptomic)
        assert back.spot_ids == ds.spot_ids
        assert back.gene_names == ds.gene_names

    def test_header_layout(self, tmp_path):
        ds = generate(SynthConfig(radius=1, patterns=("boundary", "noise")))
        save_dataset(ds, str(tmp_path))
        header = (tmp_path / "spots.tsv").read_text().splitlines()[0].split("\t")
        assert header[:3] == ["spot_id", "x", "y"]
        assert header[3:] == ds.gene_names

    def test_crlf_spots_file_loads_the_same(self, tmp_path):
        # text mode reads \r\n as a line end: the last gene name keeps no \r
        ds = generate(SynthConfig(radius=1, patterns=("boundary", "noise")))
        save_dataset(ds, str(tmp_path))
        path = tmp_path / "spots.tsv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        back = load_dataset(str(tmp_path))
        assert back.gene_names == ds.gene_names
        np.testing.assert_array_equal(back.expression, ds.expression)

    def test_optional_transcriptomic(self, tmp_path):
        ds = generate(SynthConfig(radius=1, transcriptomic_dim=0))
        assert ds.transcriptomic is None
        save_dataset(ds, str(tmp_path))
        back = load_dataset(str(tmp_path))
        assert back.transcriptomic is None

    def test_row_count_validation(self):
        with pytest.raises(InputError):
            SpotDataset(coords=np.zeros((2, 2)), tokens=np.zeros((3, 4)),
                        expression=np.zeros((2, 1)), transcriptomic=None,
                        spot_ids=["a", "b"], gene_names=["g"])


def test_hex_patch_cells_center_first():
    cells = hex_patch_cells(4)
    np.testing.assert_array_equal(cells[0], [0, 0])
    dist = hex_distance(cells, np.zeros_like(cells))
    assert np.all(np.diff(dist) >= 0)


@pytest.mark.parametrize("radius", range(13))
def test_hex_patch_cells_matches_sorted_enumeration(radius):
    cells = [(q, r) for q in range(-radius, radius + 1)
             for r in range(-radius, radius + 1)
             if max(abs(q), abs(r), abs(q + r)) <= radius]
    cells.sort(key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), c))
    got = hex_patch_cells(radius)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.array(cells).reshape(-1, 2))
