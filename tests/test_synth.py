import hashlib

import numpy as np
import pytest

from hexwin.errors import InputError
from hexwin.hexgeom import cells_for_points, estimate_scale, hex_distance
from hexwin.model import ModelConfig, build_geometry
from hexwin.synth import (JITTER_MAX, SpotDataset, SynthConfig, generate, hex_patch_cells,
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
        for jitter in (-0.01, 0.051, 0.1, 0.5):
            with pytest.raises(InputError, match="share a lattice cell"):
                SynthConfig(radius=2, jitter=jitter)

    @pytest.mark.parametrize("window", ["hex", "square"])
    def test_largest_jitter_builds_without_collision(self, window):
        # build_geometry raises SlotCollisionError unless every partition of a
        # radius-28 slide (N ~ 2.3k) places each spot in a slot of its own
        cfg = ModelConfig(in_dim=4, genes=1, window=window, pe="rope2d")
        for seed in range(4):
            ds = generate(SynthConfig(radius=28, jitter=JITTER_MAX, dropout=0.05, seed=seed,
                                      patterns=("noise",), token_dim=4, transcriptomic_dim=0))
            build_geometry(ds.coords, cfg)

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
            ds = generate(SynthConfig(radius=10, jitter=JITTER_MAX, dropout=0.0,
                                      seed=seed, patterns=("noise",)))
            scale = estimate_scale(ds.coords, 6)
            cells = cells_for_points(ds.coords, scale)
            want = ds.true_cells - ds.true_cells[0]
            hits += int(np.all(cells == want, axis=1).sum())
            total += ds.n_spots
        rate = hits / total
        print(f"\nround-trip recovery at jitter {JITTER_MAX}: {rate:.4f}")
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

    def test_file_bytes_are_pinned(self, tmp_path):
        # sha256 of what save_dataset wrote for this seeded slide when each
        # value was formatted as repr(float(v)); the format may not drift
        save_dataset(generate(SynthConfig(radius=3, jitter=0.03, dropout=0.1, seed=4)),
                     str(tmp_path))
        pinned = {
            "spots.tsv": "9cf78816dfea1b098d9be8a65f627bdbb482dfeaed072ae433ca0d4fdfd72e7f",
            "tokens.bin": "978dd69c9f4e399c1440bd13c33e649ec66b34e0f15c8085edea428ccbe37ad2",
            "tokens.json": "ada9fa31d240a8e15c0ea3d26ea25be00d1e97d50f0c16cc9d47786548b20eca",
            "transcriptomic.bin":
                "5bad1ad49ad7071e6d668b78293228e22f279100848f5b5107e70af9ea2323d7",
            "transcriptomic.json":
                "ada9fa31d240a8e15c0ea3d26ea25be00d1e97d50f0c16cc9d47786548b20eca",
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(pinned)
        for name, digest in pinned.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_crlf_spots_file_loads_the_same(self, tmp_path):
        # one trailing \r per line is a line end's: no field keeps it
        ds = generate(SynthConfig(radius=1, patterns=("boundary", "noise")))
        save_dataset(ds, str(tmp_path / "lf"))
        save_dataset(ds, str(tmp_path / "crlf"))
        path = tmp_path / "crlf" / "spots.tsv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        lf, crlf = load_dataset(str(tmp_path / "lf")), load_dataset(str(tmp_path / "crlf"))
        assert (crlf.spot_ids, crlf.gene_names) == (lf.spot_ids, lf.gene_names)
        for name in ("coords", "expression", "tokens", "transcriptomic"):
            np.testing.assert_array_equal(getattr(crlf, name), getattr(lf, name))

    def test_lone_carriage_return_stays_in_its_field(self, tmp_path):
        # a \r inside the header is no line end: the gene check names the gene
        save_dataset(generate(SynthConfig(radius=1, patterns=("boundary", "noise"))),
                     str(tmp_path))
        path = tmp_path / "spots.tsv"
        header, rows = path.read_text().split("\n", 1)
        fields = header.split("\t")
        fields[3] = "g0\rx"
        path.write_bytes(("\t".join(fields) + "\n" + rows).encode())
        with pytest.raises(InputError, match=r"gene 'g0\\rx': gene names must be"):
            load_dataset(str(tmp_path))

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
