"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured margins. Criteria 8 and 9 train models and dominate the
runtime (several minutes single-core).
"""

import dataclasses
import time

import numpy as np
import pytest

from hexwin.hexgeom import (SQRT3, LatticeScale, axial_to_cartesian,
                            cells_for_points, cube_round, estimate_scale,
                            hex_distance)
from hexwin.losses import (LossWeights, loss_dev, loss_pearson, loss_total)
from hexwin.metrics import mann_whitney_auc, pcc_genewise
from hexwin.model import (ModelConfig, build_geometry, forward, init_params,
                          load_checkpoint)
from hexwin.rope import RopeConfig, apply_hex_rope, axial_to_cube
from hexwin.synth import SynthConfig, generate
from hexwin.trainer import TrainConfig, grad_check, toy_grad_check_inputs, train
from hexwin.windowing import build_slot_set, check_partition, partition

PASS = "ACCEPTANCE {:>2}: PASS - {}"

LEARN_PATTERNS = ("boundary",) * 4 + ("gradient",) * 4 + ("sparse",) * 4 + ("noise",) * 4
ASSAY_SEED = 1234
LEARN_MODEL = ModelConfig(in_dim=32, genes=16, dim=32, heads=4, stages=4,
                          blocks=3, radii=(1, 2, 4), out_dim=16, t_dim=16)


def learn_dataset(seed, token_rule="informative"):
    return generate(SynthConfig(radius=10, jitter=0.05, dropout=0.05, seed=seed,
                                assay_seed=ASSAY_SEED, patterns=LEARN_PATTERNS,
                                token_rule=token_rule, token_dim=32,
                                token_noise=0.05, boundary_high=6.0,
                                transcriptomic_dim=16))


LEARN_TRAIN = TrainConfig(steps=500, lr=1e-2, seed=7, eval_every=100,
                          patience=1000)


@pytest.fixture(scope="module")
def learn_run():
    """Training run shared by criteria 8 and 9; wall time counts toward 8."""
    start = time.time()
    ds = learn_dataset(7)
    result = train(ds, LEARN_MODEL, LEARN_TRAIN)
    return ds, result, time.time() - start


def hex_disk(radius):
    return np.array([(q, r) for q in range(-radius, radius + 1)
                     for r in range(-radius, radius + 1)
                     if max(abs(q), abs(r), abs(q + r)) <= radius])


def test_criterion_1_geometry_oracles():
    start = time.time()
    # hex_distance vs BFS shortest path, all pairs within radius 6
    cells = hex_disk(6)
    dirs = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    ball = hex_disk(13)
    index = {tuple(c): i for i, c in enumerate(ball)}
    adjacency = [[index[(q + dq, r + dr)] for dq, dr in dirs
                  if (q + dq, r + dr) in index] for q, r in ball]
    cell_rows = np.array([index[tuple(c)] for c in cells])
    for a in cells:
        # BFS over the radius-13 ball (shortest paths between radius-6 cells
        # never need to leave it)
        dist = np.full(len(ball), -1)
        dist[index[tuple(a)]] = 0
        frontier = [index[tuple(a)]]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adjacency[i]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        np.testing.assert_array_equal(
            hex_distance(np.broadcast_to(a, cells.shape), cells),
            dist[cell_rows])

    # cube_round vs brute-force nearest cell on the 0.01 grid over [-5, 5]^2
    xs = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.01), 2)
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    scale = LatticeScale.from_spacing(SQRT3, (0.0, 0.0))
    cand_offsets = np.array([(dq, dr) for dq in (-1, 0, 1, 2)
                             for dr in (-1, 0, 1, 2)])
    ties = 0
    for lo in range(0, len(grid), 200_000):
        chunk = grid[lo:lo + 200_000]
        got = cube_round(chunk)
        pts = axial_to_cartesian(chunk, scale)
        cands = np.floor(chunk).astype(np.int64)[:, None, :] + cand_offsets
        d2 = ((axial_to_cartesian(cands.astype(float), scale)
               - pts[:, None, :]) ** 2).sum(-1)
        two = np.partition(d2, 1, axis=1)[:, :2]
        nearest = cands[np.arange(len(chunk)), np.argmin(d2, axis=1)]
        got_d2 = ((axial_to_cartesian(got.astype(float), scale) - pts) ** 2).sum(-1)
        on_boundary = (two[:, 1] - two[:, 0]) < 1e-9
        # non-boundary points must match the unique nearest cell exactly
        assert np.all(np.all(got == nearest, axis=1)[~on_boundary])
        # boundary ties resolve to one of the tied nearest cells
        assert np.all(got_d2 <= two[:, 0] + 1e-9)
        ties += int(on_boundary.sum())
    elapsed = time.time() - start
    assert elapsed < 10.0
    print(PASS.format(1, f"geometry oracles exact (BFS + nearest-cell, "
                         f"{elapsed:.1f}s < 10s; {ties} boundary ties "
                         f"handled by documented tie-break)"))


def test_criterion_2_slot_set_cardinality():
    for k in range(9):
        ss = build_slot_set(k)
        enum = {(dq, dr) for dq in range(-k, k + 1) for dr in range(-k, k + 1)
                if max(abs(dq), abs(dr), abs(dq + dr)) <= k}
        assert len(ss) == len(enum) == 3 * k * k + 3 * k + 1
        assert {tuple(o) for o in ss.offsets} == enum
    print(PASS.format(2, "slot-set size 3K^2+3K+1 vs enumeration, K = 0..8"))


def test_criterion_3_partition_soundness():
    start = time.time()
    worst_margin = 0
    for seed in range(50):
        ds = generate(SynthConfig(radius=10, jitter=0.05, dropout=0.1,
                                  seed=seed, patterns=("noise",), token_dim=4,
                                  transcriptomic_dim=0))
        scale = estimate_scale(ds.coords, 6)
        cells = cells_for_points(ds.coords, scale)
        for stage, radius in enumerate((1, 2, 4)):
            for block, shift in enumerate((0, 1, 2)):
                part = partition(ds.coords, cells, scale, radius, shift,
                                 stage=stage, block=block)
                check_partition(part, cells)
                assert np.all(part.window_of_spot >= 0)
                assert len(part.dropped) == 0
                off = part.cell_offsets
                dist = hex_distance(off, np.zeros_like(off))
                assert dist.max() <= radius
                worst_margin = max(worst_margin, int(dist.max()))
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(PASS.format(3, f"50 jittered lattices x 3 stages x 3 shifts are true "
                         f"partitions within slot radius ({elapsed:.1f}s < 30s)"))


def test_criterion_4_hexrope_properties():
    rng = np.random.default_rng(2024)
    cfg = RopeConfig(head_dim=16, n_axes=3)

    def rand_cube():
        qr = rng.integers(-8, 9, 2)
        return axial_to_cube(qr).astype(float)

    worst = 0.0
    for _ in range(200):
        q = rng.normal(0, 1, 16)
        k = rng.normal(0, 1, 16)
        p1, p2, delta = rand_cube(), rand_cube(), rand_cube()
        base = apply_hex_rope(q, p1, cfg) @ apply_hex_rope(k, p2, cfg)
        moved = (apply_hex_rope(q, p1 + delta, cfg)
                 @ apply_hex_rope(k, p2 + delta, cfg))
        worst = max(worst, abs(base - moved))
    assert worst < 1e-9

    h = rng.normal(0, 1, (64, 16))
    offs = np.stack([rand_cube() for _ in range(64)])
    out = apply_hex_rope(h, offs, cfg)
    norm_err = np.abs(np.linalg.norm(out[:, :cfg.per_axis * 3], axis=1)
                      - np.linalg.norm(h[:, :cfg.per_axis * 3], axis=1)).max()
    assert norm_err < 1e-12
    np.testing.assert_array_equal(apply_hex_rope(h, np.zeros((64, 3)), cfg), h)
    print(PASS.format(4, f"relative-position invariance (worst {worst:.2e} "
                         f"< 1e-9), isometry ({norm_err:.2e} < 1e-12), "
                         f"zero-offset identity exact"))


def test_criterion_5_gradient_certification():
    start = time.time()
    worst = 0.0
    weights = LossWeights()  # 0.001 / 1.0 / 0.1 / 0.1
    assert (weights.mse, weights.pearson, weights.tfa, weights.dev) == \
        (0.001, 1.0, 0.1, 0.1)
    for seed in range(5):
        ds, cfg = toy_grad_check_inputs(seed)
        assert ds.n_spots == 20 and cfg.stages == 2 and cfg.heads == 2
        report = grad_check(ds, cfg, h=1e-5, seed=seed)
        worst = max(worst, report["max_rel_error"])
    elapsed = time.time() - start
    assert worst < 1e-4
    assert elapsed < 120.0
    print(PASS.format(5, f"analytic vs central-difference gradient of the "
                         f"full objective, 5 seeds: worst rel err "
                         f"{worst:.2e} < 1e-4 ({elapsed:.0f}s < 120s)"))


def test_criterion_6_loss_constants():
    rng = np.random.default_rng(10)
    y = rng.normal(0, 1, (12, 5))
    assert loss_pearson(y, y) == pytest.approx(0.0, abs=1e-12)
    assert loss_pearson(-y, y) == pytest.approx(2.0, abs=1e-12)
    for _ in range(20):
        a = rng.normal(0, 1, (9, 4))
        b = rng.normal(0, 1, (9, 4))
        assert 0.0 <= loss_pearson(a, b) <= 2.0
    dev = y - y.mean(axis=0)
    assert loss_dev(dev, y) == pytest.approx(0.0, abs=1e-12)
    assert loss_total(1.0, 1.0, 1.0, 1.0).total == pytest.approx(1.201, abs=1e-12)
    print(PASS.format(6, "loss endpoints exact: pearson {0,2}, matched "
                         "deviations 0, weighted-sum example 1.201"))


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(4, 201))
        scores = rng.integers(0, 10, n).astype(float)
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        auc, _ = mann_whitney_auc(scores, labels)
        pos = scores[labels]
        neg = scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        assert auc == pytest.approx(oracle, abs=1e-12)
        monotone, _ = mann_whitney_auc(np.exp(scores / 3.0) * 2 + 1, labels)
        assert monotone == pytest.approx(auc, abs=1e-12)
    y = rng.normal(0, 1, (30, 8))
    assert pcc_genewise(y, y) == pytest.approx(1.0, abs=1e-12)
    print(PASS.format(7, "Mann-Whitney AUC == pair counting (100 instances), "
                         "monotone invariance, identity PCC == 1"))


def test_criterion_8_learnability(learn_run):
    start = time.time()
    train_ds, result, fixture_seconds = learn_run
    assert sum(p.kind == "boundary" for p in train_ds.patterns) >= 4
    assert train_ds.n_genes == 16

    # held-out slide: same assay, fresh geometry/noise
    test_ds = learn_dataset(8)
    geo = build_geometry(test_ds.coords, LEARN_MODEL)
    out = forward(test_ds.tokens, geo, result.params, LEARN_MODEL, train=False)
    pcc = pcc_genewise(out.y_hat, test_ds.expression)
    assert pcc > 0.5

    ratios = []
    for g, pat in enumerate(test_ds.patterns):
        if pat.kind != "boundary":
            continue
        hi = pat.high_region
        truth = test_ds.expression[hi, g].mean() - test_ds.expression[~hi, g].mean()
        pred = out.y_hat[hi, g].mean() - out.y_hat[~hi, g].mean()
        ratios.append(pred / truth)
    ratios = np.array(ratios)
    assert np.all(ratios >= 0.5)

    # negative control: same protocol with pure-noise tokens
    noise_train = learn_dataset(7, "pure-noise")
    noise_result = train(noise_train, LEARN_MODEL, LEARN_TRAIN)
    noise_test = learn_dataset(8, "pure-noise")
    noise_geo = build_geometry(noise_test.coords, LEARN_MODEL)
    noise_out = forward(noise_test.tokens, noise_geo, noise_result.params,
                        LEARN_MODEL, train=False)
    noise_pcc = pcc_genewise(noise_out.y_hat, noise_test.expression)
    assert abs(noise_pcc) < 0.1

    elapsed = time.time() - start + fixture_seconds
    assert elapsed < 600.0
    print(PASS.format(8, f"learnability: held-out-slide pcc {pcc:.3f} > 0.5, "
                         f"boundary contrast retained {np.round(ratios, 2)} "
                         f">= 0.5, noise control |{noise_pcc:+.3f}| < 0.1 "
                         f"({elapsed:.0f}s < 600s incl. training)"))


def test_criterion_9_ablation_plumbing(learn_run):
    train_ds, _, _ = learn_run
    tcfg = dataclasses.replace(LEARN_TRAIN, steps=30, eval_every=10)
    variants = {
        "hex+hexrope": dataclasses.replace(LEARN_MODEL),
        "hex+rope2d": dataclasses.replace(LEARN_MODEL, pe="rope2d"),
        "square+rope2d": dataclasses.replace(LEARN_MODEL, window="square",
                                             pe="rope2d"),
    }
    reports = {}
    for name, cfg in variants.items():
        res = train(train_ds, cfg, tcfg)
        assert res.eval_log, f"{name} emitted no eval reports"
        reports[name] = res.eval_log[-1][1]
        assert np.isfinite(reports[name].pcc_f)

    for term in ("mse", "pearson", "tfa", "dev"):
        weights = dataclasses.replace(tcfg.weights, **{term: 0.0})
        res = train(train_ds, LEARN_MODEL, dataclasses.replace(tcfg, weights=weights))
        assert res.eval_log, f"loss toggle {term} emitted no eval reports"
        reports[f"off-{term}"] = res.eval_log[-1][1]

    # determinism of a full configuration rerun
    again = train(train_ds, variants["square+rope2d"], tcfg)
    assert again.eval_log[-1][1].pcc_f == reports["square+rope2d"].pcc_f
    summary = {k: round(v.pcc_f, 3) for k, v in reports.items()}
    print(PASS.format(9, f"ablation matrix runs end-to-end, deterministic; "
                         f"eval pcc_f {summary}"))


def test_criterion_10_translation_invariance():
    ds = learn_dataset(5)
    cfg = dataclasses.replace(LEARN_MODEL, stages=3, radii=(1, 2))
    rng = np.random.default_rng(0)
    params = {k: v + rng.normal(0, 0.03, v.shape)
              for k, v in init_params(cfg, 0).items()}
    geo = build_geometry(ds.coords, cfg)
    base = forward(ds.tokens, geo, params, cfg, train=False)
    scale = geo.scale
    e1 = np.array([0.0, SQRT3 * 1 * scale.s_spot])
    geo_moved = build_geometry(ds.coords + e1, cfg)
    moved = forward(ds.tokens, geo_moved, params, cfg, train=False)
    err = np.abs(moved.y_hat - base.y_hat).max()
    assert err < 1e-9
    print(PASS.format(10, f"translation by e1 changes predictions by "
                          f"{err:.2e} < 1e-9"))


def test_criterion_11_pipeline_determinism(tmp_path):
    import json

    from hexwin.cli import main

    cfg = {"synth": {"radius": 5, "jitter": 0.04, "dropout": 0.05, "seed": 9,
                     "patterns": ["boundary", "gradient", "sparse", "noise"],
                     "token_dim": 8, "transcriptomic_dim": 6},
           "model": {"dim": 12, "heads": 2, "stages": 2, "blocks": 2,
                     "radii": [1], "out_dim": 6, "t_dim": 6},
           "train": {"steps": 50, "lr": 0.005, "seed": 9, "eval_every": 10}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    artifacts = {}
    for run in ("one", "two"):
        data_dir = tmp_path / run / "data"
        run_dir = tmp_path / run / "run"
        assert main(["generate", "--config", str(cfg_path), "--out",
                     str(data_dir)]) == 0
        assert main(["train", "--dataset", str(data_dir), "--config",
                     str(cfg_path), "--out", str(run_dir)]) == 0
        report = tmp_path / run / "eval.txt"
        assert main(["eval", "--dataset", str(data_dir), "--checkpoint",
                     str(run_dir / "checkpoint.bin"), "--out",
                     str(report)]) == 0
        artifacts[run] = {
            "spots": (data_dir / "spots.tsv").read_bytes(),
            "tokens": (data_dir / "tokens.bin").read_bytes(),
            "log": (run_dir / "log.tsv").read_bytes(),
            "evals": (run_dir / "evals.txt").read_bytes(),
            "ckpt": (run_dir / "checkpoint.bin").read_bytes(),
            "report": report.read_bytes(),
        }
    for key in artifacts["one"]:
        assert artifacts["one"][key] == artifacts["two"][key], key
    # checkpoints round-trip and carry the config
    params, loaded_cfg = load_checkpoint(str(tmp_path / "one" / "run"
                                             / "checkpoint.bin"))
    assert loaded_cfg.dim == 12 and len(params) > 0
    print(PASS.format(11, "generate -> train 50 steps -> eval twice: logs, "
                          "checkpoints and reports byte-identical"))
