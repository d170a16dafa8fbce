import contextlib
import dataclasses
import io
import json
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexwin.cli import _config, _train_config, build_parser, main
from hexwin.errors import InputError
from hexwin.model import (ModelConfig, build_geometry, init_params, load_checkpoint,
                          save_checkpoint)
from hexwin.render import MAX_WIDTH, draw_spots, heatmap_colors
from hexwin.synth import SpotDataset, SynthConfig, load_dataset, save_dataset
from hexwin.windowing import partition


def read_ppm(path: str) -> np.ndarray:
    """The (H, W, 3) uint8 pixels of a binary P6 file as render.write_ppm writes it."""
    with open(path, "rb") as fh:
        assert fh.readline().strip() == b"P6"
        w, h = (int(v) for v in fh.readline().split())
        fh.readline()  # maxval
        data = np.frombuffer(fh.read(), dtype=np.uint8)
    return data.reshape(h, w, 3)


def write_config(path, synth=None, model=None, train=None):
    cfg = {}
    if synth is not None:
        cfg["synth"] = synth
    if model is not None:
        cfg["model"] = model
    if train is not None:
        cfg["train"] = train
    path.write_text(json.dumps(cfg))
    return str(path)


SMALL_SYNTH = {"radius": 3, "jitter": 0.02, "dropout": 0.0, "seed": 5,
               "patterns": ["boundary", "gradient", "noise"],
               "token_dim": 5, "transcriptomic_dim": 3}
SMALL_MODEL = {"dim": 6, "heads": 1, "stages": 2, "blocks": 2, "radii": [1],
               "out_dim": 4, "t_dim": 3}


# the message a case's rejection must carry, by test case id
NAMED_FIELD = {"scalar-radii": "model.radii must be tuple[int, ...], got 3",
               "string-patterns": "synth.patterns must be tuple[str, ...], got 'sparse'",
               "fortran-order": "tokens.json: need dtype '<f8', order 'C'",
               "retired-spacing": "unknown synth config key(s) spacing;",
               "huge-radius": "radius 1000000 gives 3000003000001 spots x 13 values per spot, "
                              "over the budget of 67108864 float64 values",
               "huge-token-dim": "radius 3 gives 37 spots x 1000000000008 values per spot",
               "huge-transcriptomic-dim": "radius 3 gives 37 spots x 1000000000010 values",
               "jitter-above-bound": "jitter must lie in [0, 0.05]: the anchor spot's own"}


def assert_invalid_input(capsys, argv):
    """The command exits 1 with one `invalid input:` line and no traceback."""
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("invalid input: "), err
    return err[0]


@pytest.fixture()
def dataset_dir(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", synth=SMALL_SYNTH)
    out = tmp_path / "data"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    return out


class TestGenerate:
    def test_writes_files_with_matching_header(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", synth=SMALL_SYNTH)
        out = tmp_path / "d"
        assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "spots.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert len(header) - 3 == 3
        assert len(lines) - 1 == 37

    def test_same_seed_identical_bytes(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", synth=SMALL_SYNTH)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b)]) == 0
        for name in ("spots.tsv", "tokens.bin", "tokens.json",
                     "transcriptomic.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", synth=SMALL_SYNTH)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", cfg, "--out", str(a)]) == 0
        assert main(["generate", "--config", cfg, "--out", str(b),
                     "--seed", "99"]) == 0
        assert (a / "spots.tsv").read_bytes() != (b / "spots.tsv").read_bytes()


class TestPartition:
    def test_records_and_verify(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "part.tsv"
        assert main(["partition", "--dataset", str(dataset_dir), "--k", "1",
                     "--shift", "0", "--out", str(out)]) == 0
        summary = capsys.readouterr().out.split(" -> ")[0].split(", ")
        windows = int(summary[0].split()[0])
        assert summary[1] == "7 slots"
        largest = int(summary[2].removeprefix("largest "))
        assert -(-37 // windows) <= largest <= 7
        assert summary[3] == f"fill {37 / (windows * 7):.3f}" and len(summary) == 4
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["spot_id", "stage", "block", "window",
                                        "slot", "center_x", "center_y"]
        assert len(lines) - 1 == 37

    def test_collision_is_exit_three_and_lenient_is_unknown(self, tmp_path, capsys):
        # spot 5 moved next to spot 4 shares its cell: the error names both, and
        # no flag places one of them anyway
        data = tmp_path / "data"
        assert main(["generate", "--seed", "1", "--out", str(data)]) == 0
        ds = load_dataset(str(data))
        coords = ds.coords.copy()
        coords[5] = coords[4] + (0.05, 0.02)
        save_dataset(dataclasses.replace(ds, coords=coords), str(data))
        out = tmp_path / "part.tsv"
        argv = ["partition", "--dataset", str(data), "--k", "1", "--out", str(out)]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and re.search(r"spots 4 and 5 both map to window \d+ slot \d+$",
                                           err[0]), err
        # training builds the same stage-0 partition first
        assert main(["train", "--dataset", str(data), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.strip().splitlines() == err
        assert main(argv + ["--lenient"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and "--lenient" in err[0], err
        assert not out.exists()

    def test_rejected_partition_is_exit_three(self, dataset_dir, tmp_path, capsys,
                                              monkeypatch):
        # every partition is re-checked before it is written: one whose spot 1
        # takes spot 0's slot fails check_partition
        def duplicate_slot(*args, **kwargs):
            part = partition(*args, **kwargs)
            part.window_of_spot[1] = part.window_of_spot[0]
            part.slot_of_spot[1] = part.slot_of_spot[0]
            return part

        monkeypatch.setattr("hexwin.cli.partition", duplicate_slot)
        out = tmp_path / "p.tsv"
        capsys.readouterr()
        assert main(["partition", "--dataset", str(dataset_dir), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric/consistency failure: "), err
        assert "duplicate (window, slot)" in err[0]
        assert not out.exists()

    def test_shifts_produce_different_assignments(self, dataset_dir, tmp_path):
        outs = []
        for shift in (0, 1, 2):
            p = tmp_path / f"s{shift}.tsv"
            assert main(["partition", "--dataset", str(dataset_dir),
                         "--k", "1", "--shift", str(shift),
                         "--out", str(p)]) == 0
            outs.append(p.read_text())
        assert outs[0] != outs[1] and outs[1] != outs[2] and outs[0] != outs[2]

    def test_render_writes_ppm(self, dataset_dir, tmp_path):
        img = tmp_path / "w.ppm"
        assert main(["partition", "--dataset", str(dataset_dir), "--k", "2",
                     "--shift", "0", "--out", str(tmp_path / "p.tsv"),
                     "--render", str(img)]) == 0
        rgb = read_ppm(str(img))
        assert rgb.ndim == 3 and rgb.shape[2] == 3

    def test_few_spots_use_the_training_scale(self, tmp_path):
        # a 5-spot slide has fewer than 6 neighbours per spot; partition
        # estimates its scale as build_geometry does, so both agree
        cfg = write_config(tmp_path / "c.json", synth={**SMALL_SYNTH, "max_spots": 5})
        data, out = tmp_path / "d", tmp_path / "p.tsv"
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["partition", "--dataset", str(data), "--k", "1", "--shift", "0",
                     "--out", str(out)]) == 0
        ds = load_dataset(str(data))
        mcfg = ModelConfig(in_dim=5, genes=3, stages=2, radii=(1,))
        part = build_geometry(ds.coords, mcfg).partitions[0][0]
        rows = [line.split("\t") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == ds.n_spots == 5
        np.testing.assert_array_equal([int(r[3]) for r in rows], part.window_of_spot)
        np.testing.assert_array_equal([int(r[4]) for r in rows], part.slot_of_spot)


class TestTrainEvalRender:
    def test_train_eval_render_pipeline(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "mc.json", model=SMALL_MODEL,
                           train={"steps": 4, "lr": 0.005, "seed": 1,
                                  "eval_every": 2})
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset_dir), "--config", cfg,
                     "--out", str(run)]) == 0
        assert (run / "checkpoint.bin").exists()
        log = (run / "log.tsv").read_text().splitlines()
        assert log[0] == "step\tmse\tpearson\ttfa\tdev\ttotal"
        assert len(log) == 5

        report = tmp_path / "report.txt"
        assert main(["eval", "--dataset", str(dataset_dir), "--checkpoint",
                     str(run / "checkpoint.bin"), "--out", str(report)]) == 0
        assert report.read_text().startswith("pcc_f\t")

        rend = tmp_path / "imgs"
        assert main(["render", "--dataset", str(dataset_dir), "--checkpoint",
                     str(run / "checkpoint.bin"), "--out", str(rend)]) == 0
        assert len(list(rend.glob("*.ppm"))) == 3

    def test_render_without_checkpoint_draws_truth(self, dataset_dir, tmp_path):
        out = tmp_path / "imgs"
        assert main(["render", "--dataset", str(dataset_dir), "--genes", "g001_gradient",
                     "--width", "120", "--out", str(out)]) == 0
        ds = load_dataset(str(dataset_dir))
        want = draw_spots(ds.coords, heatmap_colors(ds.expression[:, 1]), 120)
        assert (out / "g001_gradient.ppm").read_bytes() == (
            f"P6\n120 {want.shape[0]}\n255\n".encode() + want.tobytes())

    def test_render_truth_constant_gene(self, tmp_path):
        n = 9
        rng = np.random.default_rng(0)
        coords = rng.normal(0, 2, (n, 2))
        expr = np.column_stack([np.full(n, 7.0), rng.normal(0, 1, n)])
        ds = SpotDataset(coords=coords, tokens=rng.normal(0, 1, (n, 4)),
                         expression=expr, transcriptomic=None,
                         spot_ids=[f"s{i}" for i in range(n)],
                         gene_names=["flat", "vary"])
        ddir = tmp_path / "d"
        save_dataset(ds, str(ddir))
        out = tmp_path / "imgs"
        assert main(["render", "--dataset", str(ddir), "--genes", "flat",
                     "--out", str(out)]) == 0
        note = (out / "flat.txt").read_text()
        assert "+/- 0.0000" in note
        rgb = read_ppm(str(out / "flat.ppm"))
        colors = {tuple(c) for c in rgb.reshape(-1, 3)}
        assert len(colors) == 2  # background plus one spot color

    def test_one_gene_slide_runs_end_to_end(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           synth={**SMALL_SYNTH, "patterns": ["boundary"]}, model=SMALL_MODEL,
                           train={"steps": 2, "lr": 0.005, "seed": 1, "eval_every": 1})
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["train", "--dataset", str(data), "--config", cfg,
                     "--out", str(run)]) == 0
        assert "pcc_s\tnan\n" in (run / "evals.txt").read_text()
        report = tmp_path / "report.txt"
        assert main(["eval", "--dataset", str(data), "--checkpoint",
                     str(run / "checkpoint.bin"), "--out", str(report)]) == 0
        assert "pcc_s\tnan\n" in report.read_text()

    def test_t_dim_follows_dataset(self, tmp_path):
        # no config: in_dim, genes and t_dim all come from the dataset
        data, run = tmp_path / "data", tmp_path / "run"
        cfg = write_config(tmp_path / "c.json",
                           synth={**SMALL_SYNTH, "transcriptomic_dim": 2})
        assert main(["generate", "--config", cfg, "--out", str(data)]) == 0
        assert main(["train", "--dataset", str(data), "--steps", "1",
                     "--out", str(run)]) == 0
        params, mcfg = load_checkpoint(str(run / "checkpoint.bin"))
        assert mcfg.t_dim == 2 and params["tfa.w"].shape == (mcfg.out_dim, 2)

    def test_regenerated_slide_without_embeddings_has_none(self, dataset_dir, tmp_path):
        # the first slide's embeddings must not load as the second one's
        cfg = write_config(tmp_path / "c.json", synth={**SMALL_SYNTH, "transcriptomic_dim": 0})
        assert main(["generate", "--config", cfg, "--out", str(dataset_dir)]) == 0
        assert not list(dataset_dir.glob("transcriptomic.*"))
        assert load_dataset(str(dataset_dir)).transcriptomic is None
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset_dir), "--steps", "1",
                     "--out", str(run)]) == 0
        assert load_checkpoint(str(run / "checkpoint.bin"))[1].t_dim == 0

    def test_loss_off_flag(self, dataset_dir, tmp_path):
        cfg = write_config(tmp_path / "mc.json", model=SMALL_MODEL,
                           train={"steps": 2, "lr": 0.005, "seed": 1})
        run = tmp_path / "run"
        assert main(["train", "--dataset", str(dataset_dir), "--config", cfg,
                     "--out", str(run), "--loss-off", "tfa,dev"]) == 0
        line = (run / "log.tsv").read_text().splitlines()[1].split("\t")
        assert float(line[3]) == 0.0 and float(line[4]) == 0.0


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, dataset_dir):
        assert main(["partition", "--dataset", str(dataset_dir),
                     "--bogus"]) == 1

    def test_unknown_subcommand_is_usage_error(self):
        assert main(["explode"]) == 1

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert main(["partition", "--dataset", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "x.tsv")]) == 2

    @pytest.mark.parametrize("kept,missing", [("transcriptomic.json", "transcriptomic.bin"),
                                              ("transcriptomic.bin", "transcriptomic.json")])
    def test_lone_embedding_file_is_io_error(self, dataset_dir, tmp_path, capsys,
                                             kept, missing):
        (dataset_dir / missing).unlink()
        capsys.readouterr()
        assert main(["partition", "--dataset", str(dataset_dir),
                     "--out", str(tmp_path / "p.tsv")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: "), err
        assert str(dataset_dir / missing) in err[0]

    @pytest.mark.parametrize("stem", ["tokens", "transcriptomic"])
    def test_row_count_mismatch_names_the_file(self, dataset_dir, tmp_path, capsys, stem):
        arr = np.fromfile(dataset_dir / f"{stem}.bin", dtype="<f8").reshape(37, -1)[:36]
        arr.tofile(dataset_dir / f"{stem}.bin")
        (dataset_dir / f"{stem}.json").write_text(json.dumps(
            {"dtype": "<f8", "order": "C", "shape": list(arr.shape)}))
        line = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                             "--out", str(tmp_path / "p.tsv")])
        assert line == f"invalid input: {dataset_dir / stem}.bin has 36 rows, spots.tsv has 37 spots"

    def test_numeric_failure_is_exit_three(self, dataset_dir, tmp_path, monkeypatch):
        # a token corrupted past the loader's finiteness check makes training
        # abort on a non-finite loss
        ds = load_dataset(str(dataset_dir))
        ds.tokens[0, 0] = np.nan
        monkeypatch.setattr("hexwin.cli.load_dataset", lambda path: ds)
        cfg = write_config(tmp_path / "mc.json", model=SMALL_MODEL,
                           train={"steps": 1, "lr": 0.005, "seed": 1})
        assert main(["train", "--dataset", str(dataset_dir), "--config", cfg,
                     "--out", str(tmp_path / "run")]) == 3

    @pytest.mark.parametrize("command", ["eval", "render"])
    def test_overflowing_checkpoint_is_exit_three(self, dataset_dir, tmp_path, capsys,
                                                  command):
        # finite weights whose predictions overflow to inf and then nan
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), {k: np.full_like(v, 1e200)
                                    for k, v in init_params(cfg, 0).items()}, cfg)
        out = tmp_path / "out"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")     # a RuntimeWarning would raise here
            assert main([command, "--dataset", str(dataset_dir), "--checkpoint",
                         str(ckpt), "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric/consistency failure: "), err
        assert str(ckpt) in err[0] and "non-finite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_overflowing_score_is_exit_three(self, dataset_dir, tmp_path, capsys, command):
        # a finite token this large gives finite predictions whose squares
        # overflow in the correlation
        ds = load_dataset(str(dataset_dir))
        ds.tokens[0, 0] = 2.3e307
        save_dataset(ds, str(dataset_dir))
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        argv = {"eval": ["eval", "--checkpoint", str(ckpt)],
                "train": ["train", "--steps", "1", "--out", str(tmp_path / "run")]}[command]
        capsys.readouterr()
        assert main(argv + ["--dataset", str(dataset_dir)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("numeric/consistency failure: overflow"), err
        assert f"({command} --dataset {dataset_dir}" in err[0], err

    def test_render_width_over_cap_is_usage_error(self, dataset_dir, tmp_path, capsys):
        # a width this large would ask numpy for exbibytes; the cap fires first
        line = assert_invalid_input(capsys, ["render", "--dataset", str(dataset_dir),
                                             "--width", "1000000000",
                                             "--out", str(tmp_path / "imgs")])
        assert str(MAX_WIDTH) in line
        assert not (tmp_path / "imgs").exists()
        with pytest.raises(InputError):
            draw_spots(np.zeros((2, 2)), np.zeros((2, 3)), width=MAX_WIDTH + 1)

    def test_render_unknown_gene_writes_nothing(self, dataset_dir, tmp_path, capsys):
        line = assert_invalid_input(capsys, ["render", "--dataset", str(dataset_dir),
                                             "--genes", "g000_boundary,nope",
                                             "--out", str(tmp_path / "imgs")])
        assert "unknown gene 'nope'" in line
        assert not (tmp_path / "imgs").exists()

    @pytest.mark.parametrize("edit", [lambda b: b[:-1], lambda b: b + b"\0"],
                             ids=["truncated", "trailing-byte"])
    def test_mis_sized_checkpoint_is_usage_error(self, dataset_dir, tmp_path,
                                                 capsys, edit):
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        args = ["eval", "--dataset", str(dataset_dir), "--checkpoint", str(ckpt)]
        assert main(args) == 0
        ckpt.write_bytes(edit(ckpt.read_bytes()))
        capsys.readouterr()
        assert main(args) == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("edit", [
        lambda cfg: json.dumps(cfg)[:-5],
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "heads": 0}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "radii": 3}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "blocks": 1.5}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "depth": 2}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "stepz": 2}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1,
                                                 "weights": {"gamma": 1.0}}}),
        lambda cfg: json.dumps({**cfg, "modle": SMALL_MODEL}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "dim": 8, "heads": 2}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "dim": 6, "heads": 2,
                                                 "pe": "rope2d"}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "eval_every": 0}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "eval_every": -1}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "seed": -1}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "out_dim": 0}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "t_dim": -1}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "mlp_hidden": -2}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "knn_k": 0}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "rope_base": 0}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "rope_base": -3}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "rope_base": float("inf")}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "rope_base": float("nan")}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "radii": [1.5]}}),
        lambda cfg: json.dumps({**cfg, "model": {**SMALL_MODEL, "square_sides": [2.5]}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1,
                                                 "weights": {"dev": float("inf")}}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "adam_beta2": 1.0}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "adam_beta1": 1.5}}),
        lambda cfg: json.dumps({**cfg, "train": {"steps": 1, "adam_eps": 0.0}}),
    ], ids=["malformed-json", "zero-heads", "scalar-radii", "float-blocks",
            "unknown-model-key", "unknown-train-key", "unknown-weight-key",
            "unknown-section", "hexrope-head-dim-4", "rope2d-head-dim-3",
            "zero-eval-every", "negative-eval-every", "negative-train-seed",
            "zero-out-dim", "negative-t-dim", "negative-mlp-hidden", "zero-knn-k",
            "zero-rope-base", "negative-rope-base", "infinite-rope-base",
            "nan-rope-base", "float-radius", "float-square-side", "infinite-weight",
            "adam-beta2-one", "adam-beta1-above-one", "zero-adam-eps"])
    def test_bad_config_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                       edit, request):
        path = tmp_path / "cfg.json"
        argv = ["train", "--dataset", str(dataset_dir), "--config", str(path),
                "--out", str(tmp_path / "run")]
        cfg = {"model": SMALL_MODEL, "train": {"steps": 1}}
        path.write_text(json.dumps(cfg))
        assert main(argv) == 0
        path.write_text(edit(cfg))
        line = assert_invalid_input(capsys, argv)
        assert NAMED_FIELD.get(request.node.callspec.id, "") in line

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, dataset_dir, tmp_path,
                                                     capsys, lr):
        cfg = write_config(tmp_path / "mc.json", model=SMALL_MODEL, train={"steps": 2})
        line = assert_invalid_input(capsys, ["train", "--dataset", str(dataset_dir),
                                             "--config", cfg, "--lr", lr,
                                             "--out", str(tmp_path / "run")])
        assert "train.lr must be finite" in line

    def test_t_dim_mismatch_names_both_widths(self, dataset_dir, tmp_path, capsys):
        cfg = write_config(tmp_path / "mc.json", model={**SMALL_MODEL, "t_dim": 5})
        line = assert_invalid_input(capsys, ["train", "--dataset", str(dataset_dir),
                                             "--config", cfg, "--out", str(tmp_path / "run")])
        assert "t_dim 5" in line and "width 3" in line

    @pytest.mark.parametrize("edit", [
        {"radus": 3}, {"seed": -1}, {"assay_seed": -2}, {"expression_noise": -1},
        {"token_noise": -0.5}, {"transcriptomic_dim": -1}, {"max_spots": -3},
        {"token_dim": 0}, {"token_dim": -1}, {"patterns": []},
        {"boundary_high": float("nan")}, {"patterns": "sparse"}, {"jitt\r": 0.02},
        {"spacing": 1.0}, {"radius": 1000000}, {"token_dim": 10 ** 12},
        {"transcriptomic_dim": 10 ** 12}, {"jitter": 0.1},
    ], ids=["unknown-key", "negative-seed", "assay-seed-below-minus-one",
            "negative-expression-noise", "negative-token-noise",
            "negative-transcriptomic-dim", "negative-max-spots", "zero-token-dim",
            "negative-token-dim", "no-patterns", "nan-boundary-high", "string-patterns",
            "carriage-return-key", "retired-spacing", "huge-radius", "huge-token-dim",
            "huge-transcriptomic-dim", "jitter-above-bound"])
    def test_unknown_synth_key_is_usage_error(self, tmp_path, capsys, edit, request):
        cfg = write_config(tmp_path / "c.json", synth={**SMALL_SYNTH, **edit})
        line = assert_invalid_input(capsys, ["generate", "--config", cfg,
                                             "--out", str(tmp_path / "d")])
        assert NAMED_FIELD.get(request.node.callspec.id, "") in line
        assert not (tmp_path / "d").exists()

    @staticmethod
    def edited_checkpoint(tmp_path, old, new, **model):
        """A valid SMALL_MODEL checkpoint, with model overrides, with one header
        field rewritten and the header length updated to match."""
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in {**SMALL_MODEL, **model}.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        magic, length, rest = ckpt.read_bytes().split(b"\n", 2)
        head, data = rest[:int(length)], rest[int(length):]
        assert head.count(old) == 1
        head = head.replace(old, new)
        ckpt.write_bytes(b"%s\n%d\n%s%s" % (magic, len(head), head, data))
        return str(ckpt)

    def test_zero_heads_checkpoint_is_usage_error(self, dataset_dir, tmp_path,
                                                  capsys):
        ckpt = self.edited_checkpoint(tmp_path, b'"heads":1,', b'"heads":0,')
        assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                      "--checkpoint", ckpt])

    @pytest.mark.parametrize("old,new", [(b'"in_dim":5,', b'"in_dim":0,'),
                                         (b'"genes":3,', b'"genes":0,'),
                                         (b'"out_dim":4,', b'"out_dim":0,'),
                                         (b'"radii":[1],', b'"radii":[1],"rope_base":0.0,')],
                             ids=["zero-in-dim", "zero-genes", "zero-out-dim",
                                  "zero-rope-base"])
    def test_out_of_range_checkpoint_header_is_usage_error(self, dataset_dir, tmp_path,
                                                           capsys, old, new):
        ckpt = self.edited_checkpoint(tmp_path, old, new)
        assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                      "--checkpoint", ckpt])

    @pytest.mark.parametrize("section,key,value", [
        ("model", "rope_base", 10000.0), ("model", "mlp_hidden", 6),
        ("model", "knn_k", 6), ("model", "square_sides", [2]),
        ("train", "adam_beta1", 0.9), ("train", "adam_beta2", 0.999),
        ("train", "adam_eps", 1e-8), ("train", "optimizer", "adam"),
        ("header", "rope_base", 10000.0),
    ])
    def test_removed_setting_is_named(self, dataset_dir, tmp_path, capsys,
                                      section, key, value):
        # these settings are now fixed; configs and older checkpoint headers
        # that still carry one, even at its fixed value, are rejected
        if section == "header":
            ckpt = self.edited_checkpoint(tmp_path, b'"radii":[1],',
                                          b'"radii":[1],"%s":%r,' % (key.encode(), value))
            argv = ["eval", "--dataset", str(dataset_dir), "--checkpoint", ckpt]
        else:
            cfg = {"model": SMALL_MODEL, "train": {"steps": 1}}
            cfg[section] = {**cfg[section], key: value}
            argv = ["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
                    "--config", write_config(tmp_path / "cfg.json", **cfg)]
        line = assert_invalid_input(capsys, argv)
        assert f"unknown {section.replace('header', 'model')} config key(s) {key};" in line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("radii,stage", [([1, 2, 1000000], 2), ([1000000, 2, 4], 0)])
    @pytest.mark.parametrize("window", ["hex", "square"])
    def test_checkpoint_window_over_slot_budget_is_usage_error(self, dataset_dir, tmp_path,
                                                               capsys, radii, stage, window):
        new = b'"radii":%s' % json.dumps(radii, separators=(",", ":")).encode()
        ckpt = self.edited_checkpoint(tmp_path, b'"radii":[1,2,3]', new, stages=4,
                                      radii=[1, 2, 3], window=window)
        line = assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                             "--checkpoint", ckpt])
        size = radii[stage] if window == "hex" else 2 * radii[stage]
        assert f"{size} needs " in line and "over the budget of 65536" in line

    @pytest.mark.parametrize("edit", [{"dim": 100000, "heads": 1}, {"blocks": 10 ** 9}],
                             ids=["wide", "deep"])
    @pytest.mark.parametrize("where", ["config", "header"])
    def test_model_over_parameter_budget_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                                        edit, where):
        # rejected on the config, before any parameter or layout entry exists
        if where == "header":  # SMALL_MODEL already has one head
            key, value = next(iter(edit.items()))
            ckpt = self.edited_checkpoint(tmp_path, b'"%s":%d,' % (key.encode(), SMALL_MODEL[key]),
                                          b'"%s":%d,' % (key.encode(), value))
            argv = ["eval", "--dataset", str(dataset_dir), "--checkpoint", ckpt]
        else:
            argv = ["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
                    "--config", write_config(tmp_path / "cfg.json",
                                             model={**SMALL_MODEL, **edit})]
        line = assert_invalid_input(capsys, argv)
        assert re.search(r"model has \d+ parameters, over the budget of 67108864$", line), line
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flags", [["--k", "300"], ["--k", "1000000"],
                                       ["--square-side", "1000000"]])
    def test_partition_over_slot_budget_is_usage_error(self, dataset_dir, tmp_path,
                                                       capsys, flags):
        out = tmp_path / "p.tsv"
        line = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                             "--out", str(out), *flags])
        assert f"{flags[1]} needs " in line and "over the budget of 65536" in line
        assert not out.exists()

    @pytest.mark.parametrize("edit", [
        lambda head, data: head["tensors"][0].update(name="embedding.w"),
        lambda head, data: head["tensors"][0]["shape"].reverse(),
        lambda head, data: head["config"].update(dim=64),
        lambda head, data: (head["tensors"].append({"name": "extra", "shape": [1]}),
                            data.extend(bytes(8))),
        lambda head, data: data.__setitem__(slice(-8, None), np.float64(np.nan).tobytes()),
    ], ids=["renamed-tensor", "reversed-shape", "config-dim", "extra-tensor", "nan-weight"])
    def test_checkpoint_off_its_config_layout_is_usage_error(self, dataset_dir, tmp_path,
                                                             capsys, edit):
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        magic, length, rest = ckpt.read_bytes().split(b"\n", 2)
        head, data = json.loads(rest[:int(length)]), bytearray(rest[int(length):])
        edit(head, data)
        text = json.dumps(head).encode()
        ckpt.write_bytes(b"%s\n%d\n%s%s" % (magic, len(text), text, data))
        assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                      "--checkpoint", str(ckpt)])

    def test_unrotatable_head_dim_checkpoint_is_usage_error(self, dataset_dir, tmp_path,
                                                            capsys):
        # dim 6 over 2 heads: head dim 3 holds no hexrope channel pair
        ckpt = self.edited_checkpoint(tmp_path, b'"heads":1,', b'"heads":2,')
        line = assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                             "--checkpoint", ckpt])
        assert "head dim 3" in line

    @pytest.mark.parametrize("edit", [
        lambda d: (d / "tokens.json").write_text(
            '{"dtype": "<f8", "order": "C", "shape": [37, 4]}'),
        lambda d: (d / "spots.tsv").write_text(
            (d / "spots.tsv").read_text().replace("\n", "\tnot-a-field\n", 2)),
        lambda d: (d / "spots.tsv").write_text(
            "\n".join(line if i != 3 else "\t".join(line.split("\t")[:3])
                      for i, line in enumerate((d / "spots.tsv").read_text()
                                               .splitlines()))),
        lambda d: (d / "spots.tsv").write_text(
            "\n".join(line if i != 2 else "\t".join(
                [line.split("\t")[0], "nan"] + line.split("\t")[2:])
                for i, line in enumerate((d / "spots.tsv").read_text()
                                         .splitlines()))),
        lambda d: (d / "spots.tsv").write_text(
            "\n".join(line if i != 2 else "\t".join(line.split("\t")[:-1] + ["nan"])
                      for i, line in enumerate((d / "spots.tsv").read_text()
                                               .splitlines()))),
        lambda d: np.concatenate([np.fromfile(d / "tokens.bin", dtype="<f8")[:-1], [np.inf]])
        .tofile(d / "tokens.bin"),
        lambda d: (d / "spots.tsv").write_bytes(
            (d / "spots.tsv").read_bytes()[:40] + b"\xff" + (d / "spots.tsv").read_bytes()[41:]),
        lambda d: (d / "tokens.json").write_text(
            (d / "tokens.json").read_text().replace('"order": "C"', '"order": "F"')),
    ], ids=["tokens-shape", "ragged-header-row", "missing-fields", "nan-x",
            "nan-expression", "inf-token", "non-utf8-spots", "fortran-order"])
    def test_bad_dataset_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                        edit, request):
        edit(dataset_dir)
        line = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                             "--out", str(tmp_path / "p.tsv")])
        assert NAMED_FIELD.get(request.node.callspec.id, "") in line

    @pytest.mark.parametrize("name,row", [("spots.tsv", 1), ("tokens.bin", 36),
                                          ("transcriptomic.bin", 0)])
    def test_non_finite_data_names_file_and_spot(self, dataset_dir, tmp_path, capsys,
                                                 name, row):
        ds = load_dataset(str(dataset_dir))
        {"spots.tsv": ds.expression, "tokens.bin": ds.tokens,
         "transcriptomic.bin": ds.transcriptomic}[name][row, -1] = np.nan
        save_dataset(ds, str(dataset_dir))
        line = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                             "--out", str(tmp_path / "p.tsv")])
        assert str(dataset_dir / name) in line and repr(ds.spot_ids[row]) in line

    @pytest.mark.parametrize("command", ["eval", "render"])
    @pytest.mark.parametrize("widths", [dict(in_dim=4, genes=3), dict(in_dim=5, genes=2)],
                             ids=["tokens", "genes"])
    def test_checkpoint_width_mismatch_is_usage_error(self, dataset_dir, tmp_path,
                                                      capsys, command, widths):
        cfg = ModelConfig(**widths, **{k: tuple(v) if k == "radii" else v
                                       for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        out = tmp_path / "out"
        assert_invalid_input(capsys, [command, "--dataset", str(dataset_dir),
                                      "--checkpoint", str(ckpt), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--seeds", "0"],
        ["render", "--width", "0"],
        ["render", "--width", "-3"],
    ], ids=["gradcheck-seeds", "render-width", "render-negative-width"])
    def test_non_positive_count_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                               argv):
        if argv[0] == "render":
            argv = argv + ["--dataset", str(dataset_dir), "--out", str(tmp_path / "imgs")]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and ">= 1" in err[0]
        assert not (tmp_path / "imgs").exists()

    def test_gradcheck_tolerance_is_fixed(self, capsys):
        # the contract is exit 0 iff the worst error is below 1e-4; no flag moves it
        capsys.readouterr()
        assert main(["gradcheck", "--tol", "1e-3"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err

    def test_optimizer_flag_is_gone(self, dataset_dir, tmp_path, capsys):
        # Adam is the only update rule; naming one, even Adam, is refused
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
                     "--optimizer", "adam"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and "--optimizer" in err[0]
        assert not (tmp_path / "run").exists()

    def test_unusable_out_fails_before_training(self, dataset_dir, tmp_path, capsys,
                                                monkeypatch):
        def no_train(*args):
            raise AssertionError("train() ran before --out was checked")

        monkeypatch.setattr("hexwin.cli.train", no_train)
        taken = tmp_path / "taken"
        taken.write_text("")
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(taken)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("i/o error: "), err

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "0"),
                                            ("--h", "nan"), ("--h", "-1")])
    def test_non_positive_float_is_usage_error(self, capsys, flag, value):
        # gradcheck takes no float flags, so these values are refused as usage
        capsys.readouterr()
        assert main(["gradcheck", flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err

    @pytest.mark.parametrize("argv", [["render", "--source", "truth"], ["partition", "--verify"]],
                             ids=["render-source", "partition-verify"])
    def test_removed_flag_is_usage_error(self, dataset_dir, tmp_path, capsys, argv):
        # render's source follows --checkpoint and partition always verifies
        capsys.readouterr()
        assert main(argv + ["--dataset", str(dataset_dir), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: ") and argv[1] in err[0], err
        assert not (tmp_path / "o").exists()

    def test_duplicate_spot_id_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = dataset_dir / "spots.tsv"
        lines = path.read_text().splitlines()
        first, fifth = lines[1].split("\t")[0], lines[5].split("\t", 1)
        lines[5] = "\t".join([first, fifth[1]])
        path.write_text("\n".join(lines) + "\n")
        err = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                            "--out", str(tmp_path / "p.tsv")])
        assert f"duplicate spot id {first!r}" in err

    @pytest.mark.parametrize("name", ["../../escaped", "g\0", "g0\rx", "g000_boundary", ""],
                             ids=["parent-dir", "nul-byte", "carriage-return", "duplicate",
                                  "empty"])
    def test_bad_gene_name_writes_nothing(self, dataset_dir, tmp_path, capsys, name):
        # render writes <out>/<gene>.ppm: a gene name may not lead out of
        # --out, fail to name a file or overwrite another gene's image
        path = dataset_dir / "spots.tsv"
        header, rows = path.read_text().split("\n", 1)
        path.write_text("\t".join(header.split("\t")[:-1] + [name]) + "\n" + rows)
        before = sorted(tmp_path.rglob("*"))
        line = assert_invalid_input(capsys, ["render", "--dataset", str(dataset_dir),
                                             "--out", str(tmp_path / "heat" / "maps")])
        assert sorted(tmp_path.rglob("*")) == before
        assert f"{path}: gene {name!r}: gene names must be" in line

    def test_unknown_loss_term_is_usage_error(self, dataset_dir, tmp_path, capsys):
        capsys.readouterr()
        assert main(["train", "--dataset", str(dataset_dir), "--out", str(tmp_path / "run"),
                     "--loss-off", "tfa,nope"]) == 1
        assert capsys.readouterr().err == "usage error: unknown loss term 'nope' in --loss-off\n"
        assert not (tmp_path / "run").exists()


# the config helper each command calls; in_dim and genes come from the dataset
CONFIG_BUILDERS = {
    "synth": lambda section, args: _config(SynthConfig, section, "synth", args),
    "model": lambda section, args: _config(ModelConfig, section, "model", args,
                                           in_dim=5, genes=3),
    "train": _train_config,
}


# each flag, the config field it overrides, a config-file value for that
# field other than its default, and a flag value other than both
@pytest.mark.parametrize("command,flag,section,field,in_file,given", [
    ("generate", "--seed", "synth", "seed", 2, "7"),
    ("train", "--seed", "train", "seed", 2, "7"),
    ("train", "--steps", "train", "steps", 5, "3"),
    ("train", "--lr", "train", "lr", 0.25, "0.5"),
    ("train", "--eval-every", "train", "eval_every", 6, "4"),
    ("train", "--window", "model", "window", "square", "hex"),
    ("train", "--pe", "model", "pe", "rope2d", "hexrope"),
])
def test_flag_overrides_the_field_it_names(command, flag, section, field, in_file, given):
    argv = [command, "--out", "o"] + ["--dataset", "d"] * (command == "train")
    for extra, want in (([flag, given], type(in_file)(given)), ([], in_file)):
        args = build_parser().parse_args(argv + extra)
        assert getattr(CONFIG_BUILDERS[section]({field: in_file}, args), field) == want


def test_readme_config_example_runs(tmp_path):
    # the JSON block under "### Config file" must name only keys the code accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"### Config file\n.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(block)
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["generate", "--config", str(cfg), "--out", str(data)]) == 0
    assert main(["train", "--dataset", str(data), "--config", str(cfg), "--out", str(run),
                 "--steps", "1"]) == 0


def test_readme_cli_commands_parse():
    # every command in the ```sh block under "## CLI" must use only flags the parser takes
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line.split("#")[0].split() for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in commands if words]
    assert commands and all(words[0] == "hexwin" for words in commands)
    for words in commands:
        assert build_parser().parse_args(words[1:]).command == words[1]


def test_idempotent_partition_outputs(dataset_dir, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["partition", "--dataset", str(dataset_dir), "--k", "1",
                     "--shift", "1", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A config, the dataset it generates and a checkpoint trained on that dataset."""
    base = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(base / "cfg.json", synth=SMALL_SYNTH, model=SMALL_MODEL,
                       train={"steps": 1})
    assert main(["generate", "--config", cfg, "--out", str(base / "data")]) == 0
    assert main(["train", "--dataset", str(base / "data"), "--config", cfg,
                 "--out", str(base / "run")]) == 0
    return base


# each target file and the command run on it after its mutation
FUZZ_TARGETS = [("run/checkpoint.bin", "eval"), ("data/tokens.json", "eval"),
                ("data/tokens.bin", "eval"), ("data/transcriptomic.json", "eval"),
                ("data/spots.tsv", "eval"), ("cfg.json", "train"), ("cfg.json", "generate"),
                ("data/spots.tsv", "render")]
FUZZ_ARGV = {"eval": "eval --dataset {w}/data --checkpoint {w}/run/checkpoint.bin",
             "train": "train --dataset {w}/data --config {w}/cfg.json --steps 1 --out {w}/out",
             "generate": "generate --config {w}/cfg.json --out {w}/out",
             "render": "render --dataset {w}/data --out {w}/out"}


def file_bytes(root: Path) -> dict:
    """The bytes of every file under root, by path."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


def json_addresses(node, path=()):
    """The key path of every value inside a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_addresses(value, path + (key,))


def mutate(blob: bytes, is_json: bool, data) -> bytes:
    """One truncation, byte flip or byte deletion; on JSON also a key deletion or
    a value replaced by one of another JSON type."""
    kinds = ["truncate", "flip", "delete-byte"] + ["delete-key", "retype"] * is_json
    kind = data.draw(st.sampled_from(kinds), label="mutation")
    if kind in ("delete-key", "retype"):
        doc = json.loads(blob)
        addresses = [a for a in json_addresses(doc)
                     if kind == "retype" or isinstance(a[-1], str)]
        *parents, key = data.draw(st.sampled_from(addresses), label="address")
        node = doc
        for step in parents:
            node = node[step]
        if kind == "delete-key":
            del node[key]
        else:
            node[key] = data.draw(st.sampled_from(
                [v for v in (None, "x", [1], {}, True, 0.5) if type(v) is not type(node[key])]),
                label="value")
        return json.dumps(doc).encode()
    i = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if kind == "truncate":
        return blob[:i]
    if kind == "delete-byte":
        return blob[:i] + blob[i + 1:]
    return blob[:i] + bytes([blob[i] ^ data.draw(st.integers(1, 255), label="xor")]) + blob[i + 1:]


@settings(max_examples=500)
@given(data=st.data())
def test_mutated_inputs_exit_with_one_line(fuzz_base, data):
    """A corrupted input file ends in a documented exit code with one stderr
    line, never in an escaped exception or a warning, and no file outside
    --out is created or changed."""
    target, command = data.draw(st.sampled_from(FUZZ_TARGETS), label="target")
    with tempfile.TemporaryDirectory(dir=fuzz_base) as work:
        for name in ("cfg.json", "data", "run"):
            copy = shutil.copytree if name != "cfg.json" else shutil.copy
            copy(fuzz_base / name, f"{work}/{name}")
        path = f"{work}/{target}"
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(mutate(blob, path.endswith(".json"), data))
        before = file_bytes(fuzz_base)
        out, err = io.StringIO(), io.StringIO()
        with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            warnings.simplefilter("error")
            code = main(FUZZ_ARGV[command].format(w=work).split())
        after = file_bytes(fuzz_base)
        assert {p: b for p, b in after.items() if Path(work, "out") not in p.parents} == before
    assert code in (0, 1, 2, 3)
    assert code == 0 or len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
