import json

import numpy as np
import pytest

from hexwin.cli import main
from hexwin.model import ModelConfig, init_params, save_checkpoint
from hexwin.render import read_ppm
from hexwin.synth import SpotDataset, load_dataset, save_dataset


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
                     "--shift", "0", "--out", str(out), "--verify"]) == 0
        summary = capsys.readouterr().out.split(" -> ")[0].split(", ")
        windows = int(summary[0].split()[0])
        assert summary[1] == "7 slots"
        largest = int(summary[2].removeprefix("largest "))
        assert -(-37 // windows) <= largest <= 7
        assert summary[3] == f"fill {37 / (windows * 7):.3f}"
        assert summary[4] == "0 dropped"
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["spot_id", "stage", "block", "window",
                                        "slot", "center_x", "center_y"]
        assert len(lines) - 1 == 37

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
        assert main(["render", "--dataset", str(ddir), "--source", "truth",
                     "--genes", "flat", "--out", str(out)]) == 0
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
    ], ids=["malformed-json", "zero-heads", "scalar-radii", "float-blocks",
            "unknown-model-key", "unknown-train-key", "unknown-weight-key",
            "unknown-section", "hexrope-head-dim-4", "rope2d-head-dim-3",
            "zero-eval-every", "negative-eval-every", "negative-train-seed",
            "zero-out-dim", "negative-t-dim", "negative-mlp-hidden", "zero-knn-k",
            "zero-rope-base", "negative-rope-base", "infinite-rope-base",
            "nan-rope-base"])
    def test_bad_config_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                       edit):
        path = tmp_path / "cfg.json"
        argv = ["train", "--dataset", str(dataset_dir), "--config", str(path),
                "--out", str(tmp_path / "run")]
        cfg = {"model": SMALL_MODEL, "train": {"steps": 1}}
        path.write_text(json.dumps(cfg))
        assert main(argv) == 0
        path.write_text(edit(cfg))
        assert_invalid_input(capsys, argv)

    @pytest.mark.parametrize("edit", [
        {"radus": 3}, {"seed": -1}, {"assay_seed": -2}, {"expression_noise": -1},
        {"token_noise": -0.5}, {"transcriptomic_dim": -1}, {"max_spots": -3},
        {"token_dim": 0}, {"token_dim": -1}, {"patterns": []},
    ], ids=["unknown-key", "negative-seed", "assay-seed-below-minus-one",
            "negative-expression-noise", "negative-token-noise",
            "negative-transcriptomic-dim", "negative-max-spots", "zero-token-dim",
            "negative-token-dim", "no-patterns"])
    def test_unknown_synth_key_is_usage_error(self, tmp_path, capsys, edit):
        cfg = write_config(tmp_path / "c.json", synth={**SMALL_SYNTH, **edit})
        assert_invalid_input(capsys, ["generate", "--config", cfg,
                                      "--out", str(tmp_path / "d")])
        assert not (tmp_path / "d").exists()

    @staticmethod
    def edited_checkpoint(tmp_path, old, new):
        """A valid SMALL_MODEL checkpoint with one header field rewritten."""
        cfg = ModelConfig(in_dim=5, genes=3, **{k: tuple(v) if k == "radii" else v
                                                for k, v in SMALL_MODEL.items()})
        ckpt = tmp_path / "ckpt.bin"
        save_checkpoint(str(ckpt), init_params(cfg, 0), cfg)
        blob = ckpt.read_bytes()
        assert blob.count(old) == 1
        ckpt.write_bytes(blob.replace(old, new))
        return str(ckpt)

    def test_zero_heads_checkpoint_is_usage_error(self, dataset_dir, tmp_path,
                                                  capsys):
        ckpt = self.edited_checkpoint(tmp_path, b'"heads":1,', b'"heads":0,')
        assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                      "--checkpoint", ckpt])

    @pytest.mark.parametrize("old,new", [(b'"in_dim":5,', b'"in_dim":0,'),
                                         (b'"genes":3,', b'"genes":0,'),
                                         (b'"out_dim":4,', b'"out_dim":0,'),
                                         (b'"rope_base":10000.0,', b'"rope_base":0.0,')],
                             ids=["zero-in-dim", "zero-genes", "zero-out-dim",
                                  "zero-rope-base"])
    def test_out_of_range_checkpoint_header_is_usage_error(self, dataset_dir, tmp_path,
                                                           capsys, old, new):
        ckpt = self.edited_checkpoint(tmp_path, old, new)
        assert_invalid_input(capsys, ["eval", "--dataset", str(dataset_dir),
                                      "--checkpoint", ckpt])

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
    ], ids=["tokens-shape", "ragged-header-row", "missing-fields", "nan-x",
            "nan-expression", "inf-token"])
    def test_bad_dataset_is_usage_error(self, dataset_dir, tmp_path, capsys,
                                        edit):
        edit(dataset_dir)
        assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                      "--out", str(tmp_path / "p.tsv")])

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

    def test_render_pred_without_checkpoint_is_usage_error(self, dataset_dir,
                                                           tmp_path):
        assert main(["render", "--dataset", str(dataset_dir), "--out",
                     str(tmp_path / "imgs")]) == 1

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
        ["render", "--source", "truth", "--width", "0"],
        ["render", "--source", "truth", "--width", "-3"],
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

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "0"),
                                            ("--h", "nan"), ("--h", "-1")])
    def test_non_positive_float_is_usage_error(self, capsys, flag, value):
        capsys.readouterr()
        assert main(["gradcheck", flag, value]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("usage error: "), err

    def test_duplicate_spot_id_is_usage_error(self, dataset_dir, tmp_path, capsys):
        path = dataset_dir / "spots.tsv"
        lines = path.read_text().splitlines()
        first, fifth = lines[1].split("\t")[0], lines[5].split("\t", 1)
        lines[5] = "\t".join([first, fifth[1]])
        path.write_text("\n".join(lines) + "\n")
        err = assert_invalid_input(capsys, ["partition", "--dataset", str(dataset_dir),
                                            "--out", str(tmp_path / "p.tsv")])
        assert f"duplicate spot id {first!r}" in err


def test_idempotent_partition_outputs(dataset_dir, tmp_path):
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    for out in (a, b):
        assert main(["partition", "--dataset", str(dataset_dir), "--k", "1",
                     "--shift", "1", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
