"""Command-line entry point: generate, partition, train, eval, gradcheck, render.

One JSON config file (sections "synth", "model", "train") drives the
pipeline. A flag overrides the config field of the same name (--eval-every
sets train.eval_every), and a config field overrides its default.
Exit codes are stable for scripting: 0 success, 1 usage error, 2 I/O error,
3 numeric or consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .errors import CoverageError, InputError, NumericError, SlotCollisionError
from .losses import LossWeights
from .metrics import evaluate, format_eval_report
from .model import ModelConfig, build_geometry, config_from_dict, forward, \
    load_checkpoint, save_checkpoint, scale_and_cells
from .render import draw_spots, heatmap_annotation, heatmap_colors, partition_image, write_ppm
from .synth import SynthConfig, generate, load_dataset, save_dataset
from .trainer import TrainConfig, grad_check, toy_grad_check_inputs, train
from .windowing import check_partition, format_partition_records, partition, \
    partition_square

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
GRAD_TOL = 1e-4  # gradcheck passes iff the worst relative error is below this
LOSS_TERMS = [f.name for f in fields(LossWeights)]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # flags match only in full: `--h` is not `--help`
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # argparse default exits 2; our contract is 1
        raise UsageError(message)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: not a JSON config: {exc}") from None
    if not isinstance(cfg, dict):
        raise InputError(f"{path}: config root must be a JSON object")
    for key, section in cfg.items():
        if key not in ("synth", "model", "train"):
            raise InputError(f"{path}: unknown config section {key!r}; "
                             f"allowed: synth, model, train")
        if not isinstance(section, dict):
            raise InputError(f"{path}: config section {key!r} must be a JSON object")
    return cfg


def _config(cls, section: dict, name: str, args, **fixed):
    """cls from its config section: a given flag overrides the field its dest
    names, and fixed overrides both."""
    flags = {f.name: getattr(args, f.name) for f in fields(cls)
             if getattr(args, f.name, None) is not None}
    return config_from_dict(cls, section, name, **{**flags, **fixed})


def _train_config(section: dict, args) -> TrainConfig:
    off = [name.strip() for name in (args.loss_off or "").split(",") if name.strip()]
    for name in off:
        if name not in LOSS_TERMS:
            raise UsageError(f"unknown loss term {name!r} in --loss-off")
    section = dict(section)
    weights = config_from_dict(LossWeights, section.pop("weights", {}),
                               "train.weights", **dict.fromkeys(off, 0.0))
    return _config(TrainConfig, section, "train", args, weights=weights)


def cmd_generate(args) -> int:
    cfg = _config(SynthConfig, _load_config(args.config).get("synth", {}), "synth", args)
    ds = generate(cfg)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_spots} spots x {ds.n_genes} genes to {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    ds = load_dataset(args.dataset)
    scale, cells = scale_and_cells(ds.coords)
    if args.square_side:
        part = partition_square(ds.coords, cells, scale, args.square_side, args.shift)
    else:
        part = partition(ds.coords, cells, scale, args.k, args.shift)
    check_partition(part, cells)
    with open(args.out, "w") as fh:
        fh.write(format_partition_records(part, ds.spot_ids))
    if args.render:
        write_ppm(args.render, partition_image(ds.coords, part.window_of_spot))
    occ = part.occupancy.sum(axis=1)
    print(f"{part.n_windows} windows, {part.n_slots} slots, largest {occ.max()}, "
          f"fill {occ.sum() / part.occupancy.size:.3f} -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    raw = _load_config(args.config)
    t_width = 0 if ds.transcriptomic is None else ds.transcriptomic.shape[1]
    mcfg = _config(ModelConfig, {"t_dim": t_width, **raw.get("model", {})}, "model",
                   args, in_dim=ds.tokens.shape[1], genes=ds.n_genes)
    if mcfg.t_dim not in (0, t_width):
        raise InputError(f"model.t_dim {mcfg.t_dim} differs from the dataset's "
                         f"transcriptomic width {t_width}")
    tcfg = _train_config(raw.get("train", {}), args)
    os.makedirs(args.out, exist_ok=True)  # before training, so a bad --out costs no steps
    result = train(ds, mcfg, tcfg)
    save_checkpoint(os.path.join(args.out, "checkpoint.bin"), result.params, mcfg)
    with open(os.path.join(args.out, "log.tsv"), "w") as fh:
        fh.write("\n".join(result.log_lines) + "\n")
    with open(os.path.join(args.out, "evals.txt"), "w") as fh:
        for step, rep in result.eval_log:
            fh.write(f"# step {step}\n")
            fh.write(format_eval_report(rep))
    print(f"ran {result.steps_run} steps; best step {result.best_step}; "
          f"artifacts in {args.out}")
    return EXIT_OK


def _predict(ds, checkpoint: str) -> np.ndarray:
    """Gene predictions of a checkpoint on a dataset with matching widths."""
    params, mcfg = load_checkpoint(checkpoint)
    if (mcfg.in_dim, mcfg.genes) != (ds.tokens.shape[1], ds.n_genes):
        raise InputError(f"{checkpoint} takes {mcfg.in_dim} token features and "
                         f"predicts {mcfg.genes} genes; the dataset has "
                         f"{ds.tokens.shape[1]} and {ds.n_genes}")
    geometry = build_geometry(ds.coords, mcfg)
    with np.errstate(over="ignore", invalid="ignore"):
        y_hat = forward(ds.tokens, geometry, params, mcfg, train=False).y_hat
    bad = int(np.sum(~np.isfinite(y_hat).all(axis=1)))
    if bad:
        raise NumericError(f"{checkpoint} predicts non-finite expression for "
                           f"{bad} of {ds.n_spots} spots")
    return y_hat


def cmd_eval(args) -> int:
    ds = load_dataset(args.dataset)
    report = evaluate(_predict(ds, args.checkpoint), ds.expression, ds.gene_names)
    text = format_eval_report(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    worst = 0.0
    for seed in range(args.seeds):
        ds, cfg = toy_grad_check_inputs(seed)
        report = grad_check(ds, cfg, seed=seed)
        print(f"seed {seed}: max rel error {report['max_rel_error']:.3e} "
              f"({report['worst_group']}, {report['n_params']} params)")
        worst = max(worst, report["max_rel_error"])
    print(f"worst over {args.seeds} seeds: {worst:.3e} (tolerance {GRAD_TOL:g})")
    if not np.isfinite(worst) or worst >= GRAD_TOL:
        raise NumericError(f"gradient check failed: {worst:.3e} >= {GRAD_TOL:g}")
    return EXIT_OK


def cmd_render(args) -> int:
    ds = load_dataset(args.dataset)
    values = _predict(ds, args.checkpoint) if args.checkpoint else ds.expression
    wanted = args.genes.split(",") if args.genes else ds.gene_names
    unknown = [name for name in wanted if name not in ds.gene_names]
    if unknown:
        raise InputError(f"unknown gene {unknown[0]!r}")
    for name in wanted:
        g = ds.gene_names.index(name)
        img = draw_spots(ds.coords, heatmap_colors(values[:, g]), args.width)
        os.makedirs(args.out, exist_ok=True)  # after drawing, which checks the width
        write_ppm(os.path.join(args.out, f"{name}.ppm"), img)
        note = heatmap_annotation(name, values[:, g])
        with open(os.path.join(args.out, f"{name}.txt"), "w") as fh:
            fh.write(note + "\n")
        print(note)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="hexwin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic spot dataset")
    p.add_argument("--config", help="JSON config file (synth section)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("partition", help="export one window partition")
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=2, help="hex window radius")
    p.add_argument("--square-side", type=int, default=0,
                   help="use a square tiling with this side instead of hex")
    p.add_argument("--shift", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--out", required=True)
    p.add_argument("--render", help="also write a window-colored PPM here")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("train", help="train on a dataset directory")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config", help="JSON config file (model/train sections)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--window", choices=("hex", "square"))
    p.add_argument("--pe", choices=("hexrope", "rope2d"))
    p.add_argument("--loss-off", dest="loss_off",
                   help=f"comma list from {','.join(LOSS_TERMS)} to disable")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    p.add_argument("--seeds", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("render", help="write per-gene heatmap images")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", help="draw its predictions; default the expression")
    p.add_argument("--genes", help="comma list; default every gene")
    p.add_argument("--width", type=_positive_int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)
    return parser


# line breaks that input text can carry into a message, escaped to keep it one line
_ESCAPED_BREAKS = {ord(c): repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}


def _fail(kind: str, exc: Exception | str, code: int) -> int:
    print(f"{kind}: {str(exc).translate(_ESCAPED_BREAKS)}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.fn(args)
    except UsageError as exc:
        return _fail("usage error", exc, EXIT_USAGE)
    except InputError as exc:
        return _fail("invalid input", exc, EXIT_USAGE)
    except OSError as exc:
        return _fail("i/o error", exc, EXIT_IO)
    except (NumericError, CoverageError, SlotCollisionError) as exc:
        return _fail("numeric/consistency failure", exc, EXIT_NUMERIC)
    except FloatingPointError as exc:  # numpy's text names no input: add the command's
        inputs = "".join(f" --{key} {getattr(args, key)}" for key in ("dataset", "checkpoint")
                         if getattr(args, key, None))
        return _fail("numeric/consistency failure", f"{exc} ({args.command}{inputs})",
                     EXIT_NUMERIC)


if __name__ == "__main__":
    sys.exit(main())
