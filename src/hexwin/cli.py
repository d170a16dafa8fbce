"""Command-line entry point: generate, partition, train, eval, gradcheck, render.

One JSON config file (sections "synth", "model", "train") drives the
pipeline; individual flags override config fields, which override defaults.
Exit codes are stable for scripting: 0 success, 1 usage error, 2 I/O error,
3 numeric or consistency failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .errors import (CoverageError, DegenerateInputError, InputError,
                     NumericError, ShapeError, SlotCollisionError)
from .hexgeom import cells_for_points, estimate_scale
from .losses import LossWeights
from .metrics import evaluate, format_eval_report
from .model import ModelConfig, build_geometry, config_from_dict, forward, \
    load_checkpoint, save_checkpoint
from .render import heatmap_annotation, heatmap_image, partition_image, write_ppm
from .synth import SynthConfig, generate, load_dataset, save_dataset
from .trainer import TrainConfig, grad_check, toy_grad_check_inputs, train
from .windowing import check_partition, format_partition_records, partition, \
    partition_square

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
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


def _synth_config(section: dict, seed: int | None) -> SynthConfig:
    return config_from_dict(SynthConfig, section, "synth",
                            **({} if seed is None else {"seed": seed}))


def _model_config(section: dict, in_dim: int, genes: int, args) -> ModelConfig:
    overrides = {key: getattr(args, key) for key in ("window", "pe")
                 if getattr(args, key, None)}
    return config_from_dict(ModelConfig, section, "model", in_dim=in_dim,
                            genes=genes, **overrides)


def _train_config(section: dict, args) -> TrainConfig:
    overrides = {key: getattr(args, key)
                 for key in ("steps", "lr", "seed", "optimizer", "eval_every")
                 if getattr(args, key, None) is not None}
    off = [name.strip() for name in (args.loss_off or "").split(",") if name.strip()]
    for name in off:
        if name not in ("mse", "pearson", "tfa", "dev"):
            raise UsageError(f"unknown loss term {name!r} in --loss-off")
    section = dict(section)
    weights = config_from_dict(LossWeights, section.pop("weights", {}),
                               "train.weights", **dict.fromkeys(off, 0.0))
    return config_from_dict(TrainConfig, section, "train", weights=weights,
                            **overrides)


def cmd_generate(args) -> int:
    cfg = _synth_config(_load_config(args.config).get("synth", {}), args.seed)
    ds = generate(cfg)
    save_dataset(ds, args.out)
    print(f"wrote {ds.n_spots} spots x {ds.n_genes} genes to {args.out}")
    return EXIT_OK


def cmd_partition(args) -> int:
    ds = load_dataset(args.dataset)
    scale = estimate_scale(ds.coords, args.knn_k)
    cells = cells_for_points(ds.coords, scale)
    if args.square_side:
        part = partition_square(ds.coords, cells, scale, args.square_side,
                                args.shift, strict=not args.lenient)
    else:
        part = partition(ds.coords, cells, scale, args.k, args.shift,
                         strict=not args.lenient)
    if args.verify:
        check_partition(part, cells)
    with open(args.out, "w") as fh:
        fh.write(format_partition_records(part, ds.spot_ids))
    if args.render:
        write_ppm(args.render, partition_image(ds.coords, part.window_of_spot))
    occ = part.occupancy.sum(axis=1)
    print(f"{part.n_windows} windows, {part.n_slots} slots, largest {occ.max()}, "
          f"fill {occ.sum() / part.occupancy.size:.3f}, "
          f"{len(part.dropped)} dropped -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = load_dataset(args.dataset)
    raw = _load_config(args.config)
    mcfg = _model_config(raw.get("model", {}), ds.tokens.shape[1], ds.n_genes, args)
    tcfg = _train_config(raw.get("train", {}), args)
    result = train(ds, mcfg, tcfg)
    os.makedirs(args.out, exist_ok=True)
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


def cmd_eval(args) -> int:
    ds = load_dataset(args.dataset)
    params, mcfg = load_checkpoint(args.checkpoint)
    geometry = build_geometry(ds.coords, mcfg)
    out = forward(ds.tokens, geometry, params, mcfg, train=False)
    report = evaluate(out.y_hat, ds.expression, ds.gene_names)
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
        report = grad_check(ds, cfg, h=args.h, seed=seed)
        print(f"seed {seed}: max rel error {report['max_rel_error']:.3e} "
              f"({report['worst_group']}, {report['n_params']} params)")
        worst = max(worst, report["max_rel_error"])
    print(f"worst over {args.seeds} seeds: {worst:.3e} (tolerance {args.tol:g})")
    if not np.isfinite(worst) or worst >= args.tol:
        raise NumericError(f"gradient check failed: {worst:.3e} >= {args.tol:g}")
    return EXIT_OK


def cmd_render(args) -> int:
    ds = load_dataset(args.dataset)
    if args.source == "truth":
        values = ds.expression
    else:
        params, mcfg = load_checkpoint(args.checkpoint)
        geometry = build_geometry(ds.coords, mcfg)
        values = forward(ds.tokens, geometry, params, mcfg, train=False).y_hat
    wanted = args.genes.split(",") if args.genes else ds.gene_names
    os.makedirs(args.out, exist_ok=True)
    for name in wanted:
        if name not in ds.gene_names:
            raise InputError(f"unknown gene {name!r}")
        g = ds.gene_names.index(name)
        img = heatmap_image(ds.coords, values[:, g], width=args.width)
        write_ppm(os.path.join(args.out, f"{name}.ppm"), img)
        note = heatmap_annotation(name, values[:, g])
        with open(os.path.join(args.out, f"{name}.txt"), "w") as fh:
            fh.write(note + "\n")
        print(note)
    return EXIT_OK


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
    p.add_argument("--knn-k", type=int, default=6)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--verify", action="store_true",
                   help="re-assert the slot-distance and partition invariants")
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
    p.add_argument("--optimizer", choices=("adam", "sgd"))
    p.add_argument("--eval-every", type=int, dest="eval_every")
    p.add_argument("--window", choices=("hex", "square"))
    p.add_argument("--pe", choices=("hexrope", "rope2d"))
    p.add_argument("--loss-off", dest="loss_off",
                   help="comma list from mse,pearson,tfa,dev to disable")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--h", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("render", help="write per-gene heatmap images")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--genes", help="comma list; default every gene")
    p.add_argument("--source", choices=("pred", "truth"), default="pred")
    p.add_argument("--width", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_render)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "render" and args.source == "pred" and not args.checkpoint:
            raise UsageError("render --source pred requires --checkpoint")
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ShapeError, DegenerateInputError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, CoverageError, SlotCollisionError) as exc:
        print(f"numeric/consistency failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
