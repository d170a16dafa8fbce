"""The benchmark's three workloads: inputs from a seed, one timed operation,
and the checks on its output.

Each workload is a closed loop of one client: an operation starts only
after the previous one has finished. An operation is one ``train()`` call
(desk-train, slide-train) or one slide through the ``hexwin eval`` path
(slide-eval). Every public function is looked up on its module at call
time, so the tracer's wrappers see the calls.

Inputs come from a pool of slide seeds; ``--seed`` picks the slides. Every
pool entry has a stored reference output (``reference.json``, written by
``make_reference.py``), so each operation's output is checked against it.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from hexwin import metrics, model, synth, trainer
from hexwin.model import ModelConfig
from hexwin.synth import SynthConfig
from hexwin.trainer import TrainConfig
from hexwin.windowing import check_partition

from tracer import patched

# the acceptance suite's learnability slide and model (criteria 8 and 9)
LEARN_PATTERNS = ("boundary",) * 4 + ("gradient",) * 4 + ("sparse",) * 4 + ("noise",) * 4
ASSAY_SEED = 1234
LEARN_MODEL = ModelConfig(in_dim=32, genes=16, dim=32, heads=4, stages=4,
                          blocks=3, radii=(1, 2, 4), out_dim=16, t_dim=16)
ABLATIONS = (("hex+hexrope", LEARN_MODEL),
             ("hex+rope2d", dataclasses.replace(LEARN_MODEL, pe="rope2d")),
             ("square+rope2d", dataclasses.replace(LEARN_MODEL, window="square",
                                                   pe="rope2d")))
TRAIN_SEED = 7
CHECKPOINT_SEED = 11

# outputs may differ from the reference by BLAS summation order only; one
# versus two OpenBLAS threads moves them by about 1e-15 relative
RTOL = 1e-9


def slide_config(radius: int, seed: int) -> SynthConfig:
    return SynthConfig(radius=radius, jitter=0.05, dropout=0.05, seed=seed,
                       assay_seed=ASSAY_SEED, patterns=LEARN_PATTERNS,
                       token_dim=32, token_noise=0.05, boundary_high=6.0,
                       transcriptomic_dim=16)


@dataclass
class OpResult:
    """What one operation produced, and how long it took."""

    wall: float                       # seconds in the public API calls
    spots: int
    cfg: ModelConfig
    geometry: object
    step_walls: list[float] = field(default_factory=list)
    pcc_f: float | None = None
    digest: dict = field(default_factory=dict)
    key: str = ""                     # reference entry
    errors: list[str] = field(default_factory=list)


def compare(digest: dict, ref: dict | None) -> list[str]:
    """Differences between an output digest and its reference, if any."""
    if ref is None:
        return ["no stored reference"]
    errors = []
    for key, value in digest.items():
        if key not in ref:
            errors.append(f"reference lacks {key}")
            continue
        want = np.asarray(ref[key], dtype=np.float64)
        got = np.asarray(value, dtype=np.float64)
        if key == "log":   # a shorter run matches the reference's first steps
            want = want[:len(got)]
        if got.shape != want.shape:
            errors.append(f"{key}: shape {got.shape} != reference {want.shape}")
            continue
        bad = np.abs(got - want) > RTOL * np.maximum(1.0, np.abs(want))
        if np.any(bad):
            i = int(np.flatnonzero(bad.ravel())[0])
            errors.append(f"{key}: {got.ravel()[i]!r} != reference {want.ravel()[i]!r}")
    return errors


def partition_errors(geometry) -> list[str]:
    errors = []
    for row in geometry.partitions:
        for part in row:
            if part is None:
                continue
            try:
                check_partition(part, geometry.cells)
            except Exception as exc:   # CoverageError, or a malformed partition
                errors.append(f"{part.kind} partition stage {part.stage} "
                              f"block {part.block}: {exc}")
    return errors


def _finite_log(log_lines: list[str]) -> list[str]:
    values = np.array([[float(v) for v in line.split("\t")[1:]] for line in log_lines[1:]])
    if values.size == 0 or not np.all(np.isfinite(values)):
        return ["non-finite or missing training loss"]
    return []


@dataclass(frozen=True)
class TrainWorkload:
    """Repeated train() calls on one seeded slide."""

    name: str
    radius: int
    steps: int
    warmup_steps: int
    seed_base: int
    pool: int
    root: ClassVar[str] = "trainer.train"   # span around one operation
    cycle: ClassVar[int] = 1                # operations per workload cycle
    unit: ClassVar[str] = "step"

    def slide_seed(self, seed: int) -> int:
        return self.seed_base + seed % self.pool

    def setup(self, workdir: str, seed: int):
        """Generate the slide, write it and read it back, as the CLI would."""
        slide_seed = self.slide_seed(seed)
        path = os.path.join(workdir, "slide")
        synth.save_dataset(synth.generate(slide_config(self.radius, slide_seed)), path)
        return slide_seed, synth.load_dataset(path)

    def op(self, inputs, k: int, warmup: bool = False) -> OpResult:
        slide_seed, ds = inputs
        steps = self.warmup_steps if warmup else self.steps
        tcfg = TrainConfig(steps=steps, lr=1e-2, seed=TRAIN_SEED,
                           eval_every=self.steps, patience=1000)
        marks: list[float] = []

        def mark(fn):
            def wrapper(*args, **kwargs):
                marks.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        with patched(trainer, "forward", mark):
            t0 = time.perf_counter()
            result = trainer.train(ds, LEARN_MODEL, tcfg)
            t1 = time.perf_counter()
        pcc = result.eval_log[-1][1].pcc_f if result.eval_log else None
        out = OpResult(wall=t1 - t0, spots=ds.n_spots, cfg=LEARN_MODEL,
                       geometry=result.geometry,
                       step_walls=np.diff(marks + [t1]).tolist(), pcc_f=pcc,
                       key=f"{self.name}/{slide_seed}")
        out.digest = {"n_spots": ds.n_spots,
                      "log": [[float(v) for v in line.split("\t")[1:]]
                              for line in result.log_lines[1:]]}
        if pcc is not None:
            out.digest["pcc_f"] = pcc
        out.errors = _finite_log(result.log_lines)
        return out

    def reference_cases(self, workdir: str):
        """(key, digest) for every pool slide, from full-length runs."""
        for seed in range(self.pool):
            out = self.op(self.setup(workdir, seed), 0)
            yield out.key, out.digest


@dataclass(frozen=True)
class EvalWorkload:
    """Distinct saved slides through load, checkpoint, geometry, forward, metrics."""

    name: str
    radius: int
    slides: int                  # distinct slides written per run
    seed_base: int
    pool: int
    root: ClassVar[str] = "eval.slide"
    cycle: ClassVar[int] = len(ABLATIONS)
    unit: ClassVar[str] = "slide"

    def _write_checkpoints(self, workdir: str) -> list[tuple[str, str]]:
        out = []
        for name, cfg in ABLATIONS:
            path = os.path.join(workdir, f"{name}.ckpt")
            model.save_checkpoint(path, model.init_params(cfg, CHECKPOINT_SEED), cfg)
            out.append((name, path))
        return out

    def _write_slide(self, workdir: str, slide_seed: int) -> str:
        path = os.path.join(workdir, f"slide{slide_seed}")
        synth.save_dataset(synth.generate(slide_config(self.radius, slide_seed)), path)
        return path

    def setup(self, workdir: str, seed: int):
        slides = [(s, self._write_slide(workdir, s))
                  for s in (self.seed_base + (seed + j) % self.pool
                            for j in range(self.slides))]
        return slides, self._write_checkpoints(workdir)

    def op(self, inputs, k: int, warmup: bool = False) -> OpResult:
        slides, checkpoints = inputs
        slide_seed, slide_dir = slides[k % len(slides)]
        name, ckpt = checkpoints[k % len(checkpoints)]
        return self._eval(slide_dir, ckpt, f"{self.name}/{slide_seed}/{name}")

    def _eval(self, slide_dir: str, ckpt: str, key: str) -> OpResult:
        t0 = time.perf_counter()
        ds = synth.load_dataset(slide_dir)
        params, cfg = model.load_checkpoint(ckpt)
        geometry = model.build_geometry(ds.coords, cfg)
        y_hat = model.forward(ds.tokens, geometry, params, cfg, train=False).y_hat
        report = metrics.evaluate(y_hat, ds.expression, ds.gene_names)
        wall = time.perf_counter() - t0
        n = len(y_hat)
        digest = {"n_spots": n,
                  "col_sum": y_hat.sum(axis=0).tolist(),
                  "col_sumsq": (y_hat ** 2).sum(axis=0).tolist(),
                  "rows": y_hat[[0, n // 2, n - 1]].tolist(),
                  "pcc_f": report.pcc_f}
        errors = [] if np.all(np.isfinite(y_hat)) else ["non-finite prediction"]
        return OpResult(wall=wall, spots=n, cfg=cfg, geometry=geometry,
                        pcc_f=report.pcc_f, digest=digest, key=key, errors=errors)

    def reference_cases(self, workdir: str):
        checkpoints = self._write_checkpoints(workdir)
        for j in range(self.pool):
            slide_seed = self.seed_base + j
            slide_dir = self._write_slide(workdir, slide_seed)
            for name, ckpt in checkpoints:
                out = self._eval(slide_dir, ckpt, f"{self.name}/{slide_seed}/{name}")
                yield out.key, out.digest


def check(out: OpResult, reference: dict) -> list[str]:
    """Every check on one operation's output; empty when it passed."""
    errors = list(out.errors)
    errors += compare(out.digest, reference.get(out.key))
    errors += partition_errors(out.geometry)
    return errors


# why each workload exists: README.md, "Workloads"
WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        name="desk-train",
        radius=10, steps=12, warmup_steps=12, seed_base=100, pool=16),
    TrainWorkload(
        name="slide-train",
        radius=28, steps=3, warmup_steps=1, seed_base=200, pool=8),
    EvalWorkload(
        name="slide-eval",
        radius=20, slides=12, seed_base=300, pool=24),
)}


def stage_sizes() -> dict[int, int]:
    """Window slot count -> stage, over every config the workloads run."""
    sizes: dict[int, int] = {}
    for _, cfg in ABLATIONS:
        for stage, radius in enumerate(cfg.radii):
            sizes[3 * radius * radius + 3 * radius + 1] = stage
        for stage, side in enumerate(cfg.stage_sides()):
            sizes[(2 * side) ** 2] = stage
    return sizes
