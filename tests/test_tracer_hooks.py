"""The benchmark's hooks and workloads name attributes that exist in hexwin.

perfbench/tracer.py patches hexwin functions by module attribute, and
perfbench/workloads.py builds its configs from hexwin's dataclasses; a
refactor that drops one of those names would only fail when the benchmark
runs. Both are loaded from their files, as perfbench/run.py loads them. A
change that moves an output away from perfbench/reference.json fails here
too, not only when the benchmark checks its operations.
"""

import importlib
import importlib.util
import json
import os
import sys
import threading
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_attribute_exists():
    tracer = load_tracer()
    hooks = tracer._hooks(tracer.Tracer({}, global_stage=3))
    missing = [f"{module_name}.{attr}"
               for module_name, attrs, _, _ in hooks
               for attr in attrs
               if not callable(getattr(importlib.import_module(module_name), attr, None))]
    assert hooks and not missing, missing


def load_workloads(monkeypatch):
    # run.py imports workloads with perfbench/ on sys.path, where it finds tracer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("workloads")


def test_workload_configs_build(monkeypatch):
    workloads = load_workloads(monkeypatch)
    assert workloads.LEARN_MODEL.radii and len(workloads.ABLATIONS) == 3
    for workload in workloads.WORKLOADS.values():
        assert workload.radius > 0
        workloads.slide_config(workload.radius, 0)
    assert sorted(workloads.stage_sizes().values()) == [0, 0, 1, 1, 2, 2]


def test_outputs_match_the_reference(monkeypatch, tmp_path):
    # one desk-train operation (pool seed 0) and one slide-eval cycle, the
    # three ablation configs, checked as perfbench/run.py checks them
    workloads = load_workloads(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())["entries"]
    desk, slide_eval = workloads.WORKLOADS["desk-train"], workloads.WORKLOADS["slide-eval"]
    ops = [desk.op(desk.setup(str(tmp_path), 0), 0)]
    inputs = slide_eval.setup(str(tmp_path), 0)
    ops += [slide_eval.op(inputs, k) for k in range(slide_eval.cycle)]
    assert {op.key: workloads.check(op, reference) for op in ops} == {
        op.key: [] for op in ops}


def test_trace_mode_records_and_restores(monkeypatch, tmp_path):
    # one desk-train operation (pool seed 0) under the benchmark's tracer,
    # installed and removed as perfbench/run.py does in trace mode
    workloads = load_workloads(monkeypatch)
    tracer_module = importlib.import_module("tracer")
    reference = json.loads((PERFBENCH / "reference.json").read_text())["entries"]
    desk = workloads.WORKLOADS["desk-train"]
    inputs = desk.setup(str(tmp_path), 0)
    tracer = tracer_module.Tracer(workloads.stage_sizes(), workloads.LEARN_MODEL.stages - 1)
    hooked = {(module_name, attr): getattr(importlib.import_module(module_name), attr)
              for module_name, attrs, _, _ in tracer_module._hooks(tracer) for attr in attrs}
    tracer.install()
    try:
        with tracer.span(desk.root):
            out = desk.op(inputs, 0)
    finally:
        tracer.uninstall()
    assert workloads.check(out, reference) == []
    assert np.isfinite(tracer.self_time_gap())
    names = set(tracer.names)
    assert {"model.forward", *(f"windowing.partition_s.stage{s}" for s in range(3))} <= names
    assert {key for key, fn in hooked.items()
            if getattr(importlib.import_module(key[0]), key[1]) is not fn} == set()


def test_spans_open_on_the_main_thread_when_split(monkeypatch):
    # the tracer keeps one span stack, so the second thread must never call a
    # function it patches; force every split on a small slide and check
    from hexwin import model, numerics, trainer
    from hexwin.synth import SynthConfig, generate

    monkeypatch.setattr(numerics, "SPLIT_ROWS", 2)
    monkeypatch.setattr(numerics, "ERF_BLOCK", 64)
    monkeypatch.setattr(model, "TILE_CELLS", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    tile_threads = set()
    real_scores = model._tile_scores

    def spy(*args):
        tile_threads.add(threading.current_thread().name)
        return real_scores(*args)
    monkeypatch.setattr(model, "_tile_scores", spy)
    workloads = load_workloads(monkeypatch)
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer(workloads.stage_sizes(), workloads.LEARN_MODEL.stages - 1)
    opened_on = []
    real_open = tracer.open

    def open_span(name):
        opened_on.append(threading.current_thread())
        return real_open(name)
    monkeypatch.setattr(tracer, "open", open_span)
    cfg = model.ModelConfig(in_dim=5, genes=3, dim=12, heads=2, stages=4, blocks=3,
                            radii=(1, 2, 4), out_dim=4, t_dim=3)
    ds = generate(SynthConfig(radius=5, jitter=0.05, dropout=0.05, seed=13, token_dim=5,
                              transcriptomic_dim=3, patterns=("boundary", "gradient", "noise")))
    params = model.init_params(cfg, 13)
    tracer.install()
    try:
        with tracer.span("trainer.train"):
            geo = trainer.build_geometry(ds.coords, cfg)
            trainer._loss_and_grads(ds, np.arange(ds.n_spots), geo, params, cfg,
                                    trainer.LossWeights())
    finally:
        tracer.uninstall()
    assert any(name.startswith("hexwin") for name in tile_threads)
    assert {"model.forward", "model.backward", "numerics.gelu_s"} <= set(tracer.names)
    assert set(opened_on) == {threading.main_thread()}
    assert np.isfinite(tracer.self_time_gap())
