"""The benchmark's hooks and workloads name attributes that exist in hexwin.

perfbench/tracer.py patches hexwin functions by module attribute, and
perfbench/workloads.py builds its configs from hexwin's dataclasses; a
refactor that drops one of those names would only fail when the benchmark
runs. Both are loaded from their files, as perfbench/run.py loads them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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


def test_workload_configs_build(monkeypatch):
    # run.py imports workloads with perfbench/ on sys.path, where it finds tracer
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("workloads", "tracer"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workloads = importlib.import_module("workloads")
    assert workloads.LEARN_MODEL.radii and len(workloads.ABLATIONS) == 3
    for workload in workloads.WORKLOADS.values():
        assert workload.radius > 0
        workloads.slide_config(workload.radius, 0)
    assert sorted(workloads.stage_sizes().values()) == [0, 0, 1, 1, 2, 2]
