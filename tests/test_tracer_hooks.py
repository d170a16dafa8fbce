"""The benchmark tracer's hooks name attributes that exist in hexwin.

perfbench/tracer.py patches hexwin functions by module attribute; a
refactor that drops one of those names would only fail at `--trace 1`.
The tracer is loaded from its file, as perfbench/run.py loads it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
