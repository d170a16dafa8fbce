"""Outside-in span tracer for hexwin's public functions.

The tracer replaces functions at the module attributes their callers look
up (``hexwin.trainer.forward``, ``hexwin.model.masked_softmax``, ...) with
wrappers that record one span per call: name, start, end and parent. Spans
stay in memory until the run ends; self times are derived from them then.
Nothing under ``src/`` changes, and ``uninstall`` puts every original
function back.

Span names are the per-layer metric names they feed (``rope.apply_s.stage2``),
except for the few model spans whose inclusive time is reported as well
(see ``INCLUSIVE``) and the unit spans the benchmark opens itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

STEP = "trainer.step"
# spans that group the spans under them into one sample of a median:
# a training step, the rest of a train() call (its geometry build), one
# evaluated slide, or one benchmark set-up
UNITS = ("trainer.step", "trainer.train", "eval.slide", "setup")
# span name -> metric of its inclusive duration
INCLUSIVE = {"model.build_geometry": "model.build_geometry_s",
             "model.forward": "model.forward_s",
             "model.backward": "model.backward_s"}
# span name -> metric of its self time, where the two names differ
SELF_AS = {"model.forward": "model.self_s",
           "model.backward": "model.self_s",
           STEP: "trainer.self_s"}


@contextlib.contextmanager
def patched(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, functools.wraps(original)(make_wrapper(original)))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """In-memory span recorder; one instance per benchmark run."""

    def __init__(self, stage_of_size: dict[int, int], global_stage: int):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patches: contextlib.ExitStack | None = None
        self._stage_of_size = stage_of_size
        self._global_stage = global_stage

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        """Close span i and any span still open inside it."""
        now = time.perf_counter()
        while self._stack:
            j = self._stack.pop()
            self.ends[j] = now
            if j == i:
                return

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def begin_step(self) -> None:
        """A training step runs from one trainer forward to the next."""
        if self._stack and self.names[self._stack[-1]] == STEP:
            self.close(self._stack[-1])
        self.open(STEP)

    def stage(self, size: int) -> int:
        """Stage of a window of `size` slots; any other size is the global stage."""
        return self._stage_of_size.get(int(size), self._global_stage)

    def _wrap(self, name_of, step: bool = False):
        def make(fn):
            def wrapper(*args, **kwargs):
                if step:
                    self.begin_step()
                i = self.open(name_of(args, kwargs) if callable(name_of) else name_of)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
            return wrapper
        return make

    def install(self) -> None:
        """Wrap every traced hexwin function (see _hooks)."""
        if self._patches is not None:
            raise RuntimeError("tracer already installed")
        stack = contextlib.ExitStack()
        for module_name, attrs, name_of, step in _hooks(self):
            module = importlib.import_module(module_name)
            for attr in attrs:
                stack.enter_context(patched(module, attr, self._wrap(name_of, step)))
        self._patches = stack

    def uninstall(self) -> None:
        if self._patches is not None:
            self._patches.close()
            self._patches = None

    def write(self, path) -> None:
        """One JSON object per span: name, start and end (s), parent index."""
        with open(path, "w") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), span))))
                fh.write("\n")

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        parents = np.asarray(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has = parents >= 0
        np.add.at(child, parents[has], dur[has])
        return dur, dur - child, parents

    def layer_times(self) -> dict[str, float]:
        """Per metric, the median over units of the unit's summed time.

        Units are steps, the geometry part of train() calls, slides and
        set-ups; a metric's median runs over the units in which it occurs.
        """
        dur, self_t, parents = self._arrays()
        unit = np.full(len(dur), -1, dtype=np.int64)
        per: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for i, name in enumerate(self.names):
            p = parents[i]
            unit[i] = i if name in UNITS else (unit[p] if p >= 0 else -1)
            per[SELF_AS.get(name, name)][unit[i]] += self_t[i]
            if name in INCLUSIVE:
                per[INCLUSIVE[name]][unit[i]] += dur[i]
        return {k: float(np.median(list(v.values()))) for k, v in per.items()}

    def self_time_gap(self) -> float:
        """Largest |sum of self times - root duration| over root spans.

        Also verifies that every span lies inside its parent; returns inf
        when one does not.
        """
        dur, self_t, parents = self._arrays()
        starts = np.asarray(self.starts)
        ends = np.asarray(self.ends)
        has = parents >= 0
        if np.any(starts[has] < starts[parents[has]]) or np.any(ends[has] > ends[parents[has]]):
            return float("inf")
        root = np.arange(len(dur))
        for i in range(len(dur)):
            if parents[i] >= 0:
                root[i] = root[parents[i]]
        total = np.zeros(len(dur))
        np.add.at(total, root, self_t)
        roots = ~has
        return float(np.max(np.abs(total[roots] - dur[roots]), initial=0.0))


def _hooks(t: Tracer):
    """(module, attributes, span name or naming function, opens a step)."""
    def rope(args, kwargs):
        return f"rope.apply_s.stage{t.stage(args[0].shape[-2])}"

    def softmax(args, kwargs):
        return f"numerics.masked_softmax_s.stage{t.stage(args[0].shape[-1])}"

    def softmax_vjp(args, kwargs):
        return f"numerics.masked_softmax_vjp_s.stage{t.stage(args[0].shape[-1])}"

    def part(kind):
        return lambda args, kwargs: f"windowing.{kind}_s.stage{kwargs.get('stage', 0)}"

    return [
        ("hexwin.trainer", ("forward",), "model.forward", True),
        ("hexwin.trainer", ("backward",), "model.backward", False),
        ("hexwin.trainer", ("build_geometry",), "model.build_geometry", False),
        ("hexwin.trainer", ("objective",), "losses.objective_s", False),
        ("hexwin.trainer", ("loss_mse_grad",), "losses.mse_s", False),
        ("hexwin.trainer", ("loss_pearson_grad",), "losses.pearson_s", False),
        ("hexwin.trainer", ("loss_tfa_grads",), "losses.tfa_s", False),
        ("hexwin.trainer", ("loss_dev_grad",), "losses.dev_s", False),
        ("hexwin.trainer", ("evaluate",), "metrics.evaluate_s", False),
        ("hexwin.model", ("forward",), "model.forward", False),
        ("hexwin.model", ("build_geometry",), "model.build_geometry", False),
        ("hexwin.model", ("load_checkpoint",), "model.load_checkpoint_s", False),
        ("hexwin.model", ("estimate_scale",), "hexgeom.estimate_scale_s", False),
        ("hexwin.model", ("cells_for_points",), "hexgeom.cells_for_points_s", False),
        ("hexwin.model", ("partition",), part("partition"), False),
        ("hexwin.model", ("partition_square",), part("partition_square"), False),
        ("hexwin.model", ("apply_hex_rope", "apply_hex_rope_vjp",
                          "apply_rope_2d", "apply_rope_2d_vjp"), rope, False),
        ("hexwin.model", ("masked_softmax",), softmax, False),
        ("hexwin.model", ("masked_softmax_vjp",), softmax_vjp, False),
        ("hexwin.model", ("layer_norm_fwd", "layer_norm_vjp"), "numerics.layer_norm_s", False),
        ("hexwin.model", ("gelu", "gelu_vjp"), "numerics.gelu_s", False),
        ("hexwin.metrics", ("evaluate",), "metrics.evaluate_s", False),
        ("hexwin.synth", ("generate",), "synth.generate_s", False),
        ("hexwin.synth", ("save_dataset",), "synth.save_dataset_s", False),
        ("hexwin.synth", ("load_dataset",), "synth.load_dataset_s", False),
    ]
