"""hexwin benchmark: one closed-loop client over hexwin's public API.

    python3 perfbench/run.py --workload desk-train --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run it from the root of a hexwin checkout; the package is imported from
``src/`` as it stands. One run sets up its inputs from ``--seed`` several
times (``setup_s`` is the median), runs one untimed warm-up operation, then
runs operations back to back for ``--seconds`` and checks every output.

With ``--trace 0`` nothing is wrapped except the trainer's forward, whose
call times mark the step boundaries. With ``--trace 1`` the tracer wraps
every public layer function; operations alternate untraced and traced, one
workload cycle at a time, so the run also measures the tracing overhead.

Lines before the last are for people: the environment, every metric with
its unit, and the output checks. The last line is the JSON result, whose
metrics are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries
of BENCHMARK.json. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(env.BLAS_THREADS) + ["all"],
                   help="one workload, or 'all' to run each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values: list[float]):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def show(name: str, value, unit: str, note: str = "") -> None:
    print(f"metric {name} {value!r} {unit}" + (f"  ({note})" if note else ""))


class Runner:
    """One benchmark run of one workload."""

    def __init__(self, wl, args, workdir: Path, check, tracer):
        self.wl = wl
        self.args = args
        self.workdir = workdir
        self.check = check            # OpResult -> list of errors
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def _traced(self, on: bool, name: str):
        if not on:
            return contextlib.nullcontext()
        stack = contextlib.ExitStack()
        self.tracer.install()
        stack.callback(self.tracer.uninstall)
        stack.enter_context(self.tracer.span(name))
        return stack

    def setup(self) -> float:
        with self._traced(self.tracer is not None, "setup"):
            t0 = time.perf_counter()
            self.inputs = self.wl.setup(str(self.workdir), self.args.seed)
            return time.perf_counter() - t0

    def attempt(self, k: int, traced: bool, warmup: bool = False):
        """Run and check one operation; a failure is counted, never skipped."""
        self.attempted += 1
        try:
            with self._traced(traced, self.wl.root):
                out = self.wl.op(self.inputs, k, warmup)
        except Exception:  # any error inside hexwin is a failed operation
            self.failed += 1
            print(f"op {k} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        errors = self.check(out)
        if errors:
            self.failed += 1
            print(f"op {k} ({out.key}) failed its checks: " + "; ".join(errors[:5]),
                  file=sys.stderr)
        return out

    def run(self):
        """Set up, warm up, then whole workload cycles until time is up.

        The inputs are set up again before every cycle, so the set-up
        times, like the operations, spread over the whole run and not one
        moment of a host whose speed drifts by tens of percent over seconds.
        """
        setup_walls = [self.setup()]
        self.attempt(0, traced=False, warmup=True)
        timed = []
        min_ops = self.wl.cycle * (2 if self.tracer else 1)
        start = time.perf_counter()
        k = 0
        # whole cycles only, so every config weighs the same in a median
        while (k < min_ops or k % self.wl.cycle
               or time.perf_counter() - start < self.args.seconds):
            if k % self.wl.cycle == 0:
                setup_walls.append(self.setup())
            traced = self.tracer is not None and (k // self.wl.cycle) % 2 == 1
            out = self.attempt(k, traced)
            if out is not None:
                timed.append((k, traced, out))
            k += 1
        return setup_walls, timed


def cycles(wl, timed, traced: bool) -> list[tuple[float, float]]:
    """Per whole workload cycle: (seconds per operation, spots per second).

    A train cycle is one call, whose rate counts its steps only. A
    slide-eval cycle is one slide under each ablation config, so the three
    configs' different costs weigh the same in every sample.
    """
    groups: dict[int, list] = {}
    for k, t, o in timed:
        if t == traced:
            groups.setdefault(k // wl.cycle, []).append(o)
    out = []
    for ops in groups.values():
        if len(ops) != wl.cycle:   # an operation raised
            continue
        if wl.unit == "step":
            busy = sum(s for o in ops for s in o.step_walls)
            work = sum(o.spots * len(o.step_walls) for o in ops)
        else:
            busy = sum(o.wall for o in ops)
            work = sum(o.spots for o in ops)
        out.append((sum(o.wall for o in ops) / len(ops), work / busy))
    return out


def end_to_end(wl, setup_walls, timed) -> dict[str, float]:
    per_cycle = cycles(wl, timed, traced=False)
    values = {"setup_s": statistics.median(setup_walls),
              "call_s_p50": statistics.median(c[0] for c in per_cycle),
              "spots_per_s": statistics.median(c[1] for c in per_cycle),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    ops = [o for _, _, o in timed]
    show("setup_s", values["setup_s"], "s", f"median of {len(setup_walls)} set-ups")
    if wl.unit == "step":
        show("call_s_p50", values["call_s_p50"], "s",
             f"train_wall_s: median of {len(per_cycle)} train() calls")
        show("spots_per_s", values["spots_per_s"], "1/s",
             "median over calls of N * steps / step time")
        samples = [s for o in ops for s in o.step_walls]
        show("step_s_p50", statistics.median(samples), "s", f"{len(samples)} steps")
    else:
        show("call_s_p50", values["call_s_p50"], "s",
             f"median over {len(per_cycle)} config cycles of the mean slide time")
        show("spots_per_s", values["spots_per_s"], "1/s",
             "eval_spots_per_s: median over config cycles")
        samples = [o.wall for o in ops]
        show("eval_s_p50", statistics.median(samples), "s", f"{len(samples)} slides")
    prefix = "step_s" if wl.unit == "step" else "eval_s"
    t = tail(samples)
    if t is None:
        print(f"metric {prefix}_tail not reported: {len(samples)} {wl.unit}s, "
              f"needs 20 for ten beyond a percentile")
    else:
        show(f"{prefix}_tail", t[1], "s",
             f"p{t[0]:.1f} of {len(samples)} {wl.unit}s, 10 beyond")
    show("peak_rss_mb", values["peak_rss_mb"], "MiB", "ru_maxrss of this process")
    pccs = [o.pcc_f for o in ops if o.pcc_f is not None]
    if wl.unit == "step" and pccs:
        show("val_pcc_f", statistics.median(pccs), "1", "final validation gene-wise PCC")
    return values


def per_layer(wl, tracer, timed, counts: dict[str, float]) -> dict[str, float]:
    values = tracer.layer_times()
    values.update(counts)
    plain = [c[0] for c in cycles(wl, timed, traced=False)]
    traced = [c[0] for c in cycles(wl, timed, traced=True)]
    if plain and traced:
        overhead = statistics.median(traced) - statistics.median(plain)
        values["trace.overhead_s"] = overhead
        print(f"trace overhead {overhead!r} s per {wl.root} call: traced median "
              f"{statistics.median(traced)!r} s ({len(traced)} cycles) - untraced "
              f"median {statistics.median(plain)!r} s ({len(plain)} cycles)")
    print(f"trace self-time check: sum of span self times minus root duration, "
          f"worst root {tracer.self_time_gap()!r} s over {len(tracer.names)} spans")
    return values


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    results = {}
    for name in sorted(env.BLAS_THREADS):
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (ROOT / "src" / "hexwin" / "__init__.py").is_file():
        print(f"run.py: no hexwin package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env.pin_blas(args.workload)
    sys.path.insert(0, str(ROOT / "src"))
    # numpy, and with it OpenBLAS, loads from here on, after pin_blas
    import counters
    import tracer as tr
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())["entries"]
    print("env " + json.dumps(env.describe(args.seed, args.workload, args.trace),
                              sort_keys=True))
    tracer = (tr.Tracer(workloads.stage_sizes(), workloads.LEARN_MODEL.stages - 1)
              if args.trace else None)
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        runner = Runner(wl, args, workdir, lambda out: workloads.check(out, reference),
                        tracer)
        setup_walls, timed = runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if not timed:
        print("no operation completed", file=sys.stderr)
        return 1

    print(f"check outputs {'PASS' if runner.failed == 0 else 'FAIL'}: "
          f"{runner.attempted - runner.failed}/{runner.attempted} operations passed "
          f"(finite outputs, reference within rtol {workloads.RTOL:g}, "
          f"check_partition on every partition)")
    fail_frac = runner.failed / runner.attempted
    show("fail_frac", fail_frac, "1", f"{runner.failed}/{runner.attempted}")
    if tracer is None:
        values = end_to_end(wl, setup_walls, timed)
        wanted = spec["end_to_end"]
    else:
        counts = counters.combine([counters.geometry_counts(o.geometry, o.cfg)
                                   for _, _, o in timed[:wl.cycle]])
        values = per_layer(wl, tracer, timed, counts)
        spans = ROOT / ".perfbench_spans" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        print(f"spans written to {spans.relative_to(ROOT)}")
        wanted = spec["per_layer"]
        for m in wanted:
            reached = m["name"] in values
            show(m["name"], values.get(m["name"], 0.0), m["unit"],
                 "" if reached else "not reached on this workload")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                                      "unit": m["unit"]} for m in wanted}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
