"""Rewrite perfbench/reference.json: the stored output of every pool input.

    python3 perfbench/make_reference.py

Run from the root of a hexwin checkout (about five minutes on a 2-core
box). It runs each workload's operation once on every slide of its seed
pool, with the same pinned BLAS threads as the benchmark, and stores the
training logs and evaluation digests that every benchmark operation is
checked against. Regenerate only in a change that means to alter hexwin's
outputs, and say so in that change.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

import env

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def main() -> int:
    names = sorted(env.BLAS_THREADS)
    # one process, one thread count: the references must be made as measured
    if len({env.BLAS_THREADS[n] for n in names}) != 1:
        raise SystemExit("workloads pin different BLAS thread counts")
    env.pin_blas(names[0])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    entries = {}
    workdir = ROOT / ".perfbench_work" / f"ref-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        for name in names:
            for key, digest in workloads.WORKLOADS[name].reference_cases(str(workdir)):
                entries[key] = digest
                print(key, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    doc = {"env": env.describe(-1, ",".join(names), 0), "entries": entries}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
