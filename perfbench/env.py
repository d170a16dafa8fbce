"""BLAS thread pinning and the environment record printed with every result.

``pin_blas`` must run before numpy is first imported: OpenBLAS reads its
thread count from the environment when it loads. This module therefore
imports numpy only inside ``describe``.
"""

from __future__ import annotations

import ctypes
import os
import platform

# Threads per workload. One thread was as fast as two on a 2-core box for
# every workload (desk-train ~0.20 vs ~0.21 s/step, slide-train 3.4-4.5 vs
# 4.1-4.8 s/step), and the second thread made the first step ~5x slower.
BLAS_THREADS = {"desk-train": 1, "slide-train": 1, "slide-eval": 1}
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas(workload: str) -> int:
    threads = max(1, min(BLAS_THREADS[workload], nproc()))
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _openblas_runtime() -> tuple[int | None, str | None]:
    """Thread count and build string from the loaded OpenBLAS, if any."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:   # no procfs: the environment variable is all there is
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return int(threads()), config().decode()
    return None, None


def describe(seed: int, workload: str, trace: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas_runtime()
    return {"workload": workload, "seed": seed, "trace": trace,
            "nproc": nproc(), "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_runtime": config,
            "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}
