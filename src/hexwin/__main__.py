"""The `hexwin` command: `python -m hexwin` and the installed console script.

BLAS runs on one thread unless the user says otherwise: `numerics.in_halves`
runs its own second thread beside single-threaded BLAS calls. OpenBLAS reads
its thread count when numpy first loads, so this sets the variables before
importing the CLI.
"""

import os


def main(argv=None) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as cli_main
    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
