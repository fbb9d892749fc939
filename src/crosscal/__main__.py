"""The `crosscal` command: the console script and `python -m crosscal`.

The command runs BLAS on one thread unless the environment sets its thread
count. The last bits of `calibrate`'s report depend on how many threads sum
each product, so the pin makes the report the same on every machine; and
`simulate`'s and `detect`'s products are too small to gain from a thread
pool (on two cores, `simulate` takes about 1.4x as long with OpenBLAS's
default threads). BLAS sizes its pool when numpy loads, so
`main` sets the variables before it imports the commands; a program that
imports `crosscal.cli` itself keeps its own settings.
"""

import os
import sys


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    from .cli import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
