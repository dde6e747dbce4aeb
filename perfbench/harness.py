"""Shared plumbing of the benchmark: locating the source tree, thread caps,
the environment record, and the percentile rule.

Nothing here imports capnet or numpy, so ``run.py`` can cap the BLAS and
OpenMP thread pools before either is loaded.
"""

from __future__ import annotations

import math
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
WORK = ROOT / ".perfbench"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_threads(environ=os.environ) -> None:
    """Cap every BLAS/OpenMP pool at nproc; a lower existing cap is kept."""
    limit = nproc()
    for name in THREAD_VARS:
        current = environ.get(name, "")
        if not current.isdigit() or int(current) > limit or int(current) < 1:
            environ[name] = str(limit)


def use_checkout_sources() -> None:
    """Import capnet from this checkout's ``src`` and nowhere else."""
    if not (SRC / "capnet" / "__init__.py").is_file():
        raise BenchError(f"no capnet sources under {SRC}; run from a full checkout")
    if not ORACLES.is_file():
        raise BenchError(f"missing reference oracles {ORACLES}")
    sys.path.insert(0, str(SRC))
    import capnet

    if Path(capnet.__file__).resolve().parent != (SRC / "capnet").resolve():
        raise BenchError(f"capnet imported from {capnet.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


# -- percentiles -------------------------------------------------------------


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-quantile among n samples."""
    return max(1, math.ceil(q * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-quantile of n samples."""
    return n - _rank(n, q)


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile: the ceil(q*n)-th smallest sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    return ordered[_rank(len(ordered), q) - 1]

