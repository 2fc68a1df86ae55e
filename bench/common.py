"""Shared helpers of the benchmark: locations, statistics, environment record.

Nothing here imports numpy or noonsim at module level, so the worker can
start its set-up timer before the program is imported.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# One BLAS thread: the benchmark is one client in one process, and a single
# thread keeps its timings steady on a small machine shared with others.
BLAS_THREADS = 1
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
}


def use_program_source() -> None:
    """Import noonsim from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "noonsim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source at {SRC / 'noonsim'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


# On a shared host 10-30% of ops stall at random for tens of ms, in user time
# and with no page faults, so the host and not the program causes them.  A
# percentile above this one lands among those stalls, and how many of them a
# run catches varies more from run to run than any bound can allow.
TAIL_MAX_PERCENTILE = 75


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left when the lowest and highest quarter are dropped."""
    xs = sorted(values)
    k = len(xs) // 4
    return statistics.mean(xs[k:len(xs) - k])


def tail(values: list[float], max_percentile: int = TAIL_MAX_PERCENTILE
         ) -> tuple[float, int, int]:
    """Highest whole percentile, at most ``max_percentile``, with at least ten values beyond it.

    Returns (value, percentile, values beyond).  With fewer than twenty
    values no such percentile reaches the median; the median is returned
    then, with the count of values above it.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        med = statistics.median(xs)
        return med, 50, sum(x > med for x in xs)
    pct = min(max_percentile, math.floor(100 * (n - 10) / n))
    rank = math.ceil(pct * n / 100)
    return xs[rank - 1], pct, n - rank


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in names:
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int | None = None) -> dict:
    """Versions and machine facts a result depends on; imports numpy."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    threads = _blas_threads_in_use()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads if threads is not None else os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }
