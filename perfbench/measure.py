"""Small measurement helpers: percentiles, peak memory and the environment."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time

#: Environment variables that pin BLAS to one thread per process.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_version(np) -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def environment() -> dict:
    """What the results depend on besides the code: machine, versions, pins."""
    import numpy as np
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(np),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_PIN},
        "pool_start_method": multiprocessing.get_context().get_start_method(),
    }


def calibration_seconds() -> float:
    """Wall time of a fixed reference computation that uses no package code.

    Python-level number parsing plus small LAPACK calls, the two kinds of
    work the workloads spend their time on. Its time follows the speed of
    the machine at that moment, not the program under test.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    texts = [repr(float(x)) for x in rng.standard_normal(20_000)]
    a = rng.standard_normal((8, 8))
    a = a @ a.T + np.eye(8)
    start = time.perf_counter()
    total = 0.0
    for text in texts:
        total += float(text.strip())
    for _ in range(1500):
        _, vectors = np.linalg.eigh(a)
        total += float(np.linalg.solve(a, vectors[:, 0])[0])
    return time.perf_counter() - start


class SpeedScale:
    """Scales wall times to a machine of fixed speed.

    On a shared host the same work runs up to about 1.6x slower for tens
    of seconds at a time. Each measured interval is bracketed by bursts of
    :func:`calibration_seconds`, and its time is multiplied by
    ``REFERENCE_S`` over the median calibration time around it: the time
    the work would take on a machine where the calibration takes
    ``REFERENCE_S``. Both sides of a comparison run the same calibration,
    so the factor cancels the host's speed and keeps the program's.
    """

    REFERENCE_S = 0.040
    BURST = 3

    def __init__(self):
        self.samples: list[list[float]] = []

    def mark(self):
        """Take one calibration burst; call before and after every interval."""
        self.samples.append([calibration_seconds() for _ in range(self.BURST)])

    def factor(self, index: int) -> float:
        """Time scale for the interval between marks ``index`` and ``index + 1``."""
        around = self.samples[index] + self.samples[index + 1]
        return self.REFERENCE_S / statistics.median(around)
