"""Re-measure the ROADMAP baselines with the benchmark's tracer. From the repository root:

    python3 perfbench/baselines.py

Prints one JSON object with:

* ``cell_300``: the 300-rep cell (n=100, p=4, rho=0.99, ten d values),
  untraced wall time (median of five runs) and the traced shares of
  ``estimate`` and ``irls_fit`` in it;
* ``table_suite``: the full 2000-rep table suite on one process and with
  a two-worker pool, one run each, and the pool's speed-up.

These are notes, not workloads: nothing gates on them.
"""

from __future__ import annotations

import os

from measure import BLAS_PIN

for _var in BLAS_PIN:
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import layers  # noqa: E402
import measure  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402
from workloads import D_GRID, simulation  # noqa: E402

clock = time.perf_counter
CELL_REPEATS = 5
SUITE_REPS = 2000


def cell_300() -> dict:
    config = simulation.SimulationConfig(
        n=100, p=4, rho=0.99, d_grid=D_GRID, reps=300, seed=1,
        restriction=simulation.default_restriction(4),
    )
    simulation.run_simulation(config)
    walls = []
    for _ in range(CELL_REPEATS):
        start = clock()
        simulation.run_simulation(config)
        walls.append(clock() - start)
    tracer = Tracer(clock)
    layers.install(tracer)
    try:
        start = clock()
        simulation.run_simulation(config)
        traced = clock() - start
    finally:
        tracer.restore()
    totals = layer_totals(tracer.spans)
    return {
        "untraced_s_median": statistics.median(walls),
        "untraced_s_all": walls,
        "traced_s": traced,
        "estimate_share": totals["estimators.estimate"]["busy_s"] / traced,
        "estimate_calls": totals["estimators.estimate"]["calls"],
        "irls_share": totals["logit.irls_fit"]["busy_s"] / traced,
        "irls_calls": totals["logit.irls_fit"]["calls"],
    }


def suite() -> dict:
    out = {"reps": SUITE_REPS}
    for workers in (1, 2):
        start = clock()
        simulation.table_suite(1, reps=SUITE_REPS, workers=workers)
        out[f"workers_{workers}_s"] = clock() - start
    out["pool_speedup"] = out["workers_1_s"] / out["workers_2_s"]
    return out


def main() -> int:
    report = {
        "environment": measure.environment(),
        "cell_300": cell_300(),
        "table_suite": suite(),
    }
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
