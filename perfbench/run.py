"""Benchmark of the shrinklogit package, run from the root of a checkout.

    python3 perfbench/run.py --workload mc_grid --seed 1707 --seconds 30 --trace 0

The package is imported from ``src/`` under the current directory, with
BLAS pinned to one thread per process. The run sets up the workload's
inputs from ``--seed`` (three times, reporting the median set-up time),
then runs whole units of work for ``--seconds`` seconds and checks every
unit's output. With ``--trace 0`` it reports the end-to-end metrics,
with times scaled to a reference machine speed (``measure.SpeedScale``);
with ``--trace 1`` it alternates untraced and traced units and reports
the per-layer metrics and the tracing overhead instead.

On the default seed each output is also compared with the committed
reference in ``perfbench/reference``; on any other seed only the
structural checks run (orderings, identities, exit codes). A run whose
check fails prints the problems and a result without metrics, and exits
with code 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``failed`` counts
every operation of a unit whose output fails its check (a scenario that
raises and a CLI exit other than 0 fail it), so a correct run has none.
Outcomes the package itself marks, replications it skips and T3.7/C3.1
verdicts with a non-PSD difference, are printed on a ``#`` line and
counted per layer by ``--trace 1``.

``--write-reference`` runs one unit on the default seed and writes the
workload's reference file instead.
"""

from __future__ import annotations

import os

import measure

for _var in measure.BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

DEFAULT_SEED = 1707
SETUP_REPEATS = 3
HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT_DIR = ".perfbench_out"
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def import_in_fresh_interpreter(src: str):
    """``import shrinklogit`` in a new interpreter, the start-up cost every CLI call pays."""
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", "import shrinklogit"], env=env, check=True, timeout=120)


def load_reference(name: str):
    path = os.path.join(REFERENCE_DIR, f"{name}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def per_layer_spec() -> list[dict]:
    """The per-layer metrics ``BENCHMARK.json`` lists, in its order."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)["per_layer"]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def print_metrics(metrics: dict):
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {entry['unit']}")


def end_to_end(workload, units, factors, setup_times) -> dict:
    """The end-to-end metrics, with each unit's times multiplied by its factor."""
    latencies_ms = [1e3 * x * f for u, f in zip(units, factors) for x in u.latencies_s]
    rates = [u.attempted / (u.busy_s * f) for u, f in zip(units, factors)]
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": measure.peak_rss_mb(), "unit": "MB"},
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "op_p50_ms": {"value": measure.percentile(latencies_ms, 50), "unit": "ms"},
        "op_p90_ms": {"value": measure.percentile(latencies_ms, 90), "unit": "ms"},
    }


def run(args, src: str, workdir: str) -> int:
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print("# environment " + json.dumps(measure.environment(), sort_keys=True))
    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = load_reference(args.workload)

    setup_tracer = Tracer(clock)
    setup_scale = measure.SpeedScale()
    setup_scale.mark()
    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = clock()
        import_in_fresh_interpreter(src)
        if args.trace:
            layers.install(setup_tracer)
        try:
            state = workload.setup(args.seed, workdir)
        finally:
            setup_tracer.restore()
        setup_times.append(clock() - start)
        setup_scale.mark()
    setup_scaled = [t * setup_scale.factor(i) for i, t in enumerate(setup_times)]

    if args.write_reference:
        unit = workload.unit(state, clock)
        problems = workload.check(state, unit, None, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        path = os.path.join(REFERENCE_DIR, f"{args.workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"seed": args.seed, **workload.reference(unit)}, handle)
        print(f"wrote {path}")
        return 0

    # A warm-up unit, checked but not timed, so caches fill before timing.
    warm = workload.unit(state, clock)
    problems = workload.check(state, warm, None, reference)
    attempted = warm.attempted
    failed = warm.attempted if problems else 0
    flagged = warm.flagged

    tracer = Tracer(clock)
    scale = measure.SpeedScale()
    scale.mark()
    plain, traced = [], []
    deadline = clock() + args.seconds
    while not plain or clock() < deadline:
        for tracing in (False, True) if args.trace else (False,):
            if tracing:
                layers.install(tracer)
            try:
                unit = workload.unit(state, clock)
            finally:
                tracer.restore()
            if tracing and not traced:
                first_traced_spans = len(tracer.spans)
            found = workload.check(state, unit, warm, reference)
            problems.extend(found)
            failed += unit.attempted if found else 0
            flagged += unit.flagged
            unit.output = None  # keep memory flat however many units run
            (traced if tracing else plain).append(unit)
        scale.mark()
    units = plain + traced
    attempted += sum(u.attempted for u in units)

    print(f"workload {args.workload}: seed {args.seed}, 1 warm-up and {len(units)} measured units, "
          f"{attempted} {workload.op}s attempted, {failed} failed")
    if workload.flagged_as:
        print(f"# {flagged} {workload.flagged_as}; correct outputs, not failures")
    if problems:
        print(f"correctness check FAILED ({len(problems)} problems):")
        for problem in problems[:20]:
            print(f"  {problem}")
        print(result_line(False, attempted, failed, {}))
        return 1
    print("correctness check passed" + ("" if reference else " (structural checks only: not the default seed)"))

    if args.trace:
        values = layers.per_layer(
            tracer, len(traced), setup_tracer,
            sum(u.busy_s for u in traced), sum(u.busy_s for u in plain),
        )
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in per_layer_spec()}
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
        with open(spans_path, "w", encoding="utf-8") as handle:
            for span in tracer.spans[:first_traced_spans]:
                handle.write(json.dumps([span.name, span.start, span.end, span.parent]) + "\n")
        print(f"per-layer metrics per unit of work ({len(traced)} traced units; "
              f"spans of the first written to {spans_path}):")
    else:
        factors = [scale.factor(i) for i in range(len(plain))]
        print("# unscaled: " + json.dumps(end_to_end(workload, plain, [1.0] * len(plain), setup_times)))
        print(f"# calibration: median {statistics.median(sum(scale.samples, [])):.4f} s, "
              f"reference {measure.SpeedScale.REFERENCE_S} s")
        metrics = end_to_end(workload, plain, factors, setup_scaled)
        print(f"end-to-end metrics, scaled to reference machine speed (operation: one "
              f"{workload.op}; {sum(len(u.latencies_s) for u in plain)} latency samples):")
    print_metrics(metrics)
    print(result_line(True, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "shrinklogit", "__init__.py")):
        print(f"error: no shrinklogit sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import shrinklogit

    if not os.path.abspath(shrinklogit.__file__).startswith(src + os.sep):
        print(f"error: imported shrinklogit from {shrinklogit.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(".perfbench_tmp", exist_ok=True)
    workdir = tempfile.mkdtemp(dir=".perfbench_tmp")
    try:
        return run(args, src, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
