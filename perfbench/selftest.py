"""Tests of the benchmark itself. From the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps the repository's own test run from collecting it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import workloads  # noqa: E402
from measure import SpeedScale, calibration_seconds, percentile  # noqa: E402
from run import DEFAULT_SEED, load_reference  # noqa: E402
from spans import Span, Tracer, layer_totals, self_times  # noqa: E402
from workloads import dominance, errors, simulation  # noqa: E402


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


class TestTracing:
    def test_wrapped_calls_are_bit_identical_on_one_cell(self):
        config = simulation.SimulationConfig(
            n=50, p=4, rho=0.99, d_grid=workloads.D_GRID, reps=20, seed=5,
            restriction=simulation.default_restriction(4),
        )
        plain = simulation.run_simulation(config)
        originals = {(m, a): getattr(m, a) for m, a, _, _ in layers.PATCHES}
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = simulation.run_simulation(config)
        finally:
            tracer.restore()
        assert [c.mse for c in traced.cells] == [c.mse for c in plain.cells]
        assert [c.std_error for c in traced.cells] == [c.std_error for c in plain.cells]
        assert np.array_equal(traced.beta_true, plain.beta_true)
        totals = layer_totals(tracer.spans)
        assert totals["logit.irls_fit"]["calls"] == 20
        assert totals["estimators.estimate"]["calls"] == 22 * 20
        assert all(getattr(m, a) is fn for (m, a), fn in originals.items())

    def test_nested_calls_record_their_parent(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap("inner", lambda: None)
        outer = tracer.wrap("outer", lambda: inner())
        outer()
        assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
            ("outer", 0.0, 3.0, None),
            ("inner", 1.0, 2.0, 0),
        ]

    def test_exceptions_close_the_span_and_propagate(self):
        tracer = Tracer()

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap("boom", boom)()
        assert len(tracer.spans) == 1 and tracer.spans[0].end >= tracer.spans[0].start
        assert tracer._open == []


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 3.0, 0),
            Span("b", 4.0, 8.0, 0),
            Span("c", 5.0, 6.0, 2),
            Span("a", 8.5, 9.0, 0),
        ]
        assert self_times(spans) == pytest.approx([10 - 2 - 4 - 0.5, 2.0, 3.0, 1.0, 0.5])
        totals = layer_totals(spans)
        assert totals["a"] == pytest.approx({"calls": 2, "busy_s": 2.5, "self_s": 2.5})
        assert totals["root"]["self_s"] == pytest.approx(3.5)

    def test_overlapping_children_are_counted_once(self):
        spans = [Span("p", 0.0, 10.0, None), Span("x", 1.0, 5.0, 0), Span("y", 3.0, 12.0, 0)]
        assert self_times(spans)[0] == pytest.approx(1.0)


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([4, 1, 3, 2], 50) == 2.5
        assert percentile(range(1, 11), 90) == pytest.approx(9.1)
        assert percentile([1, 2, 3], 0) == 1 and percentile([1, 2, 3], 100) == 3
        assert percentile([7.0], 90) == 7.0

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSpeedScale:
    def test_factor_uses_the_bursts_on_both_sides(self):
        scale = SpeedScale()
        scale.samples = [[0.04, 0.04, 0.04], [0.08, 0.08, 0.08], [0.02, 0.02, 0.02]]
        assert scale.factor(0) == pytest.approx(SpeedScale.REFERENCE_S / 0.06)
        assert scale.factor(1) == pytest.approx(SpeedScale.REFERENCE_S / 0.05)

    def test_calibration_takes_measurable_time(self):
        assert 0.0 < calibration_seconds() < 5.0


class TestGate:
    def test_reference_table_passes_and_perturbed_cell_fails(self):
        reference = load_reference("mc_grid")
        table = [list(row) for row in reference["table"]]
        assert workloads.mc_structure(table) == []
        assert workloads.mc_against_reference(table, reference) == []
        table[123][5] *= 1.0 + 1e-4
        problems = workloads.mc_against_reference(table, reference)
        assert len(problems) == 1 and "mse" in problems[0]

    def test_changed_skip_count_fails(self):
        reference = load_reference("mc_grid")
        table = [list(row) for row in reference["table"]]
        table[0][6] -= 1
        table[0][7] += 1
        assert workloads.mc_against_reference(table, reference)

    def test_forced_t37_failure_is_rejected(self, tmp_path, monkeypatch):
        audit = workloads.ScenarioAudit()
        state = audit.setup(DEFAULT_SEED, str(tmp_path))
        reference = load_reference("scenario_audit")
        original = dominance.check_t37

        def failing(scenario, d):
            return dataclasses.replace(original(scenario, d), delta_psd=False)

        monkeypatch.setattr(dominance, "check_t37", failing)
        unit = audit.unit(state, clock=lambda: 0.0)
        monkeypatch.undo()
        assert unit.flagged == unit.attempted
        problems = audit.check(state, unit, None, reference)
        lost = [p for p in problems if "integrity lost" in p]
        assert len(lost) == len(state["pool"]) - len(reference["integrity_failures"])

    def test_raised_scenario_fails_on_any_seed(self, tmp_path, monkeypatch):
        audit = workloads.ScenarioAudit()
        state = audit.setup(DEFAULT_SEED + 1, str(tmp_path))
        state["pool"] = state["pool"][:3]
        original = dominance.check_all
        calls = []

        def raising(scenario, d):
            calls.append(d)
            if len(calls) == 1:
                raise errors.ShrinkLogitError("forced")
            return original(scenario, d)

        monkeypatch.setattr(dominance, "check_all", raising)
        unit = audit.unit(state, clock=lambda: 0.0)
        monkeypatch.undo()
        assert unit.attempted == 3
        assert len(unit.latencies_s) == 2
        problems = audit.check(state, unit, None, None)
        assert problems and "raised ShrinkLogitError" in problems[0]

    def test_small_sweep_entry_is_compared_at_its_own_scale(self):
        reference = load_reference("scenario_audit")
        sweep = reference["mse"][0]
        smallest = min(range(len(sweep)), key=lambda i: sweep[i])
        assert max(sweep) > 1e3 * sweep[smallest]
        moved = list(sweep)
        moved[smallest] *= 1.0 + 1e-5
        assert workloads._close(sweep, sweep)
        assert not workloads._close(moved, sweep)

    def test_coefficient_near_zero_is_compared_at_its_vector_scale(self):
        table = load_reference("cli_pipeline")["tables"]["n50000.estimate"]
        assert workloads.tables_match(table, table, row_scale=True)
        moved = [list(row) for row in table]
        moved[1][-1] *= 1.0 + 1e-5
        assert not workloads.tables_match(moved, table, row_scale=True)

    def test_estimate_table_off_the_restriction_fails(self):
        table = load_reference("cli_pipeline")["tables"]["n5000.estimate"]
        assert workloads.restricted_rows_on_restriction(table) == []
        moved = [list(row) for row in table]
        rmle = next(row for row in moved if row[0] == "rmle")
        rmle[3] += 1e-3
        assert workloads.restricted_rows_on_restriction(moved)


class TestContract:
    def test_listed_workloads_and_per_layer_metrics_exist(self):
        spec = _benchmark_spec()
        assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
        values = layers.per_layer(Tracer(), 1, Tracer(), 1.0, 1.0)
        assert {m["name"] for m in spec["per_layer"]} <= set(values)

    def test_short_run_prints_every_end_to_end_metric(self):
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "scenario_audit",
             "--seed", "3", "--seconds", "0.1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in _benchmark_spec()["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())

    def test_fails_without_the_sources(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "mc_grid",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode != 0
        assert out.stdout.strip() == ""
