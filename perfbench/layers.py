"""Which names the traced run rebinds, and the per-layer metrics it reports.

Layers are the package's modules. Each entry of :data:`PATCHES` rebinds
a name that a consumer module looked up at import time (or that the
benchmark itself calls through a module attribute) to a traced wrapper.
``linalg`` is traced through the names ``dominance`` imported, so its
counts are the calls the dominance checks make.

Per-layer values are per unit of work (one ``table_suite`` call, one
pass over the scenario pool, one pass over the CLI commands), except
``datasets.save_csv.busy_s``, which is the traced set-up. Which of them
a run prints, and their units, is listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import os

from shrinklogit import (
    cli,
    datasets,
    dominance,
    errors,
    logit,
    scenarios,
    simulation,
)

# The package re-exports the function ``risk`` over its ``risk`` submodule.
risk = importlib.import_module("shrinklogit.risk")

from spans import Tracer, layer_totals

CHECKS = ("t33", "t34", "t35", "t36", "t37", "c31")
LINALG = ("in_range", "is_psd", "moore_penrose", "lambda_max_ratio")
CLI_COMMANDS = ("fit", "estimate", "risk", "dominance")


def _observe_fit(tracer, args, kwargs, result, error):
    if isinstance(error, errors.NotConvergedError):
        tracer.counters["logit.irls_fit.failed.not_converged"] += 1
        if error.fit is not None:
            tracer.counters["logit.irls_fit.iterations"] += error.fit.iterations
    elif isinstance(error, errors.SingularInformationError):
        tracer.counters["logit.irls_fit.failed.singular"] += 1
    elif error is None:
        tracer.counters["logit.irls_fit.iterations"] += result.iterations


def _observe_load(tracer, args, kwargs, result, error):
    path = args[0] if args else kwargs["path"]
    tracer.counters["datasets.load_csv.bytes"] += os.path.getsize(path)


def _observe_verdict(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counters["dominance.verdicts"] += 1
        tracer.counters["dominance.applicable"] += bool(result.applicable)
        tracer.counters["dominance.delta_psd_false"] += not result.delta_psd


def _observe_simulation(tracer, args, kwargs, result, error):
    if error is None:
        tracer.counters["simulation.reps"] += result.config.reps


#: (module, attribute, span name, observer)
PATCHES = [
    (simulation, "table_suite", "simulation.table_suite", None),
    (simulation, "run_simulation", "simulation.run_simulation", _observe_simulation),
    (simulation, "gen_design", "simulation.gen_design", None),
    (simulation, "gen_response", "simulation.gen_response", None),
    (simulation, "irls_fit", "logit.irls_fit", _observe_fit),
    (cli, "irls_fit", "logit.irls_fit", _observe_fit),
    (logit, "irls_fit", "logit.irls_fit", _observe_fit),
    (simulation, "estimate", "estimators.estimate", None),
    (cli, "estimate", "estimators.estimate", None),
    (risk, "RiskScenario", "risk.RiskScenario", None),
    (cli, "RiskScenario", "risk.RiskScenario", None),
    (scenarios, "RiskScenario", "risk.RiskScenario", None),
    (risk, "d_sweep", "risk.d_sweep", None),
    (cli, "d_sweep", "risk.d_sweep", None),
    (risk, "risk", "risk.risk", None),
    (dominance, "risk", "risk.risk", None),
    (dominance, "check_all", "dominance.check_all", None),
    (cli, "check_all", "dominance.check_all", None),
    *[(dominance, f"check_{c}", f"dominance.check_{c}", _observe_verdict) for c in CHECKS],
    *[(dominance, name, f"linalg.{name}", None) for name in LINALG],
    (datasets, "load_csv", "datasets.load_csv", _observe_load),
    (cli, "load_csv", "datasets.load_csv", _observe_load),
    (cli, "diagnostics", "datasets.diagnostics", None),
    (datasets, "save_csv", "datasets.save_csv", None),
    (scenarios, "save_scenario", "scenarios.save_scenario", None),
    (scenarios, "load_scenario", "scenarios.load_scenario", None),
    (cli, "load_scenario", "scenarios.load_scenario", None),
]


def install(tracer: Tracer):
    """Rebind every name in :data:`PATCHES`, and ``cli.main`` per command."""
    for module, attr, name, observe in PATCHES:
        tracer.patch(module, attr, name, observe)
    tracer.patch(cli, "main", lambda args: f"cli.main.{args[0][0]}")


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(tracer: Tracer, units: int, setup_tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric by name, from ``units`` traced units of work."""
    totals = layer_totals(tracer.spans)
    counts = tracer.counters

    def total(name, field):
        return totals.get(name, {}).get(field, 0.0)

    values = {
        "simulation.reps": counts["simulation.reps"],
        "simulation.run_simulation.self_s": total("simulation.run_simulation", "self_s"),
        "simulation.gen_design.busy_s": total("simulation.gen_design", "busy_s"),
        "simulation.gen_response.busy_s": total("simulation.gen_response", "busy_s"),
        "logit.irls_fit.calls": total("logit.irls_fit", "calls"),
        "logit.irls_fit.busy_s": total("logit.irls_fit", "busy_s"),
        "logit.irls_fit.iterations": counts["logit.irls_fit.iterations"],
        "logit.irls_fit.failed.not_converged": counts["logit.irls_fit.failed.not_converged"],
        "logit.irls_fit.failed.singular": counts["logit.irls_fit.failed.singular"],
        "estimators.estimate.calls": total("estimators.estimate", "calls"),
        "estimators.estimate.busy_s": total("estimators.estimate", "busy_s"),
        "risk.RiskScenario.busy_s": total("risk.RiskScenario", "busy_s"),
        "risk.d_sweep.busy_s": total("risk.d_sweep", "busy_s"),
        "risk.risk.calls": total("risk.risk", "calls"),
        "risk.risk.busy_s": total("risk.risk", "busy_s"),
        "dominance.verdicts": counts["dominance.verdicts"],
        "dominance.applicable": counts["dominance.applicable"],
        "dominance.delta_psd_false": counts["dominance.delta_psd_false"],
        "datasets.load_csv.busy_s": total("datasets.load_csv", "busy_s"),
        "datasets.load_csv.bytes": counts["datasets.load_csv.bytes"],
        "datasets.diagnostics.busy_s": total("datasets.diagnostics", "busy_s"),
        "scenarios.load_scenario.busy_s": total("scenarios.load_scenario", "busy_s"),
        "scenarios.save_scenario.busy_s": total("scenarios.save_scenario", "busy_s"),
        "trace.spans": len(tracer.spans),
    }
    for c in CHECKS:
        values[f"dominance.check_{c}.busy_s"] = total(f"dominance.check_{c}", "busy_s")
    for name in LINALG:
        values[f"linalg.{name}.calls"] = total(f"linalg.{name}", "calls")
        values[f"linalg.{name}.busy_s"] = total(f"linalg.{name}", "busy_s")
    cli_names = [f"cli.main.{c}" for c in CLI_COMMANDS]
    values["cli.main.calls"] = sum(total(n, "calls") for n in cli_names)
    values["cli.main.self_s"] = sum(total(n, "self_s") for n in cli_names)
    values = {name: value / units for name, value in values.items()}

    values["logit.irls_fit.calls_per_rep"] = _ratio(values["logit.irls_fit.calls"], values["simulation.reps"])
    values["logit.irls_fit.iters_per_fit"] = _ratio(values["logit.irls_fit.iterations"], values["logit.irls_fit.calls"])
    values["estimators.estimate.calls_per_rep"] = _ratio(values["estimators.estimate.calls"], values["simulation.reps"])
    values["estimators.estimate.us_per_call"] = 1e6 * _ratio(values["estimators.estimate.busy_s"], values["estimators.estimate.calls"])
    values["datasets.load_csv.mb_per_s"] = 1e-6 * _ratio(values["datasets.load_csv.bytes"], values["datasets.load_csv.busy_s"])
    for c in CLI_COMMANDS:
        name = f"cli.main.{c}"
        values[f"{name}.self_ms"] = 1e3 * _ratio(total(name, "self_s"), total(name, "calls"))
    values["datasets.save_csv.busy_s"] = layer_totals(setup_tracer.spans).get("datasets.save_csv", {}).get("busy_s", 0.0)
    values["trace.units"] = units
    values["trace.untraced_unit_s"] = untraced_s / units
    values["trace.traced_unit_s"] = traced_s / units
    values["trace.overhead_pct"] = 100.0 * _ratio(traced_s - untraced_s, untraced_s)
    return {name: float(value) for name, value in values.items()}
