"""The benchmark's three workloads, their inputs and their correctness checks.

Each workload has one kind of operation, and the end-to-end metrics are
stated per operation:

* ``mc_grid``: the paper's Monte Carlo table, ``table_suite`` over the
  18 cells p in {4, 8} x n in {50, 100, 200} x rho in {0.9, 0.99, 0.999}
  with the four table kinds and the ten-point d grid, on one process.
  Operation: one replication. A unit of work is one ``table_suite`` call.
* ``scenario_audit``: exact risk and dominance checks on a seeded,
  stratified pool of scenarios (m in {4, 8, 20}, condition number from
  1e1 to 1e7, dense and eigen-aligned restrictions, truths inside and
  outside the restriction set), with no IRLS. Operation: one scenario
  (construction, ``d_sweep`` over all six kinds, ``check_all`` at every d,
  a scenario-file round trip). A unit is one pass over the pool.
* ``cli_pipeline``: ``cli.main`` in-process on seeded CSVs (the bundled
  83-row dataset and p=8, rho=0.99 designs at n=5,000 and n=50,000).
  Operation: one CLI command. A unit is one pass over all commands.

A workload calls the package through module attributes (for example
``simulation.table_suite``) so that a :class:`trace.Tracer` can rebind
them. ``unit`` returns raw outputs; ``check`` runs after the unit, outside
any timing and tracing, and returns a list of problems.
"""

from __future__ import annotations

import csv
import importlib
import os
from dataclasses import dataclass

import numpy as np

from shrinklogit import (
    cli,
    datasets,
    dominance,
    errors,
    estimators,
    logit,
    scenarios,
    simulation,
)

# The package re-exports the function ``risk`` over its ``risk`` submodule.
risk = importlib.import_module("shrinklogit.risk")

D_GRID = simulation.TABLE_SUITE_D_GRID
D_GRID_TEXT = ",".join(repr(d) for d in D_GRID)
ALL_KINDS = estimators.KINDS
MC_REPS = 20
MC_CELLS = 18
# Relative tolerance of the reference comparison: ROADMAP admits last-bit
# changes, and a batched or re-routed kernel moves results by far less.
RTOL = 1e-6
# Share of the table orderings that must hold, as in acceptance criterion 9.
ORDERING_SHARE = 0.95


@dataclass
class Unit:
    """One unit of work: timed operation latencies plus raw outputs.

    ``flagged`` counts operations whose outcome the package itself marks
    (a skipped replication, a non-PSD verdict). They are correct outputs,
    checked like any other, not failed operations.
    """

    latencies_s: list[float]
    busy_s: float
    attempted: int
    flagged: int
    output: object


def _close(actual, expected, rtol=RTOL, atol=0.0) -> bool:
    """Every entry within ``rtol`` of its own expected value, plus ``atol``."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if actual.shape != expected.shape:
        return False
    return bool(np.all(np.abs(actual - expected) <= rtol * np.abs(expected) + atol))


def _close_matrix(actual, expected, rtol) -> bool:
    """Entries within ``rtol`` of the matrix's largest expected entry."""
    scale = float(np.max(np.abs(expected))) if np.size(expected) else 0.0
    return _close(actual, expected, rtol, rtol * scale)


# --------------------------------------------------------------------------
# mc_grid


class MonteCarlo:
    op = "replication"
    flagged_as = "replications skipped by the package (IRLS not converged or singular)"

    def setup(self, seed: int, workdir: str) -> dict:
        # Warm-up: one small cell, so lazy first-call costs stay out of the timing.
        config = simulation.SimulationConfig(
            n=50, p=4, rho=0.9, d_grid=D_GRID, reps=2, seed=seed,
            restriction=simulation.default_restriction(4),
        )
        simulation.run_simulation(config, workers=1)
        return {"seed": seed}

    def unit(self, state: dict, clock) -> Unit:
        # A replication is too short to time from outside, so the latency
        # sample is the whole table's time per replication. Per-cell samples
        # would mix 18 cells of different cost, and a percentile of such a
        # mixture falls on the edge between two cells.
        start = clock()
        results = simulation.table_suite(state["seed"], reps=MC_REPS, workers=1)
        wall = clock() - start
        attempted = sum(r.config.reps for r in results)
        skipped = sum(r.skipped for r in results)
        return Unit([wall / attempted], wall, attempted, skipped, mc_table(results))

    def check(self, state, unit: Unit, first: Unit | None, reference) -> list[str]:
        table = unit.output
        problems = mc_structure(table)
        if first is not None and table != first.output:
            problems.append("table differs from the run's first table")
        if reference is not None:
            problems.extend(mc_against_reference(table, reference))
        return problems

    def reference(self, unit: Unit) -> dict:
        return {"reps": MC_REPS, "table": unit.output}


def mc_table(results) -> list[list]:
    """Rows [n, p, rho, kind, d, mse, completed, skipped] in table order."""
    return [
        [r.config.n, r.config.p, r.config.rho, c.kind, c.d, c.mse, r.completed, r.skipped]
        for r in results
        for c in r.cells
    ]


def mc_structure(table) -> list[str]:
    problems = []
    cells = {}
    for n, p, rho, kind, d, mse, completed, skipped in table:
        if completed + skipped != MC_REPS:
            problems.append(f"n={n} p={p} rho={rho}: {completed}+{skipped} != {MC_REPS} reps")
        if not (np.isfinite(mse) and mse > 0.0):
            problems.append(f"n={n} p={p} rho={rho} {kind} d={d}: mse {mse}")
        cells.setdefault((n, p, rho), {})[(kind, d)] = mse
    expected_kinds = len(simulation.TABLE_SUITE_KINDS) * len(D_GRID)
    if len(cells) != MC_CELLS or any(len(c) != expected_kinds for c in cells.values()):
        problems.append(f"expected {MC_CELLS} cells of {expected_kinds} entries")
        return problems
    checks = passed = 0
    slack = 1 + 1e-12
    for c in cells.values():
        for d in D_GRID:
            for good in (
                c[("raule", d)] <= c[("rmle", d)] * slack,
                c[("rmle", d)] <= c[("mle", d)] * slack,
                c[("raule", d)] <= c[("aule", d)] * slack,
            ):
                checks += 1
                passed += bool(good)
        for kind in ("aule", "raule"):
            series = [c[(kind, d)] for d in D_GRID]
            for a, b in zip(series, series[1:]):
                checks += 1
                passed += bool(b >= a - 1e-12)
    if passed < ORDERING_SHARE * checks:
        problems.append(f"orderings hold in {passed}/{checks} checks, below {ORDERING_SHARE:.0%}")
    return problems


def mc_against_reference(table, reference) -> list[str]:
    expected = reference["table"]
    if len(table) != len(expected):
        return [f"{len(table)} table rows, reference has {len(expected)}"]
    problems = []
    for row, ref in zip(table, expected):
        if row[:5] != ref[:5] or row[6:] != ref[6:]:
            problems.append(f"row {row[:5]} completed/skipped {row[6:]} != reference {ref[:5]} {ref[6:]}")
        elif not _close(row[5], ref[5]):
            problems.append(f"row {row[:5]}: mse {row[5]!r} != reference {ref[5]!r}")
    return problems


# --------------------------------------------------------------------------
# scenario_audit

SCENARIO_DIMS = (4, 8, 20)
KAPPA_DECADES = (1, 2, 3, 4, 5, 6)  # condition numbers 1e1 .. 1e7


def _orthogonal(rng, m):
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def scenario_inputs(seed: int) -> list[dict]:
    """Raw inputs for one scenario per stratum, in a seeded order.

    Strata: m x restriction structure (dense or eigen-aligned) x truth
    (inside or outside H b = h) x condition-number decade, with the
    number of restrictions q cycling over 1 .. m/4 with the decade, so
    every seed has the same mix of sizes. C's largest
    eigenvalue is log-uniform in [1, 1e3], the scale of X'WX for a few
    to a few thousand Bernoulli rows.
    """
    rng = np.random.default_rng([seed, 7])
    pool = []
    for m in SCENARIO_DIMS:
        for aligned in (False, True):
            for inside in (True, False):
                for decade in KAPPA_DECADES:
                    kappa = 10.0 ** (decade + rng.uniform())
                    basis = _orthogonal(rng, m)
                    ratios = np.concatenate([[1.0, 1.0 / kappa], kappa ** -rng.uniform(size=m - 2)])
                    lam = 10.0 ** rng.uniform(0.0, 3.0) * ratios
                    C = (basis * lam) @ basis.T
                    q = 1 + decade % (m // 4)
                    if aligned:
                        H = basis[:, rng.choice(m, size=q, replace=False)].T.copy()
                    else:
                        H = rng.standard_normal((q, m))
                    beta = rng.standard_normal(m)
                    beta *= rng.uniform(0.5, 2.0) / np.linalg.norm(beta)
                    h = H @ beta if inside else H @ beta + rng.standard_normal(q)
                    pool.append({
                        "C": C, "beta": beta, "H": H, "h": h, "kappa": kappa,
                        "m": m, "aligned": aligned, "inside": inside,
                    })
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


@dataclass
class Audit:
    scenario: object
    rows: list
    reloaded: object
    reloaded_d: float | None
    integrity: bool


class ScenarioAudit:
    op = "scenario"
    flagged_as = "scenarios with a T3.7/C3.1 verdict delta_psd = false"
    round_trip_d = 0.5

    def setup(self, seed: int, workdir: str) -> dict:
        return {"pool": scenario_inputs(seed), "path": os.path.join(workdir, "scenario.txt")}

    def unit(self, state: dict, clock) -> Unit:
        """Audit every scenario of the pool.

        A scenario that raises is a failed operation: its time is not a
        latency sample, and :meth:`check` reports it as a problem on every
        seed, so work cut short by an error never reads as speed.
        """
        latencies, audits, flagged = [], [], 0
        for raw in state["pool"]:
            start = clock()
            try:
                sc = risk.RiskScenario(raw["C"], raw["beta"], logit.LinearRestriction(raw["H"], raw["h"]))
                rows = risk.d_sweep(sc, ALL_KINDS, D_GRID)
                verdicts = [dominance.check_all(sc, d) for d in D_GRID]
                scenarios.save_scenario(state["path"], sc, self.round_trip_d)
                reloaded, reloaded_d = scenarios.load_scenario(state["path"])
            except (errors.ShrinkLogitError, ValueError, np.linalg.LinAlgError) as exc:
                audits.append(exc)
                continue
            latencies.append(clock() - start)
            integrity = all(
                v.delta_psd for group in verdicts for v in group if v.theorem in ("T3.7", "C3.1")
            )
            flagged += not integrity
            audits.append(Audit(sc, rows, reloaded, reloaded_d, integrity))
        return Unit(latencies, sum(latencies), len(audits), flagged, audits)

    def check(self, state, unit: Unit, first: Unit | None, reference) -> list[str]:
        problems = []
        for index, (raw, audit) in enumerate(zip(state["pool"], unit.output)):
            if isinstance(audit, Exception):
                problems.append(f"scenario {index} raised {type(audit).__name__}: {audit}")
            else:
                problems.extend(f"scenario {index}: {p}" for p in audit_structure(raw, audit))
        if reference is not None:
            problems.extend(audit_against_reference(unit.output, reference))
        return problems

    def reference(self, unit: Unit) -> dict:
        return {
            "mse": [[row.mse for row in a.rows] for a in unit.output],
            "integrity_failures": [i for i, a in enumerate(unit.output) if not a.integrity],
        }


def audit_structure(raw, audit: Audit) -> list[str]:
    """MMSE = Cov + bb', the d=1 collapse, and an exact file round trip."""
    problems = []
    sc = audit.scenario
    if len(audit.rows) != len(D_GRID) * len(ALL_KINDS):
        problems.append(f"{len(audit.rows)} sweep rows")
    for row in audit.rows:
        rep = row.report
        if not _close_matrix(rep.mmse, rep.cov + np.outer(rep.bias, rep.bias), 1e-9):
            problems.append(f"{row.kind} d={row.d}: MMSE != Cov + bb'")
        if not _close(rep.mse, np.trace(rep.mmse), 1e-9):
            problems.append(f"{row.kind} d={row.d}: mse != trace(MMSE)")
    collapse = [("le", "mle"), ("aule", "mle")]
    if raw["inside"]:
        collapse += [("rle", "rmle"), ("raule", "rmle")]
    for shrunk, base in collapse:
        a = risk.risk(sc, estimators.EstimatorSpec(shrunk, 1.0))
        b = risk.risk(sc, estimators.EstimatorSpec(base))
        if not (_close_matrix(a.mmse, b.mmse, RTOL) and _close(a.mse, b.mse)):
            problems.append(f"d=1 collapse {shrunk} -> {base}: mse {a.mse!r} vs {b.mse!r}")
    back = audit.reloaded
    if not (
        np.array_equal(back.C, sc.C)
        and np.array_equal(back.beta_true, sc.beta_true)
        and np.array_equal(back.restriction.H, sc.restriction.H)
        and np.array_equal(back.restriction.h, sc.restriction.h)
        and audit.reloaded_d == ScenarioAudit.round_trip_d
    ):
        problems.append("scenario file round trip is not exact")
    return problems


def audit_against_reference(audits, reference) -> list[str]:
    if len(audits) != len(reference["mse"]):
        return [f"{len(audits)} scenarios, reference has {len(reference['mse'])}"]
    problems = []
    allowed = set(reference["integrity_failures"])
    for index, (audit, expected) in enumerate(zip(audits, reference["mse"])):
        if isinstance(audit, Exception):
            continue  # reported by the structural check
        if not _close([row.mse for row in audit.rows], expected):
            problems.append(f"scenario {index}: risk sweep differs from the reference")
        if not audit.integrity and index not in allowed:
            problems.append(f"scenario {index}: T3.7/C3.1 integrity lost against the reference")
    return problems


# --------------------------------------------------------------------------
# cli_pipeline

CLI_SIZES = (5_000, 50_000)
CLI_P = 8
CLI_RHO = 0.99
# With four d values per scenario file the short commands are 13 of 21 per
# pass, so the median falls inside that cluster and the 90th percentile
# inside the three n=50,000 commands, never on the edge between two groups.
DOMINANCE_D = (0.3, 0.5, 0.7, 0.9)


def _padded_restriction(p: int) -> logit.LinearRestriction:
    """The stock restriction for p predictors, with a zero intercept column."""
    stock = simulation.default_restriction(p)
    return logit.LinearRestriction(np.column_stack([np.zeros(stock.q), stock.H]), stock.h)


def _matrix_arg(H) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in H)


def cli_datasets(seed: int) -> list[tuple[str, object]]:
    """(name, Dataset without intercept column) for every CSV the workload writes."""
    bundled = datasets.load_csv(datasets.bundled_dataset_path(), intercept=False)
    out = [("bundled", bundled)]
    for n in CLI_SIZES:
        rng = np.random.default_rng([seed, n])
        restriction = simulation.default_restriction(CLI_P)
        X = simulation.gen_design(n, CLI_P, np.sqrt(CLI_RHO), rng)
        beta = simulation.gen_beta(CLI_P, restriction, True, rng)
        y = simulation.gen_response(X, beta, rng)
        out.append((f"n{n}", logit.Dataset(X, y)))
    return out


def cli_commands(name: str, width: int, workdir: str) -> list[tuple[str, list[str]]]:
    """(label, argv) of every command run on one dataset."""
    csv_path = os.path.join(workdir, f"{name}.csv")
    scenario_path = os.path.join(workdir, f"{name}.scenario")
    restriction = _padded_restriction(width - 1)
    H = ["--H", _matrix_arg(restriction.H), "--h", ",".join(repr(float(v)) for v in restriction.h)]

    def out(label):
        return ["--format", "csv", "--output", os.path.join(workdir, f"{name}.{label}.csv")]

    commands = [
        ("fit", ["fit", csv_path] + out("fit")),
        ("estimate", ["estimate", csv_path, "--estimator", ",".join(ALL_KINDS), "--d", D_GRID_TEXT] + H + out("estimate")),
        ("risk", ["risk", csv_path, "--d-grid", D_GRID_TEXT] + H + out("risk")),
    ]
    for d in DOMINANCE_D:
        label = f"dominance_d{d:g}"
        commands.append((label, ["dominance", "--scenario-file", scenario_path, "--d", repr(d)] + out(label)))
    return commands


def read_table(path) -> list[list]:
    """A CSV table from the CLI, with numeric cells as floats.

    Two things are dropped because a last-bit change moves them: the
    dominance ``witnesses`` column, which repeats the verdict numbers as
    text rounded to ten digits, and the fit's ``final_step`` row, the last
    IRLS step at rounding level (about 1e-12).
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.reader(handle) if row[:1] != ["final_step"]]
    if "witnesses" in rows[0]:
        drop = rows[0].index("witnesses")
        rows = [row[:drop] + row[drop + 1 :] for row in rows]

    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    return [rows[0]] + [[cell(v) for v in row] for row in rows[1:]]


class CliPipeline:
    op = "command"
    flagged_as = None

    def setup(self, seed: int, workdir: str) -> dict:
        jobs = []
        for name, data in cli_datasets(seed):
            datasets.save_csv(data, os.path.join(workdir, f"{name}.csv"))
            with_intercept = logit.Dataset(
                np.column_stack([np.ones(data.n), data.X]), data.y, has_intercept=True
            )
            fit = logit.irls_fit(with_intercept)
            plug_in = risk.RiskScenario(fit.C, fit.beta_mle, _padded_restriction(data.m))
            scenarios.save_scenario(os.path.join(workdir, f"{name}.scenario"), plug_in)
            jobs.append((name, data.m + 1))
        commands = [
            (name, label, argv)
            for name, width in jobs
            for label, argv in cli_commands(name, width, workdir)
        ]
        return {"commands": commands}

    def unit(self, state: dict, clock) -> Unit:
        latencies, codes = [], []
        for _, _, argv in state["commands"]:
            start = clock()
            codes.append(cli.main(list(argv)))
            latencies.append(clock() - start)
        tables = self._tables(state, codes)
        return Unit(latencies, sum(latencies), len(codes), 0, {"codes": codes, "tables": tables})

    @staticmethod
    def _tables(state, codes):
        tables = {}
        for (name, label, argv), code in zip(state["commands"], codes):
            if code == 0:
                tables[f"{name}.{label}"] = read_table(argv[argv.index("--output") + 1])
        return tables

    def check(self, state, unit: Unit, first: Unit | None, reference) -> list[str]:
        problems = []
        tables = unit.output["tables"]
        for (name, label, argv), code in zip(state["commands"], unit.output["codes"]):
            if code != 0:
                problems.append(f"{name} {label}: exit code {code}")
        for key, table in tables.items():
            if key.endswith(".estimate"):
                problems.extend(f"{key}: {p}" for p in restricted_rows_on_restriction(table))
            if key.endswith(".fit") and ["converged", "true"] not in table:
                problems.append(f"{key}: fit did not converge")
        if reference is not None:
            expected = reference["tables"]
            if sorted(tables) != sorted(expected):
                problems.append("command set differs from the reference")
            for key in sorted(set(tables) & set(expected)):
                row_scale = key.endswith((".estimate", ".risk"))
                if not tables_match(tables[key], expected[key], row_scale):
                    problems.append(f"{key}: table differs from the reference")
        return problems

    def reference(self, unit: Unit) -> dict:
        return {"tables": unit.output["tables"]}


def restricted_rows_on_restriction(table) -> list[str]:
    """The RMLE row of an estimate table satisfies H beta = h."""
    header, rows = table[0], table[1:]
    rmle = [row for row in rows if row[0] == "rmle"]
    if len(rmle) != 1:
        return [f"{len(rmle)} rmle rows"]
    beta = np.array(rmle[0][2:], dtype=float)
    restriction = _padded_restriction(len(header) - 3)
    gap = restriction.H @ beta - restriction.h
    bound = 1e-9 * max(1.0, float(np.abs(restriction.H).sum(axis=1).max() * np.abs(beta).max()))
    if float(np.max(np.abs(gap))) > bound:
        return [f"rmle |H beta - h| = {float(np.max(np.abs(gap))):.3e} > {bound:.1e}"]
    return []


def tables_match(actual, expected, row_scale: bool) -> bool:
    """Text cells equal; each number within ``RTOL`` of its expected value.

    With ``row_scale`` (estimate and risk tables, where a row is one
    estimator's coefficient or bias vector) a number may also be off by
    ``RTOL * 1e-3`` of the largest number in its row, so a coefficient
    near zero is compared at the scale of its vector.
    """
    if actual[0] != expected[0] or len(actual) != len(expected):
        return False
    for row_a, row_e in zip(actual[1:], expected[1:]):
        if len(row_a) != len(row_e):
            return False
        numeric = [(a, e) for a, e in zip(row_a, row_e) if isinstance(e, float)]
        if any(a != e for a, e in zip(row_a, row_e) if not isinstance(e, float)):
            return False
        if any(not isinstance(a, float) for a, _ in numeric):
            return False
        values = [e for _, e in numeric]
        atol = RTOL * 1e-3 * max(map(abs, values), default=0.0) if row_scale else 0.0
        if not _close([a for a, _ in numeric], values, atol=atol):
            return False
    return True


WORKLOADS = {
    "mc_grid": MonteCarlo(),
    "scenario_audit": ScenarioAudit(),
    "cli_pipeline": CliPipeline(),
}

