"""Command line interface.

Every command is a thin wrapper: the numbers printed here come from the
same library calls a user would make in Python, with no logic of its
own. Exit codes: 0 on success, 1 for usage, I/O, or parse errors, 2 for
numerical warnings (a fit that did not converge; the summary is still
printed).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .datasets import diagnostics, load_csv
from .dominance import check_all
from .errors import (
    MissingRestrictionError,
    NotConvergedError,
    ShrinkLogitError,
)
# ``estimate`` stays bound here: perfbench's traced run rebinds it by name.
from .estimators import KINDS, RESTRICTED_KINDS, SHRINKAGE_KINDS, _check_request, estimate, shrinkage_estimates  # noqa: F401
from .logit import FitOptions, LinearRestriction, irls_fit
from .risk import RiskScenario, d_sweep
from .scenarios import load_restriction, load_scenario, matrix_block, parse_row, vector_block
from .simulation import (
    TABLE_SUITE_D_GRID,
    TABLE_SUITE_KINDS,
    SimulationConfig,
    default_restriction,
    run_simulation,
    table_suite,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NUMERICAL = 2

__all__ = ["main", "OutputTable"]


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (2 is reserved
    for numerical warnings)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@dataclass
class OutputTable:
    """Rectangular table with csv and aligned-text renderings.

    Text output shows reals with 6 significant digits; csv keeps full
    round-trip precision.
    """

    columns: list[str]
    rows: list[list]

    @staticmethod
    def _cell(value, real) -> str:
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return real(value)
        return str(value)

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        lines.extend(",".join(self._cell(v, repr) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        cells = [[self._cell(v, "{:.6g}".format) for v in row] for row in self.rows]
        widths = [
            max(len(name), *(len(row[i]) for row in cells)) if cells else len(name)
            for i, name in enumerate(self.columns)
        ]
        def fmt(row):
            return "  ".join(cell.rjust(w) for cell, w in zip(row, widths))
        lines = [fmt(self.columns), fmt(["-" * w for w in widths])]
        lines.extend(fmt(row) for row in cells)
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_csv() if fmt == "csv" else self.to_text()


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _vector_flag(flag: str, text: str) -> list[float]:
    """A comma separated number flag, read as a scenario-file vector row."""
    return vector_block([parse_row(text, flag)], flag).tolist()


def _matrix_flag(flag: str, text: str) -> np.ndarray:
    """A ';' separated matrix flag, read as a scenario-file matrix block."""
    return matrix_block([parse_row(row, flag) for row in text.split(";")], flag)


def _parse_kinds(flag: str, text: str) -> list[str]:
    """A comma separated kind flag. An empty item next to a kind is an
    error naming the flag; no kind at all is the empty request's error."""
    items = [k.strip() for k in text.split(",")]
    if any(items) and not all(items):
        raise ValueError(f"{flag}: empty item in kind list {text!r}")
    return _check_request([k for k in items if k])[0]


def _reject_unused_restriction(args, flag: str, kinds):
    """Refuse --H or --restriction-file when no kind of ``flag`` is restricted
    (--h alone is the error of :func:`_restriction_from_args`)."""
    given = _given(args, ("--H", "--restriction-file"))
    if given and RESTRICTED_KINDS.isdisjoint(kinds):
        raise ShrinkLogitError(
            f"{', '.join(given)}: a restriction is only for the restricted estimators, "
            f"and {flag} {getattr(args, flag[2:])!r} has none"
        )


def _restriction_from_args(args) -> LinearRestriction | None:
    """Build (H, h) from --H/--h strings or a scenario-format file; the
    file takes neither flag, and --h needs --H."""
    if getattr(args, "restriction_file", None):
        given = _given(args, ("--H", "--h"))
        if given:
            raise ShrinkLogitError(f"--restriction-file does not take {', '.join(given)}")
        restriction = load_restriction(args.restriction_file)
        if restriction is None:
            raise ShrinkLogitError(f"{args.restriction_file} has no [H]/[h] sections")
        return restriction
    if args.H is None:
        if args.h is not None:
            raise ShrinkLogitError("--h needs --H (the rows of H b = h)")
        return None
    H = _matrix_flag("--H", args.H)
    h = _vector_flag("--h", args.h) if args.h is not None else np.zeros(H.shape[0])
    return LinearRestriction(H, h)


def _response_column(text: str):
    try:
        return int(text)
    except ValueError:
        return text


def _given(args, flags) -> list[str]:
    """The flags among ``flags`` given on the command line (each defaults to None)."""
    return [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]


def _fit_options(args) -> FitOptions:
    """FitOptions from the fit flags given; the rest keep their defaults."""
    values = {name: getattr(args, name) for name in ("max_iter", "tol", "prob_clip")}
    return FitOptions(**{name: value for name, value in values.items() if value is not None})


def _load_and_fit(args):
    """Read the CSV and fit it, downgrading non-convergence to a warning;
    returns (data, fit, exit_code)."""
    data = load_csv(
        args.csv,
        header=not args.no_header,
        response_column=0 if args.response is None else _response_column(args.response),
        intercept=not args.no_intercept,
    )
    try:
        return data, irls_fit(data, _fit_options(args)), EXIT_OK
    except NotConvergedError as err:
        print(f"warning: {err}", file=sys.stderr)
        return data, err.fit, EXIT_NUMERICAL


def _coef_names(m: int, has_intercept: bool) -> list[str]:
    if has_intercept:
        return ["intercept"] + [f"x{j}" for j in range(1, m)]
    return [f"x{j + 1}" for j in range(m)]


def cmd_fit(args) -> int:
    data, fit, code = _load_and_fit(args)
    report = diagnostics(data)
    names = _coef_names(data.m, data.has_intercept)
    rows = [[name, float(b)] for name, b in zip(names, fit.beta_mle)]
    rows.append(["iterations", fit.iterations])
    rows.append(["converged", fit.converged])
    rows.append(["final_step", float(fit.final_step)])
    rows.append(["kappa", float(report.kappa)])
    rows.append(["max_abs_correlation", _max_offdiag(report.correlation)])
    table = OutputTable(columns=["name", "value"], rows=rows)
    _emit(table.render(args.format), args.output)
    return code


def _max_offdiag(correlation) -> float:
    c = np.abs(np.asarray(correlation).copy())
    np.fill_diagonal(c, 0.0)
    return float(c.max()) if c.size else 0.0


def cmd_estimate(args) -> int:
    kinds = _parse_kinds("--estimator", args.estimator)
    d_values = _vector_flag("--d", args.d) if args.d is not None else []
    needs_d = [k for k in kinds if k in SHRINKAGE_KINDS]
    if needs_d and not d_values:
        raise ShrinkLogitError(
            f"estimators {needs_d} need --d (comma separated values in [0, 1])"
        )
    if d_values and not needs_d:
        raise ShrinkLogitError(
            f"--d is only for the shrinkage estimators, and --estimator {args.estimator!r} has none"
        )
    _reject_unused_restriction(args, "--estimator", kinds)
    data, fit, code = _load_and_fit(args)
    restriction = _restriction_from_args(args)
    # The unshrunken kinds ignore d, so any grid serves when none is given.
    betas = shrinkage_estimates(fit, kinds, d_values or [1.0], restriction)
    rows = []
    for kind, by_d in zip(kinds, betas):
        if kind in SHRINKAGE_KINDS:
            rows.extend([kind, float(d)] + [float(b) for b in beta] for d, beta in zip(d_values, by_d))
        else:
            rows.append([kind, ""] + [float(b) for b in by_d[0]])
    names = _coef_names(data.m, data.has_intercept)
    table = OutputTable(columns=["estimator", "d"] + names, rows=rows)
    _emit(table.render(args.format), args.output)
    return code


def _scenario_from_args(args):
    """Scenario from a file, or plug-in from a fitted CSV (C-hat, beta-hat)."""
    if args.scenario_file:
        return (*load_scenario(args.scenario_file), EXIT_OK)
    if not args.csv:
        raise ShrinkLogitError("either a CSV path or --scenario-file is required")
    _, fit, code = _load_and_fit(args)
    scenario = RiskScenario(C=fit.C, beta_true=fit.beta_mle, restriction=_restriction_from_args(args))
    return scenario, None, code


#: risk flags that --scenario-file would ignore: the file gives C, beta
#: and (H, h) in place of reading, fitting and restricting a CSV.
_SCENARIO_FILE_REPLACES = ("--no-header", "--response", "--no-intercept", "--max-iter", "--tol",
                           "--prob-clip", "--H", "--h", "--restriction-file")


def cmd_risk(args) -> int:
    if args.scenario_file:
        given = ([f"the CSV {args.csv}"] if args.csv else []) + _given(args, _SCENARIO_FILE_REPLACES)
        if given:
            raise ShrinkLogitError(f"--scenario-file does not take {', '.join(given)}")
    kinds = _parse_kinds("--estimators", args.estimators)
    _reject_unused_restriction(args, "--estimators", kinds)
    scenario, _, code = _scenario_from_args(args)
    grid = _vector_flag("--d-grid", args.d_grid)
    sweep = d_sweep(scenario, kinds, grid)
    rows = [[float(row.d), row.kind, float(row.mse)] + [float(v) for v in row.coefficients] for row in sweep]
    names = [f"b{j + 1}" for j in range(scenario.m)]
    table = OutputTable(columns=["d", "estimator", "mse"] + names, rows=rows)
    _emit(table.render(args.format), args.output)
    if args.plot_data:
        _emit(_plot_data(sweep, kinds), args.plot_data)
    return code


def _plot_data(sweep, kinds) -> str:
    """Two columns per estimator series (d, mse), one row per grid point,
    read by position: the sweep is d-major with one row per requested kind."""
    columns = [name for kind in kinds for name in (f"{kind}_d", f"{kind}_mse")]
    step = len(kinds)
    rows = [[float(v) for row in sweep[i : i + step] for v in (row.d, row.mse)] for i in range(0, len(sweep), step)]
    return OutputTable(columns, rows).to_csv()


def cmd_dominance(args) -> int:
    scenario, meta_d, _ = _scenario_from_args(args)
    d = args.d if args.d is not None else meta_d
    if d is None:
        raise ShrinkLogitError("no biasing parameter: pass --d or put d in the [meta] section")
    verdicts = check_all(scenario, float(d))
    rows = []
    for verdict in verdicts:
        witnesses = ";".join(f"{k}={v:.10g}" for k, v in verdict.witnesses.items())
        rows.append(
            [
                verdict.theorem,
                verdict.applicable,
                verdict.condition_holds,
                verdict.delta_psd,
                "" if verdict.lhs is None else float(verdict.lhs),
                "" if verdict.rhs is None else float(verdict.rhs),
                witnesses,
            ]
        )
    table = OutputTable(
        columns=["theorem", "applicable", "condition_holds", "delta_psd", "lhs", "rhs", "witnesses"],
        rows=rows,
    )
    _emit(table.render(args.format), args.output)
    return EXIT_OK


def _simulation_rows(result) -> list[list]:
    cfg = result.config
    return [
        [
            cfg.n,
            cfg.p,
            float(cfg.rho),
            cell.kind,
            float(cell.d),
            float(cell.mse),
            float(cell.std_error),
            result.completed,
            result.skipped,
        ]
        for cell in result.cells
    ]


_SIM_COLUMNS = ["n", "p", "rho", "kind", "d", "mse", "std_error", "completed", "skipped"]


def _suite_text(results) -> str:
    """Text layout: one block per (n, p) with a sub-block per correlation."""
    blocks = []
    by_shape: dict[tuple, list] = {}
    for result in results:
        by_shape.setdefault((result.config.p, result.config.n), []).append(result)
    for (p, n), group in by_shape.items():
        lines = [f"# n={n} p={p}"]
        for result in group:
            grid = result.config.d_grid
            lines.append(f"rho={result.config.rho:g}  completed={result.completed} skipped={result.skipped}")
            table = OutputTable(
                columns=["kind"] + [f"d={d:g}" for d in grid],
                rows=[
                    [kind] + [result.mse(kind, d) for d in grid]
                    for kind in result.config.estimator_kinds
                ],
            )
            lines.append(table.to_text().rstrip("\n"))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def _write_meta(path: str, payload: dict):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _config_meta(config: SimulationConfig) -> dict:
    return {
        "n": config.n,
        "p": config.p,
        "rho": config.rho,
        "d_grid": list(config.d_grid),
        "reps": config.reps,
        "seed": config.seed,
        "H": config.restriction.H.tolist(),
        "h": config.restriction.h.tolist(),
        "project_beta": config.project_beta,
        "estimator_kinds": list(config.estimator_kinds),
        "regenerate_design": config.regenerate_design,
        "max_iter": config.fit_options.max_iter,
        "tol": config.fit_options.tol,
        "prob_clip": config.fit_options.prob_clip,
    }


#: simulate flags that --table-suite would ignore: it fixes its own grid,
#: stock restrictions, projected truth and fresh designs.
_TABLE_SUITE_FIXED = ("--n", "--p", "--rho", "--H", "--h", "--restriction-file", "--no-project-beta", "--fixed-design")


def cmd_simulate(args) -> int:
    d_grid = tuple(_vector_flag("--d-grid", args.d_grid)) if args.d_grid is not None else TABLE_SUITE_D_GRID
    kinds = tuple(_parse_kinds("--kinds", args.kinds)) if args.kinds is not None else TABLE_SUITE_KINDS
    fit_options = _fit_options(args)
    if args.table_suite:
        given = _given(args, _TABLE_SUITE_FIXED)
        if given:
            raise ShrinkLogitError(f"--table-suite does not take {', '.join(given)}")
        results = table_suite(
            base_seed=args.seed,
            reps=args.reps,
            d_grid=d_grid,
            estimator_kinds=kinds,
            workers=args.workers,
            fit_options=fit_options,
        )
        meta = {
            "mode": "table-suite",
            "base_seed": args.seed,
            "reps": args.reps,
            "d_grid": list(d_grid),
            "estimator_kinds": list(kinds),
            "max_iter": fit_options.max_iter,
            "tol": fit_options.tol,
            "prob_clip": fit_options.prob_clip,
        }
    else:
        if args.n is None or args.p is None or args.rho is None:
            raise ShrinkLogitError("--n, --p and --rho are required without --table-suite")
        restriction = _restriction_from_args(args)
        if restriction is None:
            restriction = default_restriction(args.p)
        config = SimulationConfig(
            n=args.n,
            p=args.p,
            rho=args.rho,
            d_grid=d_grid,
            reps=args.reps,
            seed=args.seed,
            restriction=restriction,
            project_beta=not args.no_project_beta,
            estimator_kinds=kinds,
            regenerate_design=not args.fixed_design,
            fit_options=fit_options,
        )
        results = [run_simulation(config, workers=args.workers)]
        meta = {"mode": "single", **_config_meta(config)}
    meta["skipped_by_reason"] = {
        reason: sum(result.skipped_by_reason[reason] for result in results)
        for reason in results[0].skipped_by_reason
    }
    rows = [row for result in results for row in _simulation_rows(result)]
    if args.format == "csv":
        text = OutputTable(columns=_SIM_COLUMNS, rows=rows).to_csv()
    else:
        text = _suite_text(results)
    _emit(text, args.output)
    if args.output and args.meta_out is None:
        _write_meta(args.output + ".meta.json", meta)
    elif args.meta_out:
        _write_meta(args.meta_out, meta)
    return EXIT_OK


# Dataset and fit flags default to None, store_true ones too, so that a
# command can tell them given (see _given); _load_and_fit and
# _fit_options supply the defaults.
def _add_dataset_args(parser, positional_required=True):
    nargs = None if positional_required else "?"
    parser.add_argument("csv", nargs=nargs, help="dataset CSV (response plus predictors)")
    parser.add_argument("--no-header", action="store_true", default=None, help="file has no header row")
    parser.add_argument(
        "--response",
        help="response column index or (with a header) name; default first column",
    )
    parser.add_argument(
        "--no-intercept",
        action="store_true",
        default=None,
        help="do not prepend a constant-1 column to the predictors",
    )
    _add_fit_args(parser)


def _add_fit_args(parser):
    parser.add_argument("--max-iter", type=int, help="IRLS iteration cap")
    parser.add_argument("--tol", type=float, help="IRLS stops when no coefficient moves more than this")
    parser.add_argument("--prob-clip", type=float, help="fitted probabilities are clamped into [clip, 1 - clip]")


def _add_restriction_args(parser):
    parser.add_argument(
        "--H",
        help="restriction rows, ';' separated, e.g. '1,0,-2,1;1,-1,1,-1'"
        " (columns must match the fitted coefficient count, intercept included;"
        " an empty row or item is an error)",
    )
    parser.add_argument("--h", help="restriction targets, comma separated (an empty item is an error); default zeros")
    parser.add_argument(
        "--restriction-file",
        help="scenario-format file whose [H]/[h] sections supply the restriction",
    )


def _add_output_args(parser):
    parser.add_argument("--format", choices=("text", "csv"), default="text")
    parser.add_argument("--output", help="write the table to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="shrinklogit",
        description="Shrinkage estimators for multicollinear logistic regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the logistic MLE and report diagnostics")
    _add_dataset_args(p_fit)
    _add_output_args(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_est = sub.add_parser("estimate", help="evaluate estimators on a fitted dataset")
    _add_dataset_args(p_est)
    _add_restriction_args(p_est)
    p_est.add_argument(
        "--estimator",
        required=True,
        help=f"comma separated estimator kinds from {', '.join(KINDS)}",
    )
    p_est.add_argument("--d", help="comma separated biasing parameters in [0, 1]; an empty item is an error")
    _add_output_args(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_risk = sub.add_parser(
        "risk",
        help="exact risk sweep over d, from a scenario file or a fitted dataset",
        description="With a CSV the sweep runs in plug-in mode: the fitted "
        "information matrix and coefficients stand in for the truth.",
    )
    _add_dataset_args(p_risk, positional_required=False)
    _add_restriction_args(p_risk)
    p_risk.add_argument("--scenario-file", help="read C, beta (and H, h) from this file")
    p_risk.add_argument("--d-grid", required=True, help="comma separated d values; an empty item is an error")
    p_risk.add_argument(
        "--estimators",
        default="mle,rmle,aule,raule",
        help="comma separated estimator kinds to sweep",
    )
    p_risk.add_argument("--plot-data", help="also write (d, mse) series pairs to this file")
    _add_output_args(p_risk)
    p_risk.set_defaults(func=cmd_risk)

    p_dom = sub.add_parser("dominance", help="run all dominance checks on a scenario")
    p_dom.add_argument("--scenario-file", required=True)
    p_dom.add_argument("--d", type=float, help="biasing parameter; overrides the file's d")
    _add_output_args(p_dom)
    p_dom.set_defaults(func=cmd_dominance, csv=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo MSE comparison")
    p_sim.add_argument("--seed", type=int, required=True, help="simulation seed (required)")
    p_sim.add_argument("--reps", type=int, default=2000)
    p_sim.add_argument("--n", type=int, help="sample size")
    p_sim.add_argument("--p", type=int, help="number of predictors")
    p_sim.add_argument(
        "--rho", type=float,
        help="degree of correlation between distinct predictors, in [0, 1)",
    )
    p_sim.add_argument("--d-grid", help="comma separated d values (an empty item is an error); default the stock grid")
    p_sim.add_argument("--kinds", help="comma separated estimator kinds; default mle,aule,rmle,raule")
    p_sim.add_argument("--workers", type=int, default=1, help="process pool size")
    # store_true flags default to None so --table-suite can tell them given.
    p_sim.add_argument("--no-project-beta", action="store_true", default=None,
                       help="draw the truth without projecting it into the restriction set")
    p_sim.add_argument("--fixed-design", action="store_true", default=None,
                       help="hold one design fixed across replications")
    p_sim.add_argument("--table-suite", action="store_true",
                       help="run the full n x p x rho grid with stock restrictions")
    _add_fit_args(p_sim)
    _add_restriction_args(p_sim)
    p_sim.add_argument("--meta-out", help="write the replay metadata JSON here")
    _add_output_args(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingRestrictionError as err:
        if getattr(args, "scenario_file", None):
            hint = "add [H] and [h] sections to the scenario file"
        else:
            hint = "pass --H/--h (or --restriction-file)"
        print(f"error: {err}\nhint: {hint}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, ShrinkLogitError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
