"""Command line interface.

Every command is a thin wrapper: the numbers printed here come from the
same library calls a user would make in Python, with no logic of its
own. Exit codes: 0 on success, 1 for usage, I/O, or parse errors, 2 for
numerical warnings (a fit that did not converge; the summary is still
printed).

One parser holds every command and every flag. It is built on the first
call of :func:`main` and kept for the life of the process, so a process
that runs many commands builds it once; parsing leaves it as it was. A
file to write whose directory does not exist is refused before any work.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, dataclass

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


#: Flag groups, each a tuple of (flag, add_argument keywords). The dataset
#: group leaves out the CSV, whose nargs differs by command. Every flag a
#: refusal list can name defaults to None, a store_true one too, so that
#: _given can tell it was given; _load_and_fit and FitOptions supply the
#: working defaults.
_DATASET = (
    ("--no-header", {"action": "store_true", "default": None, "help": "file has no header row"}),
    ("--response", {"help": "response column index or (with a header) name; default first column"}),
    ("--no-intercept", {"action": "store_true", "default": None,
                        "help": "do not prepend a constant-1 column to the predictors"}),
)
_FIT = (
    ("--max-iter", {"type": int, "help": "IRLS iteration cap"}),
    ("--tol", {"type": float, "help": "IRLS stops when no coefficient moves more than this"}),
    ("--prob-clip", {"type": float, "help": "fitted probabilities are clamped into [clip, 1 - clip]"}),
)
_RESTRICTION = (
    ("--H", {"help": "restriction rows, ';' separated, e.g. '1,0,-2,1;1,-1,1,-1'"
             " (columns must match the fitted coefficient count, intercept included;"
             " an empty row or item is an error)"}),
    ("--h", {"help": "restriction targets, comma separated (an empty item is an error); default zeros"}),
    ("--restriction-file", {"help": "scenario-format file whose [H]/[h] sections supply the restriction"}),
)
_SHAPE = (
    ("--n", {"type": int, "help": "sample size"}),
    ("--p", {"type": int, "help": "number of predictors"}),
    ("--rho", {"type": float, "help": "degree of correlation between distinct predictors, in [0, 1)"}),
)
_TRUTH = (
    ("--no-project-beta", {"action": "store_true", "default": None,
                           "help": "draw the truth without projecting it into the restriction set"}),
    ("--fixed-design", {"action": "store_true", "default": None, "help": "hold one design fixed across replications"}),
)
_OUTPUT = (
    ("--format", {"choices": ("text", "csv"), "default": "text"}),
    ("--output", {"help": "write the table to this file instead of stdout"}),
)

#: What --scenario-file replaces: the file gives C, beta and (H, h) in
#: place of reading, fitting and restricting a CSV.
_SCENARIO_FILE_REPLACES = _DATASET + _FIT + _RESTRICTION
#: What --table-suite fixes: its own grid, stock restrictions, projected
#: truth and fresh designs.
_TABLE_SUITE_FIXED = _SHAPE + _RESTRICTION + _TRUTH


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
    given = [name for name in _given(args, _RESTRICTION) if name != "--h"]
    if given and RESTRICTED_KINDS.isdisjoint(kinds):
        raise ShrinkLogitError(
            f"{', '.join(given)}: a restriction is only for the restricted estimators, "
            f"and {flag} {getattr(args, _dest(flag))!r} has none"
        )


def _restriction_from_args(args) -> LinearRestriction | None:
    """Build (H, h) from --H/--h strings or a scenario-format file; the
    file takes neither flag, and --h needs --H."""
    if args.restriction_file:
        _refuse("--restriction-file", _given(args, _RESTRICTION))
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


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` in."""
    return flag.lstrip("-").replace("-", "_")


def _given(args, group) -> list[str]:
    """The flags of ``group`` given on the command line, in group order."""
    return [flag for flag, _ in group if getattr(args, _dest(flag)) is not None]


def _refuse(flag: str, given: list[str]):
    """Refuse ``flag`` next to anything else it replaces that was ``given``."""
    others = [other for other in given if other != flag]
    if others:
        raise ShrinkLogitError(f"{flag} does not take {', '.join(others)}")


def _fit_options(args) -> FitOptions:
    """FitOptions from the fit flags given; the rest keep their defaults."""
    return FitOptions(**{_dest(flag): getattr(args, _dest(flag)) for flag in _given(args, _FIT)})


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
    restriction = _restriction_from_args(args)
    data, fit, code = _load_and_fit(args)
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
    """risk's scenario and exit code: from a file, or plug-in from a fitted CSV (C-hat, beta-hat)."""
    if args.scenario_file:
        return load_scenario(args.scenario_file)[0], EXIT_OK
    if not args.csv:
        raise ShrinkLogitError("either a CSV path or --scenario-file is required")
    restriction = _restriction_from_args(args)
    _, fit, code = _load_and_fit(args)
    return RiskScenario(C=fit.C, beta_true=fit.beta_mle, restriction=restriction), code


def cmd_risk(args) -> int:
    if args.scenario_file:
        csv = [f"the CSV {args.csv}"] if args.csv else []
        _refuse("--scenario-file", csv + _given(args, _SCENARIO_FILE_REPLACES))
    kinds = _parse_kinds("--estimators", args.estimators)
    _reject_unused_restriction(args, "--estimators", kinds)
    scenario, code = _scenario_from_args(args)
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
    scenario, meta_d = load_scenario(args.scenario_file)
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
        **asdict(config.fit_options),
    }


def cmd_simulate(args) -> int:
    d_grid = tuple(_vector_flag("--d-grid", args.d_grid)) if args.d_grid is not None else TABLE_SUITE_D_GRID
    kinds = tuple(_parse_kinds("--kinds", args.kinds)) if args.kinds is not None else TABLE_SUITE_KINDS
    fit_options = _fit_options(args)
    if args.table_suite:
        _refuse("--table-suite", _given(args, _TABLE_SUITE_FIXED))
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
            **asdict(fit_options),
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


def _csv(nargs=None):
    return ("csv", {"nargs": nargs, "help": "dataset CSV (response plus predictors)"})


#: Each command: the function that runs it, its add_parser keywords and
#: its flags in --help order, the shared ones by group.
_COMMANDS = {
    "fit": (cmd_fit, {"help": "fit the logistic MLE and report diagnostics"}, (_csv(), *_DATASET, *_FIT, *_OUTPUT)),
    "estimate": (cmd_estimate, {"help": "evaluate estimators on a fitted dataset"}, (
        _csv(), *_DATASET, *_FIT, *_RESTRICTION,
        ("--estimator", {"required": True, "help": f"comma separated estimator kinds from {', '.join(KINDS)}"}),
        ("--d", {"help": "comma separated biasing parameters in [0, 1]; an empty item is an error"}),
        *_OUTPUT,
    )),
    "risk": (cmd_risk, {
        "help": "exact risk sweep over d, from a scenario file or a fitted dataset",
        "description": "With a CSV the sweep runs in plug-in mode: the fitted "
        "information matrix and coefficients stand in for the truth.",
    }, (
        _csv("?"), *_DATASET, *_FIT, *_RESTRICTION,
        ("--scenario-file", {"help": "read C, beta (and H, h) from this file"}),
        ("--d-grid", {"required": True, "help": "comma separated d values; an empty item is an error"}),
        ("--estimators", {"default": "mle,rmle,aule,raule", "help": "comma separated estimator kinds to sweep"}),
        ("--plot-data", {"help": "also write (d, mse) series pairs to this file"}),
        *_OUTPUT,
    )),
    "dominance": (cmd_dominance, {"help": "run all dominance checks on a scenario"}, (
        ("--scenario-file", {"required": True}),
        ("--d", {"type": float, "help": "biasing parameter; overrides the file's d"}),
        *_OUTPUT,
    )),
    "simulate": (cmd_simulate, {"help": "Monte Carlo MSE comparison"}, (
        ("--seed", {"type": int, "required": True, "help": "simulation seed (required)"}),
        ("--reps", {"type": int, "default": 2000}),
        *_SHAPE,
        ("--d-grid", {"help": "comma separated d values (an empty item is an error); default the stock grid"}),
        ("--kinds", {"help": "comma separated estimator kinds; default mle,aule,rmle,raule"}),
        ("--workers", {"type": int, "default": 1, "help": "process pool size"}),
        *_TRUTH,
        ("--table-suite", {"action": "store_true", "help": "run the full n x p x rho grid with stock restrictions"}),
        *_FIT, *_RESTRICTION,
        ("--meta-out", {"help": "write the replay metadata JSON here"}),
        *_OUTPUT,
    )),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command with all its flags, built on first use
    and then shared by every call in the process. Parsing does not change
    it, and its help reads COLUMNS when it is printed, not when it is built.
    """
    parser = _Parser(
        prog="shrinklogit",
        description="Shrinkage estimators for multicollinear logistic regression",
    )
    # prog as argparse would work out from the top usage line, which has no
    # positional argument, without formatting that line
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (_, keywords, flags) in _COMMANDS.items():
        subparser = sub.add_parser(name, **keywords)
        for flag, flag_keywords in flags:
            subparser.add_argument(flag, **flag_keywords)
    return parser


def _check_written_dirs(args):
    """Refuse a file to write whose directory does not exist, or that is
    itself a directory, before any work is done (simulate writes
    OUTPUT.meta.json beside --output unless --meta-out is given)."""
    for flag in ("--output", "--meta-out", "--plot-data"):
        path = getattr(args, _dest(flag), None)
        if not path:
            continue
        directory = os.path.dirname(path)
        if directory and not os.path.isdir(directory):
            raise ShrinkLogitError(f"{flag} {path}: no directory {directory}")
        if os.path.isdir(path):
            raise ShrinkLogitError(f"{flag} {path}: is a directory")
    if args.command == "simulate" and args.output and args.meta_out is None:
        meta = args.output + ".meta.json"
        if os.path.isdir(meta):
            raise ShrinkLogitError(f"--output {args.output}: its metadata file {meta} is a directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        _check_written_dirs(args)
        return _COMMANDS[args.command][0](args)
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
