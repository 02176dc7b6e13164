"""Monte Carlo harness for comparing the estimators under collinearity.

The generating design follows the standard correlated-normal recipe

    x_ij = sqrt(1 - r^2) z_ij + r z_ip,   j = 1, ..., p,

with independent standard normal z, so distinct columns j, k < p have
population correlation r^2 and the last column acts as the shared
component. A configuration is specified by the *degree of correlation*
``rho`` (the pairwise correlation level between distinct predictors,
0.9, 0.99 or 0.999 in the stock grid), so the harness drives the
formula with r = sqrt(rho). Responses are Bernoulli with logistic
probabilities at a true coefficient vector of unit length, drawn once
per configuration and, by default, projected into the restriction null
space so the imposed restrictions hold at the truth.

Randomness is organized in keyed substreams of a single 64-bit seed:

* ``[seed, 0]``      the coefficient draw,
* ``[seed, 1]``      the design draw when the design is held fixed,
* ``[seed, 2 + r]``  replication r (design, then response, in that order).

Replications run in blocks of at most :data:`BLOCK_SIZE`: each one draws
its data from its own substream, then the block is fitted by one batched
Newton loop (:func:`~shrinklogit.logit.irls_stack`) and scored by one
call of the shrinkage kernel. Every numerical step treats the rows of a
block independently, so results are bit-identical whatever the blocks,
whether they run sequentially or on a process pool, and independent of
worker count.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np
from numpy.typing import NDArray
from scipy.special import expit

from .errors import (
    AllReplicationsFailedError,
    DegenerateProjectionError,
    NotConvergedError,
    SingularInformationError,
)
# ``estimate`` and ``irls_fit`` stay bound here: perfbench's traced run
# rebinds them by name.
from .estimators import KINDS, estimate, shrinkage_estimates  # noqa: F401
from .logit import FitOptions, FittedLogit, LinearRestriction, irls_fit, irls_stack  # noqa: F401

__all__ = [
    "SimulationConfig",
    "SimulationCell",
    "SimulationResult",
    "default_restriction",
    "gen_design",
    "gen_beta",
    "gen_response",
    "run_simulation",
    "table_suite",
    "BLOCK_SIZE",
    "TABLE_SUITE_D_GRID",
    "TABLE_SUITE_KINDS",
]

#: Default biasing-parameter grid used by the table suite.
TABLE_SUITE_D_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99)

#: Estimator rows of the default table suite, in display order.
TABLE_SUITE_KINDS = ("mle", "aule", "rmle", "raule")

#: Most replications fitted and scored together. Results do not depend on
#: it; on the paper grid 64 to 256 ran fastest.
BLOCK_SIZE = 128

_BETA_STREAM = 0
_FIXED_DESIGN_STREAM = 1
_REPLICATION_STREAM_BASE = 2

#: Why a replication is skipped, by the error its fit ends with.
_SKIP_REASONS = {NotConvergedError: "not_converged", SingularInformationError: "singular_information"}


def default_restriction(p: int) -> LinearRestriction:
    """Stock restriction matrices for the simulation designs.

    Two restrictions with h = 0, one for p = 4 and one for p = 8
    predictors. Other widths have no stock restriction.
    """
    if p == 4:
        H = np.array(
            [
                [1.0, 0.0, -2.0, 1.0],
                [1.0, -1.0, 1.0, -1.0],
            ]
        )
    elif p == 8:
        H = np.array(
            [
                [1.0, 0.0, -2.0, 1.0, -3.0, 1.0, 1.0, 1.0],
                [1.0, 1.0, 0.0, 1.0, -3.0, 1.0, -2.0, 1.0],
            ]
        )
    else:
        raise ValueError(f"no stock restriction for p={p}; supply one explicitly")
    return LinearRestriction(H, np.zeros(2))


def gen_design(n: int, p: int, r: float, rng: np.random.Generator) -> NDArray:
    """Correlated design matrix from one (n, p) standard normal block.

    ``r`` is the shared-component weight of the module formula, sqrt(rho)
    for degree of correlation rho. The block is drawn in a single
    row-major call so the stream position is reproducible; the last
    column is the shared component.
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"r must be in [0, 1), got {r}")
    z = rng.standard_normal((n, p))
    return np.sqrt(1.0 - r**2) * z + r * z[:, [p - 1]]


def gen_beta(
    p: int,
    restriction: LinearRestriction,
    project_beta: bool,
    rng: np.random.Generator,
) -> NDArray:
    """Unit-length true coefficient vector, optionally restriction-compatible.

    Draws a standard normal vector; when ``project_beta`` is set it is
    projected onto the null space of H through N N', N the restriction's
    ``null_basis``, before being normalized, so both beta'beta = 1 and
    H beta = 0 hold. Near-zero projections are redrawn, up to ten times.

    Raises
    ------
    DegenerateProjectionError
        If ten consecutive projected draws have norm below 1e-8.
    """
    if restriction.width != p:
        raise ValueError(f"restriction width {restriction.width} does not match p={p}")
    null_basis = restriction.null_basis
    for _ in range(10):
        v = rng.standard_normal(p)
        if project_beta:
            v = null_basis @ (null_basis.T @ v)
        norm = float(np.linalg.norm(v))
        if norm >= 1e-8:
            return v / norm
    raise DegenerateProjectionError(
        "projection onto the restriction null space kept collapsing to zero"
    )


def gen_response(X: NDArray, beta: NDArray, rng: np.random.Generator) -> NDArray:
    """Bernoulli responses with logistic probabilities at X beta."""
    pi = expit(X @ beta)
    return rng.binomial(1, pi).astype(float)


@dataclass(frozen=True)
class SimulationConfig:
    """One Monte Carlo cell: a design regime plus the estimators to score.

    ``rho`` is the degree of correlation, the population correlation
    between distinct predictor columns; the design generator is driven
    with sqrt(rho). ``project_beta`` keeps the drawn truth inside the
    restriction set (the regime in which restricted estimators are
    honest); switch it off to study violated restrictions.
    ``regenerate_design`` draws a fresh design every replication, making
    the reported MSE unconditional; a fixed-design mode is available for
    conditional studies.
    """

    n: int
    p: int
    rho: float  # degree of correlation between distinct predictors
    d_grid: tuple[float, ...]
    reps: int
    seed: int
    restriction: LinearRestriction
    project_beta: bool = True
    estimator_kinds: tuple[str, ...] = TABLE_SUITE_KINDS
    regenerate_design: bool = True
    fit_options: FitOptions = field(default_factory=FitOptions)

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.restriction.width != self.p:
            raise ValueError(
                f"restriction width {self.restriction.width} does not match p={self.p}"
            )
        d_grid = tuple(float(d) for d in self.d_grid)
        if not d_grid:
            raise ValueError("d_grid must be nonempty")
        if any(not 0.0 <= d <= 1.0 for d in d_grid):
            raise ValueError("d grid values must lie in [0, 1]")
        kinds = tuple(k.lower() for k in self.estimator_kinds)
        unknown = [k for k in kinds if k not in KINDS]
        if unknown:
            raise ValueError(f"unknown estimator kinds {unknown}")
        object.__setattr__(self, "d_grid", d_grid)
        object.__setattr__(self, "estimator_kinds", kinds)


@dataclass(frozen=True)
class SimulationCell:
    """Estimated MSE for one (estimator, d) cell."""

    kind: str
    d: float
    mse: float
    std_error: float


@dataclass(frozen=True)
class SimulationResult:
    """Per-cell estimated MSE with Monte Carlo standard errors.

    Cells cover the full (kind, d) grid; kinds without a biasing
    parameter repeat the same value across d so tables stay rectangular.
    ``skipped`` counts replications dropped for non-convergence or a
    singular information matrix; ``skipped_by_reason`` splits that count
    under the keys ``not_converged`` and ``singular_information``.
    """

    config: SimulationConfig
    beta_true: NDArray
    cells: tuple[SimulationCell, ...]
    completed: int
    skipped: int
    skipped_by_reason: dict[str, int]

    def cell(self, kind: str, d: float) -> SimulationCell:
        kind = kind.lower()
        for cell in self.cells:
            if cell.kind == kind and abs(cell.d - d) <= 1e-12:
                return cell
        raise KeyError(f"no cell for kind={kind!r}, d={d}")

    def mse(self, kind: str, d: float) -> float:
        return self.cell(kind, d).mse


def _draw(config: SimulationConfig, beta: NDArray, fixed_x, rep_index: int):
    """Design and response of replication ``rep_index``, from its substream."""
    rng = np.random.default_rng([config.seed, _REPLICATION_STREAM_BASE + rep_index])
    if config.regenerate_design:
        X = gen_design(config.n, config.p, np.sqrt(config.rho), rng)
    else:
        X = fixed_x
    return X, gen_response(X, beta, rng)


def _run_block(config: SimulationConfig, beta: NDArray, fixed_x, reps: range):
    """Fit and score replications ``reps`` as one stack.

    Returns the squared errors of the fitted replications, shape
    (kept, K, D) in replication order, and per replication its skip
    reason, or None if it was fitted.
    """
    draws = [_draw(config, beta, fixed_x, r) for r in reps]
    if config.regenerate_design:
        X = np.stack([x for x, _ in draws])
    else:
        X = np.broadcast_to(fixed_x, (len(draws),) + fixed_x.shape)
    fit, errors = irls_stack(X, np.stack([y for _, y in draws]), config.fit_options)
    if not fit.converged.all():
        fit = FittedLogit(*(getattr(fit, f.name)[fit.converged] for f in fields(fit)))
    estimates = shrinkage_estimates(fit, config.estimator_kinds, config.d_grid, config.restriction)
    diff = estimates - beta
    return np.sum(diff * diff, axis=-1), [None if e is None else _SKIP_REASONS[type(e)] for e in errors]


def run_simulation(config: SimulationConfig, workers: int = 1) -> SimulationResult:
    """Run all replications of a configuration and aggregate the MSE.

    Replications run in consecutive blocks of at most :data:`BLOCK_SIZE`.
    ``workers`` > 1 distributes the blocks over a process pool; the
    result is bit-identical to the sequential run because every
    replication draws from its own keyed substream, rows of a block are
    fitted and scored independently, and aggregation happens in
    replication order.

    Raises
    ------
    ValueError
        If ``workers`` is below 1.
    AllReplicationsFailedError
        If every replication was skipped.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    beta = gen_beta(
        config.p,
        config.restriction,
        config.project_beta,
        np.random.default_rng([config.seed, _BETA_STREAM]),
    )
    fixed_x = None
    if not config.regenerate_design:
        fixed_x = gen_design(
            config.n,
            config.p,
            np.sqrt(config.rho),
            np.random.default_rng([config.seed, _FIXED_DESIGN_STREAM]),
        )
    size = min(BLOCK_SIZE, -(-config.reps // workers))
    blocks = [range(start, min(start + size, config.reps)) for start in range(0, config.reps, size)]
    task = partial(_run_block, config, beta, fixed_x)
    if workers == 1:
        outcomes = [task(block) for block in blocks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(task, blocks))
    stacked = np.concatenate([errors for errors, _ in outcomes])
    reasons = [reason for _, block in outcomes for reason in block]
    completed = stacked.shape[0]
    if completed == 0:
        raise AllReplicationsFailedError(
            f"all {config.reps} replications failed to fit (n={config.n}, "
            f"p={config.p}, rho={config.rho})"
        )
    mse = stacked.mean(axis=0)
    if completed > 1:
        se = stacked.std(axis=0, ddof=1) / np.sqrt(completed)
    else:
        se = np.zeros_like(mse)
    cells = tuple(
        SimulationCell(kind=kind, d=d, mse=float(mse[i, j]), std_error=float(se[i, j]))
        for i, kind in enumerate(config.estimator_kinds)
        for j, d in enumerate(config.d_grid)
    )
    return SimulationResult(
        config=config,
        beta_true=beta,
        cells=cells,
        completed=completed,
        skipped=config.reps - completed,
        skipped_by_reason={reason: reasons.count(reason) for reason in _SKIP_REASONS.values()},
    )


def table_suite(
    base_seed: int,
    reps: int = 2000,
    d_grid: tuple[float, ...] = TABLE_SUITE_D_GRID,
    estimator_kinds: tuple[str, ...] = TABLE_SUITE_KINDS,
    workers: int = 1,
    fit_options: FitOptions | None = None,
) -> list[SimulationResult]:
    """The full simulation grid: p in {4, 8} by n in {50, 100, 200}.

    Each (p, n) pair is evaluated at correlation levels 0.9, 0.99 and
    0.999 with the stock restriction for its width, giving 18 results in
    table order (the three correlation blocks of one table are adjacent).
    Configuration seeds are ``base_seed + index`` with index running in
    emission order; substream keying makes adjacent seeds independent.
    """
    results = []
    index = 0
    for p in (4, 8):
        restriction = default_restriction(p)
        for n in (50, 100, 200):
            for rho in (0.9, 0.99, 0.999):
                config = SimulationConfig(
                    n=n,
                    p=p,
                    rho=rho,
                    d_grid=tuple(d_grid),
                    reps=reps,
                    seed=base_seed + index,
                    restriction=restriction,
                    estimator_kinds=tuple(estimator_kinds),
                    fit_options=fit_options if fit_options is not None else FitOptions(),
                )
                results.append(run_simulation(config, workers=workers))
                index += 1
    return results
