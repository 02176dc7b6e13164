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

Replications run in blocks of at most :data:`BLOCK_SIZE`. A block opens
the substream of each of its replications, draws every replication's
standard normal design block into one (R, n, p) stack, applies the
design formula and the logistic probabilities to the whole stack at
once, and then draws every replication's responses from its own
substream, so each replication gets, bit for bit, what
:func:`gen_design` and :func:`gen_response` draw for it alone. The block
is then fitted by one batched Newton loop
(:func:`~shrinklogit.logit.irls_stack`) and scored by one call of the
shrinkage kernel. Every numerical step treats the rows of a block
independently, so results are bit-identical whatever the blocks, whether
they run sequentially or on a process pool, and independent of worker
count.

Two modules are imported where they are used, not with the package:
``concurrent.futures`` in :func:`run_simulation`'s ``workers > 1``
branch, and ``scipy.special`` through :func:`shrinklogit.logit._special`
when responses are drawn. Neither is needed by a command that does not
simulate, and each would add to the start-up time of every command.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .errors import (
    AllReplicationsFailedError,
    DegenerateProjectionError,
    NotConvergedError,
    SingularInformationError,
)
# ``estimate`` and ``irls_fit`` stay bound here: perfbench's traced run
# rebinds them by name.
from .estimators import _check_request, _check_restriction, _check_width, estimate, shrinkage_estimates  # noqa: F401
from .linalg import positive_definite, sym_eigen
from .logit import FitOptions, FittedLogit, LinearRestriction, _special, irls_fit, irls_stack  # noqa: F401

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

#: Why a replication is skipped, by the error its fit or its scoring ends with.
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
    return _correlate(rng.standard_normal((n, p)), r)


def _correlate(z: NDArray, r: float) -> NDArray:
    """The module formula applied in place to standard normal blocks z
    (..., n, p), whose last column is the shared component."""
    shared = r * z[..., -1:]
    z *= np.sqrt(1.0 - r**2)
    z += shared
    return z


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
    DimensionMismatchError
        If the restriction's width is not ``p``.
    DegenerateProjectionError
        If ten consecutive projected draws have norm below 1e-8.
    """
    _check_width(restriction, p)
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
    return _responses(np.asarray(X)[None], beta, [rng])[0]


def _responses(X: NDArray, beta: NDArray, rngs) -> NDArray:
    """:func:`gen_response` for a stack of designs X (R, n, p), row i drawn
    from ``rngs[i]``; the probabilities come from one stacked product."""
    expit, _ = _special()
    pi = expit(X @ beta)
    return np.array([rng.binomial(1, row) for rng, row in zip(rngs, pi)], dtype=float)


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

    Rejected here, before any draw: no restriction, n below p (every fit
    would be singular), and with ``project_beta`` a restriction of p rows
    (its null space is 0).
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
        if self.n < self.p:
            raise ValueError(
                f"n={self.n} is below p={self.p}: every replication's information matrix would be singular"
            )
        kinds, d_grid = _check_request(self.estimator_kinds, self.d_grid)
        who = "the simulation (it draws its truth in the restriction's null space)"
        _check_restriction(kinds, self.restriction, self.p, who)
        if self.project_beta and self.restriction.q == self.p:
            raise ValueError(
                f"project_beta needs fewer restriction rows than p={self.p}: "
                f"the null space of {self.restriction.q} independent rows holds only 0"
            )
        object.__setattr__(self, "d_grid", tuple(d_grid))
        object.__setattr__(self, "estimator_kinds", tuple(kinds))


@dataclass(frozen=True)
class SimulationCell:
    """Estimated MSE for one (estimator, d) cell."""

    kind: str
    d: float
    mse: float
    std_error: float


@dataclass(frozen=True, eq=False)
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


def _draw_block(config: SimulationConfig, beta: NDArray, fixed_x, reps: range):
    """Designs X (R, n, p) and responses y (R, n) of replications ``reps``.

    Each replication draws its design, then its response, from its own
    substream, exactly as :func:`gen_design` and :func:`gen_response` would
    draw them one replication at a time; the correlation formula and the
    probabilities are formed once for the whole block.
    """
    rngs = [np.random.default_rng([config.seed, _REPLICATION_STREAM_BASE + r]) for r in reps]
    if config.regenerate_design:
        X = np.empty((len(rngs), config.n, config.p))
        for rng, z in zip(rngs, X):
            rng.standard_normal(z.shape, out=z)
        _correlate(X, np.sqrt(config.rho))
    else:
        X = np.broadcast_to(fixed_x, (len(rngs),) + fixed_x.shape)
    return X, _responses(X, beta, rngs)


def _run_block(config: SimulationConfig, beta: NDArray, fixed_x, reps: range):
    """Fit and score replications ``reps`` as one stack.

    Returns the squared errors of the scored replications, shape
    (kept, K, D) in replication order, and per replication its skip
    reason, or None if it was scored. A converged fit whose C fails the
    kernel's definiteness test is skipped as ``singular_information``.
    """
    fit, errors = irls_stack(*_draw_block(config, beta, fixed_x, reps), config.fit_options)
    reasons = [None if e is None else _SKIP_REASONS[type(e)] for e in errors]
    if not fit.converged.all():
        fit = _rows(fit, fit.converged)
    request = (config.estimator_kinds, config.d_grid, config.restriction)
    try:
        estimates = shrinkage_estimates(fit, *request)
    except SingularInformationError:
        # The kernel raises for the first row whose C fails its definiteness
        # test; every such row is skipped and the others are scored.
        definite = positive_definite(sym_eigen(fit.C).values)
        fitted = np.flatnonzero([reason is None for reason in reasons])
        for row in fitted[~definite]:
            reasons[row] = _SKIP_REASONS[SingularInformationError]
        estimates = shrinkage_estimates(_rows(fit, definite), *request)
    diff = estimates - beta
    return np.sum(diff * diff, axis=-1), reasons


def _rows(fit: FittedLogit, keep: NDArray) -> FittedLogit:
    """The rows ``keep`` (a boolean mask) of a stacked fit."""
    return FittedLogit(*(getattr(fit, f.name)[keep] for f in fields(fit)))


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
        from concurrent.futures import ProcessPoolExecutor

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
