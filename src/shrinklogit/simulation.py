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
* ``[seed, 2 + r]``  replication r (design, then response, in that order),

each the stream of ``np.random.default_rng([seed, key])``.

Replications run in blocks of at most :data:`BLOCK_SIZE`. A block opens
the substreams of its replications from one vectorised pass of NumPy's
``SeedSequence`` hash over the keys (the seed's words are shared by the
block), draws every replication's standard normal design block into one
(R, n, p) stack, and applies the design formula and the logistic
probabilities to the whole stack at once. It then draws each
replication's responses as n doubles U from its own substream, and one
comparison over the block gives y: for one trial NumPy's binomial
sampler returns U > exp(log(1 - p')) with p' = min(p, 1 - p), flipped
when p > 0.5. Two cases take another number of doubles, and are found
before any draw: p = 0 exactly, which takes none, and a threshold at
which the sampler could reject a double and draw again. A replication
with either keeps ``binomial``. So each replication gets, bit for bit,
what :func:`gen_design` and :func:`gen_response` draw for it alone.

This leans on two NumPy contracts. NEP 19 keeps the output of
``SeedSequence`` and the ``PCG64`` stream stable, and ``PCG64`` takes any
``numpy.random.bit_generator.ISeedSequence`` as its seed. The one-trial
binomial sampler (``random_binomial_inversion`` in ``distributions.c``)
has no such promise; the test suite compares the block's responses and
generator states with ``Generator.binomial`` on the installed NumPy.

The block is then fitted by one batched Newton loop
(:func:`~shrinklogit.logit.irls_stack`) and scored by one call of the
shrinkage kernel. Every numerical step treats the rows of a block
independently, so results are bit-identical whatever the blocks and the
worker count. A call maps its blocks, those of all 18 cells for
:func:`table_suite`, through one :func:`_map`: a pool when ``workers`` > 1.

``concurrent.futures`` is imported only there, ``scipy.special``
(:func:`shrinklogit.logit._special`) when responses are drawn or just
before the pool opens, so that its workers inherit it, and
``numpy.random`` at the first draw; each would add to the start-up time
of every command.
"""

from __future__ import annotations

import itertools
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial

import numpy as np
from numpy.typing import NDArray

from .errors import AllReplicationsFailedError, NotConvergedError, SingularInformationError
# ``estimate`` and ``irls_fit`` stay bound here: perfbench's traced run
# rebinds them by name.
from .estimators import _check_request, _check_restriction, _check_width, _score, estimate  # noqa: F401
from .linalg import SpectralDecomp, _eigh, positive_definite
from .logit import FitOptions, LinearRestriction, _integer, _special, irls_fit, irls_stack  # noqa: F401

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


def _check_projection(restriction: LinearRestriction, p: int, project_beta: bool):
    """The truth's restriction rules: DimensionMismatchError unless the
    restriction is ``p`` wide, and with ``project_beta`` a ValueError for
    p rows, whose null space holds only 0."""
    _check_width(restriction, p)
    if project_beta and restriction.q == p:
        raise ValueError(
            f"project_beta needs fewer restriction rows than p={p}: "
            f"the null space of {restriction.q} independent rows holds only 0"
        )


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
    H beta = 0 hold. With fewer than p rows the projection is zero with
    probability 0, and one draw suffices.

    Raises
    ------
    DimensionMismatchError
        If the restriction's width is not ``p``.
    ValueError
        If ``project_beta`` is set and the restriction has p rows.
    """
    _check_projection(restriction, p, project_beta)
    v = rng.standard_normal(p)
    if project_beta:
        null_basis = restriction.null_basis
        v = null_basis @ (null_basis.T @ v)
    return v / np.linalg.norm(v)


def gen_response(X: NDArray, beta: NDArray, rng: np.random.Generator) -> NDArray:
    """Bernoulli responses with logistic probabilities at X beta."""
    expit, _ = _special()
    return _responses(expit(np.asarray(X) @ beta)[None], [rng])[0]


def _responses(pi: NDArray, rngs) -> NDArray:
    """Bernoulli draws at the probabilities pi (R, n), row i from ``rngs[i]``:
    bit for bit what ``rngs[i].binomial(1, pi[i])`` draws.

    A row that :func:`_inversion` finds exact draws its n doubles with one
    ``random`` call, and one comparison over the block turns them into
    responses; any other row keeps ``binomial``, which also raises its
    ValueError for a NaN.
    """
    threshold, flip, exact = _inversion(pi)
    u = np.zeros(pi.shape)
    for rng, row, ok in zip(rngs, u, exact):
        if ok:
            rng.random(out=row)
    y = ((u > threshold) != flip).astype(float)
    for i in np.flatnonzero(~exact):
        y[i] = rngs[i].binomial(1, pi[i])
    return y


def _inversion(pi: NDArray):
    """NumPy's one-trial binomial sampler at the probabilities pi (R, n).

    For one trial ``Generator.binomial`` (``random_binomial_inversion`` in
    NumPy's ``distributions.c``) flips when p > 0.5 and works at p' = 1 - p
    there, p' = p otherwise. With q = 1 - p' and the threshold exp(log(q))
    it draws one double U and returns U > threshold, flipped. Returns the
    thresholds and flips (R, n) and, per row (R,), whether every entry is
    that one draw. Two cases are not, and both are decided before drawing:
    p = 0 returns 0 without a draw, and the sampler rejects U and draws
    again when U - threshold > p' threshold / q, which the largest double,
    1 - 2**-53, must not reach; a NaN fails this test. q lies in [0.5, 1],
    so no step warns.
    """
    flip = pi > 0.5
    low = np.where(flip, 1.0 - pi, pi)
    q = 1.0 - low
    threshold = np.exp(np.log(q))
    reach = np.multiply(low, threshold, out=low)  # p' threshold / q, formed in place of p'
    reach /= q
    once = (1.0 - 2.0**-53) - threshold <= reach
    return threshold, flip, (once & (pi != 0.0)).all(axis=-1)


#: NumPy's SeedSequence hash (``numpy/random/bit_generator.pyx``): the pool
#: size, the running constants of the entropy hash (A) and of the state
#: hash (B), and the two multipliers of ``mix``.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_WORD = 2**32


@cache
def _hash_constants(init: int, mult: int, count: int) -> NDArray:
    """init * mult**j mod 2**32 for j < count, as a (count, 1) uint32 array,
    worked out in Python integers so that no NumPy scalar product overflows
    and warns. The array is shared by every call, so it is read-only."""
    constants = np.array([[init * pow(mult, j, _WORD) % _WORD] for j in range(count)], dtype=np.uint32)
    constants.flags.writeable = False
    return constants


def _seed_states(seed: int, keys: NDArray) -> NDArray:
    """``SeedSequence([seed, k]).generate_state(4, np.uint64)`` for each key
    k < 2**32, as the C-contiguous rows of an (R, 4) array.

    SeedSequence's hash in uint32 array arithmetic, with the keys along the
    last axis. The entropy of a key is the seed's 32-bit words, low first,
    then the key; the seed's words are the same for every key. Entropy
    shorter than the pool is padded with zeros, which hashes as
    SeedSequence's own fill, and longer entropy is mixed in word by word.
    Each step of the hash updates pool words that do not read each other,
    so a step is one array operation over them.
    """
    words = [seed >> shift & (_WORD - 1) for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((max(len(words) + 1, _POOL), len(keys)), dtype=np.uint32)
    entropy[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    entropy[len(words)] = keys
    a = _hash_constants(_INIT_A, _MULT_A, 4 * len(entropy) + 1)  # one per hashmix call, in call order
    pool = _hashmix(entropy[:_POOL], a[:_POOL], a[1 : _POOL + 1])
    j = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[j : j + _POOL - 1], a[j + 1 : j + _POOL]))
        j += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[j : j + _POOL], a[j + 1 : j + _POOL + 1]))
        j += _POOL
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = _hashmix(np.concatenate([pool, pool]), b[:-1], b[1:]).astype(np.uint64)  # the pool, cycled
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def _hashmix(value: NDArray, constant: NDArray, product: NDArray) -> NDArray:
    """SeedSequence's ``hashmix`` of uint32 words at the running constant,
    which each call then multiplies into ``product``."""
    value = (value ^ constant) * product
    return value ^ value >> 16


def _mix(x: NDArray, y: NDArray) -> NDArray:
    """SeedSequence's ``mix`` of uint32 words."""
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> 16


@cache
def _pcg64():
    """A function from one row of :func:`_seed_states` to the Generator that
    ``default_rng`` seeds with it.

    ``PCG64`` takes any ``ISeedSequence`` and asks it once for
    ``generate_state(4, np.uint64)``; the one here answers with the row.
    Defined on the first call: importing ``numpy.random`` with the package
    would add to the start-up time of every command.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return lambda state: Generator(PCG64(Seeded(state)))


def _generators(seed: int, keys) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, k])`` for each key, from one vectorised
    seed hash. A key of 2**32 or more, two words of entropy, is a ValueError."""
    if max(keys) >= _WORD:
        raise ValueError(
            f"replication key {max(keys)} is not below 2**32: "
            f"a configuration runs at most {_WORD - _REPLICATION_STREAM_BASE} replications"
        )
    generator = _pcg64()
    return [generator(state) for state in _seed_states(seed, np.asarray(keys))]


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

    Rejected here, before any draw: a non-integer n, p, reps or seed, a
    negative seed, a ``rho`` that is not a real number (it is kept as a
    ``float``), no restriction, n at most p (no maximum likelihood
    estimate exists), and with ``project_beta`` a restriction of p rows.
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
        for name, low in (("reps", 1), ("seed", 0), ("p", 2), ("n", 1)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        if not isinstance(self.rho, numbers.Real):
            raise ValueError(f"rho must be a real number, got {self.rho!r}")
        object.__setattr__(self, "rho", float(self.rho))
        if not 0.0 <= self.rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.n <= self.p:
            raise ValueError(
                f"n={self.n} is not above p={self.p}: some X beta separates n <= p responses "
                "exactly, so no maximum likelihood estimate exists"
            )
        kinds, d_grid = _check_request(self.estimator_kinds, self.d_grid)
        who = "the simulation (it draws its truth in the restriction's null space)"
        _check_restriction(kinds, self.restriction, self.p, who)
        _check_projection(self.restriction, self.p, self.project_beta)
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
    ``skipped_by_reason`` counts replications dropped for non-convergence
    or a singular information matrix, under the keys ``not_converged`` and
    ``singular_information``; ``skipped`` is their sum.
    """

    config: SimulationConfig
    beta_true: NDArray
    cells: tuple[SimulationCell, ...]
    completed: int
    skipped_by_reason: dict[str, int]

    @property
    def skipped(self) -> int:
        return sum(self.skipped_by_reason.values())

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
    draw them one replication at a time. The block's generators come from
    one seed hash (:func:`_generators`); the correlation formula, the
    probabilities and the responses' comparison are formed once for the
    whole block (:func:`_responses`).
    """
    base = _REPLICATION_STREAM_BASE
    rngs = _generators(config.seed, range(base + reps.start, base + reps.stop))
    if config.regenerate_design:
        X = np.empty((len(rngs), config.n, config.p))
        for rng, z in zip(rngs, X):
            rng.standard_normal(z.shape, out=z)
        _correlate(X, np.sqrt(config.rho))
    else:
        X = np.broadcast_to(fixed_x, (len(rngs),) + fixed_x.shape)
    expit, _ = _special()
    return X, _responses(expit(X @ beta), rngs)


def _run_block(config: SimulationConfig, beta: NDArray, fixed_x, reps: range):
    """Fit and score replications ``reps`` as one stack.

    Returns the squared errors of the scored replications, shape
    (kept, K, D) in replication order, and per replication its skip
    reason, or None if it was scored. One decomposition of the block's C
    picks the converged rows whose C passes the definiteness test and
    scores them past the kernel's door (the configuration checked the
    request); a converged row that fails it is ``singular_information``.
    """
    fit, errors = irls_stack(*_draw_block(config, beta, fixed_x, reps), config.fit_options)
    reasons = [None if e is None else _SKIP_REASONS[type(e)] for e in errors]
    decomp = _eigh(fit.C)
    scored = fit.converged & positive_definite(decomp.values)
    for row in np.flatnonzero(fit.converged & ~scored):
        reasons[row] = _SKIP_REASONS[SingularInformationError]
    rows = SpectralDecomp(decomp.values[scored], decomp.basis[scored])
    request = (config.estimator_kinds, config.d_grid, config.restriction)
    diff = _score(fit.C[scored], rows, fit.beta_mle[scored], *request) - beta
    return np.sum(diff * diff, axis=-1), reasons


@contextmanager
def _map(task, items: list, workers: int):
    """A lazy map of ``task`` over ``items``: on one process, or on one pool of
    ``min(workers, len(items))`` processes open until the block ends. There the
    first failing item, in list order, is raised once the items before it finish;
    items not yet started are cancelled."""
    if workers == 1:
        yield itertools.starmap(task, items)
        return
    from concurrent.futures import ProcessPoolExecutor

    _special()  # imported once here: forked workers inherit it instead of each importing it
    with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
        yield pool.map(task, *zip(*items))


def _simulate(configs: list[SimulationConfig], workers: int) -> list[SimulationResult]:
    """:func:`run_simulation` of each configuration, with the blocks of all of them
    in one :func:`_map`. Each result is aggregated as its blocks arrive, so on one
    process a configuration whose replications all fail stops the next ones."""
    workers = _integer("workers", workers, 1)
    cells, blocks = [], []
    for config in configs:
        rng = np.random.default_rng([config.seed, _BETA_STREAM])
        beta = gen_beta(config.p, config.restriction, config.project_beta, rng)
        fixed_x = None
        if not config.regenerate_design:
            rng = np.random.default_rng([config.seed, _FIXED_DESIGN_STREAM])
            fixed_x = gen_design(config.n, config.p, np.sqrt(config.rho), rng)
        size = min(BLOCK_SIZE, -(-config.reps // workers))
        starts = range(0, config.reps, size)
        blocks += [(config, beta, fixed_x, range(a, min(a + size, config.reps))) for a in starts]
        cells.append((config, beta, len(starts)))
    with _map(_run_block, blocks, workers) as outcomes:
        return [_result(config, beta, list(itertools.islice(outcomes, count))) for config, beta, count in cells]


def _result(config: SimulationConfig, beta: NDArray, outcomes: list) -> SimulationResult:
    """The MSE of one configuration from its blocks' outcomes, in replication order."""
    stacked = np.concatenate([errors for errors, _ in outcomes])
    reasons = [reason for _, block in outcomes for reason in block]
    completed = stacked.shape[0]
    if completed == 0:
        raise AllReplicationsFailedError(
            f"all {config.reps} replications failed to fit (n={config.n}, "
            f"p={config.p}, rho={config.rho})"
        )
    mse = stacked.mean(axis=0)
    se = stacked.std(axis=0, ddof=1) / np.sqrt(completed) if completed > 1 else np.zeros_like(mse)
    cells = tuple(
        SimulationCell(kind=kind, d=d, mse=float(mse[i, j]), std_error=float(se[i, j]))
        for i, kind in enumerate(config.estimator_kinds)
        for j, d in enumerate(config.d_grid)
    )
    by_reason = {reason: reasons.count(reason) for reason in _SKIP_REASONS.values()}
    return SimulationResult(config, beta, cells, completed, by_reason)


def run_simulation(config: SimulationConfig, workers: int = 1) -> SimulationResult:
    """Run all replications of a configuration and aggregate the MSE.

    Replications run in consecutive blocks of at most :data:`BLOCK_SIZE`,
    which ``workers`` > 1 maps over one process pool; the result is
    bit-identical to the sequential run (see the module notes).

    Raises
    ------
    ValueError
        If ``workers`` is not an integer of at least 1.
    AllReplicationsFailedError
        If every replication was skipped.
    """
    return _simulate([config], workers)[0]


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
    The 18 cells run as one :func:`run_simulation` call would run them: a cell
    whose replications all fail is raised, and on one process stops the suite.
    """
    suite_config = partial(
        SimulationConfig, d_grid=tuple(d_grid), reps=reps, estimator_kinds=tuple(estimator_kinds),
        fit_options=fit_options if fit_options is not None else FitOptions(),
    )
    configs = [
        suite_config(n=n, p=p, rho=rho, seed=base_seed + index, restriction=default_restriction(p))
        for index, (p, n, rho) in enumerate(itertools.product((4, 8), (50, 100, 200), (0.9, 0.99, 0.999)))
    ]
    return _simulate(configs, workers)
