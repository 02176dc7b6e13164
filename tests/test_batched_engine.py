"""The block engine of the Monte Carlo harness against a per-replication loop.

The reference is the replication loop the engine replaced: one
``irls_fit`` per replication, its non-convergence and singular
information caught as skips, then ``shrinkage_estimates`` on the one
fit. Every numerical step of the engine treats the rows of a block
independently, so it must skip the same replications for the same
reasons, give bit-identical squared errors, and raise the same
exception type, however the replications are split into blocks.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    Dataset,
    FitOptions,
    FittedLogit,
    KINDS,
    LinearRestriction,
    NotConvergedError,
    ShrinkLogitError,
    SimulationConfig,
    SingularInformationError,
    default_restriction,
    gen_beta,
    gen_design,
    gen_response,
    irls_fit,
    run_simulation,
    shrinkage_estimates,
    simulation,
    table_suite,
    working_quantities,
)
from shrinklogit.linalg import definiteness_error, positive_definite
from shrinklogit.logit import irls_stack


def reference_loop(config, beta, fixed_x):
    """Squared errors of the fitted replications and each skip reason."""
    errors, reasons = [], []
    for r in range(config.reps):
        rng = np.random.default_rng([config.seed, 2 + r])
        if config.regenerate_design:
            X = gen_design(config.n, config.p, np.sqrt(config.rho), rng)
        else:
            X = fixed_x
        y = gen_response(X, beta, rng)
        try:
            fit = irls_fit(Dataset(X, y), config.fit_options)
        except NotConvergedError:
            reasons.append("not_converged")
            continue
        except SingularInformationError:
            reasons.append("singular_information")
            continue
        reasons.append(None)
        estimates = shrinkage_estimates(fit, config.estimator_kinds, config.d_grid, config.restriction)
        diff = estimates - beta
        errors.append(np.sum(diff * diff, axis=-1))
    shape = (0, len(config.estimator_kinds), len(config.d_grid))
    return (np.stack(errors) if errors else np.empty(shape)), reasons


def engine(config, beta, fixed_x, cuts):
    """The same replications through the block engine, split at ``cuts``."""
    bounds = [0, *cuts, config.reps]
    outcomes = [
        outcome
        for a, b in zip(bounds, bounds[1:])
        for outcome in simulation._run_block(((config, beta, fixed_x, range(a, b)),))
    ]
    errors = np.concatenate([e for e, _ in outcomes])
    return errors, [reason for _, block in outcomes for reason in block]


def outcome(run, *args):
    try:
        return run(*args)
    except ShrinkLogitError as err:
        return type(err)


@st.composite
def problems(draw):
    p = draw(st.integers(2, 8))
    n = draw(st.integers(p + 1, 60))
    reps = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    q = draw(st.integers(1, p - 1))
    H = rng.standard_normal((q, p))
    if q > 1 and draw(st.booleans()):
        # nearly dependent rows: H C^-1 H' numerically singular, which the
        # null-space projection handles
        H[-1] = H[0] + 10.0 ** -draw(st.integers(4, 7)) * rng.standard_normal(p)
    restriction = LinearRestriction(H, rng.standard_normal(q))
    config = SimulationConfig(
        n=n,
        p=p,
        rho=draw(st.floats(0.0, 0.999)),
        d_grid=(0.0, 0.3, 0.9, 1.0),
        reps=reps,
        seed=seed,
        restriction=restriction,
        estimator_kinds=KINDS,
        regenerate_design=draw(st.booleans()),
        fit_options=FitOptions(max_iter=draw(st.integers(1, 50))),
    )
    cuts = sorted(draw(st.sets(st.integers(1, reps - 1), max_size=reps - 1))) if reps > 1 else []
    beta = gen_beta(p, restriction, True, rng)
    fixed_x = gen_design(n, p, np.sqrt(config.rho), rng)
    if draw(st.booleans()):
        # a nearly repeated column: X'WX can fail its test in some iterations
        scale = draw(st.sampled_from([0.0, 1e-7, 1e-6, 1e-5, 1e-4]))
        fixed_x[:, -1] = fixed_x[:, 0] + scale * rng.standard_normal(n)
    return config, beta, fixed_x, cuts


class TestBlocksAgainstLoop:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problems())
    def test_same_skips_errors_and_exceptions(self, problem):
        config, beta, fixed_x, cuts = problem
        expected = outcome(reference_loop, config, beta, fixed_x)
        actual = outcome(engine, config, beta, fixed_x, cuts)
        if isinstance(expected, type):
            assert actual is expected
            return
        assert not isinstance(actual, type), f"engine raised {actual.__name__}"
        assert actual[1] == expected[1]
        assert np.array_equal(actual[0], expected[0])


def plain_newton(X, y, opts):
    """One row's IRLS as a plain loop: (beta, iterations, final step, error message or None)."""
    data, beta, step = Dataset(X, y), np.zeros(X.shape[1]), np.inf
    for iteration in range(1, opts.max_iter + 1):
        w, z, c = working_quantities(data, beta, opts)
        eigenvalues = np.linalg.eigvalsh(c)
        if not positive_definite(eigenvalues):
            return beta, iteration, step, str(definiteness_error(eigenvalues, "information matrix X'WX"))
        beta_next = np.linalg.solve(c, X.T @ (w * z))
        step, beta = np.max(np.abs(beta_next - beta)), beta_next
        if step <= opts.tol:
            return beta, iteration, step, None
    return beta, opts.max_iter, step, f"IRLS did not converge in {opts.max_iter} iterations (last step {step:.3e})"


def test_each_row_leaves_with_its_own_state():
    # Nearly repeated columns: rows converge, meet a singular X'WX (at the
    # first iteration or later) or run out of iterations, at different times.
    opts = FitOptions(max_iter=6)
    X, y = [], []
    for seed in range(300):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3))
        x[:, -1] = x[:, 0] + [0.0, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3][seed % 6] * rng.standard_normal(12)
        X.append(x)
        y.append((rng.random(12) < 0.5).astype(float))
    fit, errors = irls_stack(np.stack(X), np.stack(y), opts)
    outcomes = set()
    for i, error in enumerate(errors):
        beta, iterations, step, message = plain_newton(X[i], y[i], opts)
        assert np.array_equal(fit.beta_mle[i], beta)
        assert (fit.iterations[i], fit.final_step[i]) == (iterations, step)
        assert (None if error is None else str(error)) == message
        assert fit.converged[i] == (error is None)
        _, _, c = working_quantities(Dataset(X[i], y[i]), beta, opts)
        assert np.array_equal(fit.C[i], c)
        outcomes.add((type(error).__name__, iterations))
    assert {("NoneType", 5), ("NotConvergedError", 6), ("SingularInformationError", 1)} <= outcomes
    assert any(kind == "SingularInformationError" and it > 1 for kind, it in outcomes)


def skip_prone_config():
    # 2 replications of this cell do not converge and 1 meets a singular X'WX.
    return SimulationConfig(
        n=6, p=4, rho=0.999, d_grid=(0.1, 0.5, 0.99), reps=60, seed=1,
        restriction=default_restriction(4),
    )


@pytest.mark.parametrize("block_size", [1, 7, 128])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_output_does_not_depend_on_workers_or_blocks(monkeypatch, workers, block_size):
    baseline = run_simulation(skip_prone_config())
    monkeypatch.setattr(simulation, "BLOCK_SIZE", block_size)
    result = run_simulation(skip_prone_config(), workers=workers)
    assert result.cells == baseline.cells
    assert (result.completed, result.skipped) == (baseline.completed, baseline.skipped)
    assert result.skipped_by_reason == baseline.skipped_by_reason == {
        "not_converged": 2, "singular_information": 1,
    }


def same_result(result, expected):
    """Two results agree on every number, to the bit."""
    assert result.config is expected.config
    assert result.cells == expected.cells
    assert [(cell.mse.hex(), cell.std_error.hex()) for cell in result.cells] == [
        (cell.mse.hex(), cell.std_error.hex()) for cell in expected.cells
    ]
    assert np.array_equal(result.beta_true, expected.beta_true)
    assert (result.completed, result.skipped_by_reason) == (expected.completed, expected.skipped_by_reason)


class TestPacking:
    """Consecutive configurations of one shape share blocks, and each result
    is still what ``run_simulation`` gives its configuration alone."""

    @pytest.mark.parametrize("block_size", [1, 7, 128])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_skip_prone_cells_packed_equal_each_alone(self, monkeypatch, workers, block_size):
        # three cells of 60 replications of one shape, each with skips: at
        # 128 rows a block and at 1 or 2 workers, skipped rows land in blocks
        # that straddle two cells
        base = skip_prone_config()
        configs = [dataclasses.replace(base, seed=seed) for seed in (1, 2, 3)]
        assert len({simulation._shape(config) for config in configs}) == 1
        alone = [run_simulation(config) for config in configs]
        assert all(result.skipped > 0 for result in alone)
        monkeypatch.setattr(simulation, "BLOCK_SIZE", block_size)
        for result, expected in zip(simulation._simulate(configs, workers), alone, strict=True):
            same_result(result, expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_table_suite_equals_each_cell_alone(self, workers):
        for result in table_suite(1707, reps=20, workers=workers):
            same_result(result, run_simulation(result.config))

    @pytest.mark.parametrize(
        "change",
        [
            dict(fit_options=FitOptions(max_iter=30)),
            dict(d_grid=(0.1, 0.5, 0.9)),
            dict(restriction=default_restriction(4)),
        ],
        ids=["fit_options", "d_grid", "restriction-object"],
    )
    def test_cells_of_another_shape_are_not_packed(self, monkeypatch, change):
        base = dataclasses.replace(skip_prone_config(), reps=5)
        configs = [base, dataclasses.replace(base, seed=2, **change), dataclasses.replace(base, seed=3)]
        alone = [run_simulation(config) for config in configs]
        blocks = []
        real = simulation._run_block

        def spied(block):
            blocks.append(block)
            return real(block)

        monkeypatch.setattr(simulation, "_run_block", spied)
        results = simulation._simulate(configs, workers=1)
        assert [[(config, reps) for config, _, _, reps in block] for block in blocks] == [
            [(configs[0], range(0, 5))], [(configs[1], range(0, 5))], [(configs[2], range(0, 5))]
        ]
        for result, expected in zip(results, alone, strict=True):
            same_result(result, expected)


class TestStackedKernelErrors:
    """A stack of fits raises the error its first failing row raises alone."""

    # H C^-1 H' for this H is singular at rank_cut once C's second
    # eigenvalue is large, yet the row projects: C passes its test.
    H = LinearRestriction(np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]]), np.zeros(2))
    ROWS = {
        "fine": np.eye(3),
        "also fine": np.array([[2.0, 0.5, 0.1], [0.5, 3.0, -0.2], [0.1, -0.2, 1.5]]),
        "stiff": np.diag([1.0, 1e6, 1.0]),
        "singular": np.diag([1.0, 1e-12, 1.0]),
    }

    def stack(self, names):
        C = np.stack([self.ROWS[name] for name in names])
        beta = np.ones((len(names), 3))
        return FittedLogit(beta, C, None, None, None)

    def alone(self, name, kinds, restriction):
        fit = self.stack([name])
        one = FittedLogit(fit.beta_mle[0], fit.C[0], None, None, None)
        return outcome(shrinkage_estimates, one, kinds, [0.5], restriction)

    @pytest.mark.parametrize("kinds, restriction", [(["raule"], H), (["mle", "rle"], H), (["mle", "rmle"], None)])
    @pytest.mark.parametrize("names", list(itertools.permutations(["fine", "stiff", "singular"])))
    def test_first_failing_row_decides(self, names, kinds, restriction):
        alone = [self.alone(name, kinds, restriction) for name in names]
        expected = next((error for error in alone if isinstance(error, type)), None)
        assert expected is not None
        assert outcome(shrinkage_estimates, self.stack(names), kinds, [0.5], restriction) is expected

    def test_rows_equal_their_fits_alone(self):
        names = ["also fine", "fine"]
        stacked = shrinkage_estimates(self.stack(names), KINDS, [0.5], self.H)
        for i, name in enumerate(names):
            assert np.array_equal(stacked[i], self.alone(name, KINDS, self.H))

    def test_empty_stack(self):
        empty = FittedLogit(np.empty((0, 3)), np.empty((0, 3, 3)), None, None, None)
        assert shrinkage_estimates(empty, KINDS, [0.5], self.H).shape == (0, len(KINDS), 1, 3)
        with pytest.raises(ValueError):
            shrinkage_estimates(empty, ["mle", "bogus"], [0.5])
