"""The block engine of the Monte Carlo harness against a per-replication loop.

The reference is the replication loop the engine replaced: one
``irls_fit`` per replication, its non-convergence and singular
information caught as skips, then ``shrinkage_estimates`` on the one
fit. Every numerical step of the engine treats the rows of a block
independently, so it must skip the same replications for the same
reasons, give bit-identical squared errors, and raise the same
exception type, however the replications are split into blocks.
"""

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
)


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
        simulation._run_block(config, beta, fixed_x, range(a, b))
        for a, b in zip(bounds, bounds[1:])
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
    n = draw(st.integers(p, 60))
    reps = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    q = draw(st.integers(1, p - 1))
    H = rng.standard_normal((q, p))
    if q > 1 and draw(st.booleans()):
        # nearly dependent rows: H C^-1 H' can fail its test in the kernel
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


class TestStackedKernelErrors:
    """A stack of fits raises the error its first failing row raises alone."""

    # H C^-1 H' for this H is singular at rank_cut once C's second
    # eigenvalue is large; C itself stays well inside the test.
    H = LinearRestriction(np.array([[1.0, 0.0, 0.0], [1.0, 1e-3, 0.0]]), np.zeros(2))
    ROWS = {
        "fine": np.eye(3),
        "also fine": np.array([[2.0, 0.5, 0.1], [0.5, 3.0, -0.2], [0.1, -0.2, 1.5]]),
        "gram": np.diag([1.0, 1e6, 1.0]),
        "singular": np.diag([1.0, 1e-12, 1.0]),
    }

    def stack(self, names):
        C = np.stack([self.ROWS[name] for name in names])
        beta = np.ones((len(names), 3))
        return FittedLogit(beta, None, None, C, None, None, None)

    def alone(self, name, kinds, restriction):
        fit = self.stack([name])
        one = FittedLogit(fit.beta_mle[0], None, None, fit.C[0], None, None, None)
        return outcome(shrinkage_estimates, one, kinds, [0.5], restriction)

    @pytest.mark.parametrize("kinds, restriction", [(["raule"], H), (["mle", "rle"], H), (["mle", "rmle"], None)])
    @pytest.mark.parametrize("names", list(itertools.permutations(["fine", "gram", "singular"])))
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
        empty = FittedLogit(np.empty((0, 3)), None, None, np.empty((0, 3, 3)), None, None, None)
        assert shrinkage_estimates(empty, KINDS, [0.5], self.H).shape == (0, len(KINDS), 1, 3)
        with pytest.raises(ValueError):
            shrinkage_estimates(empty, ["mle", "bogus"], [0.5])
