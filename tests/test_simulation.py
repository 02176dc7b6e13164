"""Monte Carlo harness: generators, determinism, and aggregation."""

import dataclasses

import numpy as np
import pytest
from scipy.special import expit

from shrinklogit import (
    AllReplicationsFailedError,
    FitOptions,
    LinearRestriction,
    MissingRestrictionError,
    SimulationConfig,
    default_restriction,
    gen_beta,
    gen_design,
    gen_response,
    run_simulation,
    shrinkage_estimates,
    simulation,
)


def small_config(**overrides):
    base = dict(
        n=80,
        p=4,
        rho=0.9,
        d_grid=(0.1, 0.5, 0.99),
        reps=40,
        seed=1234,
        restriction=default_restriction(4),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestGenDesign:
    def test_zero_correlation_returns_raw_normals(self):
        rng = np.random.default_rng(0)
        x = gen_design(6, 3, 0.0, rng)
        z = np.random.default_rng(0).standard_normal((6, 3))
        assert np.array_equal(x, z)

    def test_pairwise_correlation_matches_population_value(self):
        rng = np.random.default_rng(1)
        rho = 0.99
        x = gen_design(5000, 4, rho, rng)
        corr = np.corrcoef(x, rowvar=False)
        for j in range(3):
            for k in range(j + 1, 3):
                assert corr[j, k] == pytest.approx(rho**2, abs=0.01)

    def test_fixed_seed_is_bit_reproducible(self):
        a = gen_design(50, 4, 0.9, np.random.default_rng(7))
        b = gen_design(50, 4, 0.9, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            gen_design(10, 2, 1.0, np.random.default_rng(0))


class TestGenBeta:
    def test_projected_draw_satisfies_restriction_and_unit_norm(self):
        restriction = default_restriction(4)
        beta = gen_beta(4, restriction, True, np.random.default_rng(2))
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(restriction.H @ beta)) <= 1e-10

    def test_unprojected_draw_has_unit_norm_only(self):
        restriction = default_restriction(4)
        beta = gen_beta(4, restriction, False, np.random.default_rng(3))
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(restriction.H @ beta)) > 1e-6

    def test_one_dimensional_null_space(self):
        restriction = LinearRestriction(np.array([[1.0, 1.0]]), np.zeros(1))
        beta = gen_beta(2, restriction, True, np.random.default_rng(4))
        expected = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert np.abs(beta @ expected) == pytest.approx(1.0, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            gen_beta(3, default_restriction(4), True, np.random.default_rng(0))


class TestGenResponse:
    def test_balanced_at_zero_coefficients(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4000, 3))
        y = gen_response(x, np.zeros(3), rng)
        assert set(np.unique(y)) <= {0.0, 1.0}
        assert abs(y.mean() - 0.5) <= 3 * 0.5 / np.sqrt(4000)

    def test_saturation(self):
        x = np.full((50, 1), 1.0)
        y = gen_response(x, np.array([50.0]), np.random.default_rng(6))
        assert np.all(y == 1.0)

    def test_fixed_seed_is_bit_reproducible(self):
        x = np.random.default_rng(1).standard_normal((30, 2))
        a = gen_response(x, np.array([0.5, -0.5]), np.random.default_rng(9))
        b = gen_response(x, np.array([0.5, -0.5]), np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestBlockDraw:
    """A block's designs and responses are, bit for bit, what gen_design and
    gen_response draw one replication at a time from its substream."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(),
            dict(regenerate_design=False),
            dict(p=2, restriction=LinearRestriction([[1.0, -1.0]], [0.0])),
            dict(n=4),
            dict(seed=2**32 + 7),
            dict(seed=2**64 + 3, regenerate_design=False, n=4),
        ],
        ids=["fresh", "fixed-design", "p2", "n-equals-p", "seed-above-2**32", "fixed-n-equals-p-big-seed"],
    )
    def test_equals_per_replication_draws(self, overrides):
        config = small_config(reps=9, **overrides)
        beta = gen_beta(config.p, config.restriction, True, np.random.default_rng(3))
        fixed_x = gen_design(config.n, config.p, np.sqrt(config.rho), np.random.default_rng(4))
        reps = range(2, 9)
        X, y = simulation._draw_block(config, beta, fixed_x, reps)
        assert X.shape == (len(reps), config.n, config.p) and y.shape == (len(reps), config.n)
        for i, r in enumerate(reps):
            rng = np.random.default_rng([config.seed, 2 + r])
            x = gen_design(config.n, config.p, np.sqrt(config.rho), rng) if config.regenerate_design else fixed_x
            assert np.array_equal(X[i], x)
            assert np.array_equal(y[i], gen_response(x, beta, rng))

    def test_generators_follow_the_module_formula(self):
        # the textbook formula, written out, so the shared block code cannot
        # drift from it on both sides at once
        r, beta = np.sqrt(0.99), np.array([0.6, -0.8, 0.0])
        rng = np.random.default_rng([11, 2])
        z = rng.standard_normal((40, 3))
        x = np.sqrt(1.0 - r**2) * z + r * z[:, [2]]
        y = rng.binomial(1, expit(x @ beta)).astype(float)
        rng = np.random.default_rng([11, 2])
        design = gen_design(40, 3, r, rng)
        assert np.array_equal(design, x)
        assert np.array_equal(gen_response(design, beta, rng), y)


class TestRunSimulation:
    def test_bit_reproducible_across_runs(self):
        config = small_config(reps=10)
        first = run_simulation(config)
        second = run_simulation(config)
        assert first.cells == second.cells
        assert np.array_equal(first.beta_true, second.beta_true)
        assert first.completed == second.completed

    def test_parallel_matches_sequential(self):
        config = small_config(reps=24)
        sequential = run_simulation(config, workers=1)
        parallel = run_simulation(config, workers=3)
        assert sequential.cells == parallel.cells
        assert sequential.completed == parallel.completed

    def test_d_independent_kinds_constant_across_grid(self):
        result = run_simulation(small_config(reps=15))
        for kind in ("mle", "rmle"):
            values = {result.mse(kind, d) for d in result.config.d_grid}
            assert len(values) == 1

    def test_near_collapse_tracks_restricted_mle(self):
        result = run_simulation(small_config(reps=150, n=100))
        assert result.mse("raule", 0.99) == pytest.approx(result.mse("rmle", 0.99), rel=0.02)

    def test_single_replication(self):
        result = run_simulation(small_config(reps=1))
        assert result.completed == 1
        assert all(cell.std_error == 0.0 for cell in result.cells)

    def test_skipped_replications_are_counted(self):
        # a cap of 5 splits this seed's replications into both outcomes
        config = small_config(reps=40, fit_options=FitOptions(max_iter=5))
        result = run_simulation(config)
        assert result.completed + result.skipped == 40
        assert result.skipped > 0
        assert result.completed > 0

    def test_skips_are_counted_by_reason(self):
        config = small_config(reps=40, fit_options=FitOptions(max_iter=5))
        sequential = run_simulation(config)
        parallel = run_simulation(config, workers=3)
        assert sequential.skipped_by_reason == {"not_converged": sequential.skipped, "singular_information": 0}
        assert sum(sequential.skipped_by_reason.values()) == sequential.skipped > 0
        assert parallel.skipped_by_reason == sequential.skipped_by_reason

    @pytest.mark.parametrize("workers", [0, -4])
    def test_rejects_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_simulation(small_config(reps=2), workers=workers)

    def test_all_replications_failed(self):
        config = small_config(reps=5, fit_options=FitOptions(max_iter=1))
        with pytest.raises(AllReplicationsFailedError):
            run_simulation(config)

    def test_fixed_design_mode_reuses_one_design(self):
        config = small_config(reps=8, regenerate_design=False)
        result = run_simulation(config)
        assert result.completed + result.skipped == 8
        # same seed, fresh-design mode differs
        other = run_simulation(small_config(reps=8))
        assert result.cells != other.cells

    def test_estimator_subset_shares_randomness(self):
        full = run_simulation(small_config(reps=20))
        subset = run_simulation(small_config(reps=20, estimator_kinds=("mle", "raule")))
        for d in (0.1, 0.5, 0.99):
            assert subset.mse("mle", d) == full.mse("mle", d)
            assert subset.mse("raule", d) == full.mse("raule", d)

    def test_cell_lookup_raises_for_unknown(self):
        result = run_simulation(small_config(reps=5))
        with pytest.raises(KeyError):
            result.cell("mle", 0.123)


class TestSingularScoring:
    """A converged fit whose C fails the kernel's definiteness test is
    skipped, and the rest of its block is scored."""

    SINGULAR_C = np.diag([1.0, 1.0, 1.0, 0.0])

    @staticmethod
    def break_rows(monkeypatch, rows):
        """Make ``irls_stack`` return, for the given rows of every block, a
        converged fit with a singular C; returns the list of crafted fits."""
        real, fits = simulation.irls_stack, []

        def crafted(X, y, opts):
            fit, errors = real(X, y, opts)
            for row in rows:
                fit.C[row] = TestSingularScoring.SINGULAR_C
            fits.append(fit)
            return fit, errors

        monkeypatch.setattr(simulation, "irls_stack", crafted)
        return fits

    def test_other_rows_score_as_alone(self, monkeypatch):
        config = small_config(reps=6)
        beta = np.full(4, 0.5)
        fits = self.break_rows(monkeypatch, [2])
        squared, reasons = simulation._run_block(config, beta, None, range(6))
        (fit,) = fits
        assert fit.converged.all()
        assert reasons == [None, None, "singular_information", None, None, None]
        assert squared.shape == (5, 4, 3)
        for out, row in enumerate([0, 1, 3, 4, 5]):
            alone = dataclasses.replace(fit, beta_mle=fit.beta_mle[row], C=fit.C[row])
            estimates = shrinkage_estimates(alone, config.estimator_kinds, config.d_grid, config.restriction)
            assert np.array_equal(squared[out], np.sum((estimates - beta) ** 2, axis=-1))

    def test_run_counts_the_row_and_completes(self, monkeypatch):
        self.break_rows(monkeypatch, [0])
        result = run_simulation(small_config(reps=10))
        assert (result.completed, result.skipped) == (9, 1)
        assert result.skipped_by_reason == {"not_converged": 0, "singular_information": 1}

    def test_every_row_singular_fails_the_run(self, monkeypatch):
        self.break_rows(monkeypatch, range(4))
        with pytest.raises(AllReplicationsFailedError):
            run_simulation(small_config(reps=4))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_config(reps=0)
        with pytest.raises(ValueError):
            small_config(rho=1.0)
        with pytest.raises(ValueError):
            small_config(p=1, restriction=LinearRestriction(np.array([[1.0]]), np.zeros(1)))
        with pytest.raises(ValueError):
            small_config(d_grid=(0.5, 1.2))
        with pytest.raises(ValueError):
            small_config(estimator_kinds=("mle", "ridge"))
        with pytest.raises(ValueError):
            small_config(restriction=default_restriction(8))

    @pytest.mark.parametrize("kinds", [("mle", "aule", "rmle", "raule"), ("mle", "aule")])
    def test_no_restriction_is_a_missing_restriction(self, kinds):
        with pytest.raises(MissingRestrictionError, match=r"^the simulation \(it draws its truth in the restriction's null space\)"):
            small_config(restriction=None, estimator_kinds=kinds)

    @pytest.mark.parametrize("n", [1, 3])
    def test_fewer_observations_than_predictors_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n={n} is below p=4"):
            small_config(n=n)

    def test_projection_onto_a_full_restriction_is_rejected(self):
        full = LinearRestriction(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError, match="^project_beta needs fewer restriction rows than p=4"):
            small_config(restriction=full)
        run_simulation(small_config(restriction=full, project_beta=False, reps=2))

    def test_default_restrictions(self):
        r4 = default_restriction(4)
        assert r4.H.shape == (2, 4)
        np.testing.assert_array_equal(
            r4.H, [[1.0, 0.0, -2.0, 1.0], [1.0, -1.0, 1.0, -1.0]]
        )
        r8 = default_restriction(8)
        assert r8.H.shape == (2, 8)
        np.testing.assert_array_equal(
            r8.H,
            [[1.0, 0.0, -2.0, 1.0, -3.0, 1.0, 1.0, 1.0],
             [1.0, 1.0, 0.0, 1.0, -3.0, 1.0, -2.0, 1.0]],
        )
        with pytest.raises(ValueError):
            default_restriction(5)
