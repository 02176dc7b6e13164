"""Monte Carlo harness: generators, determinism, and aggregation."""

import concurrent.futures
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from shrinklogit import (
    AllReplicationsFailedError,
    FitOptions,
    LinearRestriction,
    MissingRestrictionError,
    NotConvergedError,
    SimulationConfig,
    default_restriction,
    gen_beta,
    gen_design,
    gen_response,
    run_simulation,
    shrinkage_estimates,
    simulation,
    table_suite,
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

    def test_projection_onto_a_full_restriction_gives_the_config_error(self):
        full = LinearRestriction(np.eye(4), np.zeros(4))
        with pytest.raises(ValueError) as config_error:
            small_config(restriction=full)
        with pytest.raises(ValueError) as draw_error:
            gen_beta(4, full, True, np.random.default_rng(0))
        assert str(draw_error.value) == str(config_error.value)

    def test_a_full_restriction_without_projection_still_draws(self):
        full = LinearRestriction(np.eye(4), np.zeros(4))
        beta = gen_beta(4, full, False, np.random.default_rng(0))
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-14)

    def test_one_draw_suffices_for_a_one_dimensional_null_space(self):
        H = np.random.default_rng(5).standard_normal((3, 4))
        restriction = LinearRestriction(H, np.zeros(3))
        for seed in range(200):
            beta = gen_beta(4, restriction, True, np.random.default_rng(seed))
            assert abs(np.linalg.norm(beta) - 1.0) <= 1e-14
            assert np.max(np.abs(H @ beta)) <= 1e-14


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


#: The one-trial edge cases of NumPy's binomial sampler: an exact 0 (no draw),
#: subnormal and tiny probabilities, the flip at 0.5, and 1 (a flipped p' = 0).
EDGE_P = (0.0, 5e-324, 1e-300, 1e-16, 0.5 - 1e-10, 0.5, 0.5 + 1e-10, 1 - 1e-16, 1.0)


def assert_draws_as_binomial(pi, seed):
    """simulation._responses draws each row of pi as Generator.binomial(1, row)
    would from the same generator: the same y and the same final state."""
    keys = range(len(pi))
    rngs = [np.random.default_rng([seed, k]) for k in keys]
    y = simulation._responses(pi, rngs)
    for k, row, drawn, rng in zip(keys, pi, y, rngs):
        reference = np.random.default_rng([seed, k])
        assert np.array_equal(drawn, reference.binomial(1, row).astype(float))
        assert rng.bit_generator.state == reference.bit_generator.state
    assert_thresholds_are_libms(pi)


def assert_thresholds_are_libms(pi):
    """Each threshold is the C library's exp(log(q)), as in NumPy's sampler. A
    threshold one ulp off changes y with probability 2**-53 per draw, which no
    comparison of draws finds."""
    threshold, flip, _ = simulation._inversion(pi)
    for p, t, f in zip(pi.ravel(), threshold.ravel(), flip.ravel()):
        low = 1.0 - p if p > 0.5 else p
        assert t == math.exp(math.log(1.0 - low)) and f == (p > 0.5)


class TestResponseDraw:
    """The inversion draw is NumPy's one-trial binomial sampler, checked on the
    installed NumPy: a NumPy that changes its sampler fails here."""

    @pytest.mark.parametrize("seed", [0, 1707, 2**40 + 1])
    def test_each_edge_probability_draws_as_binomial(self, seed):
        assert_draws_as_binomial(np.repeat(np.array(EDGE_P)[:, None], 60, axis=1), seed)

    def test_rows_with_an_exact_zero_or_one_among_ordinary_ones(self):
        pi = np.random.default_rng(8).random((4, 50))
        pi[0, 7] = 0.0
        pi[1, 3] = 1.0
        pi[2, [5, 9]] = 0.0, 1.0
        _, _, exact = simulation._inversion(pi)
        assert exact.tolist() == [False, True, False, True]
        for seed in range(20):
            assert_draws_as_binomial(pi, seed)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(0.0, 1.0) | st.sampled_from(EDGE_P), min_size=1, max_size=30),
        st.integers(0, 2**64),
    )
    def test_drawn_probabilities_draw_as_binomial(self, probabilities, seed):
        pi = np.array(probabilities)
        assert_draws_as_binomial(np.stack([pi, pi[::-1]]), seed)

    def test_thresholds_are_libms(self):
        rng = np.random.default_rng(12)
        assert_thresholds_are_libms(
            np.concatenate([rng.random(20_000), np.exp(-700 * rng.random(5_000)), 1 - 1e-3 * rng.random(5_000)])
        )

    def test_a_nan_probability_raises_binomials_error(self):
        x = np.ones((3, 2))
        x[1, 0] = np.nan
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^p < 0, p > 1 or p contains NaNs$"):
            gen_response(x, np.array([0.5, -0.5]), rng)
        assert rng.bit_generator.state == before


class TestSeeding:
    """A block's generators are default_rng([seed, key]), key by key."""

    @pytest.mark.parametrize("seed", [0, 1707, 2**32 - 1, 2**32 + 7, 2**64 + 3, 3**90])
    def test_each_generator_is_default_rngs(self, seed):
        keys = [*range(2, 301), 2**31, 2**32 - 1]
        for key, rng in zip(keys, simulation._generators(seed, keys), strict=True):
            assert rng.bit_generator.state == np.random.default_rng([seed, key]).bit_generator.state

    def test_a_key_of_two_words_is_refused(self):
        with pytest.raises(ValueError, match=r"^replication key 4294967296 is not below 2\*\*32: "):
            simulation._generators(1707, [2**32 - 1, 2**32])


class TestBlockDraw:
    """A block's designs and responses are, bit for bit, what the textbook
    draws one replication at a time from its substream: default_rng([seed, 2 + r]),
    then the design's normals, then Generator.binomial at the probabilities."""

    @pytest.mark.parametrize(
        "overrides, reps",
        [
            (dict(), range(2, 9)),
            (dict(regenerate_design=False), range(2, 9)),
            (dict(p=2, restriction=LinearRestriction([[1.0, -1.0]], [0.0])), range(2, 9)),
            (dict(n=5), range(2, 9)),
            (dict(seed=2**32 + 7), range(2, 9)),
            (dict(seed=2**64 + 3, regenerate_design=False, n=5), range(2, 9)),
            (dict(n=200, p=8, restriction=default_restriction(8), reps=simulation.BLOCK_SIZE), range(simulation.BLOCK_SIZE)),
        ],
        ids=[
            "fresh", "fixed-design", "p2", "n-just-above-p", "seed-above-2**32",
            "fixed-n-just-above-p-big-seed", "full-block-n200-p8",
        ],
    )
    def test_equals_per_replication_draws(self, overrides, reps):
        config = small_config(**{"reps": 9, **overrides})
        beta = gen_beta(config.p, config.restriction, True, np.random.default_rng(3))
        fixed_x = gen_design(config.n, config.p, np.sqrt(config.rho), np.random.default_rng(4))
        X, y = simulation._draw_block(((config, beta, fixed_x, reps),))
        assert X.shape == (len(reps), config.n, config.p) and y.shape == (len(reps), config.n)
        for i, r in enumerate(reps):
            rng = np.random.default_rng([config.seed, 2 + r])
            x = gen_design(config.n, config.p, np.sqrt(config.rho), rng) if config.regenerate_design else fixed_x
            assert np.array_equal(X[i], x)
            assert np.array_equal(y[i], rng.binomial(1, expit(x @ beta)))

    def test_a_block_of_two_cells_equals_per_replication_draws(self):
        """A block that ends one configuration and begins another of the same
        shape draws each segment into its slice from its own substreams: the
        first a fresh design at rho 0.9, the second a fixed one at rho 0.99."""
        first = small_config(reps=9, seed=5)
        second = small_config(reps=9, seed=6, rho=0.99, regenerate_design=False, restriction=first.restriction)
        rng = np.random.default_rng(3)
        betas = [gen_beta(4, first.restriction, True, rng) for _ in range(2)]
        fixed_x = gen_design(second.n, 4, np.sqrt(second.rho), rng)
        block = ((first, betas[0], None, range(6, 9)), (second, betas[1], fixed_x, range(0, 4)))
        X, y = simulation._draw_block(block)
        assert X.shape == (7, first.n, 4) and y.shape == (7, first.n)
        rows = [(first, betas[0], r) for r in range(6, 9)] + [(second, betas[1], r) for r in range(4)]
        for i, (config, beta, r) in enumerate(rows):
            rng = np.random.default_rng([config.seed, 2 + r])
            x = gen_design(config.n, 4, np.sqrt(config.rho), rng) if config.regenerate_design else fixed_x
            assert np.array_equal(X[i], x)
            assert np.array_equal(y[i], rng.binomial(1, expit(x @ beta)))

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

    @pytest.mark.parametrize(
        "workers, message",
        [
            (0, "workers must be at least 1"),
            (2.5, "workers must be an integer, got 2.5"),
            (float("nan"), "workers must be an integer, got nan"),
            (True, "workers must be an integer, got True"),
        ],
    )
    @pytest.mark.parametrize(
        "door",
        [
            pytest.param(lambda workers: run_simulation(small_config(reps=2), workers=workers), id="run_simulation"),
            pytest.param(lambda workers: table_suite(1, reps=2, workers=workers), id="table_suite"),
        ],
    )
    def test_both_doors_take_the_same_pool_sizes(self, door, workers, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            door(workers)

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


@pytest.fixture
def in_process_pool(monkeypatch):
    """Stand in for the process pool: the log records each pool's
    ``max_workers``, then "enter" and "exit" as the pool opens and closes, and
    its map runs in this process, so no worker process starts."""
    log = []

    class InProcessPool:
        def __init__(self, max_workers):
            log.append(max_workers)

        def __enter__(self):
            log.append("enter")
            return self

        def __exit__(self, *exc_info):
            log.append("exit")
            return False

        def map(self, task, *iterables):
            return map(task, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return log


def spy(monkeypatch, name):
    """Count the calls of ``simulation.<name>``, which still runs."""
    calls = []
    real = getattr(simulation, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(simulation, name, counted)
    return calls


class TestOnePool:
    """Every pool is opened by ``simulation._map``: one per call, never larger
    than its list of tasks, and closed once before the call returns."""

    def test_a_pool_starts_no_more_processes_than_blocks(self, in_process_pool):
        config = small_config(reps=10)
        result = run_simulation(config, workers=64)
        assert in_process_pool == [10, "enter", "exit"]
        assert result.cells == run_simulation(config).cells

    def test_a_suite_pool_starts_no_more_processes_than_blocks(self, in_process_pool):
        results = table_suite(1707, reps=1, workers=64)  # one block per cell
        assert in_process_pool == [18, "enter", "exit"]
        assert [r.cells for r in results] == [r.cells for r in table_suite(1707, reps=1)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_suite_raises_its_first_failing_cell(self, in_process_pool, workers):
        with pytest.raises(AllReplicationsFailedError, match=r"^all 2 replications .*\(n=50, p=4, rho=0\.9\)$"):
            table_suite(1707, reps=2, workers=workers, fit_options=FitOptions(max_iter=1))
        assert in_process_pool == [2, "enter", "exit"] * (workers > 1)

    def test_a_one_process_suite_is_one_map(self, monkeypatch):
        maps = spy(monkeypatch, "_map")
        assert len(table_suite(1707, reps=2, workers=1)) == 18
        assert len(maps) == 1

    def test_a_one_process_suite_stops_at_its_first_failing_cell(self, monkeypatch):
        blocks = spy(monkeypatch, "_run_block")
        with pytest.raises(AllReplicationsFailedError, match=r"^all 300 replications .*\(n=50, p=4, rho=0\.9\)$"):
            table_suite(1707, reps=300, fit_options=FitOptions(max_iter=1))
        # The first shape's 900 rows in blocks of 128: the first cell's 128,
        # 128, then its last 44 with the second cell's first 84, and no other.
        assert [[(config.seed, reps) for config, _, _, reps in block] for (block,) in blocks] == [
            [(1707, range(0, 128))], [(1707, range(128, 256))], [(1707, range(256, 300)), (1708, range(0, 84))]
        ]

    def test_a_suite_maps_the_blocks_of_all_its_cells_on_one_pool(self, monkeypatch):
        pools, blocks = [], []

        class CountedPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

            def map(self, task, *iterables):
                blocks.extend(zip(*iterables))
                return super().map(task, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
        pooled = table_suite(1707, reps=4, workers=2)
        alone = table_suite(1707, reps=4)
        assert pools == [2]
        # Each shape's 3 cells of 4 replications, 12 rows, are split as at
        # workers=2: two blocks of 6, the first cell and half the second, then
        # the second's other half and the third.
        segments = [segment for (block,) in blocks for segment in block]
        assert [[(config.seed, list(reps)) for config, _, _, reps in block] for (block,) in blocks] == [
            block
            for seed in range(1707, 1707 + 18, 3)
            for block in (
                [(seed, [0, 1, 2, 3]), (seed + 1, [0, 1])],
                [(seed + 1, [2, 3]), (seed + 2, [0, 1, 2, 3])],
            )
        ]
        configs = [config for config, _, _, reps in segments if reps.start == 0]
        assert len(pooled) == 18
        for result, config, expected in zip(pooled, configs, alone):
            assert result.config is config
            assert result.cells == expected.cells
            assert np.array_equal(result.beta_true, expected.beta_true)
            assert (result.completed, result.skipped) == (expected.completed, expected.skipped)
            assert result.skipped_by_reason == expected.skipped_by_reason


class TestSingularScoring:
    """A converged fit whose C fails the kernel's definiteness test is
    skipped, and the rest of its block is scored."""

    SINGULAR_C = np.diag([1.0, 1.0, 1.0, 0.0])

    @staticmethod
    def break_rows(monkeypatch, rows, unconverged=()):
        """Make ``irls_stack`` return, for the given rows of every block, a
        fit with a singular C, converged unless the row is in
        ``unconverged``; returns the list of crafted fits."""
        real, fits = simulation.irls_stack, []

        def crafted(X, y, opts):
            fit, errors = real(X, y, opts)
            for row in rows:
                fit.C[row] = TestSingularScoring.SINGULAR_C
            for row in unconverged:
                fit.converged[row] = False
                errors[row] = NotConvergedError("crafted")
            fits.append(fit)
            return fit, errors

        monkeypatch.setattr(simulation, "irls_stack", crafted)
        return fits

    def test_other_rows_score_as_alone(self, monkeypatch):
        config = small_config(reps=6)
        beta = np.full(4, 0.5)
        fits = self.break_rows(monkeypatch, [2])
        ((squared, reasons),) = simulation._run_block(((config, beta, None, range(6)),))
        (fit,) = fits
        assert fit.converged.all()
        assert reasons == [None, None, "singular_information", None, None, None]
        assert squared.shape == (5, 4, 3)
        for out, row in enumerate([0, 1, 3, 4, 5]):
            alone = dataclasses.replace(fit, beta_mle=fit.beta_mle[row], C=fit.C[row])
            estimates = shrinkage_estimates(alone, config.estimator_kinds, config.d_grid, config.restriction)
            assert np.array_equal(squared[out], np.sum((estimates - beta) ** 2, axis=-1))

    def test_a_block_with_both_kinds_of_skip(self, monkeypatch):
        """One row does not converge (its C singular too) and one converged
        row has a singular C: each keeps its own reason, and the other rows
        score exactly as they do alone."""
        config = small_config(reps=6)
        beta = np.full(4, 0.5)
        fits = self.break_rows(monkeypatch, [1, 4], unconverged=[1])
        ((squared, reasons),) = simulation._run_block(((config, beta, None, range(6)),))
        (fit,) = fits
        assert reasons == [None, "not_converged", None, None, "singular_information", None]
        assert squared.shape == (4, 4, 3)
        for out, row in enumerate([0, 2, 3, 5]):
            alone = dataclasses.replace(fit, beta_mle=fit.beta_mle[row], C=fit.C[row])
            estimates = shrinkage_estimates(alone, config.estimator_kinds, config.d_grid, config.restriction)
            assert np.array_equal(squared[out], np.sum((estimates - beta) ** 2, axis=-1))

    def test_a_block_that_straddles_two_cells(self, monkeypatch):
        """One block holds two cells of one shape, 5 replications each: the
        crafted singular row 3 belongs to the first cell and the crafted
        not-converged row 6 to the second. Each cell counts its own skip and
        scores its other rows as it does alone."""
        restriction = default_restriction(4)
        first, second = (small_config(reps=5, seed=seed, restriction=restriction) for seed in (1234, 1235))
        with monkeypatch.context() as patch:
            fits = self.break_rows(patch, [3, 6], unconverged=[6])
            packed = simulation._simulate([first, second], workers=1)
        (fit,) = fits
        assert fit.beta_mle.shape == (10, 4)
        assert [(result.completed, result.skipped_by_reason) for result in packed] == [
            (4, {"not_converged": 0, "singular_information": 1}),
            (4, {"not_converged": 1, "singular_information": 0}),
        ]
        for result, config, row, unconverged in ((packed[0], first, 3, []), (packed[1], second, 1, [1])):
            with monkeypatch.context() as patch:
                self.break_rows(patch, [row], unconverged)
                alone = run_simulation(config)
            assert result.config is config
            assert result.cells == alone.cells
            assert (result.completed, result.skipped_by_reason) == (alone.completed, alone.skipped_by_reason)

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

    @pytest.mark.parametrize("value", [None, {"max_iter": 5}])
    def test_fit_options_must_be_fit_options(self, value):
        with pytest.raises(ValueError, match=f"^fit_options must be a FitOptions, got {re.escape(repr(value))}$"):
            small_config(fit_options=value)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"estimator_kinds": "mle"}, "estimator kinds must be a sequence of names, got 'mle'"),
            ({"d_grid": 0.5}, "d values must be a sequence of numbers, got 0.5"),
        ],
    )
    def test_a_bare_request_is_refused_at_every_simulation_door(self, overrides, message):
        """The suite hands its kinds and d grid to the configuration as given."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**overrides)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            table_suite(1, reps=2, **overrides)

    @pytest.mark.parametrize("kinds", [("mle", "aule", "rmle", "raule"), ("mle", "aule")])
    def test_no_restriction_is_a_missing_restriction(self, kinds):
        with pytest.raises(MissingRestrictionError, match=r"^the simulation \(it draws its truth in the restriction's null space\)"):
            small_config(restriction=None, estimator_kinds=kinds)

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_fewer_observations_than_predictors_is_rejected(self, n):
        with pytest.raises(ValueError, match=f"^n={n} is not above p=4: .* no maximum likelihood estimate exists$"):
            small_config(n=n)

    @pytest.mark.parametrize(
        "name, value",
        [("n", 100.5), ("p", 4.0), ("reps", 2.5), ("seed", float("nan")), ("seed", "7"), ("reps", True), ("seed", False)],
    )
    def test_counts_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            small_config(**{name: value})

    def test_reps_is_at_most_the_replication_stream_keys(self):
        """Replication r draws from the key 2 + r, and a key is one 32-bit word."""
        limit = 2**32 - 2
        assert small_config(reps=limit).reps == limit  # constructed only, never run
        with pytest.raises(ValueError, match=f"^reps={limit + 1} is too many: a configuration runs at most {limit} replications$"):
            small_config(reps=limit + 1)

    @pytest.mark.parametrize("value", ["0.9", None, 0.9j, False, True, np.array(0.9)], ids=repr)
    def test_rho_must_be_a_real_number(self, value):
        with pytest.raises(ValueError, match=f"^rho must be a real number, got {re.escape(repr(value))}$"):
            small_config(rho=value)

    @pytest.mark.parametrize("value", [np.float64(0.9), 0, np.float32(0.5)])
    def test_rho_is_kept_as_a_float(self, value):
        config = small_config(rho=value)
        assert type(config.rho) is float and config.rho == value

    def test_a_negative_seed_is_rejected(self):
        with pytest.raises(ValueError, match="^seed must be at least 0$"):
            small_config(seed=-1)

    def test_numpy_integers_are_kept_as_ints(self):
        config = small_config(n=np.int64(80), p=np.int32(4), reps=np.uint8(3), seed=np.int64(0))
        assert [type(getattr(config, name)) for name in ("n", "p", "reps", "seed")] == [int] * 4
        assert run_simulation(config).cells == run_simulation(small_config(reps=3, seed=0)).cells

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
