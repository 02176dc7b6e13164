"""Estimator formulas against hand evaluations and collapse identities."""

import numpy as np
import pytest
from scipy.special import expit

from shrinklogit import (
    Dataset,
    Estimate,
    EstimatorSpec,
    FittedLogit,
    KINDS,
    LinearRestriction,
    DimensionMismatchError,
    MissingRestrictionError,
    estimate,
    irls_fit,
    ld_matrix,
    liu_matrix,
    RiskScenario,
    SimulationConfig,
    d_sweep,
    default_restriction,
    residual,
    shrinkage_estimates,
)


def synthetic_fit(C, beta):
    """FittedLogit carrying a prescribed C and beta for formula tests."""
    C = np.asarray(C, dtype=float)
    beta = np.asarray(beta, dtype=float)
    return FittedLogit(
        beta_mle=beta,
        C=C,
        iterations=1,
        converged=True,
        final_step=0.0,
    )


def random_fit(rng, n=60, p=3):
    x = np.column_stack([np.ones(n), rng.standard_normal((n, p))])
    beta = rng.standard_normal(p + 1)
    y = (rng.random(n) < expit(x @ beta)).astype(float)
    return irls_fit(Dataset(x, y, has_intercept=True))


class TestOneRequestCheck:
    """Every door that takes kinds and d gives the same error for the same rule."""

    @pytest.mark.parametrize(
        "kinds, d_grid, message",
        [
            pytest.param(["Ridge"], [0.5], f"unknown estimator kind 'ridge', expected one of {KINDS}", id="unknown-kind"),
            pytest.param(["aule"], [1.5], "d must be in [0, 1], got 1.5", id="d-above-one"),
            pytest.param(["aule"], [-0.0, -0.5], "d must be in [0, 1], got -0.5", id="d-below-zero"),
            pytest.param([], [0.5], f"need at least one estimator kind from {KINDS}", id="no-kinds"),
            pytest.param(["aule"], [], "need at least one biasing parameter d in [0, 1]", id="no-d"),
            pytest.param("mle", [0.5], "estimator kinds must be a sequence of names, got 'mle'", id="bare-kind"),
            pytest.param(3, [0.5], "estimator kinds must be a sequence of names, got 3", id="number-kinds"),
            pytest.param(["aule"], 0.5, "d values must be a sequence of numbers, got 0.5", id="bare-d"),
            pytest.param(["aule"], "0.5", "d values must be a sequence of numbers, got '0.5'", id="string-d"),
        ],
    )
    def test_one_message_per_rule(self, kinds, d_grid, message):
        fit = synthetic_fit(np.diag([4.0, 2.0, 1.0, 0.5]), np.ones(4))
        scenario = RiskScenario(fit.C, fit.beta_mle)
        doors = [
            lambda: shrinkage_estimates(fit, kinds, d_grid),
            lambda: d_sweep(scenario, kinds, d_grid),
            lambda: SimulationConfig(
                n=50, p=4, rho=0.9, d_grid=d_grid, reps=1, seed=1,
                restriction=default_restriction(4), estimator_kinds=kinds,
            ),
        ]
        if isinstance(kinds, list) and isinstance(d_grid, list) and len(kinds) == len(d_grid) == 1:
            doors.append(lambda: EstimatorSpec(kinds[0], d_grid[0]))
        for door in doors:
            with pytest.raises(ValueError) as excinfo:
                door()
            assert str(excinfo.value) == message


class TestEstimatorSpec:
    def test_shrinkage_kinds_need_d(self):
        with pytest.raises(ValueError):
            EstimatorSpec("aule")
        with pytest.raises(ValueError):
            EstimatorSpec("mle", d=0.5)
        with pytest.raises(ValueError):
            EstimatorSpec("raule", d=1.5)
        with pytest.raises(ValueError):
            EstimatorSpec("ridge", d=0.5)

    def test_normalizes_case(self):
        spec = EstimatorSpec("RAULE", d=0.25)
        assert spec.kind == "raule"
        assert spec.label() == "RAULE(d=0.25)"
        assert EstimatorSpec("mle").label() == "MLE"


class TestLdMatrix:
    def test_d_one_is_identity(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        c = a @ a.T
        np.testing.assert_allclose(ld_matrix(c, 1.0), np.eye(4), atol=1e-12)

    def test_scalar_unit_information(self):
        # 1 - 0.25/(1+1)^2 = 0.9375
        np.testing.assert_allclose(ld_matrix(np.eye(1), 0.5), [[0.9375]])

    def test_scalar_at_zero_d(self):
        # 1 - 1/(3+1)^2 = 0.9375
        np.testing.assert_allclose(ld_matrix(np.array([[3.0]]), 0.0), [[0.9375]])

    def test_eigenvalue_map(self):
        c = np.diag([4.0, 1.0])
        d = 0.3
        expected = np.diag(1.0 - (1.0 - d) ** 2 / (np.array([4.0, 1.0]) + 1.0) ** 2)
        np.testing.assert_allclose(ld_matrix(c, d), expected, atol=1e-14)

    @pytest.mark.parametrize("smoother", [ld_matrix, liu_matrix])
    @pytest.mark.parametrize("d", [1.1, -0.5, float("nan")])
    def test_rejects_d_outside_unit_interval(self, smoother, d):
        with pytest.raises(ValueError, match=rf"^d must be in \[0, 1\], got {d}$"):
            smoother(np.eye(2), d)


class TestLiuMatrix:
    def test_d_one_is_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3))
        np.testing.assert_allclose(liu_matrix(a @ a.T, 1.0), np.eye(3), atol=1e-12)

    def test_eigenvalue_map(self):
        np.testing.assert_allclose(
            liu_matrix(np.diag([3.0, 1.0]), 0.5), np.diag([3.5 / 4.0, 1.5 / 2.0]), atol=1e-14
        )


class TestEstimate:
    def test_full_restriction_pins_rmle(self):
        rng = np.random.default_rng(2)
        fit = random_fit(rng)
        target = rng.standard_normal(fit.beta_mle.size)
        restriction = LinearRestriction(np.eye(fit.beta_mle.size), target)
        est = estimate(fit, EstimatorSpec("rmle"), restriction)
        np.testing.assert_allclose(est.beta, target, atol=1e-10)

    def test_aule_at_d_one_equals_mle(self):
        rng = np.random.default_rng(3)
        fit = random_fit(rng)
        mle = estimate(fit, EstimatorSpec("mle"))
        aule = estimate(fit, EstimatorSpec("aule", 1.0))
        np.testing.assert_allclose(aule.beta, mle.beta, rtol=1e-12, atol=1e-12)

    def test_raule_at_d_one_equals_rmle(self):
        rng = np.random.default_rng(4)
        fit = random_fit(rng)
        restriction = LinearRestriction(np.array([[0.0, 1.0, 1.0, -1.0]]), np.zeros(1))
        rmle = estimate(fit, EstimatorSpec("rmle"), restriction)
        raule = estimate(fit, EstimatorSpec("raule", 1.0), restriction)
        np.testing.assert_allclose(raule.beta, rmle.beta, rtol=1e-12, atol=1e-12)

    def test_raule_by_hand_on_diagonal_information(self):
        # C = diag(1, 4), H = (1 0), h = 0, beta = (1, 1), d = 0.5:
        # RMLE = (0, 1); L = diag(1 - 0.25/4, 1 - 0.25/25) = diag(0.9375, 0.99)
        fit = synthetic_fit(np.diag([1.0, 4.0]), [1.0, 1.0])
        restriction = LinearRestriction(np.array([[1.0, 0.0]]), np.zeros(1))
        rmle = estimate(fit, EstimatorSpec("rmle"), restriction)
        np.testing.assert_allclose(rmle.beta, [0.0, 1.0], atol=1e-12)
        raule = estimate(fit, EstimatorSpec("raule", 0.5), restriction)
        np.testing.assert_allclose(raule.beta, [0.0, 0.99], atol=1e-12)

    def test_le_and_aule_shrink_toward_origin(self):
        fit = synthetic_fit(np.diag([2.0, 5.0]), [1.0, -2.0])
        le = estimate(fit, EstimatorSpec("le", 0.2))
        aule = estimate(fit, EstimatorSpec("aule", 0.2))
        assert np.all(np.abs(le.beta) < np.abs(fit.beta_mle))
        assert np.all(np.abs(aule.beta) < np.abs(fit.beta_mle))
        # the almost unbiased variant shrinks less
        assert np.all(np.abs(aule.beta) > np.abs(le.beta))

    def test_raule_is_ld_times_rmle(self):
        rng = np.random.default_rng(5)
        fit = random_fit(rng)
        restriction = LinearRestriction(np.array([[1.0, -1.0, 0.0, 0.0]]), np.zeros(1))
        for d in (0.0, 0.3, 0.7, 1.0):
            rmle = estimate(fit, EstimatorSpec("rmle"), restriction)
            raule = estimate(fit, EstimatorSpec("raule", d), restriction)
            np.testing.assert_allclose(
                raule.beta, ld_matrix(fit.C, d) @ rmle.beta, atol=1e-12
            )
            aule = estimate(fit, EstimatorSpec("aule", d))
            np.testing.assert_allclose(
                aule.beta, ld_matrix(fit.C, d) @ fit.beta_mle, atol=1e-12
            )

    def test_aule_bias_shrinks_quadratically(self):
        # |(L_d - I) b| = (1-d)^2 |(C+I)^-2 b|
        rng = np.random.default_rng(6)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            a = rng.standard_normal((m, m))
            c = a @ a.T
            b = rng.standard_normal(m)
            d = float(rng.uniform(0, 1))
            lhs = np.linalg.norm((ld_matrix(c, d) - np.eye(m)) @ b)
            squared = np.linalg.inv(c + np.eye(m))
            rhs = (1.0 - d) ** 2 * np.linalg.norm(squared @ squared @ b)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)

    def test_missing_restriction(self):
        rng = np.random.default_rng(7)
        fit = random_fit(rng)
        for kind, d in (("rmle", None), ("rle", 0.5), ("raule", 0.5)):
            with pytest.raises(MissingRestrictionError):
                estimate(fit, EstimatorSpec(kind, d))

    def test_near_dependent_restriction_rows(self):
        rng = np.random.default_rng(8)
        fit = random_fit(rng)
        h_rows = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1e-9, 0.0, 0.0]])
        restriction = LinearRestriction(h_rows, np.zeros(2))
        beta = estimate(fit, EstimatorSpec("rmle"), restriction).beta
        scale = np.linalg.norm(h_rows, 2) * np.linalg.norm(beta) + np.linalg.norm(restriction.h)
        assert np.linalg.norm(h_rows @ beta - restriction.h) <= 1e-13 * scale

    def test_restriction_width_mismatch(self):
        rng = np.random.default_rng(9)
        fit = random_fit(rng)
        restriction = LinearRestriction(np.array([[1.0, -1.0]]), np.zeros(1))
        with pytest.raises(DimensionMismatchError):
            estimate(fit, EstimatorSpec("rmle"), restriction)


class TestResidual:
    def test_rmle_satisfies_restriction(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            fit = random_fit(rng)
            restriction = LinearRestriction(
                np.array([[1.0, 0.0, -2.0, 1.0], [0.0, 1.0, 1.0, -1.0]]),
                rng.standard_normal(2),
            )
            rmle = estimate(fit, EstimatorSpec("rmle"), restriction)
            np.testing.assert_allclose(
                residual(restriction, rmle), np.zeros(2), atol=1e-10
            )

    def test_sum_restriction(self):
        restriction = LinearRestriction(np.array([[1.0, 1.0]]), np.array([2.0]))
        est = Estimate(EstimatorSpec("mle"), np.array([1.0, 1.0]))
        np.testing.assert_allclose(residual(restriction, est), [0.0])

    def test_coordinate_restriction(self):
        restriction = LinearRestriction(np.array([[1.0, 0.0]]), np.array([0.0]))
        est = Estimate(EstimatorSpec("mle"), np.array([3.0, 5.0]))
        np.testing.assert_allclose(residual(restriction, est), [3.0])

    def test_dimension_mismatch(self):
        restriction = LinearRestriction(np.array([[1.0, 0.0]]), np.array([0.0]))
        est = Estimate(EstimatorSpec("mle"), np.array([1.0, 2.0, 3.0]))
        with pytest.raises(DimensionMismatchError, match=r"^restriction width 2 does not match est\.beta length 3$"):
            residual(restriction, est)


class TestCollapseIdentities:
    def test_all_four_collapse_at_d_one(self):
        rng = np.random.default_rng(11)
        restriction = LinearRestriction(
            np.array([[1.0, 0.0, -2.0, 1.0], [1.0, -1.0, 1.0, -1.0]]), np.zeros(2)
        )
        for _ in range(25):
            fit = random_fit(rng)
            mle = estimate(fit, EstimatorSpec("mle")).beta
            rmle = estimate(fit, EstimatorSpec("rmle"), restriction).beta
            for kind, target in (("le", mle), ("aule", mle), ("rle", rmle), ("raule", rmle)):
                collapsed = estimate(fit, EstimatorSpec(kind, 1.0), restriction).beta
                np.testing.assert_allclose(collapsed, target, rtol=1e-12, atol=1e-12)
