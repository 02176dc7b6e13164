"""Risk formulas against hand arithmetic, spectral forms, and a sampling oracle."""

import numpy as np
import pytest
from hypothesis import given

from shrinklogit import (
    KINDS,
    RESTRICTED_KINDS,
    SHRINKAGE_KINDS,
    EstimatorSpec,
    InvalidMatrixError,
    LinearRestriction,
    DimensionMismatchError,
    MissingRestrictionError,
    RiskScenario,
    SingularInformationError,
    a_matrix,
    d_sweep,
    is_psd,
    risk,
    spectral_risk_terms,
    symmetrize,
)
from shrinklogit.estimators import smoother_factors
from helpers import random_scenario
from test_risk_properties import SETTINGS, scenarios


class TestAMatrix:
    def test_projection_onto_unrestricted_coordinate(self):
        A = a_matrix(np.eye(2), LinearRestriction(np.array([[1.0, 0.0]]), np.zeros(1)))
        np.testing.assert_allclose(A, np.diag([0.0, 1.0]), atol=1e-12)

    def test_full_restriction_kills_all_variance(self):
        A = a_matrix(np.diag([2.0, 3.0]), LinearRestriction(np.eye(2), np.zeros(2)))
        np.testing.assert_allclose(A, np.zeros((2, 2)), atol=1e-12)

    def test_sum_restriction_by_hand(self):
        # C = 2I, H = (1 1): A = C^-1 - C^-1 H'(H C^-1 H')^-1 H C^-1
        #                      = I/2 - (1/4)(1,1)'(1,1)/1 = [[.25,-.25],[-.25,.25]]
        A = a_matrix(np.diag([2.0, 2.0]), LinearRestriction(np.array([[1.0, 1.0]]), np.zeros(1)))
        np.testing.assert_allclose(A, 0.25 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)

    def test_psd_and_rank_on_random_draws(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            m = int(rng.integers(2, 8))
            q = int(rng.integers(1, min(m, 4)))
            scenario = random_scenario(rng, m, q, cond=1e4)
            A = scenario.A
            assert is_psd(A).ok
            evals = np.abs(np.linalg.eigvalsh(A))
            rank = int(np.sum(evals > 1e-10 * evals.max()))
            assert rank == m - q

    def test_rejects_restriction_of_the_wrong_width(self):
        with pytest.raises(DimensionMismatchError, match="restriction width 2 does not match coefficient count 3"):
            a_matrix(np.eye(3), LinearRestriction(np.array([[1.0, 0.0]]), np.zeros(1)))

    def test_rejects_indefinite_c(self):
        with pytest.raises(SingularInformationError):
            a_matrix(np.diag([1.0, -1.0]), LinearRestriction(np.array([[1.0, 0.0]]), np.zeros(1)))


class TestRiskScenario:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_truth_is_refused(self, value):
        with pytest.raises(ValueError, match="^beta_true has non-finite entries$"):
            RiskScenario(C=np.diag([2.0, 4.0]), beta_true=np.array([value, -1.0]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_c_is_refused_by_name(self, value):
        with pytest.raises(InvalidMatrixError, match="^C has non-finite entries$"):
            RiskScenario(C=np.array([[2.0, 0.0], [0.0, value]]), beta_true=np.array([1.0, -1.0]))


class TestRiskReports:
    def test_mle_diagonal(self):
        scenario = RiskScenario(C=np.diag([2.0, 4.0]), beta_true=np.zeros(2))
        report = risk(scenario, EstimatorSpec("mle"))
        np.testing.assert_allclose(report.mmse, np.diag([0.5, 0.25]), atol=1e-12)
        assert report.mse == pytest.approx(0.75)
        np.testing.assert_allclose(report.bias, np.zeros(2))

    def test_raule_collapses_to_rmle_at_d_one(self):
        rng = np.random.default_rng(1)
        scenario = random_scenario(rng, 4, 2)
        rmle = risk(scenario, EstimatorSpec("rmle"))
        raule = risk(scenario, EstimatorSpec("raule", 1.0))
        np.testing.assert_allclose(raule.mmse, rmle.mmse, atol=1e-10)
        # ACA collapses to A itself
        np.testing.assert_allclose(rmle.mmse, scenario.A, atol=1e-10)

    def test_aule_scalar_by_hand(self):
        # m=1, C=1, beta=1, d=0.5: L = 0.9375, cov = 0.87890625,
        # bias = -0.0625, mse = 0.87890625 + 0.0625^2 = 0.8828125
        scenario = RiskScenario(C=np.eye(1), beta_true=np.ones(1))
        report = risk(scenario, EstimatorSpec("aule", 0.5))
        assert report.cov[0, 0] == pytest.approx(0.87890625)
        assert report.bias[0] == pytest.approx(-0.0625)
        assert report.mse == pytest.approx(0.8828125)

    def test_raule_spectral_form_matches_trace_form(self):
        # independent formula: sum_i l_i^2 a_ii + (1-d)^4 alpha_i^2/(lam_i+1)^4
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = int(rng.integers(2, 7))
            q = int(rng.integers(1, min(m, 4)))
            scenario = random_scenario(rng, m, q, beta_norm=float(rng.uniform(0.5, 3)))
            d = float(rng.uniform(0, 1))
            lam, a_diag, alpha = spectral_risk_terms(scenario)
            l_factors = (lam + d) * (lam + 2.0 - d) / (lam + 1.0) ** 2
            spectral = float(
                np.sum(l_factors**2 * a_diag)
                + np.sum((1.0 - d) ** 4 * alpha**2 / (lam + 1.0) ** 4)
            )
            report = risk(scenario, EstimatorSpec("raule", d))
            assert report.mse == pytest.approx(spectral, rel=1e-8, abs=1e-10)

    def test_mmse_and_mse_decompositions(self):
        rng = np.random.default_rng(3)
        scenario = random_scenario(rng, 4, 1, beta_norm=2.0)
        for kind, d in (("mle", None), ("rmle", None), ("le", 0.4), ("rle", 0.4),
                        ("aule", 0.4), ("raule", 0.4)):
            report = risk(scenario, EstimatorSpec(kind, d))
            np.testing.assert_allclose(
                report.mmse, report.cov + np.outer(report.bias, report.bias), atol=1e-10
            )
            assert report.mse == pytest.approx(
                float(np.trace(report.cov) + report.bias @ report.bias), abs=1e-10
            )
            assert is_psd(report.cov).ok

    def test_restricted_kinds_need_restriction(self):
        scenario = RiskScenario(C=np.eye(2), beta_true=np.zeros(2))
        for kind, d in (("rmle", None), ("rle", 0.5), ("raule", 0.5)):
            with pytest.raises(MissingRestrictionError):
                risk(scenario, EstimatorSpec(kind, d))

    def test_violated_restriction_sets_flag_and_honest_rmle_bias(self):
        C = np.diag([1.0, 2.0])
        restriction = LinearRestriction(np.array([[1.0, 0.0]]), np.array([0.0]))
        beta = np.array([0.5, 1.0])  # H beta = 0.5 != 0
        scenario = RiskScenario(C=C, beta_true=beta, restriction=restriction)
        rmle = risk(scenario, EstimatorSpec("rmle"))
        assert rmle.restriction_violated
        # bias = -C^-1 H' (H C^-1 H')^-1 (H beta - h) = -(1,0)' * 0.5
        np.testing.assert_allclose(rmle.bias, [-0.5, 0.0], atol=1e-12)
        # unrestricted kinds never carry the flag; restricted shrinkage kinds do
        assert not risk(scenario, EstimatorSpec("aule", 0.5)).restriction_violated
        assert risk(scenario, EstimatorSpec("raule", 0.5)).restriction_violated

    def test_rmle_unbiased_when_restriction_holds(self):
        rng = np.random.default_rng(4)
        scenario = random_scenario(rng, 5, 2)
        report = risk(scenario, EstimatorSpec("rmle"))
        assert not report.restriction_violated
        np.testing.assert_allclose(report.bias, np.zeros(5), atol=1e-10)

    def test_raule_never_beats_aule_in_scalar_mse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            m = int(rng.integers(2, 7))
            q = int(rng.integers(1, min(m, 4)))
            scenario = random_scenario(
                rng, m, q,
                beta_norm=float(rng.uniform(0.2, 4)),
                project=bool(rng.random() < 0.7),
            )
            d = float(rng.uniform(0, 1))
            aule = risk(scenario, EstimatorSpec("aule", d))
            raule = risk(scenario, EstimatorSpec("raule", d))
            assert raule.mse <= aule.mse + 1e-8


class TestSpectralRiskTerms:
    def test_diagonal_case_by_hand(self):
        scenario = RiskScenario(
            C=np.diag([4.0, 1.0]),
            beta_true=np.array([0.0, 1.0]),
            restriction=LinearRestriction(np.array([[1.0, 0.0]]), np.zeros(1)),
        )
        lam, a_diag, alpha = spectral_risk_terms(scenario)
        np.testing.assert_allclose(lam, [4.0, 1.0])
        np.testing.assert_allclose(a_diag, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(alpha), [0.0, 1.0], atol=1e-12)

    def test_degenerate_spectrum_basis_independent_quantities(self):
        scenario = RiskScenario(
            C=np.eye(2),
            beta_true=np.array([1.0, 0.0]),
            restriction=LinearRestriction(np.array([[0.0, 1.0]]), np.zeros(1)),
        )
        lam, a_diag, alpha = spectral_risk_terms(scenario)
        np.testing.assert_allclose(lam, [1.0, 1.0])
        assert np.sum(a_diag) == pytest.approx(np.trace(scenario.A), abs=1e-12)
        assert np.sum(alpha**2) == pytest.approx(1.0, abs=1e-12)

    def test_trace_invariance_on_random_scenarios(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            scenario = random_scenario(rng, 5, 2)
            _, a_diag, _ = spectral_risk_terms(scenario)
            assert np.sum(a_diag) == pytest.approx(float(np.trace(scenario.A)), rel=1e-10)

    def test_requires_restriction(self):
        with pytest.raises(MissingRestrictionError):
            spectral_risk_terms(RiskScenario(C=np.eye(2), beta_true=np.zeros(2)))


class TestDSweep:
    def test_collapse_rows_at_d_one(self):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng, 4, 2)
        rows = d_sweep(scenario, ["mle", "rmle", "aule", "raule"], [1.0])
        by_kind = {row.kind: row for row in rows}
        assert by_kind["aule"].mse == pytest.approx(by_kind["mle"].mse, rel=1e-12)
        assert by_kind["raule"].mse == pytest.approx(by_kind["rmle"].mse, rel=1e-12)

    @SETTINGS
    @given(scenarios())
    def test_rows_match_standalone_risk_calls(self, scenario):
        """A sweep scores each shrunken kind as one stack of smoothers over the
        grid; every row is bit for bit the standalone call, and a shrunken
        row bit for bit the unstacked products S D S and S b - b."""
        dec, beta = scenario.decomp, scenario.beta_true
        for row in d_sweep(scenario, KINDS, [0.0, 0.1, 0.35, 0.5, 0.9, 1.0]):
            spec = EstimatorSpec(row.kind, row.d if row.kind in SHRINKAGE_KINDS else None)
            again = risk(scenario, spec)
            assert np.array_equal(row.report.cov, again.cov) and np.array_equal(row.report.bias, again.bias)
            assert row.mse == again.mse
            assert np.array_equal(row.coefficients, beta + again.bias)
            if spec.d is not None:
                smoother = symmetrize((dec.basis * smoother_factors(spec.kind, dec.values, spec.d)[0]) @ dec.basis.T)
                dispersion = scenario.A if spec.kind in RESTRICTED_KINDS else scenario.c_inv
                assert np.array_equal(row.report.cov, symmetrize(smoother @ dispersion @ smoother))
                assert np.array_equal(row.report.bias, smoother @ beta - beta)

    def test_scalar_aule_monotone_on_grid(self):
        scenario = RiskScenario(C=np.eye(1), beta_true=np.ones(1))
        grid = np.round(np.arange(0.1, 1.0, 0.1), 2).tolist() + [0.99]
        rows = [row for row in d_sweep(scenario, ["aule"], grid)]
        mses = [row.mse for row in rows]
        assert all(b >= a for a, b in zip(mses, mses[1:]))
        # d=0.1 by hand: L = 1 - 0.81/4 = 0.7975, mse = 0.7975^2 + 0.2025^2
        assert mses[0] == pytest.approx(0.6770125, abs=1e-12)

    def test_d_independent_rows_constant(self):
        rng = np.random.default_rng(9)
        scenario = random_scenario(rng, 3, 1)
        rows = d_sweep(scenario, ["mle", "rmle"], [0.1, 0.9])
        mle_rows = [r.mse for r in rows if r.kind == "mle"]
        rmle_rows = [r.mse for r in rows if r.kind == "rmle"]
        assert mle_rows[0] == mle_rows[1]
        assert rmle_rows[0] == rmle_rows[1]

    def test_rejects_out_of_range_grid(self):
        rng = np.random.default_rng(10)
        scenario = random_scenario(rng, 3, 1)
        with pytest.raises(ValueError):
            d_sweep(scenario, ["aule"], [0.5, 1.5])

    def test_kinds_are_case_insensitive(self):
        scenario = random_scenario(np.random.default_rng(11), 3, 1)
        kinds = ["mle", "rmle", "le", "rle", "aule", "raule"]
        upper = d_sweep(scenario, [k.upper() for k in kinds], [0.2, 0.8])
        lower = d_sweep(scenario, kinds, [0.2, 0.8])
        assert [(r.d, r.kind, r.mse) for r in upper] == [(r.d, r.kind, r.mse) for r in lower]
        for a, b in zip(upper, lower):
            assert np.array_equal(a.report.cov, b.report.cov)
            assert np.array_equal(a.coefficients, b.coefficients)


class TestBuiltOnceAndReadOnly:
    """A scenario builds its d-independent quantities once and shares them,
    so neither it nor its reports may change after construction."""

    @staticmethod
    def scenario_and_inputs():
        C, beta = np.diag([3.0, 1.0]), np.array([1.0, -1.0])
        H, h = np.array([[1.0, 0.0]]), np.array([1.0])
        return RiskScenario(C, beta, LinearRestriction(H, h)), (C, beta, H, h)

    def test_unshrunken_reports_and_spectral_terms_are_built_once(self):
        scenario, _ = self.scenario_and_inputs()
        assert risk(scenario, EstimatorSpec("rmle")) is risk(scenario, EstimatorSpec("rmle"))
        assert risk(scenario, EstimatorSpec("mle")) is risk(scenario, EstimatorSpec("MLE"))
        assert spectral_risk_terms(scenario) is spectral_risk_terms(scenario)
        assert scenario.c_inv is risk(scenario, EstimatorSpec("mle")).cov
        assert scenario.rmle_bias() is risk(scenario, EstimatorSpec("rmle")).bias

    def test_later_edits_by_the_caller_change_nothing(self):
        scenario, (C, beta, H, h) = self.scenario_and_inputs()
        before = [risk(scenario, EstimatorSpec(k, 0.5)).mse for k in ("aule", "raule")]
        C[0, 0], beta[0], H[0, 0], h[0] = 100.0, 5.0, 7.0, 3.0
        assert np.array_equal(scenario.C, np.diag([3.0, 1.0]))
        assert np.array_equal(scenario.beta_true, [1.0, -1.0])
        assert not scenario.restriction_violated()
        assert np.array_equal(scenario.rmle_bias(), [0.0, 0.0])
        assert [risk(scenario, EstimatorSpec(k, 0.5)).mse for k in ("aule", "raule")] == before

    def test_writes_into_held_arrays_raise_and_caller_arrays_stay_writable(self):
        scenario, inputs = self.scenario_and_inputs()
        terms = spectral_risk_terms(scenario)
        held = [
            scenario.C, scenario.beta_true, scenario.A, scenario.c_inv,
            scenario.decomp.values, scenario.decomp.basis, scenario.rmle_bias(),
            terms.eigenvalues, terms.a_diag, terms.alpha,
        ]
        for kind, d in (("mle", None), ("rmle", None), ("le", 0.5), ("raule", 0.5)):
            report = risk(scenario, EstimatorSpec(kind, d))
            held += [report.cov, report.bias]
        for array in held:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0
        for array in inputs:
            array[0] = 9.0


class TestLinearizedSamplingOracle:
    def test_empirical_mmse_matches_closed_forms(self):
        # draw the estimator inputs from the linearized model and push each
        # draw through the estimator maps; smaller cousin of the acceptance
        # run (20k draws, 5 percent bands on the diagonals)
        rng = np.random.default_rng(11)
        scenario = random_scenario(rng, 4, 2, beta_norm=1.5)
        n_draws = 20_000
        chol = np.linalg.cholesky(scenario.c_inv)
        draws = scenario.beta_true + rng.standard_normal((n_draws, 4)) @ chol.T

        from shrinklogit.estimators import ld_factors

        dec = scenario.decomp
        L = (dec.basis * ld_factors(dec.values, 0.4)) @ dec.basis.T
        H = scenario.restriction.H
        ci_ht = scenario.c_inv @ H.T
        gram = H @ ci_ht
        correction = ci_ht @ np.linalg.solve(gram, H @ draws.T - scenario.restriction.h[:, None])
        rmle_draws = draws - correction.T

        cases = {
            ("mle", None): draws,
            ("rmle", None): rmle_draws,
            ("aule", 0.4): draws @ L.T,
            ("raule", 0.4): rmle_draws @ L.T,
        }
        for (kind, d), sample in cases.items():
            err = sample - scenario.beta_true
            empirical = np.diag(err.T @ err) / n_draws
            closed = np.diag(risk(scenario, EstimatorSpec(kind, d)).mmse)
            scale = np.maximum(np.abs(closed), 1e-3)
            assert np.max(np.abs(empirical - closed) / scale) < 0.05
