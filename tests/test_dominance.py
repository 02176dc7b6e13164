"""Dominance checks: hand cases, iff-consistency, and faithful reporting."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shrinklogit import (
    KINDS,
    DominanceVerdict,
    EstimatorSpec,
    LinearRestriction,
    MissingRestrictionError,
    RiskReport,
    RiskScenario,
    check_all,
    check_c31,
    check_t33,
    check_t34,
    check_t35,
    check_t36,
    check_t37,
    d_sweep,
    dominance,
    in_range,
    is_psd,
    lambda_max_ratio,
    ld_matrix,
    moore_penrose,
    risk,
    spectral_risk_terms,
    symmetrize,
)
from shrinklogit.linalg import PSD_SLACK, _kept, _ratio
from helpers import random_scenario
from test_risk_properties import SETTINGS, scenarios

#: The checks in the order check_all reports them.
CHECKS = (check_t33, check_t34, check_t35, check_t36, check_t37, check_c31)


def diag_scenario(c_diag, beta, h_rows, h=None):
    h_rows = np.atleast_2d(np.asarray(h_rows, dtype=float))
    h = np.zeros(h_rows.shape[0]) if h is None else np.asarray(h, dtype=float)
    return RiskScenario(
        C=np.diag(np.asarray(c_diag, dtype=float)),
        beta_true=np.asarray(beta, dtype=float),
        restriction=LinearRestriction(h_rows, h),
    )


class TestT33:
    def test_estimators_coincide_at_d_one(self):
        rng = np.random.default_rng(0)
        scenario = random_scenario(rng, 4, 2)
        verdict = check_t33(scenario, 1.0)
        assert verdict.applicable
        assert verdict.condition_holds
        assert verdict.delta_psd
        assert verdict.witnesses["bias_norm"] == pytest.approx(0.0, abs=1e-14)

    def test_zero_truth_reduces_to_matrix_difference(self):
        rng = np.random.default_rng(1)
        scenario = random_scenario(rng, 3, 1, beta_norm=1.0)
        scenario = RiskScenario(
            C=scenario.C, beta_true=np.zeros(3), restriction=scenario.restriction
        )
        d = 0.4
        verdict = check_t33(scenario, d)
        assert verdict.condition_holds  # zero bias passes the quadratic test
        L = ld_matrix(scenario.C, d)
        difference = symmetrize(
            scenario.A @ scenario.C @ scenario.A - L @ scenario.A @ L
        )
        assert verdict.delta_psd == is_psd(difference).ok

    def test_iff_consistency_on_aligned_scenarios(self):
        # eigen-aligned restrictions make the side conditions hold, so the
        # quadratic criterion must agree with the direct PSD check both ways
        rng = np.random.default_rng(2)
        seen = {True: 0, False: 0}
        for _ in range(150):
            m = int(rng.integers(2, 7))
            q = int(rng.integers(1, min(m, 4)))
            scenario = random_scenario(
                rng, m, q, aligned=True, beta_norm=float(rng.uniform(0.1, 8.0))
            )
            d = float(rng.uniform(0, 0.95))
            verdict = check_t33(scenario, d)
            assert verdict.applicable
            assert verdict.condition_holds == verdict.delta_psd
            seen[verdict.condition_holds] += 1
        assert min(seen.values()) >= 10

    def test_generic_scenarios_usually_inapplicable(self):
        # with dense random restrictions the shrinkage rotates range(A),
        # so the range-inclusion side condition fails
        rng = np.random.default_rng(3)
        applicable = 0
        for _ in range(50):
            scenario = random_scenario(rng, 4, 2)
            verdict = check_t33(scenario, 0.5)
            applicable += int(verdict.applicable)
        assert applicable < 10

    def test_requires_restriction(self):
        with pytest.raises(MissingRestrictionError):
            check_t33(RiskScenario(C=np.eye(2), beta_true=np.zeros(2)), 0.5)


class TestT34:
    def test_hand_arithmetic_case(self):
        # lam = (4, 1), restricted first eigendirection, beta on the second:
        # lhs = 4.2 * 5.8 / 0.8^2 = 38.0625, rhs = 1/1 = 1, condition false
        scenario = diag_scenario([4.0, 1.0], [0.0, 1.0], [[1.0, 0.0]])
        verdict = check_t34(scenario, 0.2)
        assert verdict.lhs == pytest.approx(38.0625)
        assert verdict.rhs == pytest.approx(1.0)
        assert not verdict.condition_holds
        # trace oracle for the actual difference
        delta = risk(scenario, EstimatorSpec("rmle")).mse - risk(
            scenario, EstimatorSpec("raule", 0.2)
        ).mse
        assert verdict.witnesses["delta_mse"] == pytest.approx(delta, abs=1e-12)

    def test_zero_truth_never_satisfies_condition(self):
        rng = np.random.default_rng(4)
        scenario = random_scenario(rng, 3, 1)
        scenario = RiskScenario(
            C=scenario.C, beta_true=np.zeros(3), restriction=scenario.restriction
        )
        verdict = check_t34(scenario, 0.3)
        assert verdict.rhs == pytest.approx(0.0)
        assert not verdict.condition_holds
        # sufficiency only: the difference itself may still be nonnegative
        assert verdict.witnesses["delta_mse"] >= -1e-8

    def test_near_collapse_limit(self):
        rng = np.random.default_rng(5)
        scenario = random_scenario(rng, 3, 1)
        verdict = check_t34(scenario, 0.999)
        assert verdict.lhs > 1e6
        assert not verdict.condition_holds
        assert abs(verdict.witnesses["delta_mse"]) < 1e-3

    def test_exact_d_one_gives_infinite_lhs(self):
        rng = np.random.default_rng(6)
        scenario = random_scenario(rng, 3, 1)
        verdict = check_t34(scenario, 1.0)
        assert np.isinf(verdict.lhs)
        assert not verdict.condition_holds

    def test_full_restriction_degenerates(self):
        """q = m: A = 0, so no a_ii is positive and the bound's right side is 0."""
        scenario = diag_scenario([2.0, 3.0], [0.0, 0.0], np.eye(2))
        verdicts = check_all(scenario, 0.5)
        assert [v.theorem for v in verdicts] == ["T3.3", "T3.4", "T3.5", "T3.6", "T3.7", "C3.1"]
        raule = risk(scenario, EstimatorSpec("raule", 0.5)).mse
        for verdict, baseline in ((verdicts[1], "rmle"), (verdicts[3], "mle")):
            assert verdict.witnesses["min_positive_a"] == np.inf
            assert verdict.rhs == 0.0
            assert not verdict.condition_holds
            direct = risk(scenario, EstimatorSpec(baseline)).mse - raule
            assert verdict.witnesses["delta_mse"] == direct


class TestT35:
    def test_full_restriction_with_zero_truth(self):
        scenario = diag_scenario([2.0, 3.0], [0.0, 0.0], np.eye(2))
        verdict = check_t35(scenario, 0.5)
        assert verdict.applicable  # A = 0 so the product has no spectrum above 1
        assert verdict.condition_holds
        assert verdict.delta_psd  # difference is C^-1 itself

    def test_d_one_with_zero_truth(self):
        rng = np.random.default_rng(7)
        scenario = random_scenario(rng, 4, 2)
        scenario = RiskScenario(
            C=scenario.C, beta_true=np.zeros(4), restriction=scenario.restriction
        )
        verdict = check_t35(scenario, 1.0)
        assert verdict.applicable
        assert verdict.condition_holds
        assert verdict.delta_psd  # C^-1 - A is nonnegative definite

    def test_iff_consistency_where_applicable(self):
        rng = np.random.default_rng(8)
        applicable = 0
        seen = {True: 0, False: 0}
        for _ in range(200):
            m = int(rng.integers(2, 7))
            q = int(rng.integers(1, min(m, 4)))
            aligned = bool(rng.random() < 0.5)
            scenario = random_scenario(
                rng, m, q, aligned=aligned, beta_norm=float(rng.uniform(0.1, 8.0))
            )
            verdict = check_t35(scenario, float(rng.uniform(0, 0.95)))
            if not verdict.applicable:
                continue
            applicable += 1
            assert verdict.condition_holds == verdict.delta_psd
            seen[verdict.condition_holds] += 1
        assert applicable >= 100
        assert min(seen.values()) >= 10


class TestT36:
    def test_condition_true_case_with_nonnegative_difference(self):
        # lam = (1.2, 1.0), restricted first eigendirection, beta^2 = 6 on the
        # second: lhs(0) = 3.84 < rhs = 6 and the differences stay nonnegative
        scenario = diag_scenario([1.2, 1.0], [0.0, np.sqrt(6.0)], [[1.0, 0.0]])
        v34 = check_t34(scenario, 0.0)
        v36 = check_t36(scenario, 0.0)
        assert v34.condition_holds and v36.condition_holds
        assert v34.witnesses["delta_mse"] == pytest.approx(0.0625, abs=1e-12)
        assert v36.witnesses["delta_mse"] == pytest.approx(1.0 / 1.2 + 1.0 - 0.9375, abs=1e-12)
        assert v34.delta_psd and v36.delta_psd

    def test_d_one_difference_is_trace_gap(self):
        rng = np.random.default_rng(9)
        scenario = random_scenario(rng, 4, 2)
        verdict = check_t36(scenario, 1.0)
        expected = float(np.trace(scenario.c_inv) - np.trace(scenario.A))
        assert verdict.witnesses["delta_mse"] == pytest.approx(expected, abs=1e-10)
        assert verdict.delta_psd

    def test_full_restriction_direct_math(self):
        # the check itself degenerates for H = I, but the underlying scalar
        # difference trace(C^-1) - mse(RAULE) stays nonnegative
        scenario = diag_scenario([2.0, 3.0], [0.0, 0.0], np.eye(2))
        for d in (0.0, 0.5, 1.0):
            delta = risk(scenario, EstimatorSpec("mle")).mse - risk(
                scenario, EstimatorSpec("raule", d)
            ).mse
            assert delta >= -1e-12


class TestReportedBoundIsNotUniversal:
    """The printed scalar condition can hold while the MSE difference is
    negative; the verdicts must report that combination honestly."""

    def test_counterexample_reported_faithfully(self):
        # lam = (4, 1), restricted first eigendirection, beta = (0, 5):
        # lhs(0) = 24 < rhs = 25, yet mse(RAULE) = 2.125 > mse(RMLE) = 1
        scenario = diag_scenario([4.0, 1.0], [0.0, 5.0], [[1.0, 0.0]])
        v34 = check_t34(scenario, 0.0)
        assert v34.lhs == pytest.approx(24.0)
        assert v34.rhs == pytest.approx(25.0)
        assert v34.condition_holds
        assert v34.witnesses["delta_mse"] == pytest.approx(-1.125, abs=1e-12)
        assert not v34.delta_psd
        v36 = check_t36(scenario, 0.0)
        assert v36.condition_holds
        assert v36.witnesses["delta_mse"] == pytest.approx(-0.875, abs=1e-12)
        assert not v36.delta_psd


class TestT37:
    def test_random_scenarios(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            q = int(rng.integers(1, min(m, 4)))
            scenario = random_scenario(
                rng, m, q,
                beta_norm=float(rng.uniform(0.1, 5.0)),
                project=bool(rng.random() < 0.5),
            )
            verdict = check_t37(scenario, float(rng.uniform(0, 1)))
            assert verdict.applicable and verdict.condition_holds
            assert verdict.delta_psd
            assert verdict.witnesses["delta_min_eigenvalue"] >= -1e-8

    def test_d_one_reduces_to_lemma_difference(self):
        rng = np.random.default_rng(11)
        scenario = random_scenario(rng, 4, 2)
        verdict = check_t37(scenario, 1.0)
        assert verdict.delta_psd

    def test_full_restriction(self):
        scenario = diag_scenario([2.0, 3.0], [1.0, -1.0], np.eye(2), h=[1.0, -1.0])
        verdict = check_t37(scenario, 0.5)
        assert verdict.delta_psd


class TestC31AndCheckAll:
    def test_scalar_consequence_holds(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            scenario = random_scenario(rng, 4, 2, beta_norm=float(rng.uniform(0.2, 4.0)))
            verdict = check_c31(scenario, float(rng.uniform(0, 1)))
            assert verdict.delta_psd
            assert verdict.witnesses["delta_mse"] >= -1e-8

    def test_check_all_order_and_records(self):
        rng = np.random.default_rng(13)
        scenario = random_scenario(rng, 4, 1)
        verdicts = check_all(scenario, 0.5)
        assert [v.theorem for v in verdicts] == ["T3.3", "T3.4", "T3.5", "T3.6", "T3.7", "C3.1"]
        record = verdicts[0].as_record()
        assert record["theorem"] == "T3.3"
        assert "quadratic_form" in record

    def test_verdicts_are_reproducible(self):
        rng = np.random.default_rng(14)
        scenario = random_scenario(rng, 3, 1)
        first = check_all(scenario, 0.3)
        second = check_all(scenario, 0.3)
        for a, b in zip(first, second):
            assert a == b


def full_restrictions():
    """q = m, so A = ACA = 0: a diagonal case with h != 0 and a dense one."""
    rng = np.random.default_rng(16)
    return [
        diag_scenario([2.0, 3.0], [1.0, -1.0], np.eye(2), h=[1.0, -1.0]),
        random_scenario(rng, 3, 3, project=False),
    ]


@pytest.mark.parametrize("aligned", [False, True])
def test_projected_truth_needs_a_null_space(aligned):
    with pytest.raises(ValueError, match=r"null\(H\) = \{0\} cannot hold a unit-norm truth"):
        random_scenario(np.random.default_rng(16), 3, 3, aligned=aligned)


class TestOneImplementationPerTheorem:
    """check_all shares its d-independent and per-d parts between the checks;
    each check alone builds the same parts, so its verdict is the same."""

    @SETTINGS
    @given(scenarios(), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    def test_each_check_gives_its_check_all_verdict(self, scenario, d):
        together = check_all(scenario, d)
        for check, verdict in zip(CHECKS, together):
            assert check(scenario, d).as_record() == verdict.as_record()

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("index", [0, 1])
    def test_full_restriction(self, index, d):
        scenario = full_restrictions()[index]
        assert np.array_equal(scenario.A, np.zeros_like(scenario.A))
        alone = [check(scenario, d).as_record() for check in CHECKS]
        assert alone == [verdict.as_record() for verdict in check_all(scenario, d)]
        assert alone[0]["lambda_max_ratio"] == 0.0

    @pytest.mark.parametrize("check", CHECKS + (check_all,))
    def test_every_check_gives_the_one_missing_restriction_error(self, check):
        scenario = RiskScenario(np.diag([3.0, 1.0]), np.array([1.0, -1.0]))
        with pytest.raises(MissingRestrictionError, match=r"^estimator 'raule' needs a linear restriction \(H, h\)$"):
            check(scenario, 0.5)


class TestOneRoute:
    """check_all is the six public checks by name, sharing one L per d."""

    NAMES = tuple(check.__name__ for check in CHECKS)

    def test_check_all_calls_each_public_check_once(self, monkeypatch):
        calls = []
        for name in self.NAMES:
            original = getattr(dominance, name)

            def counted(scenario, d, original=original, name=name):
                calls.append(name)
                return original(scenario, d)

            monkeypatch.setattr(dominance, name, counted)
        check_all(random_scenario(np.random.default_rng(15), 4, 2), 0.5)
        assert calls == list(self.NAMES)

    def test_check_all_builds_l_once_per_new_d(self, monkeypatch):
        calls = []
        original = dominance._smoothers

        def counted(decomp, kind, d_grid):
            calls.append((kind, list(d_grid)))
            return original(decomp, kind, d_grid)

        monkeypatch.setattr(dominance, "_smoothers", counted)
        scenario = random_scenario(np.random.default_rng(15), 4, 2)
        for d in (0.5, 0.5, 0.7):
            check_all(scenario, d)
        assert calls == [("raule", [0.5]), ("raule", [0.7])]

    @pytest.mark.parametrize("d", [1.5, -0.2, float("nan")])
    @pytest.mark.parametrize("check", CHECKS + (check_all,))
    def test_invalid_d_is_rejected_before_anything_is_built(self, check, d):
        scenario = diag_scenario([3.0, 1.0, 0.5], [1.0, -1.0, 0.5], [[1.0, 1.0, 0.0]])
        check_all(scenario, 0.5)
        with pytest.raises(ValueError, match=r"^d must be in \[0, 1\], got "):
            check(scenario, d)
        assert scenario._parts[dominance._at][0] == 0.5


class TestKeptParts:
    """What the scenario keeps for the checks is read-only, holds no
    reference back to the scenario, and does not change later verdicts.
    The d-independent parts are kept for the scenario's life, the per-d
    pass in one slot for the last d asked."""

    @staticmethod
    def scenario():
        return random_scenario(np.random.default_rng(15), 4, 2)

    @staticmethod
    def kept(scenario):
        """The d-independent parts, and the per-d slot's d and pass."""
        parts = dict(scenario._parts)
        d, per_d = parts.pop(dominance._at)
        return parts, d, per_d

    @classmethod
    def arrays(cls, part):
        """Every array that a kept part holds, through reports and tuples."""
        if isinstance(part, np.ndarray):
            yield part
        elif isinstance(part, RiskReport):
            yield from (part.cov, part.bias)
        elif isinstance(part, tuple):
            for item in part:
                yield from cls.arrays(item)

    def test_kept_parts_are_read_only(self):
        scenario = self.scenario()
        check_all(scenario, 0.5)
        parts, d, per_d = self.kept(scenario)
        assert (len(parts), d, type(per_d)) == (4, 0.5, dominance._PerD)
        kept = list(self.arrays(tuple(parts.values())))
        per_d_arrays = list(self.arrays(per_d))
        # ACA's pinv and congruence, C^-1 - A, C^{1/2}; LAL, b1 and the AULE's cov and bias
        assert (len(kept), len(per_d_arrays)) == (4, 4)
        for array in kept + per_d_arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 9.0

    @pytest.mark.parametrize("d", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("index", range(len(CHECKS)))
    def test_a_lone_check_gives_its_check_all_verdict(self, index, d):
        """A lone check at a fresh scenario builds the whole per-d pass, with
        the d-independent parts it reads, and gives the verdict check_all gives."""
        scenario = self.scenario()
        alone = CHECKS[index](scenario, d)
        parts, kept_d, per_d = self.kept(scenario)
        assert (kept_d, type(per_d)) == (d, dominance._PerD)
        assert {dominance._aca_parts, dominance._c_half, dominance._c_inv_minus_a} <= set(parts)
        assert alone.as_record() == check_all(self.scenario(), d)[index].as_record()

    def test_one_per_d_slot_whatever_the_number_of_d(self):
        scenario = self.scenario()
        for d in np.linspace(0.0, 1.0, 20):
            check_all(scenario, d)
        parts, d, per_d = self.kept(scenario)
        assert (len(scenario._parts), len(parts), d, type(per_d)) == (5, 4, 1.0, dominance._PerD)

    def test_scenario_is_freed_by_reference_counting(self):
        scenario = self.scenario()
        d_sweep(scenario, KINDS, [0.5])
        check_all(scenario, 0.5)
        ref = weakref.ref(scenario)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del scenario
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_kept_parts_change_no_verdict(self):
        scenario = self.scenario()
        first = check_all(scenario, 0.3)
        check_all(scenario, 0.7)
        assert check_all(scenario, 0.3) == first
        interleaved = []
        for check in CHECKS:
            check(scenario, 0.7)
            interleaved.append(check(scenario, 0.3))
        assert interleaved == first
        assert [check(self.scenario(), 0.3) for check in CHECKS] == first


def one_at_a_time(scenario, d):
    """check_all's verdicts at d, rebuilt from the public primitives called
    one at a time, each on its own matrix: the route the per-d pass stacks."""
    raule = risk(scenario, EstimatorSpec("raule", d))
    aule = risk(scenario, EstimatorSpec("aule", d))
    rmle, mle = risk(scenario, EstimatorSpec("rmle")), risk(scenario, EstimatorSpec("mle"))
    lal, b1, aca = raule.cov, raule.bias, rmle.cov

    def lemma(theorem, dispersion, applicable, side):
        difference = dispersion - lal
        pinv = moore_penrose(difference)
        in_range_ = in_range(b1, difference)
        qform = float(b1 @ pinv @ b1)
        psd = is_psd(difference - np.outer(b1, b1))
        witnesses = {
            "d": d,
            **side,
            "bias_in_range": float(in_range_),
            "quadratic_form": qform,
            "bias_norm": float(np.linalg.norm(b1)),
            "delta_min_eigenvalue": psd.min_eigenvalue,
        }
        holds = in_range_ and qform <= 1.0 + PSD_SLACK
        return DominanceVerdict(theorem, applicable, holds, psd.ok, qform, 1.0, witnesses)

    def scalar(theorem, baseline):
        terms = spectral_risk_terms(scenario)
        lam1 = float(terms.eigenvalues[0])
        min_a = float(np.min(terms.a_diag[_kept(terms.a_diag)], initial=np.inf))
        max_alpha_sq = float(np.max(terms.alpha**2))
        lhs = np.inf if d == 1.0 else (lam1 + d) * (lam1 + 2.0 - d) / (1.0 - d) ** 2
        delta = baseline.mse - raule.mse
        rhs = max_alpha_sq / min_a
        witnesses = {
            "d": d, "lambda_1": lam1, "min_positive_a": min_a, "max_alpha_sq": max_alpha_sq, "delta_mse": delta,
        }
        return DominanceVerdict(theorem, True, bool(lhs < rhs), delta >= -PSD_SLACK, float(lhs), rhs, witnesses)

    ratio, range_ok = lambda_max_ratio(lal, aca), in_range(lal, aca)
    c_half = scenario.decomp.basis * np.sqrt(np.maximum(scenario.decomp.values, 0.0))
    product = _ratio(lal, c_half)
    L = ld_matrix(scenario.C, d)
    delta5 = is_psd(L @ (scenario.c_inv - scenario.A) @ L)
    c31 = aule.mse - raule.mse
    return [
        lemma("T3.3", aca, ratio <= 1.0 + PSD_SLACK and range_ok,
              {"lambda_max_ratio": ratio, "range_inclusion": float(range_ok)}),
        scalar("T3.4", rmle),
        lemma("T3.5", scenario.c_inv, product <= 1.0 + PSD_SLACK, {"lambda_max_product": product}),
        scalar("T3.6", mle),
        DominanceVerdict(
            "T3.7", True, True, delta5.ok, witnesses={"d": d, "delta_min_eigenvalue": delta5.min_eigenvalue}
        ),
        DominanceVerdict(
            "C3.1", True, True, c31 >= -PSD_SLACK, witnesses={"d": d, "delta_mse": c31}
        ),
    ]


def oracle_scenarios():
    """Seeded scenarios over kappa 1e1 .. 1e7, m = 2 .. 8, dense and
    eigen-aligned restrictions, truths inside and off the restriction,
    and full restrictions q = m (A = 0: T3.3's core has no columns)."""
    rng = np.random.default_rng(19)
    out = []
    for exponent in range(1, 8):
        for m in (2, 4, 8):
            q = 1 + exponent % (m - 1) if m > 2 else 1
            out.append(random_scenario(rng, m, q, cond=10.0**exponent, project=exponent % 2 == 0))
            out.append(random_scenario(rng, m, q, aligned=True, beta_norm=float(rng.uniform(0.1, 8.0))))
    out.extend(full_restrictions())
    out.append(random_scenario(rng, 2, 2, cond=1e6, project=False))
    return out


@pytest.mark.parametrize("index", range(len(oracle_scenarios())))
def test_the_per_d_pass_is_bit_for_bit_the_one_at_a_time_route(index):
    scenario = oracle_scenarios()[index]
    for d in (0.0, 0.15, 0.5, 0.85, 1.0):
        expected = [verdict.as_record() for verdict in one_at_a_time(scenario, d)]
        assert [verdict.as_record() for verdict in check_all(scenario, d)] == expected
