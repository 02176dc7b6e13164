"""The spectral shrinkage kernel against a per-(kind, d) reference loop.

The reference is the estimator family written out one (kind, d) pair
at a time: the base from :func:`restricted_mle` (or the MLE), times the
smoother matrix from :func:`ld_matrix` / :func:`liu_matrix`, with the
positive definiteness test on C redone for every pair. The kernel must
give the same estimates and raise the same exception type on the same
inputs, over random positive definite C with condition numbers 1e1 to
1e7.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    DimensionMismatchError,
    FittedLogit,
    KINDS,
    LinearRestriction,
    MissingRestrictionError,
    RESTRICTED_KINDS,
    ShrinkLogitError,
    SimulationConfig,
    SingularInformationError,
    default_restriction,
    estimate,
    EstimatorSpec,
    ld_matrix,
    liu_matrix,
    restricted_mle,
    run_simulation,
    shrinkage_estimates,
)
from shrinklogit.linalg import require_positive_definite
from helpers import random_orthogonal

#: Agreement required between kernel and loop, relative to the norm of the
#: base (MLE or RMLE) the estimate shrinks. Both routes apply an orthogonal
#: basis and factors in (0, 1] to the same base, so they differ by a few
#: float64 roundings per entry (about m * 1e-16); 1e-10 leaves a wide margin.
REL_TOL = 1e-10

_SMOOTHER = {"le": liu_matrix, "rle": liu_matrix, "aule": ld_matrix, "raule": ld_matrix}


def reference_loop(fit, kinds, d_grid, restriction):
    """One (kind, d) pair at a time, redoing every check per pair, once the
    request's restriction is checked: before any test of C, a given
    restriction must be as wide as C, and a restricted kind needs one."""
    m = fit.C.shape[0]
    if restriction is not None and restriction.H.shape[1] != m:
        raise DimensionMismatchError(restriction.H.shape)
    if restriction is None and any(kind in RESTRICTED_KINDS for kind in kinds):
        raise MissingRestrictionError(kinds)
    out = np.empty((len(kinds), len(d_grid), m))
    for i, kind in enumerate(kinds):
        for j, d in enumerate(d_grid):
            if kind in RESTRICTED_KINDS:
                base = restricted_mle(fit.C, fit.beta_mle, restriction)
            else:
                require_positive_definite(np.linalg.eigvalsh(fit.C))
                base = fit.beta_mle
            smoother = _SMOOTHER.get(kind)
            out[i, j] = base if smoother is None else smoother(fit.C, d) @ base
    return out


def base_norm(fit, kind, restriction):
    """Norm of the base ``kind`` shrinks, the scale of the tolerance."""
    if kind in RESTRICTED_KINDS:
        return np.linalg.norm(restricted_mle(fit.C, fit.beta_mle, restriction))
    return np.linalg.norm(fit.beta_mle)


def outcome(fn):
    try:
        return fn(), None
    except ShrinkLogitError as err:
        return None, type(err)


def synthetic_fit(C, beta):
    return FittedLogit(beta_mle=beta, C=C, iterations=1, converged=True, final_step=0.0)


#: How the restriction is built: absent, well posed, of the wrong width,
#: or with two nearly equal rows (a rank deficient H C^-1 H').
RESTRICTION_MODES = ("none", "dense", "wide", "redundant")


@st.composite
def problems(draw):
    m = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    singular = draw(st.integers(0, 9)) == 0  # C numerically rank deficient
    log_kappa = draw(st.floats(1.0, 7.0))
    mode = draw(st.sampled_from(RESTRICTION_MODES))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=6, unique=True))
    d_grid = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    rng = np.random.default_rng(seed)
    ratios = np.concatenate([[1.0, 10.0**-log_kappa], 10.0 ** -rng.uniform(0, log_kappa, m - 2)])
    if singular:
        ratios[1] = 1e-14
    scale = 10.0 ** rng.uniform(-1, 3)
    basis = random_orthogonal(rng, m)
    C = (basis * (scale * ratios)) @ basis.T
    C = 0.5 * (C + C.T)
    beta = rng.standard_normal(m) * 10.0 ** rng.uniform(-1, 1)
    restriction = None
    if mode != "none":
        q = int(rng.integers(1, m)) if mode != "redundant" else 2
        width = m + 1 if mode == "wide" else m
        H = rng.standard_normal((q, width))
        if mode == "redundant":
            # Second row 1e-8 away from the first, orthogonally, so H keeps full rank.
            v = H[1] - (H[1] @ H[0]) / (H[0] @ H[0]) * H[0]
            H[1] = H[0] + 1e-8 * np.linalg.norm(H[0]) / np.linalg.norm(v) * v
        restriction = LinearRestriction(H, rng.standard_normal(q))
    return synthetic_fit(C, beta), kinds, d_grid, restriction


class TestKernelAgainstLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problems())
    def test_same_estimates_and_same_errors(self, problem):
        fit, kinds, d_grid, restriction = problem
        expected, expected_error = outcome(lambda: reference_loop(fit, kinds, d_grid, restriction))
        actual, actual_error = outcome(
            lambda: shrinkage_estimates(fit, kinds, d_grid, restriction)
        )
        assert actual_error is expected_error
        if expected_error is not None:
            return
        assert actual.shape == (len(kinds), len(d_grid), fit.C.shape[0])
        for i, kind in enumerate(kinds):
            atol = REL_TOL * base_norm(fit, kind, restriction)
            np.testing.assert_allclose(actual[i], expected[i], rtol=0, atol=atol)
            if kind in ("mle", "rmle"):
                assert np.array_equal(actual[i], expected[i])

    @pytest.mark.parametrize(
        "kinds, restriction, error",
        [
            (["mle", "raule"], None, MissingRestrictionError),
            (["rmle"], LinearRestriction(np.ones((1, 4)), np.zeros(1)), DimensionMismatchError),
        ],
    )
    def test_each_error_type_is_reachable(self, kinds, restriction, error):
        fit = synthetic_fit(np.diag([3.0, 2.0, 1.0]), np.array([1.0, -1.0, 0.5]))
        with pytest.raises(error):
            reference_loop(fit, kinds, [0.5], restriction)
        with pytest.raises(error):
            shrinkage_estimates(fit, kinds, [0.5], restriction)

    def test_a_missing_restriction_is_raised_before_singular_information_when_mle_comes_first(self):
        fit = synthetic_fit(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(MissingRestrictionError):
            shrinkage_estimates(fit, ["mle", "rmle"], [0.5])
        with pytest.raises(MissingRestrictionError):
            shrinkage_estimates(fit, ["rmle", "mle"], [0.5])
        with pytest.raises(SingularInformationError):
            shrinkage_estimates(fit, ["mle"], [0.5])

    @settings(max_examples=100, deadline=None)
    @given(
        st.permutations(KINDS),
        st.integers(1, len(KINDS)),
        st.sampled_from((None, 0, 1, 2)),
        st.sampled_from(("single", "stack", "empty")),
    )
    def test_restriction_errors_come_before_the_c_test_in_any_kind_order(self, order, size, singular_row, shape):
        kinds = order[:size]
        C = np.stack([np.diag([3.0, 1.0, 0.5])] * 3)
        if singular_row is not None:
            C[singular_row, 1, 1] = 0.0
        beta = np.tile([1.0, -1.0, 0.5], (3, 1))
        fit = {
            "single": synthetic_fit(C[singular_row or 0], beta[0]),
            "stack": synthetic_fit(C, beta),
            "empty": synthetic_fit(C[:0], beta[:0]),
        }[shape]
        wide = LinearRestriction(np.ones((1, 4)), np.zeros(1))
        with pytest.raises(DimensionMismatchError, match="restriction width 4 does not match coefficient count 3"):
            shrinkage_estimates(fit, kinds, [0.5], wide)
        restricted = [kind for kind in kinds if kind in RESTRICTED_KINDS]
        if restricted:
            with pytest.raises(MissingRestrictionError, match=f"^estimator {restricted[0]!r} needs"):
                shrinkage_estimates(fit, kinds, [0.5])
        elif singular_row is not None and shape != "empty":
            with pytest.raises(SingularInformationError):
                shrinkage_estimates(fit, kinds, [0.5])
        else:
            assert shrinkage_estimates(fit, kinds, [0.5]).shape[-3:] == (size, 1, 3)

    def test_unknown_kind_is_rejected_before_the_c_test(self):
        fit = synthetic_fit(np.diag([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="unknown estimator kind 'ridge'"):
            shrinkage_estimates(fit, ["mle", "ridge"], [0.5])

    def test_rejects_unknown_kind_and_d_outside_unit_interval(self):
        fit = synthetic_fit(np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            shrinkage_estimates(fit, ["ridge"], [0.5])
        with pytest.raises(ValueError):
            shrinkage_estimates(fit, ["aule"], [0.5, 1.5])

    def test_kinds_are_case_insensitive(self):
        rng = np.random.default_rng(4)
        fit = synthetic_fit(np.diag([5.0, 2.0, 0.1]), rng.standard_normal(3))
        restriction = LinearRestriction(np.array([[1.0, -1.0, 0.0]]), np.zeros(1))
        upper = shrinkage_estimates(fit, [k.upper() for k in KINDS], [0.2, 0.7], restriction)
        lower = shrinkage_estimates(fit, KINDS, [0.2, 0.7], restriction)
        assert np.array_equal(upper, lower)

    def test_estimate_is_one_kernel_cell(self):
        rng = np.random.default_rng(3)
        fit = synthetic_fit(np.diag([5.0, 2.0, 0.1]), rng.standard_normal(3))
        restriction = LinearRestriction(np.array([[1.0, -1.0, 0.0]]), np.zeros(1))
        grid = [0.2, 0.7]
        betas = shrinkage_estimates(fit, KINDS, grid, restriction)
        for i, kind in enumerate(KINDS):
            for j, d in enumerate(grid):
                spec = EstimatorSpec(kind, d if kind not in ("mle", "rmle") else None)
                assert np.array_equal(estimate(fit, spec, restriction).beta, betas[i, j])


class TestSimulationCell:
    def test_counts_and_mse_unchanged_by_the_kernel(self):
        # Values recorded with the per-(kind, d) estimate loop this kernel replaced.
        config = SimulationConfig(
            n=10, p=4, rho=0.999, d_grid=(0.1, 0.5, 0.9), reps=40, seed=4,
            restriction=default_restriction(4),
        )
        result = run_simulation(config)
        assert (result.completed, result.skipped) == (34, 6)
        recorded = {
            ("mle", 0.1): 3457350.0680152094,
            ("aule", 0.1): 124792.65753361495,
            ("aule", 0.9): 3388547.6259413473,
            ("rmle", 0.5): 21118.238643868073,
            ("raule", 0.1): 754.5375661778731,
            ("raule", 0.5): 11868.797209063285,
        }
        for (kind, d), mse in recorded.items():
            assert result.mse(kind, d) == pytest.approx(mse, rel=1e-9)
