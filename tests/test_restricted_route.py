"""The restricted MLE and everything built on it, across C's conditioning.

:func:`restricted_mle` projects onto H beta = h in the C metric through
the restriction's null basis. Over random positive definite C with
condition numbers 1e1 to 1e7, dense and eigen-aligned H with 1 <= q <= m
rows, and a truth inside or outside the restriction set, it must

* satisfy its own restriction to rounding in H and h,
* agree with the subtraction form beta - C^-1 H'(H C^-1 H')^-1 (H beta - h),
  written out below, up to that form's own error, of order
  eps * (cond(C) + cond(H C^-1 H')),
* be exactly what the risk module's RMLE bias applies to the truth, and
* raise the same exception type as the subtraction form and the risk
  scenario on the draws that cannot be projected.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    EstimatorSpec,
    LinearRestriction,
    RiskScenario,
    ShrinkLogitError,
    SingularRestrictionGramError,
    restricted_mle,
    risk,
)
from shrinklogit.linalg import require_positive_definite, symmetrize
from helpers import random_orthogonal

#: ||H beta_R - h|| allowed per unit of ||H|| ||beta_R|| + ||h||: a few
#: dozen float64 roundings, whatever C's condition number.
RESIDUAL_TOL = 1e-13

#: Distance allowed to the subtraction form per unit of
#: cond(C) + cond(H C^-1 H'), relative to the larger of the input and
#: projected norms. That form solves with C and with H C^-1 H', and the
#: second can be far worse conditioned than C: with q = m and cond(H)
#: about 1e3 it is off by up to 2e-8 against a 50-digit evaluation, while
#: the null-space route stays within 1e-13. On 20,000 random draws the
#: distance stayed below 5e-16 per unit of this scale.
REFERENCE_TOL = 1e-13


def subtraction_form(C, beta, restriction):
    """beta - C^-1 H'(H C^-1 H')^-1 (H beta - h), with the same checks."""
    require_positive_definite(np.linalg.eigvalsh(C), "C")
    H = restriction.H
    ci_ht = np.linalg.solve(C, H.T)
    gram = symmetrize(H @ ci_ht)
    require_positive_definite(
        np.linalg.eigvalsh(gram), "H C^-1 H'", SingularRestrictionGramError
    )
    return beta - ci_ht @ np.linalg.solve(gram, H @ beta - restriction.h)


def outcome(fn):
    try:
        return fn(), None
    except ShrinkLogitError as err:
        return None, type(err)


@st.composite
def problems(draw):
    m = draw(st.integers(2, 8))
    q = draw(st.integers(1, m))
    log_kappa = draw(st.floats(1.0, 7.0))
    aligned = draw(st.booleans())
    inside = draw(st.booleans())
    singular = draw(st.integers(0, 9)) == 0  # C numerically rank deficient
    redundant = q >= 2 and not aligned and draw(st.integers(0, 9)) == 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ratios = np.concatenate([[1.0, 10.0**-log_kappa], 10.0 ** -rng.uniform(0, log_kappa, m - 2)])
    if singular:
        ratios[1] = 1e-14
    basis = random_orthogonal(rng, m)
    C = symmetrize((basis * (10.0 ** rng.uniform(-1, 3) * ratios)) @ basis.T)
    if aligned:  # rows span eigenvectors of C, each with its own scale
        H = basis.T[rng.choice(m, size=q, replace=False)] * 10.0 ** rng.uniform(-1, 1, (q, 1))
    else:
        H = rng.standard_normal((q, m))
    if redundant:
        # Second row 1e-8 ||H|| away from the first, orthogonally to every
        # other row, so H keeps full rank at rank_cut while H C^-1 H' loses it.
        others = np.linalg.qr(np.delete(H, 1, axis=0).T)[0]
        v = H[1] - others @ (others.T @ H[1])
        H[1] = H[0] + 1e-8 * np.linalg.norm(H, 2) / np.linalg.norm(v) * v
    restriction = LinearRestriction(H, rng.standard_normal(q) * 10.0 ** rng.uniform(-1, 1))
    truth = rng.standard_normal(m) * 10.0 ** rng.uniform(-1, 1)
    if inside:
        truth = truth + np.linalg.lstsq(H, restriction.h - H @ truth, rcond=None)[0]
    beta_mle = truth + rng.standard_normal(m) * 10.0 ** rng.uniform(-2, 1)
    return C, restriction, truth, beta_mle


class TestRestrictedRoute:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(problems())
    def test_projection_residual_reference_bias_and_errors(self, problem):
        C, restriction, truth, beta_mle = problem
        H, h = restriction.H, restriction.h
        expected, expected_error = outcome(lambda: subtraction_form(C, beta_mle, restriction))
        beta_r, error = outcome(lambda: restricted_mle(C, beta_mle, restriction))
        scenario, scenario_error = outcome(lambda: RiskScenario(C, truth, restriction))
        assert error is expected_error
        assert scenario_error is expected_error
        if expected_error is not None:
            return

        residual = np.linalg.norm(H @ beta_r - h)
        scale = np.linalg.norm(H, 2) * np.linalg.norm(beta_r) + np.linalg.norm(h)
        assert residual <= RESIDUAL_TOL * scale

        size = max(np.linalg.norm(beta_mle), np.linalg.norm(beta_r))
        conditioning = np.linalg.cond(C) + np.linalg.cond(H @ np.linalg.solve(C, H.T))
        distance = np.linalg.norm(beta_r - expected)
        assert distance <= REFERENCE_TOL * conditioning * size

        projected_truth = restricted_mle(scenario.C, truth, restriction) - truth
        assert np.array_equal(scenario.rmle_bias(), projected_truth)
        assert np.array_equal(risk(scenario, EstimatorSpec("rmle")).bias, projected_truth)

    def test_full_restriction_pins_the_unique_solution(self):
        H = np.array([[2.0, 1.0], [0.0, 3.0]])
        restriction = LinearRestriction(H, np.array([1.0, -3.0]))
        beta_r = restricted_mle(np.diag([4.0, 1e-6]), np.array([7.0, 7.0]), restriction)
        np.testing.assert_allclose(beta_r, np.linalg.solve(H, restriction.h), rtol=1e-15)

    def test_restriction_carries_its_null_basis_and_particular_solution(self):
        rng = np.random.default_rng(11)
        restriction = LinearRestriction(rng.standard_normal((2, 5)), rng.standard_normal(2))
        N = restriction.null_basis
        assert N.shape == (5, 3)
        np.testing.assert_allclose(N.T @ N, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(restriction.H @ N, 0.0, atol=1e-14)
        np.testing.assert_allclose(restriction.particular, np.linalg.pinv(restriction.H) @ restriction.h, rtol=1e-13)
