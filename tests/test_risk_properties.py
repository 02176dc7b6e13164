"""Risk and dominance properties over the conditioning range of the thresholds.

``linalg.RANK_CUT`` and ``linalg.PSD_SLACK`` are documented for condition
numbers of C up to about 1e7. Each property is drawn over random SPD C
with kappa from 1e1 to 1e7, m from 2 to 8, q from 1 to m - 1 dense
restriction rows and a truth in null(H):

* at d = 1 every smoother is the identity, so LE and AULE give the
  MLE's risk and RLE and RAULE the RMLE's, up to rounding that grows
  with kappa(C);
* every kind's MMSE is that of the affine map the estimation kernel
  applies to the MLE, read off the kernel itself: a second code path
  for A, the smoothers and the RMLE bias;
* C3.1 (RAULE beats AULE in scalar MSE) holds at every d;
* T3.7 (RAULE beats AULE in matrix MSE) passes its direct PSD test
  where kappa(C) is at most 1e3. Above that the absolute PSD_SLACK is
  too tight for L (C^-1 - A) L, whose entries grow like kappa; one such
  scenario is pinned below as an expected failure.

A second expected failure pins T3.5's iff, which the range test breaks:
b1 counts as in range(D) when ||b1 - D D^+ b1|| <= RANK_CUT ||b1||, but
forming D D^+ b1 costs about eps * kappa(D) ||b1|| in rounding, so from
kappa(D) of about 1e6 a b1 inside the range is reported outside it.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import KINDS, SHRINKAGE_KINDS, EstimatorSpec, FittedLogit, LinearRestriction, RiskScenario
from shrinklogit import check_c31, check_t35, check_t37, risk, shrinkage_estimates
from helpers import random_orthogonal

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Each shrunken kind at d = 1 and the base whose risk it must give.
COLLAPSES = (("le", "mle"), ("aule", "mle"), ("rle", "rmle"), ("raule", "rmle"))


def scenario(seed: int, log_kappa: float, m: int, q: int) -> RiskScenario:
    """SPD C with condition number 10**log_kappa, dense H (q x m), truth in null(H)."""
    rng = np.random.default_rng(seed)
    kappa = 10.0**log_kappa
    ratios = np.concatenate([[1.0, 1.0 / kappa], kappa ** -rng.uniform(size=m - 2)])
    basis = random_orthogonal(rng, m)
    C = (basis * (10.0 ** rng.uniform(0.0, 3.0) * ratios)) @ basis.T
    restriction = LinearRestriction(rng.standard_normal((q, m)), np.zeros(q))
    beta = restriction.null_basis @ rng.standard_normal(m - q)
    return RiskScenario(C, beta, restriction)


@st.composite
def scenarios(draw, max_log_kappa=7.0):
    m = draw(st.integers(2, 8))
    q = draw(st.integers(1, m - 1))
    log_kappa = draw(st.floats(1.0, max_log_kappa))
    return scenario(draw(st.integers(0, 2**32 - 1)), log_kappa, m, q)


@SETTINGS
@given(scenarios())
def test_d_one_collapses_onto_the_base(sc):
    kappa = np.linalg.cond(sc.C)
    for shrunk, base in COLLAPSES:
        got = risk(sc, EstimatorSpec(shrunk, 1.0))
        want = risk(sc, EstimatorSpec(base))
        for field in ("mmse", "mse"):
            a, b = np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
            assert np.max(np.abs(a - b)) <= 1e-13 * kappa * np.max(np.abs(b)), (shrunk, field)


@SETTINGS
@given(scenarios(), st.floats(0.0, 1.0))
def test_mmse_is_that_of_the_kernels_affine_map(sc, d):
    # Each estimator maps the MLE to S beta_hat + c. The kernel at
    # beta_hat = 0, e_1, ..., e_m gives c and the columns of S; with
    # beta_hat ~ N(b, C^-1) the MMSE is S C^-1 S' + (Sb + c - b)(Sb + c - b)'.
    m = sc.m
    points = np.vstack([np.zeros(m), np.eye(m)])
    fit = FittedLogit(points, np.broadcast_to(sc.C, (m + 1, m, m)), None, None, None)
    images = shrinkage_estimates(fit, KINDS, [d], sc.restriction)[:, :, 0]
    kappa = np.linalg.cond(sc.C)
    b = sc.beta_true
    for k, kind in enumerate(KINDS):
        c = images[0, k]
        S = (images[1:, k] - c).T
        bias = S @ b + c - b
        want = S @ sc.c_inv @ S.T + np.outer(bias, bias)
        got = risk(sc, EstimatorSpec(kind, d if kind in SHRINKAGE_KINDS else None)).mmse
        assert np.max(np.abs(got - want)) <= 1e-13 * kappa * np.max(np.abs(got)), kind


@SETTINGS
@given(scenarios(), st.floats(0.0, 1.0))
def test_c31_holds(sc, d):
    assert check_c31(sc, d).delta_psd


@SETTINGS
@given(scenarios(max_log_kappa=3.0), st.floats(0.0, 1.0))
def test_t37_holds_up_to_kappa_1e3(sc, d):
    assert check_t37(sc, d).delta_psd


@pytest.mark.xfail(
    strict=True,
    reason="absolute PSD_SLACK: at kappa(C) = 1e7 the direct PSD test of L (C^-1 - A) L "
    "rounds below -PSD_SLACK (the finding left standing in CHANGES.md)",
)
def test_t37_at_kappa_1e7():
    # smallest eigenvalue of the difference about -9.4e-5, largest entry of C^-1 about 4e6
    assert check_t37(scenario(2751935651, 7.0, m=5, q=1), 0.5).delta_psd


@pytest.mark.xfail(
    strict=True,
    reason="range test: RANK_CUT * ||b1|| is below the rounding of D D^+ b1, about "
    "eps * kappa(D) * ||b1||, so at kappa(D) = 1.5e7 a b1 in range(D) reads outside it "
    "(the finding left standing in CHANGES.md)",
)
def test_t35_iff_at_kappa_1e5():
    # D = C^-1 - LAL is positive definite (smallest eigenvalue 7.9e-4) and
    # b1' D^+ b1 = 0.0027, so Delta3 is PSD and the criterion holds; but
    # ||b1 - D D^+ b1|| is 3.9e-10 ||b1||, so bias_in_range reads 0.
    verdict = check_t35(scenario(0, 5.0, m=4, q=1), 0.5)
    assert verdict.applicable
    assert verdict.condition_holds == verdict.delta_psd
