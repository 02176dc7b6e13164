"""Executable dominance predicates for the estimator family.

Each check evaluates one published comparison between two estimators and
returns a :class:`DominanceVerdict` holding, side by side,

* the algebraic condition exactly as stated (``condition_holds`` with its
  ``lhs``/``rhs`` values), and
* a direct numerical check of the matrix or scalar MSE difference it
  claims to characterize (``delta_psd``),

so the two can be audited against each other. A failed comparison is a
result, not an error: checks only raise for structural problems such as
a missing restriction.

The five checks, with the difference each one verifies directly:

=======  ==========================================  =====================
id       claim                                       direct difference
=======  ==========================================  =====================
T3.3     RAULE beats RMLE in matrix MSE (iff)        ACA - LAL - b1 b1'
T3.4     RAULE beats RMLE in scalar MSE (if)         mse(RMLE) - mse(RAULE)
T3.5     RAULE beats MLE in matrix MSE (iff)         C^-1 - LAL - b1 b1'
T3.6     RAULE beats MLE in scalar MSE (if)          mse(MLE) - mse(RAULE)
T3.7     RAULE beats AULE in matrix MSE (always)     L (C^-1 - A) L
C3.1     RAULE beats AULE in scalar MSE (always)     mse(AULE) - mse(RAULE)
=======  ==========================================  =====================

where L is the shrinkage operator, A the restricted dispersion kernel,
and b1 = (L - I) beta the shared shrinkage bias. The matrix checks take
b1 and LAL from the RAULE risk report (its bias and covariance), and
T3.7 builds L with the same smoother function as the risk module.

The scalar conditions of T3.4/T3.6 compare
(lam_1 + d)(lam_1 + 2 - d) / (1 - d)^2 against
max_i alpha_i^2 / min_i a_ii. The minimum is taken over the strictly
positive diagonal weights only: A has rank m - q, so q of the a_ii
vanish and the literal minimum would make the bound vacuous. Even so
the condition is not a sound sufficiency certificate for every scenario
(scaling the true coefficients up can satisfy it while the MSE
difference goes negative); the verdict reports both sides faithfully
and leaves the judgement to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateTermsError
from .estimators import EstimatorSpec, smoother_matrix
from .linalg import PSD_SLACK, RANK_CUT, in_range, in_range_with_pinv, is_psd, lambda_max_ratio, moore_penrose
from .linalg import symmetrize
from .risk import RiskScenario, risk, spectral_risk_terms

__all__ = [
    "DominanceVerdict",
    "check_t33",
    "check_t34",
    "check_t35",
    "check_t36",
    "check_t37",
    "check_c31",
    "check_all",
]


@dataclass(frozen=True)
class DominanceVerdict:
    """Outcome of one dominance check.

    ``applicable`` records whether the check's side conditions hold;
    ``condition_holds`` evaluates the stated criterion; ``delta_psd``
    is the independent check of the MSE difference itself (matrix PSD
    test, or scalar nonnegativity for the trace-based checks).
    ``witnesses`` carries the named scalars behind those booleans.
    """

    theorem: str
    applicable: bool
    condition_holds: bool
    delta_psd: bool
    lhs: float | None = None
    rhs: float | None = None
    witnesses: dict[str, float] = field(default_factory=dict)

    def as_record(self) -> dict:
        """Flat record for table serialization."""
        record = {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "condition_holds": self.condition_holds,
            "delta_psd": self.delta_psd,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }
        record.update(self.witnesses)
        return record


def _matrix_verdict(theorem, scenario, d, dispersion, raule, applicable, side) -> DominanceVerdict:
    """T3.3/T3.5 lemma test for D = dispersion - LAL, b1 and LAL from the RAULE
    report: b1 in range(D) and b1' D^+ b1 <= 1 with D^+ formed once, and the
    direct PSD test of D - b1 b1'. ``side`` holds the applicability witnesses."""
    b1 = raule.bias
    difference = symmetrize(dispersion - raule.cov)
    pinv = moore_penrose(difference)
    b_in_range = in_range_with_pinv(b1, difference, pinv)
    qform = float(b1 @ pinv @ b1)
    psd = is_psd(symmetrize(difference - np.outer(b1, b1)))
    return DominanceVerdict(
        theorem=theorem,
        applicable=applicable,
        condition_holds=b_in_range and qform <= 1.0 + PSD_SLACK,
        delta_psd=psd.ok,
        lhs=qform,
        rhs=1.0,
        witnesses={
            "d": float(d),
            **side,
            "bias_in_range": float(b_in_range),
            "quadratic_form": qform,
            "bias_norm": float(np.linalg.norm(b1)),
            "delta_min_eigenvalue": psd.min_eigenvalue,
        },
    )


def check_t33(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs RMLE in the matrix MSE order (necessary and sufficient).

    Applicable when lambda_max(LAL (ACA)^+) <= 1 and range(LAL) lies in
    range(ACA); then ACA - LAL is nonnegative definite and the criterion
    b1'(ACA - LAL)^+ b1 <= 1 (with b1 in the range of the difference) is
    equivalent to the matrix MSE difference Delta1 = ACA - LAL - b1 b1'
    being nonnegative definite. Delta1 is always checked directly too.
    """
    raule = risk(scenario, EstimatorSpec("raule", d))
    aca = symmetrize(scenario.A @ scenario.C @ scenario.A)
    ratio = lambda_max_ratio(raule.cov, aca)
    range_ok = in_range(raule.cov, aca)
    applicable = bool(ratio <= 1.0 + PSD_SLACK and range_ok)
    side = {"lambda_max_ratio": ratio, "range_inclusion": float(range_ok)}
    return _matrix_verdict("T3.3", scenario, d, aca, raule, applicable, side)


def _scalar_condition(scenario: RiskScenario, d: float):
    """Shared lhs/rhs of the scalar (trace MSE) conditions."""
    terms = spectral_risk_terms(scenario)
    lam1 = float(terms.eigenvalues[0])
    if d == 1.0:
        lhs = np.inf
    else:
        lhs = (lam1 + d) * (lam1 + 2.0 - d) / (1.0 - d) ** 2
    a_max = float(np.max(terms.a_diag))
    positive = terms.a_diag > RANK_CUT * max(a_max, 0.0)
    if a_max <= 0.0 or not np.any(positive):
        raise DegenerateTermsError(
            "all diagonal weights of T'AT vanish; the scalar bound is undefined"
        )
    min_positive_a = float(np.min(terms.a_diag[positive]))
    max_alpha_sq = float(np.max(terms.alpha**2))
    rhs = max_alpha_sq / min_positive_a
    return lam1, lhs, rhs, min_positive_a, max_alpha_sq


def _scalar_verdict(scenario, d, theorem, baseline_kind) -> DominanceVerdict:
    lam1, lhs, rhs, min_a, max_alpha_sq = _scalar_condition(scenario, d)
    baseline = risk(scenario, EstimatorSpec(baseline_kind))
    shrunk = risk(scenario, EstimatorSpec("raule", d))
    delta = baseline.mse - shrunk.mse
    return DominanceVerdict(
        theorem=theorem,
        applicable=True,
        condition_holds=bool(lhs < rhs),
        delta_psd=bool(delta >= -PSD_SLACK),
        lhs=float(lhs),
        rhs=float(rhs),
        witnesses={
            "d": float(d),
            "lambda_1": lam1,
            "min_positive_a": min_a,
            "max_alpha_sq": max_alpha_sq,
            "delta_mse": float(delta),
        },
    )


def check_t34(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs RMLE in scalar MSE: reported bound plus the direct difference.

    ``delta_psd`` here is the scalar check mse(RMLE) - mse(RAULE) >= -slack.

    Raises
    ------
    DegenerateTermsError
        If every diagonal weight of T'AT is zero (full restriction).
    """
    return _scalar_verdict(scenario, d, "T3.4", "rmle")


def check_t35(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in the matrix MSE order (necessary and sufficient).

    Applicable when lambda_max(LAL C) <= 1, evaluated literally on the
    product LAL C through the congruence C^{1/2} LAL C^{1/2}. Then the
    criterion b1'(C^-1 - LAL)^+ b1 <= 1 is equivalent to
    Delta3 = C^-1 - LAL - b1 b1' being nonnegative definite.
    """
    raule = risk(scenario, EstimatorSpec("raule", d))
    dec = scenario.decomp
    half = dec.basis * np.sqrt(np.maximum(dec.values, 0.0))
    core = half.T @ raule.cov @ half
    lam = float(max(np.linalg.eigvalsh(0.5 * (core + core.T))[-1], 0.0))
    applicable = bool(lam <= 1.0 + PSD_SLACK)
    side = {"lambda_max_product": lam}
    return _matrix_verdict("T3.5", scenario, d, scenario.c_inv, raule, applicable, side)


def check_t36(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in scalar MSE: same bound as T3.4, direct difference vs MLE."""
    return _scalar_verdict(scenario, d, "T3.6", "mle")


def check_t37(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in the matrix MSE order, claimed to hold always.

    The difference is Delta5 = L (C^-1 - A) L, nonnegative definite
    because C^-1 - A is. The verdict is a verification: ``delta_psd``
    false (beyond the slack) signals a numerical integrity failure, not
    a counterexample.
    """
    scenario._require_restriction("this dominance check")
    L = smoother_matrix(scenario.decomp, EstimatorSpec("raule", d))
    delta = symmetrize(L @ (scenario.c_inv - scenario.A) @ L)
    psd = is_psd(delta)
    return DominanceVerdict(
        theorem="T3.7",
        applicable=True,
        condition_holds=True,
        delta_psd=psd.ok,
        witnesses={"d": float(d), "delta_min_eigenvalue": psd.min_eigenvalue},
    )


def check_c31(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in scalar MSE, the trace consequence of the matrix order."""
    scenario._require_restriction("this dominance check")
    aule = risk(scenario, EstimatorSpec("aule", d))
    raule = risk(scenario, EstimatorSpec("raule", d))
    delta = aule.mse - raule.mse
    return DominanceVerdict(
        theorem="C3.1",
        applicable=True,
        condition_holds=True,
        delta_psd=bool(delta >= -PSD_SLACK),
        witnesses={"d": float(d), "delta_mse": float(delta)},
    )


def check_all(scenario: RiskScenario, d: float) -> list[DominanceVerdict]:
    """All six checks in report order."""
    return [
        check_t33(scenario, d),
        check_t34(scenario, d),
        check_t35(scenario, d),
        check_t36(scenario, d),
        check_t37(scenario, d),
        check_c31(scenario, d),
    ]
