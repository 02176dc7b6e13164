"""Executable dominance predicates for the estimator family.

Each check evaluates one published comparison between two estimators and
returns a :class:`DominanceVerdict` holding, side by side,

* the algebraic condition exactly as stated (``condition_holds`` with its
  ``lhs``/``rhs`` values), and
* a direct numerical check of the matrix or scalar MSE difference it
  claims to characterize (``delta_psd``),

so the two can be audited against each other. A failed comparison is a
result, not an error: checks only raise for a d outside [0, 1] or a
missing restriction, the same error and message from every check.

The six checks, with the difference each one verifies directly:

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
T3.3 takes ACA from the RMLE report's covariance.

Each theorem has one route, its ``check_*`` function, and
:func:`check_all` runs the six by name. The checks keep one record per
scenario, in a module-level weak dictionary that drops it when reference
counting frees the scenario. The record holds what does not depend on d
(ACA's pseudo-inverse and congruence, both from one decomposition of ACA,
C^{1/2}, C^-1 - A, the scalar conditions' parts), built at the scenario's
first check, and the six verdicts at the last d asked. A new d (and the
restriction) is checked before anything is built; one pass then builds
all six verdicts, whichever check asks first, and they replace the kept
ones, so memory does not grow with the number of d. The pass forms L,
and the RAULE and AULE reports from it, then makes two stacked
decompositions:

* one ``eigh`` of (D1, D3) = (ACA - LAL, C^-1 - LAL), which gives both
  pseudo-inverses of the lemma tests;
* one ``eigvalsh`` of (Delta1, Delta3, Delta5, the T3.5 core
  C^{1/2}' LAL C^{1/2}), which gives every PSD witness and T3.5's
  lambda_max(LAL C).

Only T3.3's congruence core, (m - q) wide, has its own ``eigvalsh``.
NumPy decomposes each member of a stack as it decomposes it alone, and
D1, D3, Delta1 and Delta3 are exactly symmetric as formed, so every
verdict is bit for bit what the public primitives give one matrix at a
time (``is_psd``, ``moore_penrose``, ``in_range``, ``lambda_max_ratio``).
Every kept array is read-only and nothing kept refers back to the scenario.

The scalar conditions of T3.4/T3.6 compare
(lam_1 + d)(lam_1 + 2 - d) / (1 - d)^2 against
max_i alpha_i^2 / min_i a_ii. The minimum is taken over the strictly
positive diagonal weights only: A has rank m - q, so q of the a_ii
vanish and the literal minimum would make the bound vacuous. Under a
full restriction (q = m) A = 0 and no weight is positive: the minimum
over none is inf, so the right side is 0 and ``condition_holds`` is
false, as it should be, since the RMLE then has no variance for the
shrinkage to remove. Even so
the condition is not a sound sufficiency certificate for every scenario
(scaling the true coefficients up can satisfy it while the MSE
difference goes negative); the verdict reports both sides faithfully
and leaves the judgement to the caller.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .estimators import _check_request, _check_restriction, _smoothers
from .linalg import PSD_SLACK, _eigh, _read_only, in_range_with_pinv
from .linalg import _congruence, _kept, _pinv, _psd, _ratio, _sym
from .risk import RiskReport, RiskScenario, _reports, spectral_risk_terms

# No longer called here, but kept bound: perfbench's traced run rebinds
# them by name (ROADMAP item 1), and tests/test_perfbench_names.py checks
# that each still resolves.
from .linalg import in_range, is_psd, lambda_max_ratio, moore_penrose  # noqa: F401
from .risk import risk  # noqa: F401

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

    The checks keep the six verdicts of a scenario's last d, so repeated
    calls at one d may return the same verdict object: a caller must not
    mutate its ``witnesses``.
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


class _Fixed(NamedTuple):
    """What the checks read that does not depend on d."""

    aca_pinv: NDArray  # (ACA)^+
    congruence: NDArray  # lambda_max_ratio's S for ACA
    c_half: NDArray  # C^{1/2}
    c_inv_minus_a: NDArray  # C^-1 - A
    lam1: float  # the largest eigenvalue of C
    min_positive_a: float  # over the a_ii that ``_kept`` keeps, inf when there are none
    max_alpha_sq: float
    rhs: float  # of the scalar conditions, max_alpha_sq / min_positive_a


#: scenario -> (its ``_Fixed`` parts, the last d checked, the six verdicts there)
_records: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _fixed(scenario: RiskScenario) -> _Fixed:
    """The d-independent parts, with ACA's two from one ``_eigh``."""
    aca = _eigh(scenario._rmle.cov)
    decomp = scenario.decomp
    terms = spectral_risk_terms(scenario)
    min_positive_a = float(np.min(terms.a_diag[_kept(terms.a_diag)], initial=np.inf))
    max_alpha_sq = float(np.max(terms.alpha**2))
    return _Fixed(
        aca_pinv=_read_only(_pinv(aca)),
        congruence=_read_only(_congruence(aca)),
        c_half=_read_only(decomp.basis * np.sqrt(np.maximum(decomp.values, 0.0))),
        c_inv_minus_a=_read_only(scenario.c_inv - scenario.A),
        lam1=float(terms.eigenvalues[0]),
        min_positive_a=min_positive_a,
        max_alpha_sq=max_alpha_sq,
        rhs=max_alpha_sq / min_positive_a,
    )


def _at(scenario: RiskScenario, d: float) -> tuple[DominanceVerdict, ...]:
    """The six verdicts at d, in ``check_all`` order, kept in the scenario's
    record. A d other than the record's is checked first, with the
    restriction, and its verdicts replace the record's; so is any d when
    there is no record yet, None among them."""
    fixed, kept_d, verdicts = _records.get(scenario, (None, None, None))
    if verdicts is None or d != kept_d:
        kinds, (d,) = _check_request(["raule", "aule"], [d])
        _check_restriction(kinds, scenario.restriction, scenario.m)
        fixed = fixed or _fixed(scenario)
        verdicts = _verdicts(scenario, fixed, d)
        _records[scenario] = (fixed, d, verdicts)
    return verdicts


def _verdicts(scenario: RiskScenario, fixed: _Fixed, d: float) -> tuple[DominanceVerdict, ...]:
    """The six verdicts at d, from the one pass the module docstring
    describes. Delta5 and the T3.5 core are symmetrized; the other members
    of the stacks are exactly symmetric as formed."""
    L = _smoothers(scenario.decomp, "raule", [d])
    (raule,) = _reports(scenario, "raule", [d], L)
    (aule,) = _reports(scenario, "aule", [d], L)
    lal, b1, aca = raule.cov, raule.bias, scenario._rmle.cov
    differences = np.subtract((aca, scenario.c_inv), lal)
    delta5 = L[0] @ fixed.c_inv_minus_a @ L[0]
    core = fixed.c_half.T @ lal @ fixed.c_half
    spectra = np.linalg.eigvalsh(np.concatenate([differences - np.outer(b1, b1), _sym(np.stack([delta5, core]))]))
    psd1, psd3, psd5 = map(_psd, spectra[:3, 0].tolist())
    pinvs = _pinv(_eigh(differences))
    bias_norm = float(np.linalg.norm(b1))

    def lemma(theorem, i, psd, applicable, side):
        """A T3.3/T3.5 verdict from the lemma test on D = differences[i]:
        b1 in range(D), b1' D^+ b1 <= 1, and Delta = D - b1 b1' PSD."""
        bias_in_range = in_range_with_pinv(b1, differences[i], pinvs[i])
        qform = float(b1 @ pinvs[i] @ b1)
        witnesses = {
            "d": d,
            **side,
            "bias_in_range": float(bias_in_range),
            "quadratic_form": qform,
            "bias_norm": bias_norm,
            "delta_min_eigenvalue": psd.min_eigenvalue,
        }
        holds = bias_in_range and qform <= 1.0 + PSD_SLACK
        return DominanceVerdict(theorem, applicable, holds, psd.ok, qform, 1.0, witnesses)

    lhs = np.inf if d == 1.0 else (fixed.lam1 + d) * (fixed.lam1 + 2.0 - d) / (1.0 - d) ** 2

    def scalar(theorem, baseline: RiskReport):
        """A T3.4/T3.6 verdict against the RMLE or MLE report."""
        delta = baseline.mse - raule.mse
        witnesses = {
            "d": d,
            "lambda_1": fixed.lam1,
            "min_positive_a": fixed.min_positive_a,
            "max_alpha_sq": fixed.max_alpha_sq,
            "delta_mse": float(delta),
        }
        holds = bool(lhs < fixed.rhs)
        return DominanceVerdict(theorem, True, holds, bool(delta >= -PSD_SLACK), lhs, fixed.rhs, witnesses)

    ratio = _ratio(lal, fixed.congruence)
    range_inclusion = in_range_with_pinv(lal, aca, fixed.aca_pinv)
    product = float(max(spectra[3, -1], 0.0))
    c31 = aule.mse - raule.mse
    return (
        lemma(
            "T3.3", 0, psd1, bool(ratio <= 1.0 + PSD_SLACK and range_inclusion),
            {"lambda_max_ratio": ratio, "range_inclusion": float(range_inclusion)},
        ),
        scalar("T3.4", scenario._rmle),
        lemma("T3.5", 1, psd3, bool(product <= 1.0 + PSD_SLACK), {"lambda_max_product": product}),
        scalar("T3.6", scenario._mle),
        DominanceVerdict("T3.7", True, True, psd5.ok, witnesses={"d": d, "delta_min_eigenvalue": psd5.min_eigenvalue}),
        DominanceVerdict("C3.1", True, True, bool(c31 >= -PSD_SLACK), witnesses={"d": d, "delta_mse": float(c31)}),
    )


def check_t33(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs RMLE in the matrix MSE order (necessary and sufficient).

    Applicable when lambda_max(LAL (ACA)^+) <= 1 and range(LAL) lies in
    range(ACA); then ACA - LAL is nonnegative definite and the criterion
    b1'(ACA - LAL)^+ b1 <= 1 (with b1 in the range of the difference) is
    equivalent to the matrix MSE difference Delta1 = ACA - LAL - b1 b1'
    being nonnegative definite. Delta1 is always checked directly too.
    The ratio is the largest eigenvalue of the (m - q)-wide congruence
    core S'(LAL)S, with S from ACA's kept eigenpairs; the range test and
    (ACA - LAL)^+ come from the per-d pass, which also gives Delta1's
    PSD witness. LAL and ACA are PSD in exact arithmetic and neither is
    tested, so rounding at a C near the rank cut (where
    ``lambda_max_ratio`` raises NotPSDError) leaves a verdict, not an error.
    """
    return _at(scenario, d)[0]


def check_t34(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs RMLE in scalar MSE: reported bound plus the direct difference.

    ``delta_psd`` here is the scalar check mse(RMLE) - mse(RAULE) >= -slack.
    Under a full restriction (q = m) A = 0, so no a_ii is positive: the
    bound's right side is 0 and ``condition_holds`` is false.
    """
    return _at(scenario, d)[1]


def check_t35(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in the matrix MSE order (necessary and sufficient).

    Applicable when lambda_max(LAL C) <= 1, evaluated literally on the
    product LAL C as the largest eigenvalue of the congruence core
    S'(LAL)S with S = C^{1/2}, which the per-d pass decomposes in its
    stack with Delta3. Then the criterion b1'(C^-1 - LAL)^+ b1 <= 1 is
    equivalent to Delta3 = C^-1 - LAL - b1 b1' being nonnegative definite.
    """
    return _at(scenario, d)[2]


def check_t36(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in scalar MSE: same bound as T3.4, direct difference vs MLE."""
    return _at(scenario, d)[3]


def check_t37(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in the matrix MSE order, claimed to hold always.

    The difference is Delta5 = L (C^-1 - A) L, nonnegative definite
    because C^-1 - A is. The verdict is a verification: ``delta_psd``
    false (beyond the slack) signals a numerical integrity failure, not
    a counterexample.
    """
    return _at(scenario, d)[4]


def check_c31(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in scalar MSE, the trace consequence of the matrix order."""
    return _at(scenario, d)[5]


def check_all(scenario: RiskScenario, d: float) -> list[DominanceVerdict]:
    """All six checks in report order, each through its module name, so
    that a rebinding of any of them sees its verdict here too."""
    checks = (check_t33, check_t34, check_t35, check_t36, check_t37, check_c31)
    return [check(scenario, d) for check in checks]
