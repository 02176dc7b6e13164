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
T3.3 takes ACA from the RMLE report's covariance.

Each theorem has one route, its ``check_*`` function, and
:func:`check_all` runs the six by name. What they share is built once, on
first use, and kept by the scenario in two lifetimes. What does not
depend on d (ACA's PSD test, pseudo-inverse and congruence, C^{1/2},
C^-1 - A, the scalar conditions' parts) is kept for the scenario's life.
What does is built in one pass at a new d, whichever check asks first,
and kept in one per-d slot for the last d asked: a new d (and the
restriction) is checked before anything is built, and its pass then
replaces the slot, so memory does not grow with the number of d. The
pass forms L, and the RAULE and AULE reports from it, then makes two
stacked decompositions:

* one ``eigh`` of (D1, D3) = (ACA - LAL, C^-1 - LAL), which gives both
  pseudo-inverses of the lemma tests;
* one ``eigvalsh`` of (LAL, Delta1, Delta3, Delta5, the T3.5 core
  C^{1/2}' LAL C^{1/2}), which gives every PSD witness and T3.5's
  lambda_max(LAL C).

Only T3.3's congruence core, (m - q) wide, has its own ``eigvalsh``. The
check functions then read the slot and assemble their verdicts. NumPy
decomposes each member of a stack as it decomposes it alone, and D1, D3,
Delta1 and Delta3 are exactly symmetric as formed, so every verdict is
bit for bit what the public primitives give one matrix at a time
(``is_psd``, ``moore_penrose``, ``in_range``, ``lambda_max_ratio``).
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

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .estimators import _check_request, _check_restriction, _smoothers
from .linalg import PSD_SLACK, PsdResult, _eigh, _read_only, in_range_with_pinv, is_psd
from .linalg import _congruence, _kept, _pinv, _psd, _ratio, _require_psd, _sym, sym_eigen
from .risk import RiskReport, RiskScenario, _reports, spectral_risk_terms

# No longer called here, but kept bound: perfbench's traced run rebinds
# them by name (ROADMAP item 1), and tests/test_perfbench_names.py checks
# that each still resolves.
from .linalg import in_range, lambda_max_ratio, moore_penrose  # noqa: F401
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


def _part(scenario: RiskScenario, build):
    """``build(scenario)``, kept by the scenario from its first use on."""
    if build not in scenario._parts:
        scenario._parts[build] = build(scenario)
    return scenario._parts[build]


def _aca_parts(scenario: RiskScenario):
    """ACA's PSD test, Moore-Penrose inverse and lambda_max_ratio congruence."""
    dec = sym_eigen(scenario._rmle.cov)
    return is_psd(scenario._rmle.cov), _read_only(_pinv(dec)), _read_only(_congruence(dec))


def _c_half(scenario: RiskScenario) -> NDArray:
    return _read_only(scenario.decomp.basis * np.sqrt(np.maximum(scenario.decomp.values, 0.0)))


def _c_inv_minus_a(scenario: RiskScenario) -> NDArray:
    return _read_only(scenario.c_inv - scenario.A)


def _scalar_parts(scenario: RiskScenario):
    """lam_1, min_i a_ii over the a_ii that ``_kept`` keeps (inf when there are
    none), max_i alpha_i^2 and the right side of the scalar conditions."""
    terms = spectral_risk_terms(scenario)
    positive = _kept(terms.a_diag)
    min_positive_a = float(np.min(terms.a_diag[positive], initial=np.inf))
    max_alpha_sq = float(np.max(terms.alpha**2))
    return float(terms.eigenvalues[0]), min_positive_a, max_alpha_sq, max_alpha_sq / min_positive_a


class _Lemma(NamedTuple):
    """The T3.3/T3.5 lemma test for D = dispersion - LAL: whether b1 lies in
    range(D), b1' D^+ b1, and the PSD test of Delta = D - b1 b1'."""

    bias_in_range: bool
    quadratic_form: float
    delta: PsdResult


class _PerD(NamedTuple):
    """What the six checks read at one d."""

    raule: RiskReport
    aule: RiskReport
    bias_norm: float  # |b1|
    lal: PsdResult  # T3.3's numerator test
    ratio: float  # T3.3: lambda_max(LAL (ACA)^+)
    range_inclusion: bool  # T3.3: range(LAL) in range(ACA)
    product: float  # T3.5: lambda_max(LAL C)
    t33: _Lemma  # on D1 = ACA - LAL
    t35: _Lemma  # on D3 = C^-1 - LAL
    delta5: PsdResult  # T3.7


def _at(scenario: RiskScenario, d: float) -> _PerD:
    """The per-d pass at d, kept in the scenario's one per-d slot. A d other
    than the slot's is checked first, with the restriction, and its pass
    replaces the slot."""
    kept_d, per_d = scenario._parts.get(_at, (None, None))
    if d != kept_d:
        kinds, (d,) = _check_request(["raule", "aule"], [d])
        _check_restriction(kinds, scenario.restriction, scenario.m)
        per_d = _pass(scenario, d)
        scenario._parts[_at] = (d, per_d)
    return per_d


def _pass(scenario: RiskScenario, d: float) -> _PerD:
    """Everything the checks read at d, in the one pass the module
    docstring describes. Delta5 and the T3.5 core are symmetrized; the other
    members of the stacks are exactly symmetric as formed."""
    L = _smoothers(scenario.decomp, "raule", [d])
    (raule,) = _reports(scenario, "raule", [d], L)
    (aule,) = _reports(scenario, "aule", [d], L)
    lal, b1 = raule.cov, raule.bias
    _, aca_pinv, congruence = _part(scenario, _aca_parts)
    c_half = _part(scenario, _c_half)
    differences = np.subtract((scenario._rmle.cov, scenario.c_inv), lal)
    delta5 = L[0] @ _part(scenario, _c_inv_minus_a) @ L[0]
    core = c_half.T @ lal @ c_half
    spectra = np.linalg.eigvalsh(
        np.concatenate([lal[None], differences - np.outer(b1, b1), _sym(np.stack([delta5, core]))])
    )
    lal_psd, delta1_psd, delta3_psd, delta5_psd = map(_psd, spectra[:4, 0].tolist())
    pinvs = _pinv(_eigh(differences))
    t33, t35 = (
        _Lemma(in_range_with_pinv(b1, difference, pinv), float(b1 @ pinv @ b1), psd)
        for difference, pinv, psd in zip(differences, pinvs, (delta1_psd, delta3_psd))
    )
    return _PerD(
        raule=raule,
        aule=aule,
        bias_norm=float(np.linalg.norm(b1)),
        lal=lal_psd,
        ratio=_ratio(lal, congruence),
        range_inclusion=in_range_with_pinv(lal, scenario._rmle.cov, aca_pinv),
        product=float(max(spectra[4, -1], 0.0)),
        t33=t33,
        t35=t35,
        delta5=delta5_psd,
    )


def _matrix_verdict(theorem, d, at: _PerD, lemma: _Lemma, applicable, side) -> DominanceVerdict:
    """A T3.3/T3.5 verdict from its lemma test; ``side`` holds the
    applicability witnesses."""
    qform = lemma.quadratic_form
    return DominanceVerdict(
        theorem=theorem,
        applicable=applicable,
        condition_holds=lemma.bias_in_range and qform <= 1.0 + PSD_SLACK,
        delta_psd=lemma.delta.ok,
        lhs=qform,
        rhs=1.0,
        witnesses={
            "d": float(d),
            **side,
            "bias_in_range": float(lemma.bias_in_range),
            "quadratic_form": qform,
            "bias_norm": at.bias_norm,
            "delta_min_eigenvalue": lemma.delta.min_eigenvalue,
        },
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
    (ACA - LAL)^+ come from the per-d pass, which also gives the
    PSD witnesses of LAL and Delta1.
    """
    at = _at(scenario, d)
    _require_psd(numerator=at.lal)
    _require_psd(denominator=_part(scenario, _aca_parts)[0])
    applicable = bool(at.ratio <= 1.0 + PSD_SLACK and at.range_inclusion)
    side = {"lambda_max_ratio": at.ratio, "range_inclusion": float(at.range_inclusion)}
    return _matrix_verdict("T3.3", d, at, at.t33, applicable, side)


def _scalar_verdict(theorem, scenario, d, baseline_kind) -> DominanceVerdict:
    raule = _at(scenario, d).raule
    lam1, min_a, max_alpha_sq, rhs = _part(scenario, _scalar_parts)
    lhs = np.inf if d == 1.0 else (lam1 + d) * (lam1 + 2.0 - d) / (1.0 - d) ** 2
    baseline = scenario._rmle if baseline_kind == "rmle" else scenario._mle
    delta = baseline.mse - raule.mse
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
    Under a full restriction (q = m) A = 0, so no a_ii is positive: the
    bound's right side is 0 and ``condition_holds`` is false.
    """
    return _scalar_verdict("T3.4", scenario, d, "rmle")


def check_t35(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in the matrix MSE order (necessary and sufficient).

    Applicable when lambda_max(LAL C) <= 1, evaluated literally on the
    product LAL C as the largest eigenvalue of the congruence core
    S'(LAL)S with S = C^{1/2}, which the per-d pass decomposes in its
    stack with Delta3. Then the criterion b1'(C^-1 - LAL)^+ b1 <= 1 is
    equivalent to Delta3 = C^-1 - LAL - b1 b1' being nonnegative definite.
    """
    at = _at(scenario, d)
    applicable = bool(at.product <= 1.0 + PSD_SLACK)
    return _matrix_verdict("T3.5", d, at, at.t35, applicable, {"lambda_max_product": at.product})


def check_t36(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs MLE in scalar MSE: same bound as T3.4, direct difference vs MLE."""
    return _scalar_verdict("T3.6", scenario, d, "mle")


def check_t37(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in the matrix MSE order, claimed to hold always.

    The difference is Delta5 = L (C^-1 - A) L, nonnegative definite
    because C^-1 - A is. The verdict is a verification: ``delta_psd``
    false (beyond the slack) signals a numerical integrity failure, not
    a counterexample.
    """
    psd = _at(scenario, d).delta5
    return DominanceVerdict(
        theorem="T3.7",
        applicable=True,
        condition_holds=True,
        delta_psd=psd.ok,
        witnesses={"d": float(d), "delta_min_eigenvalue": psd.min_eigenvalue},
    )


def check_c31(scenario: RiskScenario, d: float) -> DominanceVerdict:
    """RAULE vs AULE in scalar MSE, the trace consequence of the matrix order."""
    at = _at(scenario, d)
    delta = at.aule.mse - at.raule.mse
    return DominanceVerdict(
        theorem="C3.1",
        applicable=True,
        condition_holds=True,
        delta_psd=bool(delta >= -PSD_SLACK),
        witnesses={"d": float(d), "delta_mse": float(delta)},
    )


def check_all(scenario: RiskScenario, d: float) -> list[DominanceVerdict]:
    """All six checks in report order, each through its module name, so
    that a rebinding of any of them sees its verdict here too."""
    checks = (check_t33, check_t34, check_t35, check_t36, check_t37, check_c31)
    return [check(scenario, d) for check in checks]
