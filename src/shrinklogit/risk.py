"""Exact bias, covariance, and mean squared error at known truth.

Risk is evaluated under the linearized sampling model in which the MLE
is normal with mean beta_true and covariance C^-1. Every estimator in
the family is a fixed affine map of the MLE, so its covariance, bias,
matrix MSE (covariance plus bias outer product), and scalar MSE (the
trace of the matrix MSE) all have closed forms:

===========  =======================  =============================
kind         covariance               bias
===========  =======================  =============================
mle          C^-1                     0
rmle         A C A                    R(b) - b
le           F C^-1 F                 (F - I) b
rle          F A F                    (F - I) b
aule         L C^-1 L                 (L - I) b
raule        L A L                    (L - I) b
===========  =======================  =============================

with b = beta_true, L the shrinkage operator of :func:`ld_matrix`,
F the Liu smoother, and A = C^-1 - C^-1 H'(H C^-1 H')^-1 H C^-1 the
restricted dispersion kernel. The smoothers are built by the estimators'
``_smoothers``, on the scenario's cached eigenbasis of C.
R is :func:`restricted_mle`: the RMLE bias projects the truth by the
estimate's own null-space route, and A uses the same null basis of H.
A :class:`RiskReport` stores the covariance and the bias, and the scalar
MSE formed once from them; its matrix MSE is formed when read.

What does not depend on d (C^-1, the eigenbasis of C, A, the MLE and
RMLE reports and the spectral terms) is built once per scenario and
shared by every caller, so all of it is read-only. A shrunken kind is
scored over a d grid as one (D, m, m) stack of smoothers, built once
per sweep for the kinds that apply it (F_d for LE and RLE, L_d for AULE
and RAULE); :func:`risk` is one cell of :func:`d_sweep`, and a stack's
members are bit for bit what it gives. Every door that takes a scenario
makes one call, ``_check_scenario``, before it reads it.

The restricted shrinkage rows use the bias form that assumes the
restriction holds at the truth. When it does not, the report carries
``restriction_violated=True``; the RMLE row is the exception and always
uses its exact bias under the linearized model, which vanishes when the
restriction is satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidMatrixError
from .estimators import RESTRICTED_KINDS, SHRINKAGE_KINDS, EstimatorSpec
from .estimators import _NO_D, _SMOOTHER, _check_request, _check_restriction, _check_spec, _information, _project, _smoothers
from .linalg import SpectralDecomp, _read_only, _sym, symmetrize
from .logit import LinearRestriction

__all__ = [
    "RiskScenario",
    "RiskReport",
    "SpectralRiskTerms",
    "SweepRow",
    "a_matrix",
    "risk",
    "spectral_risk_terms",
    "d_sweep",
]

#: Restriction residuals larger than this mark the truth as violating H b = h.
RESTRICTION_VIOLATION_TOL = 1e-8


def a_matrix(C, restriction: LinearRestriction) -> NDArray:
    """Restricted dispersion kernel A = C^-1 - C^-1 H'(H C^-1 H')^-1 H C^-1.

    A is nonnegative definite with rank m - q: it is the covariance of
    the restricted MLE, which has no variance along the q directions
    pinned by the restriction.

    Computed through the equivalent null-space form N (N'CN)^-1 N', with
    N the restriction's ``null_basis``. The subtraction form loses the
    rank structure to cancellation once C's condition number approaches
    1/RANK_CUT; the null-space form annihilates range(H') exactly, so
    the q zero eigenvalues stay at machine precision regardless of
    conditioning. N'CN is positive definite whenever C is, so A exists
    for every H that LinearRestriction accepts, even where H C^-1 H' is
    numerically singular and the subtraction form cannot be evaluated.
    A stack of C (R, m, m) gives the stack of their kernels.

    Raises
    ------
    InvalidMatrixError
        If C is not a square array of finite real numbers, or if A
        overflows (C's smallest eigenvalue is subnormal).
    ValueError
        If the restriction is not a LinearRestriction (None too).
    DimensionMismatchError
        If the restriction's width is not C's dimension.
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    """
    C, _, _ = _information(C, restriction=restriction)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        return _dispersion(C, restriction)


def _dispersion(C: NDArray, restriction: LinearRestriction) -> NDArray:
    """:func:`a_matrix` without its checks: C must be positive definite
    and the restriction as wide as C. The kernel is still checked: like
    C^-1 it overflows when C's smallest eigenvalue is subnormal. A's norm is
    at most C^-1's, so where C^-1 was formed and checked first A does not
    overflow and its product raises no floating point warning."""
    null_basis = restriction.null_basis
    core = _sym(null_basis.T @ C @ null_basis)
    return symmetrize(null_basis @ np.linalg.solve(core, null_basis.T), "the kernel A")


@dataclass(frozen=True, eq=False)
class RiskScenario:
    """Ground truth for exact risk evaluation.

    Bundles the information matrix C (positive definite), the true
    coefficient vector (finite), and optionally a linear restriction.
    What does not depend on d is built once, at construction: the spectral
    decomposition and inverse of C, the MLE report, and with a
    restriction the kernel A, the RMLE report and the
    :class:`SpectralRiskTerms`. C and beta_true are copied from the
    caller and every array held is read-only, so none of it goes stale.

    Raises
    ------
    InvalidMatrixError
        If C is not one square array of finite real numbers, or if C^-1
        overflows (C's smallest eigenvalue is subnormal).
    DimensionMismatchError
        If ``beta_true`` or the restriction is not as wide as C.
    ValueError
        If ``beta_true`` is not an array of finite real numbers, or a given
        restriction is not a LinearRestriction.
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    """

    C: NDArray
    beta_true: NDArray
    restriction: LinearRestriction | None = None
    A: NDArray | None = field(init=False, default=None)

    def __post_init__(self):
        C, beta, decomp = _information(self.C, self.beta_true, "beta_true", self.restriction, kinds=())
        if C.ndim != 2:  # the door also reads a stack of C
            raise InvalidMatrixError(f"expected a square matrix, got shape {C.shape}")
        beta = beta.copy()  # the door may hand back the caller's own array
        decomp = SpectralDecomp(_read_only(decomp.values), _read_only(decomp.basis))
        object.__setattr__(self, "C", _read_only(C))
        object.__setattr__(self, "beta_true", _read_only(beta))
        object.__setattr__(self, "_decomp", decomp)
        c_inv = symmetrize(np.linalg.inv(C), "C^-1")  # checked: it overflows when C's smallest eigenvalue is subnormal
        object.__setattr__(self, "_mle", RiskReport(c_inv, np.zeros(self.m)))
        if self.restriction is not None:
            A = _dispersion(C, self.restriction)
            gap = self.restriction.H @ beta - self.restriction.h
            violated = float(np.max(np.abs(gap))) > RESTRICTION_VIOLATION_TOL
            bias = _project(C, beta, self.restriction) - beta
            rmle = RiskReport(_sym(A @ C @ A), bias, violated)
            a_diag = np.sum(decomp.basis * (A @ decomp.basis), axis=0)
            terms = SpectralRiskTerms(decomp.values, _read_only(a_diag), _read_only(decomp.basis.T @ beta))
            object.__setattr__(self, "A", _read_only(A))
            object.__setattr__(self, "_rmle", rmle)
            object.__setattr__(self, "_terms", terms)

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def c_inv(self) -> NDArray:
        return self._mle.cov

    @property
    def decomp(self) -> SpectralDecomp:
        return self._decomp

    def restriction_violated(self) -> bool:
        """Whether the truth fails H beta = h beyond the violation tolerance."""
        return self.restriction is not None and self._rmle.restriction_violated

    def rmle_bias(self) -> NDArray:
        """Exact RMLE bias -C^-1 H'(H C^-1 H')^-1 (H beta_true - h), as R(b) - b."""
        _check_scenario(self, ["rmle"])
        return self._rmle.bias


#: The class under a name that perfbench's traced run does not rebind: it
#: replaces ``RiskScenario`` in this module with a plain function.
_RiskScenario = RiskScenario


def _check_scenario(scenario, kinds, d_grid=_NO_D):
    """The one door of a scenario and its request: ValueError unless it is a
    :class:`RiskScenario`, then ``_check_request`` (with ``d_grid`` if given)
    and the restriction half on the scenario's restriction. Returns the
    checked request, as ``_check_request`` does."""
    if not isinstance(scenario, _RiskScenario):
        raise ValueError(f"scenario must be a RiskScenario, got {type(scenario).__name__}")
    kinds, d_values = _check_request(kinds, d_grid)
    _check_restriction(kinds, scenario.restriction, scenario.m)
    return kinds, d_values


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Risk of one estimator at one scenario.

    The covariance and bias are stored read-only, because the MLE and
    RMLE reports of a scenario are shared. ``mse``, the trace of the
    matrix MSE, is set once from them at construction; ``mmse`` (the
    covariance plus the bias outer product) is formed when read.
    ``restriction_violated`` flags reports of restricted kinds whose
    bias formula assumed a restriction that the scenario's truth does
    not satisfy.
    """

    cov: NDArray
    bias: NDArray
    restriction_violated: bool = False
    mse: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "cov", _read_only(self.cov))
        object.__setattr__(self, "bias", _read_only(self.bias))
        object.__setattr__(self, "mse", float(np.trace(self.cov) + self.bias @ self.bias))

    @property
    def mmse(self) -> NDArray:
        return self.cov + np.outer(self.bias, self.bias)


def risk(scenario: RiskScenario, spec: EstimatorSpec) -> RiskReport:
    """Exact risk report for one estimator at the scenario's truth: one
    cell of :func:`d_sweep`. The unshrunken kinds return the scenario's
    own MLE or RMLE report.

    Raises
    ------
    ValueError
        If ``spec`` is not an EstimatorSpec, or ``scenario`` is not a
        :class:`RiskScenario`.
    MissingRestrictionError
        If ``spec`` is a restricted kind and the scenario has no restriction.
    """
    _check_spec(spec)
    return d_sweep(scenario, [spec.kind], [1.0 if spec.d is None else spec.d])[0].report


def _reports(scenario: RiskScenario, kind: str, d_grid, smoothers: NDArray | None) -> list[RiskReport]:
    """Reports of ``kind`` at every d of ``d_grid``. An unshrunken kind
    repeats the scenario's MLE or RMLE report (``smoothers`` is None). A
    shrunken kind is scored from its smoothers S, the (D, m, m) stack at
    ``d_grid``: covariances S D S (D = A or C^-1) and biases S b - b. The
    caller has checked the request, so a restricted kind has its restriction."""
    restricted = kind in RESTRICTED_KINDS
    if kind not in SHRINKAGE_KINDS:  # identity smoother: the base itself
        return [scenario._rmle if restricted else scenario._mle] * len(d_grid)
    beta = scenario.beta_true
    covs = _sym(smoothers @ (scenario.A if restricted else scenario.c_inv) @ smoothers)
    violated = restricted and scenario.restriction_violated()
    return [RiskReport(cov, bias, violated) for cov, bias in zip(covs, smoothers @ beta - beta)]


class SpectralRiskTerms(NamedTuple):
    """Eigen-aligned ingredients of the scalar risk formulas.

    ``eigenvalues`` are the eigenvalues of C in descending order,
    ``a_diag`` the diagonal of T'AT, and ``alpha`` the coordinates T'b
    of the true coefficients, all in the same eigenvector order. Within
    a repeated eigenspace the individual entries of ``a_diag`` and
    ``alpha`` depend on the basis choice; only basis-independent
    aggregates (sums, traces, the risk itself) are contractual.
    """

    eigenvalues: NDArray
    a_diag: NDArray
    alpha: NDArray


def spectral_risk_terms(scenario: RiskScenario) -> SpectralRiskTerms:
    """Eigenvalues of C with the matching diagonal of T'AT and T'beta,
    as the scenario built them: the ingredients of the RAULE's scalar risk."""
    _check_scenario(scenario, ["raule"])
    return scenario._terms


@dataclass(frozen=True, eq=False)
class SweepRow:
    """One (d, estimator) cell of a risk sweep.

    ``coefficients`` is the mean of the estimator under the linearized
    model, beta_true plus the bias, which is what coefficient tables
    report when fitted quantities stand in for the truth.
    """

    d: float
    kind: str
    report: RiskReport
    beta_true: NDArray = field(repr=False)

    @property
    def mse(self) -> float:
        return self.report.mse

    @property
    def coefficients(self) -> NDArray:
        return self.beta_true + self.report.bias


def d_sweep(
    scenario: RiskScenario,
    kinds: Sequence[str],
    d_grid: Sequence[float],
) -> list[SweepRow]:
    """Risk of each requested estimator at every d in the grid.

    Kinds are case-insensitive, as in :class:`EstimatorSpec`. Kinds
    without a biasing parameter (mle, rmle) get one row per d as well so
    tables stay rectangular; those rows share one report. Each smoother
    is built once, as one (D, m, m) stack over the grid, and shared by
    the kinds that apply it: F_d by LE and RLE, L_d by AULE and RAULE.
    ValueError for a scenario that is not a :class:`RiskScenario`, no
    kinds, no d, an unknown kind or a d outside [0, 1], and
    MissingRestrictionError for a restricted kind with no restriction.
    """
    kinds, d_grid = _check_scenario(scenario, kinds, d_grid)
    families = dict.fromkeys(_SMOOTHER[kind] for kind in kinds if kind in _SMOOTHER)
    stacks = {family: _smoothers(scenario.decomp, family, d_grid) for family in families}
    columns = [_reports(scenario, kind, d_grid, stacks.get(_SMOOTHER.get(kind))) for kind in kinds]
    beta = scenario.beta_true
    return [SweepRow(d, kind, column[j], beta) for j, d in enumerate(d_grid) for kind, column in zip(kinds, columns)]
