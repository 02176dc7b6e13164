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
restricted dispersion kernel. The smoothers come from the estimators'
:func:`smoother_matrix`, on the scenario's cached eigenbasis of C.
R is :func:`restricted_mle`: the RMLE bias projects the truth by the
estimate's own null-space route, and A uses the same null basis of H.

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

from .errors import MissingRestrictionError
from .estimators import RESTRICTED_KINDS, SHRINKAGE_KINDS, EstimatorSpec, smoother_matrix
from .estimators import _check_width, _project, _require_gram
from .linalg import SpectralDecomp, sym_eigen, symmetrize
from .linalg import require_positive_definite
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
    conditioning.

    Raises
    ------
    DimensionMismatchError
        If the restriction's width is not C's dimension.
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    SingularRestrictionGramError
        If H C^-1 H' is rank deficient (redundant restriction rows).
    """
    C = symmetrize(C)
    _check_width(restriction, C.shape[0])
    require_positive_definite(np.linalg.eigvalsh(C), "C")
    _require_gram(C, restriction)
    return _dispersion(C, restriction)


def _dispersion(C: NDArray, restriction: LinearRestriction) -> NDArray:
    """:func:`a_matrix` without its checks on C and H C^-1 H'."""
    null_basis = restriction.null_basis
    core = symmetrize(null_basis.T @ C @ null_basis)
    return symmetrize(null_basis @ np.linalg.solve(core, null_basis.T))


@dataclass(frozen=True)
class RiskScenario:
    """Ground truth for exact risk evaluation.

    Bundles the information matrix C (positive definite), the true
    coefficient vector, and optionally a linear restriction. The kernel
    A, the RMLE bias, the inverse of C, and the spectral decomposition of
    C are computed eagerly and cached, so scenarios are cheap to reuse
    across many estimators and biasing parameters, and immutable afterwards.
    """

    C: NDArray
    beta_true: NDArray
    restriction: LinearRestriction | None = None
    A: NDArray | None = field(init=False, default=None)

    def __post_init__(self):
        C = symmetrize(self.C)
        beta = np.asarray(self.beta_true, dtype=float)
        if beta.shape != (C.shape[0],):
            raise ValueError(
                f"beta_true has shape {beta.shape}, expected ({C.shape[0]},)"
            )
        decomp = sym_eigen(C)
        require_positive_definite(decomp.values, "C")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "beta_true", beta)
        object.__setattr__(self, "_c_inv", symmetrize(np.linalg.inv(C)))
        object.__setattr__(self, "_decomp", decomp)
        if self.restriction is not None:
            if self.restriction.width != C.shape[0]:
                raise ValueError(
                    f"restriction width {self.restriction.width} does not match dim {C.shape[0]}"
                )
            # restricted_mle after its C check: the same test and projection.
            _require_gram(C, self.restriction)
            object.__setattr__(self, "_rmle_bias", _project(C, beta, self.restriction) - beta)
            object.__setattr__(self, "A", _dispersion(C, self.restriction))

    @property
    def m(self) -> int:
        return self.C.shape[0]

    @property
    def c_inv(self) -> NDArray:
        return self._c_inv

    @property
    def decomp(self) -> SpectralDecomp:
        return self._decomp

    def restriction_violated(self) -> bool:
        """Whether the truth fails H beta = h beyond the violation tolerance."""
        if self.restriction is None:
            return False
        gap = self.restriction.H @ self.beta_true - self.restriction.h
        return float(np.max(np.abs(gap))) > RESTRICTION_VIOLATION_TOL

    def _require_restriction(self, what: str) -> LinearRestriction:
        if self.restriction is None:
            raise MissingRestrictionError(f"{what} needs a linear restriction (H, h)")
        return self.restriction

    def rmle_bias(self) -> NDArray:
        """Exact RMLE bias -C^-1 H'(H C^-1 H')^-1 (H beta_true - h), as R(b) - b."""
        self._require_restriction("the restricted MLE")
        return self._rmle_bias.copy()


@dataclass(frozen=True)
class RiskReport:
    """Risk of one estimator at one scenario.

    By construction ``mmse`` equals ``cov`` plus the bias outer product
    and ``mse`` equals the trace of ``mmse``. ``restriction_violated``
    flags reports of restricted kinds whose bias formula assumed a
    restriction that the scenario's truth does not satisfy.
    """

    spec: EstimatorSpec
    cov: NDArray
    bias: NDArray
    mmse: NDArray
    mse: float
    restriction_violated: bool = False


def _assemble(spec, cov, bias, violated) -> RiskReport:
    cov = symmetrize(cov)
    mmse = symmetrize(cov + np.outer(bias, bias))
    mse = float(np.trace(cov) + bias @ bias)
    return RiskReport(
        spec=spec,
        cov=cov,
        bias=bias,
        mmse=mmse,
        mse=mse,
        restriction_violated=violated,
    )


def risk(scenario: RiskScenario, spec: EstimatorSpec) -> RiskReport:
    """Exact risk report for one estimator at the scenario's truth.

    Raises
    ------
    MissingRestrictionError
        If ``spec`` is a restricted kind and the scenario has no restriction.
    """
    beta = scenario.beta_true
    restricted = spec.kind in RESTRICTED_KINDS
    violated = False
    if restricted:
        scenario._require_restriction(f"estimator {spec.kind!r}")
        violated = scenario.restriction_violated()
    if spec.d is None:  # identity smoother: the base itself
        if restricted:
            cov = scenario.A @ scenario.C @ scenario.A
            return _assemble(spec, cov, scenario.rmle_bias(), violated)
        return _assemble(spec, scenario.c_inv, np.zeros(scenario.m), False)
    smoother = smoother_matrix(scenario.decomp, spec)
    dispersion = scenario.A if restricted else scenario.c_inv
    cov = smoother @ dispersion @ smoother
    return _assemble(spec, cov, smoother @ beta - beta, violated)


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
    """Eigenvalues of C with the matching diagonal of T'AT and T'beta."""
    scenario._require_restriction("spectral risk terms")
    dec = scenario.decomp
    a_diag = np.sum(dec.basis * (scenario.A @ dec.basis), axis=0)
    alpha = dec.basis.T @ scenario.beta_true
    return SpectralRiskTerms(dec.values.copy(), a_diag, alpha)


@dataclass(frozen=True)
class SweepRow:
    """One (d, estimator) cell of a risk sweep.

    ``coefficients`` is the mean of the estimator under the linearized
    model, beta_true plus the bias, which is what coefficient tables
    report when fitted quantities stand in for the truth.
    """

    d: float
    kind: str
    mse: float
    coefficients: NDArray
    report: RiskReport


def d_sweep(
    scenario: RiskScenario,
    kinds: Sequence[str],
    d_grid: Sequence[float],
) -> list[SweepRow]:
    """Risk of each requested estimator at every d in the grid.

    Kinds without a biasing parameter (mle, rmle) get one row per d as
    well so tables stay rectangular; those rows are constant in d.
    """
    rows = []
    for d in d_grid:
        d = float(d)
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"d grid values must be in [0, 1], got {d}")
        for kind in kinds:
            spec = EstimatorSpec(kind, d if kind in SHRINKAGE_KINDS else None)
            report = risk(scenario, spec)
            rows.append(
                SweepRow(
                    d=d,
                    kind=spec.kind,
                    mse=report.mse,
                    coefficients=scenario.beta_true + report.bias,
                    report=report,
                )
            )
    return rows
