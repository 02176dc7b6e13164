"""The estimator family: a base (MLE or RMLE) times a smoother.

Each of the six estimators is a base vector times a smoother that is
diagonal on the eigenbasis C = V diag(lam) V' of the information matrix:

=========  =====  ============================  ==========================
kind       base   smoother                      eigenvalues of the smoother
=========  =====  ============================  ==========================
``mle``    MLE    I                             1
``rmle``   RMLE   I                             1
``le``     MLE    F_d = (C+I)^-1 (C+dI)         (lam + d) / (lam + 1)
``rle``    RMLE   F_d                           (lam + d) / (lam + 1)
``aule``   MLE    L_d = I - (1-d)^2 (C+I)^-2    1 - (1-d)^2 / (lam + 1)^2
``raule``  RMLE   L_d                           1 - (1-d)^2 / (lam + 1)^2
=========  =====  ============================  ==========================

RMLE is the MLE projected onto H beta = h in the C metric
(:func:`restricted_mle`, the package's one projection). The biasing
parameter d lives in [0, 1]; both
endpoints are admitted because d = 1 turns every smoother into the
identity, collapsing each shrunken estimator onto its base.

:func:`smoother_factors` alone forms smoother eigenvalues, as a (D, m)
array over a d grid; risk and dominance use it too. The kernel
:func:`shrinkage_estimates` scores kinds x d grid from one fit with one
decomposition of C, one definiteness test, at most one restricted
projection, and each estimate V (factors * V' base).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatchError, MissingRestrictionError
from .linalg import SpectralDecomp, sym_eigen, symmetrize
from .linalg import definiteness_error, positive_definite, require_positive_definite
from .logit import FittedLogit, LinearRestriction

__all__ = [
    "KINDS",
    "SHRINKAGE_KINDS",
    "RESTRICTED_KINDS",
    "EstimatorSpec",
    "Estimate",
    "ld_matrix",
    "liu_matrix",
    "restricted_mle",
    "shrinkage_estimates",
    "estimate",
    "residual",
]

KINDS = ("mle", "rmle", "le", "rle", "aule", "raule")
SHRINKAGE_KINDS = frozenset({"le", "rle", "aule", "raule"})
RESTRICTED_KINDS = frozenset({"rmle", "rle", "raule"})


def _check_request(kinds: Sequence[str], d_grid: Sequence[float] | None = None):
    """The one check of an estimator request, in pure Python so that an
    EstimatorSpec stays cheap: (kinds lowercased, d values as floats).
    ValueError unless there is at least one kind, each in KINDS, and
    (unless ``d_grid`` is None) at least one d, each in [0, 1]."""
    kinds = list(map(str.lower, kinds))
    if not kinds:
        raise ValueError(f"need at least one estimator kind from {KINDS}")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}, expected one of {KINDS}")
    d_values = None if d_grid is None else list(map(float, d_grid))
    if d_values == []:
        raise ValueError("need at least one biasing parameter d in [0, 1]")
    for d in d_values or ():
        if not 0.0 <= d <= 1.0:
            raise ValueError(f"d must be in [0, 1], got {d}")
    return kinds, d_values


@dataclass(frozen=True)
class EstimatorSpec:
    """Tagged choice of estimator, with the biasing parameter where needed.

    ``d`` must be present exactly for the shrinkage kinds and lie in
    [0, 1]. Restricted kinds additionally need a LinearRestriction at
    evaluation time.
    """

    kind: str
    d: float | None = None

    def __post_init__(self):
        (kind,), d = _check_request([self.kind], None if self.d is None else [self.d])
        if kind in SHRINKAGE_KINDS and d is None:
            raise ValueError(f"estimator {kind!r} needs a biasing parameter d")
        if kind not in SHRINKAGE_KINDS and d is not None:
            raise ValueError(f"estimator {kind!r} takes no biasing parameter")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "d", None if d is None else d[0])

    def label(self) -> str:
        if self.d is None:
            return self.kind.upper()
        return f"{self.kind.upper()}(d={self.d:g})"


@dataclass(frozen=True, eq=False)
class Estimate:
    """Coefficient vector produced by one estimator."""

    spec: EstimatorSpec
    beta: NDArray


def ld_factors(eigenvalues: NDArray, d) -> NDArray:
    """Eigenvalues of L_d given the eigenvalues of C: 1 - (1-d)^2/(lam+1)^2."""
    return 1.0 - (1.0 - d) ** 2 / (eigenvalues + 1.0) ** 2


def smoother_factors(kind: str, eigenvalues, d_grid) -> NDArray:
    """Eigenvalues of ``kind``'s smoother for each d in ``d_grid``: shape
    (D, m), or (..., D, m) for a stack of eigenvalue rows (..., m)."""
    lam = np.asarray(eigenvalues, dtype=float)[..., None, :]
    d = np.asarray(d_grid, dtype=float).reshape(-1, 1)
    if kind in ("le", "rle"):
        return (lam + d) / (lam + 1.0)
    if kind in ("aule", "raule"):
        return ld_factors(lam, d)
    return np.ones(lam.shape[:-2] + (d.shape[0], lam.shape[-1]))


def smoother_matrix(decomp: SpectralDecomp, spec: EstimatorSpec) -> NDArray:
    """The smoother of ``spec`` as a matrix, built on C's eigenbasis.

    The spectral route avoids squaring an explicit inverse, which matters
    when C is badly conditioned.
    """
    return _smoothers(decomp, spec.kind, [spec.d])[0]


def _smoothers(decomp: SpectralDecomp, kind: str, d_grid) -> NDArray:
    """``kind``'s smoother at every d of ``d_grid`` as one (D, m, m) stack,
    each member bit for bit the matrix :func:`smoother_matrix` gives."""
    factors = smoother_factors(kind, decomp.values, d_grid)
    return symmetrize((decomp.basis * factors[:, None, :]) @ decomp.basis.T)


def ld_matrix(C, d: float) -> NDArray:
    """Shrinkage operator I - (1-d)^2 (C+I)^-2; positive definite for PSD C."""
    return smoother_matrix(sym_eigen(C), EstimatorSpec("aule", d))


def liu_matrix(C, d: float) -> NDArray:
    """Liu smoother (C+I)^-1 (C+dI), built on C's eigenbasis."""
    return smoother_matrix(sym_eigen(C), EstimatorSpec("le", d))


def _check_width(restriction: LinearRestriction, m: int):
    """The package's one width check: DimensionMismatchError unless H has ``m`` columns."""
    if restriction.width != m:
        raise DimensionMismatchError(
            f"restriction width {restriction.width} does not match coefficient count {m}"
        )


def _project(C: NDArray, beta: NDArray, restriction: LinearRestriction) -> NDArray:
    """beta_0 + N (N'CN)^-1 N'C (beta - beta_0) for positive definite C, with
    N and beta_0 = H^+ h from the restriction: H beta_R = h to rounding.
    N'CN is positive definite whenever C is (N has orthonormal columns), so
    this needs no test beyond C's and the rank test of LinearRestriction.
    Row by row for a stack, C (R, m, m) and beta (R, m)."""
    N, beta0 = restriction.null_basis, restriction.particular
    cn = C @ N
    rhs = cn.swapaxes(-1, -2) @ (beta - beta0)[..., None]
    return beta0 + (N @ np.linalg.solve(symmetrize(N.T @ cn), rhs))[..., 0]


def restricted_mle(C, beta_mle, restriction: LinearRestriction) -> NDArray:
    """Project the MLE onto the restriction set in the C metric.

    Returns beta - C^-1 H' (H C^-1 H')^-1 (H beta - h), the minimizer of
    the weighted least squares objective subject to H beta = h, computed
    on the restriction's null space so that H beta_R = h holds to rounding
    at any conditioning of C, where the subtraction form loses digits.
    It exists for every positive definite C and every H that
    LinearRestriction accepts, however close H C^-1 H' is to singular.

    C is read through its symmetric part, as :func:`a_matrix` reads it.

    Raises
    ------
    InvalidMatrixError
        If C is not square or has non-finite entries.
    DimensionMismatchError
        If the restriction's width is not C's dimension.
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    """
    C = symmetrize(C)
    _check_width(restriction, C.shape[0])
    require_positive_definite(np.linalg.eigvalsh(C), "C")
    return _project(C, np.asarray(beta_mle, dtype=float), restriction)


def shrinkage_estimates(
    fit: FittedLogit,
    kinds: Sequence[str],
    d_grid: Sequence[float],
    restriction: LinearRestriction | None = None,
) -> NDArray:
    """Every kind in ``kinds`` at every d in ``d_grid``: shape (K, D, m).

    ``fit`` may also be a stack of R fits, as :func:`irls_stack` returns
    them (``beta_mle`` (R, m), ``C`` (R, m, m)); the result is then
    (R, K, D, m), and each row is bit for bit what its fit gives alone.
    The stack is scored at once: one batched decomposition of C, one
    definiteness test per row, at most one restricted projection per row.
    The unshrunken kinds repeat their base along the d axis. C is read
    through its symmetric part, in the decomposition and the projection.

    Kinds are case-insensitive, as in :class:`EstimatorSpec`.

    Raises ValueError first, before any test of C, if ``kinds`` or
    ``d_grid`` is empty, a kind is unknown or a d lies outside [0, 1].
    Then the kinds are checked in order, and the first that fails decides
    the error: for restricted kinds MissingRestrictionError, then
    DimensionMismatchError; C is tested for SingularInformationError at
    the first kind that passes these. A stack raises the error of its
    first row that fails.
    """
    kinds, d_values = _check_request(kinds, d_grid)
    d = np.array(d_values)
    C = np.asarray(fit.C, dtype=float)
    beta = np.asarray(fit.beta_mle, dtype=float)
    single = beta.ndim == 1
    if single:
        C, beta = C[None], beta[None]
    rows, m = beta.shape
    # Restriction errors are every row's, so row 0 raises them, unless an
    # unrestricted kind before the first restricted one fails row 0's C.
    first = next((kind for kind in kinds if kind in RESTRICTED_KINDS), None)
    try:
        if first is not None and restriction is None:
            raise MissingRestrictionError(f"estimator {first!r} needs a linear restriction (H, h)")
        if first is not None:
            _check_width(restriction, m)
    except (MissingRestrictionError, DimensionMismatchError):
        if rows and kinds[0] != first:
            require_positive_definite(sym_eigen(C[:1]).values[0], "C")
        raise
    C = symmetrize(C)
    decomp = sym_eigen(C)
    ok = positive_definite(decomp.values)
    if not ok.all():
        raise definiteness_error(decomp.values[np.argmin(ok)], "C")
    rmle = _project(C, beta, restriction) if first is not None else None
    out = np.empty((rows, len(kinds), d.size, m))
    for i, kind in enumerate(kinds):
        base = rmle if kind in RESTRICTED_KINDS else beta
        if kind in SHRINKAGE_KINDS:
            basis_t = decomp.basis.swapaxes(-1, -2)
            coords = (basis_t @ base[..., None])[..., None, :, 0]
            out[:, i] = (smoother_factors(kind, decomp.values, d) * coords) @ basis_t
        else:
            out[:, i] = base[:, None]
    return out[0] if single else out


def estimate(
    fit: FittedLogit,
    spec: EstimatorSpec,
    restriction: LinearRestriction | None = None,
) -> Estimate:
    """Evaluate one estimator: one cell of :func:`shrinkage_estimates`, same errors."""
    d = 1.0 if spec.d is None else spec.d  # the unshrunken kinds ignore d
    beta = shrinkage_estimates(fit, [spec.kind], [d], restriction)[0, 0]
    return Estimate(spec, beta)


def residual(restriction: LinearRestriction, est: Estimate) -> NDArray:
    """Restriction residual H beta - h for an estimate."""
    beta = np.asarray(est.beta, dtype=float)
    _check_width(restriction, beta.shape[0])
    return restriction.H @ beta - restriction.h
