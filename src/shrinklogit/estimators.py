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

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatchError, MissingRestrictionError
from .linalg import SpectralDecomp, _eigh, _sym, require_positive_definite, sym_eigen, symmetrize
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
    (unless ``d_grid`` is None) at least one d, each in [0, 1]. The types
    are checked first: a bare string or number in place of either
    sequence, a kind that is not a string and a d that is not a real
    number (a bool is not one) are each a ValueError too."""
    if isinstance(kinds, (str, numbers.Number)):
        raise ValueError(f"estimator kinds must be a sequence of names, got {kinds!r}")
    if isinstance(d_grid, (str, numbers.Number)):
        raise ValueError(f"d values must be a sequence of numbers, got {d_grid!r}")
    kinds, d_values = list(kinds), None if d_grid is None else list(d_grid)
    for kind in kinds:
        if not isinstance(kind, str):
            raise ValueError(f"estimator kind must be a string, got {kind!r}")
    for d in d_values or ():  # float and int first: the ABC check alone takes about 0.7 us
        if isinstance(d, bool) or not isinstance(d, (float, int, numbers.Real)):
            raise ValueError(f"d must be a real number, got {d!r}")
    kinds = [kind.lower() for kind in kinds]
    if not kinds:
        raise ValueError(f"need at least one estimator kind from {KINDS}")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}, expected one of {KINDS}")
    if d_values == []:
        raise ValueError("need at least one biasing parameter d in [0, 1]")
    if d_values is not None:
        d_values = list(map(float, d_values))
        for d in d_values:
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


def _smoothers(decomp: SpectralDecomp, kind: str, d_grid) -> NDArray:
    """``kind``'s smoother at every d of ``d_grid`` as one (D, m, m) stack,
    built on C's eigenbasis: the one route to a smoother matrix, for
    :func:`ld_matrix`, :func:`liu_matrix`, risk and dominance. The
    spectral route avoids squaring an explicit inverse, which matters
    when C is badly conditioned."""
    factors = smoother_factors(kind, decomp.values, d_grid)
    return _sym((decomp.basis * factors[:, None, :]) @ decomp.basis.T)


def ld_matrix(C, d: float) -> NDArray:
    """Shrinkage operator I - (1-d)^2 (C+I)^-2; positive definite for PSD C."""
    _, d_grid = _check_request(["aule"], [d])
    return _smoothers(sym_eigen(C), "aule", d_grid)[0]


def liu_matrix(C, d: float) -> NDArray:
    """Liu smoother (C+I)^-1 (C+dI), built on C's eigenbasis."""
    _, d_grid = _check_request(["le"], [d])
    return _smoothers(sym_eigen(C), "le", d_grid)[0]


def _check_width(restriction: LinearRestriction, m: int):
    """The package's one width check, which every door reaches before it
    reads a restriction: ValueError unless it is a LinearRestriction, then
    DimensionMismatchError unless H has ``m`` columns."""
    if not isinstance(restriction, LinearRestriction):
        raise ValueError(f"restriction must be a LinearRestriction, got {type(restriction).__name__}")
    if restriction.width != m:
        raise DimensionMismatchError(
            f"restriction width {restriction.width} does not match coefficient count {m}"
        )


def _check_restriction(kinds, restriction: LinearRestriction | None, m: int, who: str | None = None):
    """The restriction half of a request, checked before any test of C: a
    given restriction must be ``m`` wide, used or not; a missing one is the
    package's one MissingRestrictionError, naming ``who`` needs it (a caller
    that needs it whatever the kinds) or else the first restricted kind.
    Returns the restriction if it is needed, else None."""
    if who is None:
        who = next((f"estimator {kind!r}" for kind in kinds if kind in RESTRICTED_KINDS), None)
    if restriction is not None:
        _check_width(restriction, m)
    elif who is not None:
        raise MissingRestrictionError(f"{who} needs a linear restriction (H, h)")
    return None if who is None else restriction


def _information(C, beta=None, what: str = "beta", restriction: LinearRestriction | None = None):
    """The one door for a caller's C (or stack of C), beta and restriction,
    checked in this order: C is read through :func:`symmetrize`; beta must
    have shape ``C.shape[:-1]`` and be finite (errors naming ``what``); the
    restriction must be as wide as C. Only then is C decomposed, once, and
    tested. Returns (C, its decomposition)."""
    C = symmetrize(C, "C")
    if beta is not None:
        if np.shape(beta) != C.shape[:-1]:
            raise DimensionMismatchError(f"{what} has shape {np.shape(beta)}, expected {C.shape[:-1]}")
        if not np.all(np.isfinite(beta)):
            raise ValueError(f"{what} has non-finite entries")
    if restriction is not None:
        _check_width(restriction, C.shape[-1])
    decomp = _eigh(C)
    require_positive_definite(decomp.values, "C")
    return C, decomp


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

    C is read through its symmetric part, as :func:`a_matrix` reads it. A
    stack of C (R, m, m) with ``beta_mle`` (R, m) is projected row by row.

    Raises
    ------
    InvalidMatrixError
        If C is not square or has non-finite entries.
    DimensionMismatchError
        If ``beta_mle`` or the restriction is not as wide as C.
    ValueError
        If ``beta_mle`` has non-finite entries.
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    """
    beta = np.asarray(beta_mle, dtype=float)
    C, _ = _information(C, beta, "beta_mle", restriction)
    return _project(C, beta, restriction)


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

    The request (kinds, d, the restriction) is checked before C, then C,
    beta and C's definiteness at :func:`_information`; a single fit's
    errors give its own (m,) and (m, m) shapes.

    Raises
    ------
    ValueError
        If ``kinds`` or ``d_grid`` is empty, a kind is unknown or a d lies
        outside [0, 1], or ``beta_mle`` has non-finite entries.
    MissingRestrictionError
        If a kind is restricted and ``restriction`` is None.
    DimensionMismatchError
        If ``restriction`` is not as wide as ``beta_mle``, or ``beta_mle``
        is not as wide as C.
    InvalidMatrixError
        If C is not square or has non-finite entries.
    SingularInformationError
        For the first row whose C is not positive definite.
    """
    kinds, d = _check_request(kinds, d_grid)
    beta = np.asarray(fit.beta_mle, dtype=float)
    restriction = _check_restriction(kinds, restriction, beta.shape[-1] if beta.ndim else 0)
    C, decomp = _information(fit.C, beta, "beta_mle")
    return _score(C, decomp, beta, kinds, d, restriction)


def _score(C, decomp: SpectralDecomp, beta, kinds, d, restriction) -> NDArray:
    """:func:`shrinkage_estimates` of a checked request on a positive definite
    C (or stack) with its decomposition, and ``beta`` as wide as C; the
    restriction is read only if a kind is restricted."""
    rmle = _project(C, beta, restriction) if RESTRICTED_KINDS.intersection(kinds) else None
    out = np.empty(beta.shape[:-1] + (len(kinds), len(d), beta.shape[-1]))
    for i, kind in enumerate(kinds):
        base = rmle if kind in RESTRICTED_KINDS else beta
        if kind in SHRINKAGE_KINDS:
            basis_t = decomp.basis.swapaxes(-1, -2)
            coords = (basis_t @ base[..., None])[..., None, :, 0]
            out[..., i, :, :] = (smoother_factors(kind, decomp.values, d) * coords) @ basis_t
        else:
            out[..., i, :, :] = base[..., None, :]
    return out


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
