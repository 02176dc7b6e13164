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
from .linalg import SpectralDecomp, _eigh, _real_array, _sym, require_positive_definite, sym_eigen, symmetrize
from .logit import FittedLogit, LinearRestriction, _real

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
#: The smoother of each shrunken kind, named by its unrestricted kind: LE
#: and RLE apply F_d, AULE and RAULE apply L_d; every other kind applies I.
_SMOOTHER = {"le": "le", "rle": "le", "aule": "aule", "raule": "aule"}
SHRINKAGE_KINDS = frozenset(_SMOOTHER)
RESTRICTED_KINDS = frozenset({"rmle", "rle", "raule"})


#: The ``d_grid`` of a request that takes no d.
_NO_D = object()


def _items(values, what: str) -> list:
    """The items of ``values`` as a list, or ValueError(``what``, got
    ``values``) if it is a string or cannot be iterated: a number, None, a
    0-d array."""
    if not isinstance(values, str):
        try:
            items = iter(values)
        except TypeError:
            pass
        else:
            return list(items)
    raise ValueError(f"{what}, got {values!r}")


def _check_request(kinds: Sequence[str], d_grid: Sequence[float] = _NO_D):
    """The one check of an estimator request, in pure Python so that an
    EstimatorSpec stays cheap: (kinds lowercased, d values as floats, or
    None when no ``d_grid`` is given). ValueError unless there is at least
    one kind, each in KINDS, and (if ``d_grid`` is given) at least one d,
    each in [0, 1]. The types are checked first: a string or anything
    that cannot be iterated (None, a number, a 0-d array) in place of
    either sequence, a kind that is not a string and a d that is not a real
    number (a bool is not one) are each a ValueError too."""
    kinds = _items(kinds, "estimator kinds must be a sequence of names")
    d_values = None if d_grid is _NO_D else _items(d_grid, "d values must be a sequence of numbers")
    for kind in kinds:
        if not isinstance(kind, str):
            raise ValueError(f"estimator kind must be a string, got {kind!r}")
    if d_values is not None:
        d_values = [_real("d", d) for d in d_values]
    kinds = [kind.lower() for kind in kinds]
    if not kinds:
        raise ValueError(f"need at least one estimator kind from {KINDS}")
    for kind in kinds:
        if kind not in KINDS:
            raise ValueError(f"unknown estimator kind {kind!r}, expected one of {KINDS}")
    if d_values == []:
        raise ValueError("need at least one biasing parameter d in [0, 1]")
    if d_values is not None:
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
        request = ([self.kind],) if self.d is None else ([self.kind], [self.d])
        (kind,), d = _check_request(*request)
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
    """Eigenvalues of the smoother of ``kind``, a shrinkage kind or family,
    for each d in ``d_grid``: shape (D, m), or (..., D, m) for a stack of
    eigenvalue rows (..., m)."""
    lam = np.asarray(eigenvalues, dtype=float)[..., None, :]
    d = np.asarray(d_grid, dtype=float).reshape(-1, 1)
    if _SMOOTHER[kind] == "le":
        return (lam + d) / (lam + 1.0)
    return ld_factors(lam, d)


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


def _check_width(restriction: LinearRestriction, m: int, what: str = "coefficient count"):
    """The package's one width check, which every door reaches before it
    reads a restriction: ValueError unless it is a LinearRestriction, then
    DimensionMismatchError unless H has ``m`` columns, ``m`` named by ``what``."""
    if not isinstance(restriction, LinearRestriction):
        raise ValueError(f"restriction must be a LinearRestriction, got {type(restriction).__name__}")
    if restriction.width != m:
        raise DimensionMismatchError(f"restriction width {restriction.width} does not match {what} {m}")


def _check_restriction(kinds, restriction: LinearRestriction | None, m: int):
    """The restriction half of a request, checked before C's definiteness: a
    given restriction must be ``m`` wide, used or not; a missing one is the
    package's one MissingRestrictionError, naming the first restricted kind.
    ``kinds`` None stands for a door that always reads the restriction, so
    that a missing one is refused as not a LinearRestriction."""
    needs = next((kind for kind in kinds or () if kind in RESTRICTED_KINDS), None)
    if restriction is not None or kinds is None:
        _check_width(restriction, m)
    elif needs is not None:
        raise MissingRestrictionError(f"estimator {needs!r} needs a linear restriction (H, h)")


def _information(C, beta=None, what=None, restriction=None, kinds=None):
    """The one door for a caller's C (or stack of C), beta and restriction,
    and the one place where beta is converted. In this order, one step
    each: beta, if ``what`` names it, must be an array of real numbers; C
    is read through :func:`symmetrize`; beta must have shape
    ``C.shape[:-1]`` and be finite (errors naming ``what``); the
    restriction must pass :func:`_check_restriction` for ``kinds`` at C's
    width (``kinds`` None: a door that always reads it, None refused too).
    Only then is C decomposed, once, and tested.
    Returns (C, beta, C's decomposition)."""
    if what is not None:
        beta = _real_array(beta, what)
    C = symmetrize(C, "C")
    if what is not None:
        if beta.shape != C.shape[:-1]:
            raise DimensionMismatchError(f"{what} has shape {beta.shape}, expected {C.shape[:-1]}")
        if not np.all(np.isfinite(beta)):
            raise ValueError(f"{what} has non-finite entries")
    _check_restriction(kinds, restriction, C.shape[-1])
    decomp = _eigh(C)
    require_positive_definite(decomp.values, "C")
    return C, beta, decomp


def _project(C: NDArray, beta: NDArray, restriction: LinearRestriction) -> NDArray:
    """beta_0 + N (N'CN)^-1 N'C (beta - beta_0) for positive definite C, with
    N and beta_0 = H^+ h from the restriction: H beta_R = h to rounding.
    N'CN is positive definite whenever C is (N has orthonormal columns), so
    this needs no test beyond C's and the rank test of LinearRestriction.
    Row by row for a stack, C (R, m, m) and beta (R, m)."""
    N, beta0 = restriction.null_basis, restriction.particular
    cn = C @ N
    rhs = cn.swapaxes(-1, -2) @ (beta - beta0)[..., None]
    return beta0 + (N @ np.linalg.solve(_sym(N.T @ cn), rhs))[..., 0]


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
        If C is not a square array of finite real numbers.
    DimensionMismatchError
        If ``beta_mle`` or the restriction is not as wide as C.
    ValueError
        If ``beta_mle`` is not an array of finite real numbers, or the
        restriction is not a LinearRestriction (None too).
    SingularInformationError
        If C is not positive definite at ``RANK_CUT``.
    """
    C, beta, _ = _information(C, beta_mle, "beta_mle", restriction)
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

    ``fit`` is checked first, then the request (kinds and d), then at
    :func:`_information` beta, C, beta's shape, the restriction and C's
    definiteness, one step each; a single fit's errors give its own (m,)
    and (m, m) shapes.

    Raises
    ------
    ValueError
        If ``fit`` is not a FittedLogit, ``kinds`` or ``d_grid`` is empty, a
        kind is unknown or a d lies outside [0, 1], ``beta_mle`` is not an
        array of finite real numbers (a complex array, an iterator or a
        dict too), or a given ``restriction`` is not a LinearRestriction.
    MissingRestrictionError
        If a kind is restricted and ``restriction`` is None.
    DimensionMismatchError
        If ``beta_mle`` or ``restriction`` is not as wide as C.
    InvalidMatrixError
        If C is not a square array of finite real numbers.
    SingularInformationError
        For the first row whose C is not positive definite.
    """
    if not isinstance(fit, FittedLogit):
        raise ValueError(f"fit must be a FittedLogit, got {type(fit).__name__}")
    kinds, d = _check_request(kinds, d_grid)
    C, beta, decomp = _information(fit.C, fit.beta_mle, "beta_mle", restriction, kinds)
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


def _check_spec(spec: EstimatorSpec):
    """ValueError unless ``spec`` is an EstimatorSpec, before any field is read."""
    if not isinstance(spec, EstimatorSpec):
        raise ValueError(f"spec must be an EstimatorSpec, got {type(spec).__name__}")


def estimate(
    fit: FittedLogit,
    spec: EstimatorSpec,
    restriction: LinearRestriction | None = None,
) -> Estimate:
    """Evaluate one estimator: one cell of :func:`shrinkage_estimates`, same
    errors, after a ValueError if ``spec`` is not an EstimatorSpec."""
    _check_spec(spec)
    d = 1.0 if spec.d is None else spec.d  # the unshrunken kinds ignore d
    beta = shrinkage_estimates(fit, [spec.kind], [d], restriction)[0, 0]
    return Estimate(spec, beta)


def residual(restriction: LinearRestriction, est: Estimate) -> NDArray:
    """Restriction residual H beta - h for an estimate.

    Raises
    ------
    ValueError
        If ``est`` is not an Estimate, ``est.beta`` is not an array of real
        numbers (a complex array, an iterator or a dict too), or the
        restriction is not a LinearRestriction.
    DimensionMismatchError
        If ``est.beta`` is not a vector, or the restriction is not as wide
        as it.
    """
    if not isinstance(est, Estimate):
        raise ValueError(f"est must be an Estimate, got {type(est).__name__}")
    beta = _real_array(est.beta, "est.beta")
    if beta.ndim != 1:
        raise DimensionMismatchError(f"est.beta has shape {beta.shape}, expected a vector")
    _check_width(restriction, beta.shape[0], "est.beta length")
    return restriction.H @ beta - restriction.h
