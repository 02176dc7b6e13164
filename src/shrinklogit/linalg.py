"""Dense symmetric linear algebra primitives.

Everything downstream (estimator formulas, risk matrices, dominance
predicates) reduces to a handful of operations on real symmetric
matrices: spectral decomposition, Moore-Penrose inversion, positive
(semi)definiteness tests, range membership, and a generalized Rayleigh
ratio. They live here so that their two thresholds, :data:`RANK_CUT`
and :data:`PSD_SLACK`, are defined in one place, and every zero test
(C definite, H of full rank, a kept eigenvalue, a positive a_ii) is :func:`_kept`.
Beside them, :func:`_real_array` is the one reading of an array that a
caller hands the library (C, beta, H and h, X and y, a vector to test), so
that every door refuses the same inputs a real array cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidMatrixError, NotPSDError, SingularInformationError

__all__ = [
    "SpectralDecomp",
    "PsdResult",
    "symmetrize",
    "sym_eigen",
    "moore_penrose",
    "is_psd",
    "in_range",
    "lambda_max_ratio",
]


# The two thresholds of every rank and definiteness test in the package.
# They suit double precision with matrices up to dimension a few dozen
# and condition numbers up to about 1e7, the regime produced by
# near-unit pairwise correlations in the design.

#: Relative: :func:`_kept`, the one zero test, treats a value at most
#: RANK_CUT times the largest magnitude beside it as an exact zero; signed
#: values below the cut, negative ones included, count as "not positive".
RANK_CUT = 1e-10
#: Absolute: a matrix counts as positive semidefinite when its smallest
#: eigenvalue is at least -PSD_SLACK.
PSD_SLACK = 1e-8


def _kept(values) -> NDArray:
    """Which of ``values`` count as nonzero: those above ``RANK_CUT`` times
    the largest magnitude on the last axis, decided row by row for a stack."""
    values = np.asarray(values)
    return values > RANK_CUT * np.abs(values).max(axis=-1, keepdims=True, initial=0.0)


def _read_only(array) -> NDArray:
    """A float view of ``array`` that raises ValueError on writes. Only the
    view is locked, so the caller's array keeps its own flags; objects that
    cache quantities derived from an array lock a private copy of it."""
    view = np.asarray(array, dtype=float).view()
    view.flags.writeable = False
    return view


def _not_real(entry) -> bool:
    """Whether an object array's entry is one that ``astype(float)`` would
    read although it is no real number: a complex number (``astype`` would
    take the real part of a NumPy complex scalar), or a str or bytes
    (``astype`` would parse "2.5")."""
    return np.iscomplexobj(entry) or isinstance(entry, (str, bytes))


def _real_array(values, what: str, error: type[Exception] = ValueError) -> NDArray:
    """``values`` as ``np.asarray(values, dtype=float)`` reads a real array
    of any type, else ``error`` naming ``what``. Only a bool, integer, float
    or object array is read: a complex array (NumPy would drop its imaginary
    part with only a warning), a string or bytes array (NumPy would parse
    "2.5", which the scalar rule refuses) and a date, time-delta or record
    array are refused, as are an object array holding a complex number or a
    string, an entry that is no number or too large for a float, a ragged
    nest, and an iterator, dict or other object."""
    try:
        array = np.asarray(values)
        kind = array.dtype.kind
        if kind in "biuf" or (kind == "O" and not any(map(_not_real, array.flat))):
            return array.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what} is not an array of real numbers")


def symmetrize(matrix, what: str = "matrix") -> NDArray:
    """Return the symmetric part (M + M') / 2 as a float64 array.

    Floating point products such as X'WX drift slightly from exact
    symmetry, so constructors symmetrize instead of rejecting. A stack
    of square matrices (..., k, k) is symmetrized matrix by matrix.
    ``what`` names the input in the errors of its entries.

    Raises
    ------
    InvalidMatrixError
        If the input is not a square array of finite real numbers.
    """
    m = _real_array(matrix, what, InvalidMatrixError)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise InvalidMatrixError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidMatrixError(f"{what} has non-finite entries")
    return _sym(m)


def _sym(m: NDArray) -> NDArray:
    """:func:`symmetrize` without its checks, for products of operands that
    were checked already: ``m`` is a finite float square matrix or stack."""
    return 0.5 * (m + m.swapaxes(-1, -2))


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Eigendecomposition of a symmetric matrix with eigenvalues descending.

    ``basis`` is orthogonal; column i is the eigenvector for ``values[i]``.
    """

    values: NDArray
    basis: NDArray

    def reconstruct(self) -> NDArray:
        return (self.basis * self.values) @ self.basis.T


def sym_eigen(matrix) -> SpectralDecomp:
    """Spectral decomposition of a (nearly) symmetric matrix.

    The input is symmetrized first; eigenvalues come back sorted in
    descending order with the eigenvector columns permuted to match. A
    stack (..., k, k) gives values (..., k) and bases (..., k, k). Both
    are contiguous copies: products with a reversed view would not go
    through BLAS, and their last bits would differ from the unstacked ones.
    """
    return _eigh(symmetrize(matrix))


def _eigh(matrix: NDArray) -> SpectralDecomp:
    """:func:`sym_eigen` of a float array (or stack) that is already exactly
    symmetric, which it neither checks nor symmetrizes."""
    values, basis = np.linalg.eigh(matrix)
    return SpectralDecomp(values[..., ::-1].copy(), basis[..., ::-1].copy())


def moore_penrose(matrix) -> NDArray:
    """Moore-Penrose inverse of a symmetric matrix via its spectrum.

    Eigenvalues with magnitude at most ``RANK_CUT`` times the largest
    magnitude are dropped; the remaining ones are inverted in place on
    the eigenbasis. The zero matrix maps to the zero matrix.
    """
    return _pinv(sym_eigen(matrix))


def _pinv(dec: SpectralDecomp) -> NDArray:
    """:func:`moore_penrose` of the matrix whose decomposition is ``dec``, or
    of each matrix of a stack, each bit for bit as it is alone."""
    keep = _kept(np.abs(dec.values))
    inv = np.divide(1.0, dec.values, out=np.zeros_like(dec.values), where=keep)
    pinv = _sym((dec.basis * inv[..., None, :]) @ dec.basis.swapaxes(-1, -2))
    pinv[~keep.any(axis=-1)] = 0.0  # the zero matrix, as +0.0 entries
    return pinv


@dataclass(frozen=True)
class PsdResult:
    """Outcome of a positive semidefiniteness test with its witness."""

    ok: bool
    min_eigenvalue: float

    def __bool__(self) -> bool:
        return self.ok


def is_psd(matrix) -> PsdResult:
    """Test nonnegative definiteness, reporting the smallest eigenvalue.

    True iff the minimum eigenvalue is at least ``-PSD_SLACK``. The
    witness is reported either way.
    """
    return _psd(float(np.linalg.eigvalsh(symmetrize(matrix))[0]))


def _psd(min_eigenvalue: float) -> PsdResult:
    """:func:`is_psd`'s verdict on a matrix with this smallest eigenvalue."""
    return PsdResult(min_eigenvalue >= -PSD_SLACK, min_eigenvalue)


def positive_definite(eigenvalues):
    """Whether every eigenvalue (last axis, in any order) is kept by
    :func:`_kept`: one bool per row of a stack."""
    return _kept(eigenvalues).all(axis=-1)


def _certify_positive_definite(matrices):
    """:func:`positive_definite` for each matrix of a finite symmetric stack
    (R, m, m), and the eigenvalues it was decided on (None if not needed).

    A Cholesky factorisation of the stack shifted down by
    tau = 2 RANK_CUT m max|c_ij| per matrix, at least 2 RANK_CUT lambda_max,
    certifies every row at once: when it completes with a finite factor,
    the backward error bound of Cholesky (O(m^2 eps) of the norm) leaves
    lambda_min above RANK_CUT lambda_max by a margin of about RANK_CUT.
    Otherwise the rows are decided on their ``eigvalsh`` spectrum, which
    alone can settle the band near the cut, and whose eigenvalues
    :func:`definiteness_error` reports for the rows that fail.
    """
    m = matrices.shape[-1]
    shifted = matrices.copy()
    diagonal = shifted.reshape(matrices.shape[:-2] + (m * m,))[..., :: m + 1]
    diagonal -= (2.0 * RANK_CUT * m) * np.abs(matrices).max(axis=(-2, -1))[..., None]
    try:
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return np.ones(matrices.shape[:-2], dtype=bool), None
    except np.linalg.LinAlgError:
        pass
    eigenvalues = np.linalg.eigvalsh(matrices)
    return positive_definite(eigenvalues), eigenvalues


def definiteness_error(eigenvalues, what: str = "C") -> SingularInformationError:
    """The error that matrix ``what``, with these eigenvalues, is not
    positive definite; its message gives the eigenvalue range."""
    low, high = float(np.min(eigenvalues)), float(np.max(eigenvalues))
    return SingularInformationError(
        f"{what} is not positive definite at rank_cut={RANK_CUT:g} "
        f"(eigenvalue range [{low:.3e}, {high:.3e}])"
    )


def require_positive_definite(eigenvalues, what: str = "C") -> None:
    """Raise :func:`definiteness_error` unless :func:`positive_definite`
    holds for one matrix's eigenvalues, or for every row of a stack's;
    the error reports the first row that fails."""
    ok = positive_definite(eigenvalues)
    if not ok.all():
        rows = np.reshape(eigenvalues, (-1, np.shape(eigenvalues)[-1]))
        raise definiteness_error(rows[np.argmin(ok)], what)


def in_range(vector, matrix) -> bool:
    """Test whether ``vector``, or every column of a 2-D array, lies in the
    column space of ``matrix``.

    Forms M^+ once; the criterion is :func:`in_range_with_pinv`.

    Raises
    ------
    InvalidMatrixError
        If ``vector`` is not an array of real numbers (a complex array, an
        iterator or a dict too) with one entry per row of the matrix, or the
        matrix is not a square array of finite real numbers.
    """
    v = _real_array(vector, "vector", InvalidMatrixError)
    m = symmetrize(matrix)
    if v.ndim not in (1, 2) or v.shape[0] != m.shape[0]:
        raise InvalidMatrixError(
            f"vectors of shape {v.shape} do not match matrix dim {m.shape[0]}"
        )
    return in_range_with_pinv(v, m, moore_penrose(m))


def in_range_with_pinv(vector, matrix, pinv) -> bool:
    """:func:`in_range` for a symmetric ``matrix`` M with ``pinv`` = M^+ at
    hand: column v is in the range when (I - M M^+) v has norm at most
    ``RANK_CUT`` times that of v, so the zero vector is in every range."""
    residual = vector - matrix @ (pinv @ vector)
    return bool((_column_norms(residual) <= RANK_CUT * _column_norms(vector)).all())


def _column_norms(vectors: NDArray) -> NDArray:
    """``np.linalg.norm(vectors, axis=0)``, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(vectors * vectors, axis=0))


def lambda_max_ratio(numerator, denominator) -> float:
    """Largest eigenvalue of N M^+ for positive semidefinite N and M.

    When range(N) is contained in range(M) this value does not depend on
    which generalized inverse of M is used, which makes the Moore-Penrose
    choice canonical. It is computed through the symmetric congruence
    S'NS with S = (columns of M's eigenbasis) scaled by lambda^{-1/2},
    which shares the nonzero spectrum of N M^+ and keeps the eigenproblem
    real and well conditioned.

    Raises
    ------
    NotPSDError
        If either argument fails :func:`is_psd`.
    """
    n, m = symmetrize(numerator), symmetrize(denominator)
    _require_psd(numerator=is_psd(n), denominator=is_psd(m))
    return _ratio(n, _congruence(sym_eigen(m)))


def _require_psd(**checks: PsdResult) -> None:
    for name, check in checks.items():
        if not check.ok:
            raise NotPSDError(f"{name} is not positive semidefinite (min eigenvalue {check.min_eigenvalue:.3e})")


def _congruence(dec: SpectralDecomp) -> NDArray:
    """lambda_max_ratio's S from M's decomposition (no columns if no eigenvalue is kept)."""
    keep = _kept(dec.values)
    return dec.basis[:, keep] * (dec.values[keep] ** -0.5)


def _ratio(numerator: NDArray, congruence: NDArray) -> float:
    """Largest eigenvalue of S'NS, at least 0 (0 for an S with no columns)."""
    if congruence.shape[1] == 0:
        return 0.0
    core = congruence.T @ numerator @ congruence
    return float(max(np.linalg.eigvalsh(_sym(core))[-1], 0.0))
