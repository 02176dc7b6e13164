"""Binary logistic regression fitted by iteratively reweighted least squares.

The fit produces what every downstream estimator consumes: the maximum
likelihood coefficients and the information matrix C = X'WX evaluated
at the final iterate. The Bernoulli variance weights W and the working
response Z behind C are formed in every iteration but not kept;
:func:`working_quantities` gives them at any beta.

There is one Newton loop, :func:`irls_stack`, which fits a stack of R
datasets of the same shape at once; :func:`irls_fit` is its one-row case.

``scipy.special`` supplies the link's ``expit`` and ``logit``. It is
imported by :func:`_special` on the first fit, not with the package:
loading it takes longer than loading NumPy, and commands that do not fit
(exact risk, dominance checks) never need it.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field
from functools import cache

import numpy as np
from numpy.typing import NDArray

from .errors import NotConvergedError
from .linalg import _certify_positive_definite, _kept, _read_only, _real_array, definiteness_error, symmetrize

__all__ = [
    "Dataset",
    "FitOptions",
    "FittedLogit",
    "LinearRestriction",
    "working_quantities",
    "irls_fit",
]


@dataclass(frozen=True, eq=False)
class Dataset:
    """Design matrix and binary response.

    ``has_intercept`` records whether column 0 is the constant-1 column,
    so diagnostics and display code can skip it. Construction validates
    that the response is exactly 0/1 and that the design has at least as
    many rows as columns.

    Raises
    ------
    ValueError
        If X or y is not an array of real numbers (a complex array, an
        iterator or a dict too), X is not a finite n x m design with
        n >= m >= 1, y is not n entries of exactly 0 or 1, or
        ``has_intercept`` is set and column 0 is not constant 1.
    """

    X: NDArray
    y: NDArray
    has_intercept: bool = False

    def __post_init__(self):
        X = _real_array(self.X, "X")
        y = _real_array(self.y, "y")
        if X.ndim != 2:
            raise ValueError(f"X must be 2-dimensional, got shape {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({X.shape[0]},)")
        if X.shape[1] < 1 or X.shape[0] < X.shape[1]:
            raise ValueError(
                f"need n >= m >= 1 rows and columns, got n={X.shape[0]}, m={X.shape[1]}"
            )
        if not np.all(np.isfinite(X)):
            raise ValueError("X has non-finite entries")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("y entries must be exactly 0 or 1")
        if self.has_intercept and not np.all(X[:, 0] == 1.0):
            raise ValueError("has_intercept is set but column 0 is not constant 1")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


def _index(value, message: str) -> int:
    """``value`` as an ``int``, or ValueError(``message``) if it is not an
    integer. A bool is not one, although ``operator.index`` reads True as 1."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(message)


def _integer(name: str, value, low: int) -> int:
    """``value`` as an ``int`` of at least ``low``; True, 2.5, NaN or "3" is a ValueError."""
    value = _index(value, f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be at least {low}")
    return value


def _real(name: str, value) -> float:
    """``value`` as a ``float``; True, 0.5j, None or "0.5" is a ValueError,
    and so is an int or Fraction too large for a float."""
    # float and int first: the ABC check alone takes about 0.7 us
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


@dataclass(frozen=True)
class FitOptions:
    """IRLS controls.

    ``tol`` bounds the max-norm coefficient change between iterations,
    and must be positive and finite (at an infinite tol the first step
    would count as converged); ``prob_clip`` clamps fitted probabilities
    into [prob_clip, 1 - prob_clip] before weights and working responses
    are formed, which keeps separated data from producing infinite values.
    ``max_iter`` may be any integer type (a NumPy integer too) and is kept
    as an ``int``; ``tol`` and ``prob_clip`` may be any real type but a
    bool, and are kept as ``float``s.
    """

    max_iter: int = 50
    tol: float = 1e-8
    prob_clip: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "max_iter", _integer("max_iter", self.max_iter, 1))
        object.__setattr__(self, "tol", _real("tol", self.tol))
        object.__setattr__(self, "prob_clip", _real("prob_clip", self.prob_clip))
        if not self.tol > 0.0:  # NaN too
            raise ValueError("tol must be positive")
        if self.tol == np.inf:  # every step would count as converged
            raise ValueError(f"tol must be finite, got {self.tol}")
        if not 0.0 < self.prob_clip < 0.5:
            raise ValueError("prob_clip must be in (0, 0.5)")


@dataclass(frozen=True, eq=False)
class FittedLogit:
    """Converged IRLS state.

    ``C`` is the symmetrized information matrix X'WX at ``beta_mle``,
    where the fixed point beta = C^-1 X'WZ holds to within the
    convergence tolerance. The fit does not keep W and Z;
    ``working_quantities(data, fit.beta_mle, opts)`` gives them.
    From :func:`irls_stack` every field carries a leading row axis:
    ``beta_mle`` (R, m), ``C`` (R, m, m) and the last three (R,).
    """

    beta_mle: NDArray
    C: NDArray
    iterations: int
    converged: bool
    final_step: float


@dataclass(frozen=True, eq=False)
class LinearRestriction:
    """Linear equality constraints H beta = h.

    H must have full row rank (q rows, q <= number of coefficients);
    rank is checked through the singular values at ``RANK_CUT``. That SVD
    also gives what every restricted quantity is built from: ``null_basis``,
    an orthonormal basis of null(H) (m - q columns), and ``particular``,
    the minimum-norm solution H^+ h of H beta = h. H and h are copied
    from the caller, and all four arrays are read-only, so the cached
    null basis always describes the H it was built from.

    Raises
    ------
    ValueError
        If H or h is not an array of real numbers (a complex array, an
        iterator or a dict too), their shapes do not match, an entry is not
        finite, or H is rank deficient.
    """

    H: NDArray
    h: NDArray
    null_basis: NDArray = field(init=False, repr=False)
    particular: NDArray = field(init=False, repr=False)

    def __post_init__(self):
        H = np.atleast_2d(np.array(_real_array(self.H, "H")))
        h = np.atleast_1d(np.array(_real_array(self.h, "h")))
        q, width = H.shape
        if not 1 <= q <= width:
            raise ValueError(f"need 1 <= q <= m restriction rows, got H shape {H.shape}")
        if h.shape != (q,):
            raise ValueError(f"h has shape {h.shape}, expected ({q},)")
        if not (np.all(np.isfinite(H)) and np.all(np.isfinite(h))):
            raise ValueError("restriction has non-finite entries")
        u, s, vt = np.linalg.svd(H)
        if not _kept(s).all():
            raise ValueError("H is rank deficient: restriction rows must be independent")
        object.__setattr__(self, "H", _read_only(H))
        object.__setattr__(self, "h", _read_only(h))
        object.__setattr__(self, "null_basis", _read_only(vt[q:].T))
        object.__setattr__(self, "particular", _read_only(vt[:q].T @ ((u.T @ h) / s)))

    @property
    def q(self) -> int:
        return self.H.shape[0]

    @property
    def width(self) -> int:
        return self.H.shape[1]


@cache
def _special():
    """``(expit, logit)`` from ``scipy.special``, imported on the first call.

    The cache makes every later call a lookup, so the Newton loop runs no
    ``import`` statement per iteration.
    """
    from scipy.special import expit, logit

    return expit, logit


def working_quantities(data: Dataset, beta, opts: FitOptions = FitOptions()):
    """Weights, working response, and information matrix at ``beta``.

    Probabilities are clamped by ``prob_clip`` before W and Z are formed.
    The working response is logit(pi) + (y - pi) / (pi (1 - pi)).
    Returns the triple (W, Z, C) with C symmetrized.

    Raises
    ------
    ValueError
        If ``beta`` is not an array of real numbers (a complex array, an
        iterator or a dict too).
    """
    return _working(data.X, data.y, _real_array(beta, "beta"), opts)


def _working(X, y, beta, opts: FitOptions):
    """:func:`working_quantities` for arrays, also stacked: X (..., n, m),
    y (..., n) and beta (..., m) give W and Z (..., n) and C (..., m, m)."""
    _, logit_link = _special()
    pi, w, c = _weighted(X, beta, opts)
    z = logit_link(pi) + (y - pi) / w
    return w, z, c


def _weighted(X, beta, opts: FitOptions):
    """The clamped probabilities and W (..., n) and C (..., m, m) at beta:
    :func:`_working` without the working response, which C does not need."""
    expit, _ = _special()
    eta = (X @ beta[..., None])[..., 0]
    pi = np.clip(expit(eta), opts.prob_clip, 1.0 - opts.prob_clip)
    w = pi * (1.0 - pi)
    return pi, w, symmetrize(X.swapaxes(-1, -2) @ (w[..., None] * X))


def irls_stack(X, y, opts: FitOptions = FitOptions()):
    """Fit the logistic MLE of each row of a stack: X (R, n, m), y (R, n).

    One Newton loop serves every row. Each iteration forms the working
    quantities of the rows still active, certifies with one shifted
    Cholesky of the stack that every row's X'WX passes
    :func:`~shrinklogit.linalg.positive_definite` (deciding on a batched
    ``eigvalsh`` when the certificate does not cover every row), and
    takes all their steps with one batched ``solve``. A row whose X'WX
    fails the test leaves at that iteration; a row whose max-norm step
    falls to ``opts.tol`` leaves converged; a row still active after
    ``opts.max_iter`` has not converged. The active rows' coefficients
    and steps are kept compact; a row's entries of the returned arrays
    are written once, when it leaves. Rows never mix, so each gets, bit
    for bit, what it gets fitted alone. X is indexed (copied) only once
    rows leave.

    Returns ``(fit, errors)``. ``fit`` is a :class:`FittedLogit` with a
    leading row axis, evaluated at each row's last iterate. ``errors``
    holds per row None (converged), the SingularInformationError of the
    failed test, or a NotConvergedError without its partial fit.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rows, _, m = X.shape
    beta = np.empty((rows, m))
    step = np.empty(rows)
    iterations = np.empty(rows, dtype=int)
    errors: list = [None] * rows
    active = np.arange(rows)
    Xa, ya = X, y
    beta_a, step_a = np.zeros((rows, m)), np.full(rows, np.inf)

    def leave(mask, iteration):
        left = active[mask]
        beta[left], step[left], iterations[left] = beta_a[mask], step_a[mask], iteration

    for iteration in range(1, opts.max_iter + 1):
        w, z, c = _working(Xa, ya, beta_a, opts)
        definite, eigenvalues = _certify_positive_definite(c)
        if not definite.all():
            for i in np.flatnonzero(~definite):
                errors[active[i]] = definiteness_error(eigenvalues[i], "information matrix X'WX")
            leave(~definite, iteration)
            active, Xa, ya, w, z, c, beta_a, step_a = (
                a[definite] for a in (active, Xa, ya, w, z, c, beta_a, step_a)
            )
            if active.size == 0:
                break
        rhs = Xa.swapaxes(-1, -2) @ (w * z)[..., None]
        beta_next = np.linalg.solve(c, rhs)[..., 0]
        step_a = np.abs(beta_next - beta_a).max(axis=-1)
        beta_a = beta_next
        done = step_a <= opts.tol
        if done.any():
            leave(done, iteration)
            active, Xa, ya, beta_a, step_a = (a[~done] for a in (active, Xa, ya, beta_a, step_a))
            if active.size == 0:
                break
    leave(np.ones(active.size, dtype=bool), opts.max_iter)
    for row in active:
        errors[row] = NotConvergedError(
            f"IRLS did not converge in {opts.max_iter} iterations "
            f"(last step {step[row]:.3e})"
        )
    _, _, c = _weighted(X, beta, opts)
    converged = np.array([error is None for error in errors], dtype=bool)
    fit = FittedLogit(beta_mle=beta, C=c, iterations=iterations, converged=converged, final_step=step)
    return fit, errors


def irls_fit(data: Dataset, opts: FitOptions = FitOptions()) -> FittedLogit:
    """Fit the logistic MLE by iteratively reweighted least squares.

    Starts from beta = 0 (all probabilities one half) and repeats the
    weighted least squares step beta <- (X'WX)^-1 X'WZ until the max-norm
    change falls below ``opts.tol``. Deterministic: the same data and
    options give a bit-identical result. This is the one-row case of
    :func:`irls_stack`.

    Raises
    ------
    SingularInformationError
        If X'WX is rank deficient at ``RANK_CUT`` in any iteration.
    NotConvergedError
        If ``opts.max_iter`` is reached; the exception carries the
        partial fit in its ``fit`` attribute.
    """
    stack, (error,) = irls_stack(data.X[None], data.y[None], opts)
    fit = FittedLogit(
        beta_mle=stack.beta_mle[0],
        C=stack.C[0],
        iterations=int(stack.iterations[0]),
        converged=bool(stack.converged[0]),
        final_step=float(stack.final_step[0]),
    )
    if isinstance(error, NotConvergedError):
        error.fit = fit
    if error is not None:
        raise error
    return fit
