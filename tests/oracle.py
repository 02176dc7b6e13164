"""A 60-digit oracle for the exact risk formulas and the matrix verdicts, in mpmath.

Import it after ``pytest.importorskip("mpmath")``. The scenario's float64
inputs (C, beta, H, h and d) are lifted exactly, since every double is a
dyadic rational; everything else is formed at 60 significant digits in
the textbook forms, which share no route with the package: C^-1 and the
smoothers by matrix inversion, not on C's eigenbasis, and A in the
subtraction form C^-1 - C^-1 H'(H C^-1 H')^-1 H C^-1, not the null-space
form. Only the results are rounded to float64.
"""

from __future__ import annotations

from typing import NamedTuple

import mpmath
import numpy as np

DIGITS = 60


class _Exact(NamedTuple):
    C: mpmath.matrix
    b: mpmath.matrix
    c_inv: mpmath.matrix
    gain: mpmath.matrix  # C^-1 H'(H C^-1 H')^-1
    A: mpmath.matrix
    F: mpmath.matrix
    L: mpmath.matrix
    residual: mpmath.matrix  # H b - h


def _lift(array) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(array, dtype=float).tolist())


def _exact(scenario, d: float) -> _Exact:
    """The textbook quantities of a scenario with a restriction at ``d``;
    call it inside ``mpmath.workdps(DIGITS)``."""
    C, b = _lift(scenario.C), _lift(scenario.beta_true)
    H, h = _lift(scenario.restriction.H), _lift(scenario.restriction.h)
    d = mpmath.mpf(float(d))
    eye = mpmath.eye(C.rows)
    c_inv = mpmath.inverse(C)
    gain = c_inv * H.T * mpmath.inverse(H * c_inv * H.T)
    shift = mpmath.inverse(C + eye)
    return _Exact(
        C=C,
        b=b,
        c_inv=c_inv,
        gain=gain,
        A=c_inv - gain * H * c_inv,
        F=shift * (C + d * eye),
        L=eye - (1 - d) ** 2 * shift * shift,
        residual=H * b - h,
    )


def oracle_risks(scenario, d: float) -> dict[str, tuple[np.ndarray, float]]:
    """(mmse, mse) of every kind, the shrunken ones at ``d``, for a
    scenario with a restriction, each rounded to float64 from 60 digits."""
    with mpmath.workdps(DIGITS):
        x = _exact(scenario, d)
        parts = {
            "mle": (x.c_inv, x.b - x.b),
            "rmle": (x.A * x.C * x.A, -(x.gain * x.residual)),
            "le": (x.F * x.c_inv * x.F.T, x.F * x.b - x.b),
            "rle": (x.F * x.A * x.F.T, x.F * x.b - x.b),
            "aule": (x.L * x.c_inv * x.L, x.L * x.b - x.b),
            "raule": (x.L * x.A * x.L, x.L * x.b - x.b),
        }
        risks = {}
        for kind, (cov, bias) in parts.items():
            mmse = cov + bias * bias.T
            trace = mpmath.fsum(mmse[i, i] for i in range(mmse.rows))
            risks[kind] = (np.array(mmse.tolist(), dtype=float), float(trace))
        return risks


def oracle_extremes(scenario, d: float) -> dict[str, tuple[float, float]]:
    """(smallest, largest) eigenvalue, by ``mpmath.eigsy`` at 60 digits, of
    the five differences behind the T3.3, T3.5 and T3.7 verdicts at ``d``:
    ``D1`` = ACA - LAL and ``D3`` = C^-1 - LAL, ``Delta1`` and ``Delta3``
    (each of these minus b1 b1', with b1 = Lb - b the RAULE bias as the
    package defines it) and ``Delta5`` = L (C^-1 - A) L."""
    with mpmath.workdps(DIGITS):
        x = _exact(scenario, d)
        lal = x.L * x.A * x.L
        b1 = x.L * x.b - x.b
        d1, d3 = x.A * x.C * x.A - lal, x.c_inv - lal
        matrices = {
            "D1": d1,
            "Delta1": d1 - b1 * b1.T,
            "D3": d3,
            "Delta3": d3 - b1 * b1.T,
            "Delta5": x.L * (x.c_inv - x.A) * x.L,
        }
        extremes = {}
        for name, matrix in matrices.items():
            values = mpmath.eigsy((matrix + matrix.T) / 2, eigvals_only=True)
            values = [values[i] for i in range(values.rows)]
            extremes[name] = (float(min(values)), float(max(values)))
        return extremes
