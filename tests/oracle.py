"""A 60-digit oracle for the exact risk formulas, in mpmath.

Import it after ``pytest.importorskip("mpmath")``. The scenario's float64
inputs (C, beta, H, h and d) are lifted exactly, since every double is a
dyadic rational; everything else is formed at 60 significant digits in
the textbook forms, which share no route with the package: C^-1 and the
smoothers by matrix inversion, not on C's eigenbasis, and A in the
subtraction form C^-1 - C^-1 H'(H C^-1 H')^-1 H C^-1, not the null-space
form. Only the results are rounded to float64.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 60


def _lift(array) -> mpmath.matrix:
    return mpmath.matrix(np.asarray(array, dtype=float).tolist())


def oracle_risks(scenario, d: float) -> dict[str, tuple[np.ndarray, float]]:
    """(mmse, mse) of every kind, the shrunken ones at ``d``, for a
    scenario with a restriction, each rounded to float64 from 60 digits."""
    with mpmath.workdps(DIGITS):
        C, b = _lift(scenario.C), _lift(scenario.beta_true)
        H, h = _lift(scenario.restriction.H), _lift(scenario.restriction.h)
        d = mpmath.mpf(float(d))
        eye = mpmath.eye(C.rows)
        c_inv = mpmath.inverse(C)
        gain = c_inv * H.T * mpmath.inverse(H * c_inv * H.T)
        A = c_inv - gain * H * c_inv
        shift = mpmath.inverse(C + eye)
        F = shift * (C + d * eye)
        L = eye - (1 - d) ** 2 * shift * shift
        parts = {
            "mle": (c_inv, b - b),
            "rmle": (A * C * A, -(gain * (H * b - h))),
            "le": (F * c_inv * F.T, F * b - b),
            "rle": (F * A * F.T, F * b - b),
            "aule": (L * c_inv * L, L * b - b),
            "raule": (L * A * L, L * b - b),
        }
        risks = {}
        for kind, (cov, bias) in parts.items():
            mmse = cov + bias * bias.T
            trace = mpmath.fsum(mmse[i, i] for i in range(mmse.rows))
            risks[kind] = (np.array(mmse.tolist(), dtype=float), float(trace))
        return risks
