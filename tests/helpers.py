"""Shared random generators and inputs for the test and acceptance suites.

Two scenario families are used throughout:

* generic: C is a random positive definite matrix with a controlled
  condition number and H is a dense random full-rank restriction. Under
  this family the side conditions of the matrix-order comparisons
  (range inclusion in particular) essentially never hold, which is
  itself asserted where relevant.

* aligned: the restriction rows select eigendirections of C, i.e.
  H = (rows of I) Q' for C = Q diag(lam) Q'. Everything then commutes
  on C's eigenbasis, the side conditions hold by construction, and the
  necessary-and-sufficient criteria can be exercised in both truth
  directions by scaling the coefficient vector.
"""

from __future__ import annotations

import numpy as np
import pytest

from shrinklogit import LinearRestriction, RiskScenario

_C_BETA = "[C]\n3.0,0.0\n0.0,1.0\n[beta]\n1.0,-1.0\n"

#: Scenario files with one non-finite entry, by the section that holds it;
#: the entry is the ``{}`` slot.
NON_FINITE_SCENARIOS = {
    "C": "[C]\n2.0,0.0\n0.0,{}\n[beta]\n1.0,-1.0\n",
    "beta": "[C]\n3.0,0.0\n0.0,1.0\n[beta]\n{},-1.0\n",
    "H": _C_BETA + "[H]\n1.0,{}\n[h]\n0.0\n",
    "h": _C_BETA + "[H]\n1.0,0.0\n[h]\n{}\n",
}

#: Malformed scenario files, each with the section its error must name.
MALFORMED_SCENARIOS = [
    pytest.param("C", "[C]\n3.0,0.0\n0.0\n[beta]\n1.0,-1.0\n", id="ragged-C"),
    pytest.param("H", _C_BETA + "[H]\n1.0,0.0\n1.0\n[h]\n1.0,0.0\n", id="ragged-H"),
    pytest.param("meta", "[meta]\nd = half\n" + _C_BETA, id="non-numeric-d"),
    pytest.param("meta", "[meta]\nD = 0.5\n" + _C_BETA, id="unknown-meta-key"),
    pytest.param("meta", "[meta]\nd = 0.2\nd = 0.9\n" + _C_BETA, id="meta-key-given-twice"),
    pytest.param("meta", "[meta]\nm = 3\n" + _C_BETA, id="m-not-the-size-of-C"),
    pytest.param("h", _C_BETA + "[h]\n1.0\n", id="h-without-H"),
    pytest.param("Hh", _C_BETA + "[Hh]\n1.0,0.0\n", id="unknown-section"),
    pytest.param("H", _C_BETA + "[H]\n[h]\n1.0\n", id="H-without-rows"),
    pytest.param("C", "[C]\n3.0,0.0,1.0\n0.0,1.0,2.0\n[beta]\n1.0,-1.0\n", id="non-square-C"),
    pytest.param("C", _C_BETA + "[C]\n1.0,0.0\n0.0,1.0\n", id="C-given-twice"),
    *[
        pytest.param(section, text.format(value), id=f"{value}-in-{section}")
        for section, text in NON_FINITE_SCENARIOS.items()
        for value in ("inf", "nan")
    ],
]


def random_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


def random_symmetric(rng: np.random.Generator, m: int, eigenvalues) -> np.ndarray:
    """Symmetric matrix with the given spectrum in a random basis."""
    basis = random_orthogonal(rng, m)
    return (basis * np.asarray(eigenvalues, dtype=float)) @ basis.T


def random_spd(rng: np.random.Generator, m: int, cond: float = 1e3) -> np.ndarray:
    """Random symmetric positive definite matrix with condition <= cond."""
    ratios = np.concatenate([[1.0, 1.0 / cond], rng.uniform(1.0 / cond, 1.0, size=m - 2)]) if m > 1 else np.ones(1)
    eigenvalues = np.exp(rng.uniform(-0.5, 0.5)) * ratios[:m]
    return random_symmetric(rng, m, eigenvalues)


def random_restriction(rng: np.random.Generator, m: int, q: int) -> LinearRestriction:
    while True:
        H = rng.standard_normal((q, m))
        s = np.linalg.svd(H, compute_uv=False)
        if s[-1] > 1e-6 * s[0]:
            return LinearRestriction(H, np.zeros(q))


def project_to_null(H: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - np.linalg.pinv(H) @ (H @ v)


def random_scenario(
    rng: np.random.Generator,
    m: int,
    q: int,
    cond: float = 1e3,
    beta_norm: float = 1.0,
    project: bool = True,
    aligned: bool = False,
) -> RiskScenario:
    """Random PD scenario with a restriction; see the module docstring.

    With ``project`` the truth lies in null(H), so a full restriction
    (q = m) is a ValueError: null(H) = {0} holds no nonzero truth.
    """
    if project and q == m:
        raise ValueError(f"q = m = {m}: null(H) = {{0}} cannot hold a unit-norm truth; pass project=False")
    if aligned:
        eigenvalues = np.sort(np.exp(rng.uniform(-1.5, 1.5, size=m)))[::-1]
        basis = random_orthogonal(rng, m)
        C = (basis * eigenvalues) @ basis.T
        picked = rng.choice(m, size=q, replace=False)
        H = basis.T[picked]
        restriction = LinearRestriction(H, np.zeros(q))
    else:
        C = random_spd(rng, m, cond)
        restriction = random_restriction(rng, m, q)
    beta = rng.standard_normal(m)
    if project:
        beta = project_to_null(restriction.H, beta)
        if np.linalg.norm(beta) < 1e-8:
            beta = project_to_null(restriction.H, rng.standard_normal(m))
    beta = beta * (beta_norm / np.linalg.norm(beta))
    return RiskScenario(C=C, beta_true=beta, restriction=restriction)
