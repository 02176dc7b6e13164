"""Every public door that takes a caller's C, beta and restriction checks
them the same way, through ``estimators._information``: the same error
type and message from each door for each bad input.

A door's messages name its own beta argument (``beta_mle`` or
``beta_true``) and give its own shapes: a single fit's are (m,) and
(m, m), a stack's carry its row axis in front.
"""

import numpy as np
import pytest

from shrinklogit import (
    KINDS,
    DimensionMismatchError,
    EstimatorSpec,
    FittedLogit,
    InvalidMatrixError,
    LinearRestriction,
    RiskScenario,
    SimulationConfig,
    SingularInformationError,
    a_matrix,
    default_restriction,
    estimate,
    restricted_mle,
    shrinkage_estimates,
)

GOOD_C = np.diag([3.0, 2.0, 1.0, 0.5])
SINGULAR_C = np.diag([3.0, 2.0, 1.0, 0.0])
GOOD_BETA = np.array([1.0, -1.0, 0.5, 0.25])
#: As wide as C; the restricted doors always get it unless a case brings its own.
RESTRICTION = LinearRestriction([[1.0, 1.0, 0.0, 0.0]], [0.0])
WIDE = LinearRestriction([[1.0, 1.0, 0.0, 0.0, 0.0]], [0.0])

#: name -> (C, beta, restriction, error type, message for the door's beta
#: name and its row axes ``lead``).
CASES = {
    "nan-C": (
        np.diag([3.0, np.nan, 1.0, 0.5]), GOOD_BETA, None, InvalidMatrixError,
        lambda beta, lead: "C has non-finite entries",
    ),
    "non-square-C": (
        GOOD_C[:, :3], GOOD_BETA, None, InvalidMatrixError,
        lambda beta, lead: f"expected a square matrix, got shape {lead + (4, 3)}",
    ),
    "short-beta": (
        GOOD_C, GOOD_BETA[:3], None, DimensionMismatchError,
        lambda beta, lead: f"{beta} has shape {lead + (3,)}, expected {lead + (4,)}",
    ),
    "nan-beta": (
        GOOD_C, np.array([1.0, np.nan, 0.5, 0.25]), None, ValueError,
        lambda beta, lead: f"{beta} has non-finite entries",
    ),
    "singular-C": (
        SINGULAR_C, GOOD_BETA, None, SingularInformationError,
        lambda beta, lead: "C is not positive definite at rank_cut=1e-10 (eigenvalue range [0.000e+00, 3.000e+00])",
    ),
    # bad in two ways: the first rule in the door's order wins everywhere
    "non-square-C-restriction-as-wide-as-beta": (
        GOOD_C[:, :3], GOOD_BETA, RESTRICTION, InvalidMatrixError,
        lambda beta, lead: f"expected a square matrix, got shape {lead + (4, 3)}",
    ),
    "short-beta-restriction-as-wide-as-beta": (
        GOOD_C, GOOD_BETA[:3], LinearRestriction([[1.0, 1.0, 0.0]], [0.0]), DimensionMismatchError,
        lambda beta, lead: f"{beta} has shape {lead + (3,)}, expected {lead + (4,)}",
    ),
    "singular-C-wide-restriction": (
        SINGULAR_C, GOOD_BETA, WIDE, DimensionMismatchError,
        lambda beta, lead: "restriction width 5 does not match coefficient count 4",
    ),
}


def fit_of(C, beta):
    return FittedLogit(beta_mle=beta, C=C, iterations=1, converged=True, final_step=0.0)


def stack(C, beta, rows):
    """``rows`` copies of a good fit with the bad input in row 1, or in every
    row for a bad shape, which no one row of a stack can have alone."""
    Cs = np.repeat((GOOD_C if C.shape == GOOD_C.shape else C)[None], rows, axis=0)
    betas = np.repeat((GOOD_BETA if beta.shape == GOOD_BETA.shape else beta)[None], rows, axis=0)
    if rows > 1 and C.shape == GOOD_C.shape:
        Cs[1] = C
    if rows > 1 and beta.shape == GOOD_BETA.shape:
        betas[1] = beta
    return Cs, betas


def kernel(rows=None):
    def door(C, beta, restriction):
        if rows is not None:
            C, beta = stack(C, beta, rows)
        kinds = KINDS if restriction is not None else ["mle", "le", "aule"]
        return shrinkage_estimates(fit_of(C, beta), kinds, [0.0, 0.5], restriction)

    return door


DOORS = {
    "shrinkage_estimates": (kernel(), "beta_mle", ()),
    "shrinkage_estimates-stack": (kernel(3), "beta_mle", (3,)),
    "shrinkage_estimates-empty-stack": (kernel(0), "beta_mle", (0,)),
    "estimate": (lambda C, b, r: estimate(fit_of(C, b), EstimatorSpec("aule", 0.5), r), "beta_mle", ()),
    "restricted_mle": (lambda C, b, r: restricted_mle(C, b, r or RESTRICTION), "beta_mle", ()),
    "a_matrix": (lambda C, b, r: a_matrix(C, r or RESTRICTION), None, ()),
    "RiskScenario": (lambda C, b, r: RiskScenario(C, b, r), "beta_true", ()),
}


def applies(door, case):
    """a_matrix takes no beta; an empty stack holds no entry to be NaN or singular."""
    if DOORS[door][1] is None and "beta" in case:
        return False
    return not (door.endswith("empty-stack") and case in ("nan-C", "nan-beta", "singular-C"))


@pytest.mark.parametrize(
    "door, case", [(door, case) for door in DOORS for case in CASES if applies(door, case)]
)
def test_every_door_gives_the_same_error(door, case):
    call, beta_name, lead = DOORS[door]
    C, beta, restriction, error, message = CASES[case]
    with pytest.raises(error) as caught:
        call(C, beta, restriction)
    assert type(caught.value) is error
    assert str(caught.value) == message(beta_name, lead)


def test_the_stack_reports_its_first_failing_row():
    C = np.stack([GOOD_C, np.diag([3.0, 2.0, 1.0, -1.0]), SINGULAR_C])
    with pytest.raises(SingularInformationError, match=r"range \[-1\.000e\+00, 3\.000e\+00\]"):
        shrinkage_estimates(fit_of(C, np.stack([GOOD_BETA] * 3)), ["mle"], [0.5])


@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_a_restriction_that_is_not_a_linear_restriction(door):
    call, _, _ = DOORS[door]
    with pytest.raises(ValueError) as caught:
        call(GOOD_C, GOOD_BETA, (RESTRICTION.H, RESTRICTION.h))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "restriction must be a LinearRestriction, got tuple"


def test_the_simulation_refuses_a_restriction_that_is_not_a_linear_restriction():
    stock = default_restriction(4)
    with pytest.raises(ValueError) as caught:
        SimulationConfig(n=50, p=4, rho=0.9, d_grid=(0.5,), reps=1, seed=1, restriction=(stock.H, stock.h))
    assert type(caught.value) is ValueError
    assert str(caught.value) == "restriction must be a LinearRestriction, got tuple"


def test_every_door_takes_a_good_input():
    for door, (call, _, _) in DOORS.items():
        call(GOOD_C, GOOD_BETA, None)


def test_risk_scenario_takes_one_c_not_a_stack():
    with pytest.raises(InvalidMatrixError, match=r"^expected a square matrix, got shape \(2, 4, 4\)$"):
        RiskScenario(np.stack([GOOD_C] * 2), np.stack([GOOD_BETA] * 2))


def test_the_restricted_doors_take_a_stack_row_by_row():
    Cs = np.stack([GOOD_C, 2.0 * np.eye(4), np.diag([1.0, 2.0, 3.0, 4.0])])
    betas = np.random.default_rng(0).standard_normal((3, 4))
    projected, kernels = restricted_mle(Cs, betas, RESTRICTION), a_matrix(Cs, RESTRICTION)
    for i in range(3):
        assert np.array_equal(projected[i], restricted_mle(Cs[i], betas[i], RESTRICTION))
        assert np.array_equal(kernels[i], a_matrix(Cs[i], RESTRICTION))
