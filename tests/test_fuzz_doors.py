"""A fuzz gate for the public doors.

Each row of :data:`TABLE` is one argument of one door with a valid value;
the door is called with that argument malformed and every other argument
valid. The call must return, or raise a ValueError or a ShrinkLogitError
whose message names the argument: never a bare TypeError, AttributeError
or NumPy error, and never a result from an input the maths cannot take,
such as a complex array whose imaginary part NumPy would drop with only a
warning (the suite turns every warning into an error).

A DimensionMismatchError names the malformed argument too: every array
door checks C, beta, the restriction and C's definiteness in that order,
so with the other arguments valid a beta or restriction of the wrong width
is reported by its own name, and a C of the wrong shape by the size it
gives the others (``expected (2, 2)``, ``coefficient count 2``).
"""

import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    KINDS,
    DimensionMismatchError,
    Estimate,
    EstimatorSpec,
    FitOptions,
    FittedLogit,
    LinearRestriction,
    RiskScenario,
    ShrinkLogitError,
    a_matrix,
    check_all,
    d_sweep,
    estimate,
    residual,
    restricted_mle,
    risk,
    save_scenario,
    shrinkage_estimates,
    spectral_risk_terms,
)

GOOD_C = np.diag([3.0, 2.0, 1.0, 0.5])
GOOD_BETA = np.array([1.0, -1.0, 0.5, 0.25])
RESTRICTION = LinearRestriction([[1.0, 1.0, 0.0, 0.0]], [0.0])
SCENARIO = RiskScenario(GOOD_C, GOOD_BETA, RESTRICTION)
FIT = FittedLogit(beta_mle=GOOD_BETA, C=GOOD_C, iterations=1, converged=True, final_step=0.0)
SPEC = EstimatorSpec("raule", 0.5)


def estimates(C, beta_mle, kinds, d_grid, restriction):
    """shrinkage_estimates with the fit's two arrays as its own arguments."""
    fit = FittedLogit(beta_mle=beta_mle, C=C, iterations=1, converged=True, final_step=0.0)
    return shrinkage_estimates(fit, kinds, d_grid, restriction)


def risk_of(scenario):
    return risk(scenario, EstimatorSpec("raule", 0.5))


def save(scenario, d):
    return save_scenario(os.devnull, scenario, d)


def residual_of_beta(restriction, beta):
    """residual with the estimate's beta as its own argument."""
    return residual(restriction, Estimate(SPEC, beta))


def check_all_after_a_valid_d(scenario, d):
    """check_all on a scenario already checked at a valid d, whose record
    must let no malformed d or scenario through."""
    check_all(SCENARIO, 0.5)
    return check_all(scenario, d)


#: (door, argument, valid value); a door's other arguments take the valid
#: values of its other rows.
TABLE = [
    (RiskScenario, "C", GOOD_C),
    (RiskScenario, "beta_true", GOOD_BETA),
    (RiskScenario, "restriction", RESTRICTION),
    (restricted_mle, "C", GOOD_C),
    (restricted_mle, "beta_mle", GOOD_BETA),
    (restricted_mle, "restriction", RESTRICTION),
    (a_matrix, "C", GOOD_C),
    (a_matrix, "restriction", RESTRICTION),
    (estimates, "C", GOOD_C),
    (estimates, "beta_mle", GOOD_BETA),
    (estimates, "kinds", KINDS),
    (estimates, "d_grid", [0.0, 0.5]),
    (estimates, "restriction", RESTRICTION),
    (estimate, "fit", FIT),
    (estimate, "spec", SPEC),
    (estimate, "restriction", RESTRICTION),
    (d_sweep, "scenario", SCENARIO),
    (d_sweep, "kinds", KINDS),
    (d_sweep, "d_grid", [0.0, 0.5]),
    (risk_of, "scenario", SCENARIO),
    (risk, "scenario", SCENARIO),
    (risk, "spec", SPEC),
    (check_all, "scenario", SCENARIO),
    (check_all, "d", 0.5),
    (check_all_after_a_valid_d, "scenario", SCENARIO),
    (check_all_after_a_valid_d, "d", 0.5),
    (spectral_risk_terms, "scenario", SCENARIO),
    (save, "scenario", SCENARIO),
    (save, "d", 0.5),
    (residual, "restriction", RESTRICTION),
    (residual, "est", Estimate(SPEC, GOOD_BETA)),
    (residual_of_beta, "restriction", RESTRICTION),
    (residual_of_beta, "beta", GOOD_BETA),
    (FitOptions, "max_iter", 50),
    (FitOptions, "tol", 1e-8),
    (FitOptions, "prob_clip", 1e-6),
]

#: How a message names an argument, where that is not by the argument's own
#: name: C's shape errors say "square matrix", pinned in tests/test_doors.py.
NAMED_AS = {
    "C": r"\bC\b|square matrix",
    "kinds": r"\bkinds?\b",
    "d_grid": r"\bd\b",
    "d": r"\bd\b",
    "beta": r"\best\.beta\b",
}

#: The ROADMAP door probe's malformed values and the valid arrays made
#: complex; each is tried at every row, and the strategy draws more.
PROBE = [
    None,
    True,
    False,
    "str",
    b"bytes",
    {"key": 1.0},
    [[1.0, 2.0], [3.0]],
    (RESTRICTION.H, RESTRICTION.h),
    float("nan"),
    float("inf"),
    np.array(0.5),
    np.zeros((2, 2, 2)),
    [],
    ["mle", 3],
    [0.5, None],
    1j,
    GOOD_C * (1.0 + 1.0j),
    GOOD_BETA * 1j,
    np.array([0.5 + 0j]),
    10**400,
    Fraction(-(10**400)),
    [10**400, 1.0, 0.5, 0.25],
    ["1", "2.5"],
    np.array(["1", "2.5"]),
    np.array([b"1", b"2.5"]),
    np.array([1.0, "2.5"], dtype=object),
]
#: The probe values, a fresh iterator or object, and constant complex
#: arrays of every rank up to 3.
MALFORMED = st.one_of(
    st.sampled_from(PROBE),
    st.builds(lambda: iter([1.0, 2.0])),
    st.builds(object),
    st.builds(
        np.full,
        st.sampled_from([(), (4,), (4, 4), (2, 4, 4)]),
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    ),
)


def _row_id(row):
    return f"{row[0].__name__}-{row[1]}"


def every_probe_value(test):
    for value in reversed(PROBE):
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("row", TABLE, ids=[_row_id(row) for row in TABLE])
@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@every_probe_value
@given(value=MALFORMED)
def test_every_door_returns_or_names_the_argument(row, value):
    door, argument, _ = row
    arguments = {name: valid for other, name, valid in TABLE if other is door}
    arguments[argument] = value
    try:
        door(**arguments)
    except (ValueError, ShrinkLogitError) as error:
        pattern = NAMED_AS.get(argument, re.escape(argument))
        if argument == "C" and isinstance(error, DimensionMismatchError):
            shape = np.shape(value)  # the size a C of this shape gives beta or the restriction
            pattern = rf"expected {re.escape(str(shape[:-1]))}$|coefficient count {shape[-1]}$"
        assert re.search(pattern, str(error)), f"{type(error).__name__}: {error}"


@pytest.mark.parametrize("row", TABLE, ids=[_row_id(row) for row in TABLE])
def test_every_door_takes_its_valid_values(row):
    door = row[0]
    door(**{name: valid for other, name, valid in TABLE if other is door})
