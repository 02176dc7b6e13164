"""Every public door that takes a caller's C, beta and restriction checks
them the same way, through ``estimators._information``: the same error
type and message from each door for each bad input. That door is also
the one place where beta is converted, and ``linalg.symmetrize`` the one
where C is: anything but an array of real numbers is refused there.

A door's messages name its own beta argument (``beta_mle`` or
``beta_true``) and give its own shapes: a single fit's are (m,) and
(m, m), a stack's carry its row axis in front.

Every door that takes estimator kinds or d values checks them through
``estimators._check_request``: an item of the wrong type is one
ValueError naming it at each door. Every door that takes a scenario
checks it first, through ``risk._check_scenario``.
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
    check_all,
    check_c31,
    check_t33,
    check_t34,
    check_t35,
    check_t36,
    check_t37,
    d_sweep,
    default_restriction,
    estimate,
    ld_matrix,
    liu_matrix,
    restricted_mle,
    risk,
    save_scenario,
    shrinkage_estimates,
    spectral_risk_terms,
    table_suite,
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


#: name -> (make C, make beta, error type: InvalidMatrixError naming C or
#: ValueError naming the door's beta).
#: Each is built fresh, since an iterator is spent once read. NumPy would
#: read a complex C or beta with only a warning, dropping its imaginary part.
NOT_REAL = {
    "complex-C": (lambda: GOOD_C + 1j * np.eye(4), lambda: GOOD_BETA, InvalidMatrixError),
    "complex-C-with-zero-imaginary-part": (lambda: GOOD_C + 0j, lambda: GOOD_BETA, InvalidMatrixError),
    "iterator-C": (lambda: iter(GOOD_C), lambda: GOOD_BETA, InvalidMatrixError),
    "dict-C": (lambda: {0: GOOD_C}, lambda: GOOD_BETA, InvalidMatrixError),
    "object-C": (object, lambda: GOOD_BETA, InvalidMatrixError),
    "ragged-C": (lambda: [[3.0, 0.0], [0.0]], lambda: GOOD_BETA, InvalidMatrixError),
    "complex-beta": (lambda: GOOD_C, lambda: 1j * GOOD_BETA, ValueError),
    "iterator-beta": (lambda: GOOD_C, lambda: iter(GOOD_BETA), ValueError),
    "dict-beta": (lambda: GOOD_C, lambda: {0: 1.0}, ValueError),
    "object-beta": (lambda: GOOD_C, object, ValueError),
}

#: The doors for one C; a stack is read by the same conversion.
SINGLE_DOORS = [door for door in DOORS if "stack" not in door]


@pytest.mark.parametrize(
    "door, case", [(door, case) for door in SINGLE_DOORS for case in NOT_REAL if applies(door, case)]
)
def test_every_door_refuses_what_is_not_real_where_it_converts(door, case):
    """C is converted at ``symmetrize`` and beta at ``_information``, the one
    place each is read; both refuse anything but an array of real numbers."""
    call, beta_name, _ = DOORS[door]
    make_C, make_beta, error = NOT_REAL[case]
    with pytest.raises(error) as caught:
        call(make_C(), make_beta(), None)
    assert type(caught.value) is error
    named = "C" if error is InvalidMatrixError else beta_name
    assert str(caught.value) == f"{named} is not an array of real numbers"


@pytest.mark.parametrize(
    "call", [lambda: restricted_mle(GOOD_C, GOOD_BETA, None), lambda: a_matrix(GOOD_C, None)],
    ids=["restricted_mle", "a_matrix"],
)
def test_the_restricted_doors_refuse_a_missing_restriction_by_name(call):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == "restriction must be a LinearRestriction, got NoneType"


def _values(result):
    if isinstance(result, RiskScenario):
        return [result.C, result.beta_true, result.c_inv]
    return [getattr(result, "beta", result)]


@pytest.mark.parametrize("door", SINGLE_DOORS)
def test_every_door_reads_integer_arrays_and_lists_as_floats(door):
    call = DOORS[door][0]
    C, beta = 2 * GOOD_C, 4 * GOOD_BETA  # integral values
    expected = _values(call(C, beta, None))
    for as_given in (lambda a: a.astype(int), lambda a: a.tolist(), lambda a: a.astype(np.float32)):
        actual = _values(call(as_given(C), as_given(beta), None))
        assert all(a.dtype == float and np.array_equal(a, b) for a, b in zip(actual, expected))


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


#: door name -> call(kinds, d_grid): each door that takes kinds, d values or both.
REQUEST_DOORS = {
    "EstimatorSpec": lambda kinds, ds: EstimatorSpec(kinds[0], ds[0]),
    "shrinkage_estimates": lambda kinds, ds: shrinkage_estimates(fit_of(GOOD_C, GOOD_BETA), kinds, ds),
    "d_sweep": lambda kinds, ds: d_sweep(RiskScenario(GOOD_C, GOOD_BETA), kinds, ds),
    "SimulationConfig": lambda kinds, ds: SimulationConfig(
        n=50, p=4, rho=0.9, d_grid=ds, reps=1, seed=1, restriction=default_restriction(4), estimator_kinds=kinds
    ),
    "table_suite": lambda kinds, ds: table_suite(1, reps=2, d_grid=ds, estimator_kinds=kinds),
    "ld_matrix": lambda kinds, ds: ld_matrix(GOOD_C, ds[0]),
    "liu_matrix": lambda kinds, ds: liu_matrix(GOOD_C, ds[0]),
    "check_all": lambda kinds, ds: check_all(RiskScenario(GOOD_C, GOOD_BETA, RESTRICTION), ds[0]),
    "check_t33": lambda kinds, ds: check_t33(RiskScenario(GOOD_C, GOOD_BETA, RESTRICTION), ds[0]),
}

#: Doors that take a d but no kinds.
D_ONLY = {"ld_matrix", "liu_matrix", "check_all", "check_t33"}

#: name -> (kinds, d values, message); the bad item is first wherever a door
#: reads only the first, and a later rule (unknown kind, d out of range) is
#: broken too, so that the type rule must come first.
BAD_ITEMS = {
    "int-kind": ([3, "ridge"], [0.5], "estimator kind must be a string, got 3"),
    "none-kind": ([None], [0.5], "estimator kind must be a string, got None"),
    "late-int-kind": (["mle", 3], [0.5], "estimator kind must be a string, got 3"),
    "none-d": (["aule"], [None, 1.5], "d must be a real number, got None"),
    "bool-d": (["aule"], [True], "d must be a real number, got True"),
    "string-d": (["aule"], ["0.5"], "d must be a real number, got '0.5'"),
    "complex-d": (["aule"], [0.5j], "d must be a real number, got 0.5j"),
    "late-none-d": (["aule", "le"], [0.5, None], "d must be a real number, got None"),
}


def request_case_applies(door, case):
    """A d-only door sees no kinds; EstimatorSpec and the d-only doors see
    only the first item, and EstimatorSpec reads a d of None as no d."""
    if door in D_ONLY:
        return case.endswith("-d") and not case.startswith("late")
    if door == "EstimatorSpec":
        return not case.startswith("late") and case != "none-d"
    return True


@pytest.mark.parametrize(
    "door, case",
    [(door, case) for door in REQUEST_DOORS for case in BAD_ITEMS if request_case_applies(door, case)],
)
def test_every_request_door_names_an_item_of_the_wrong_type(door, case):
    kinds, ds, message = BAD_ITEMS[case]
    with pytest.raises(ValueError) as caught:
        REQUEST_DOORS[door](kinds, ds)
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


def test_estimator_spec_reads_a_d_of_none_as_no_d():
    with pytest.raises(ValueError) as caught:
        EstimatorSpec("aule", None)
    assert str(caught.value) == "estimator 'aule' needs a biasing parameter d"


def test_a_scenario_checked_first_at_a_d_of_none_is_refused():
    """Its record is empty, so no kept d can match None and skip the check."""
    scenario = RiskScenario(GOOD_C, GOOD_BETA, RESTRICTION)
    with pytest.raises(ValueError, match="^d must be a real number, got None$"):
        check_t33(scenario, None)
    check_t33(scenario, 0.5)
    with pytest.raises(ValueError, match="^d must be a real number, got None$"):
        check_all(scenario, None)


#: Doors that take the kinds and the d values as sequences.
SEQUENCE_DOORS = [door for door in REQUEST_DOORS if door != "EstimatorSpec" and door not in D_ONLY]


@pytest.mark.parametrize("door", SEQUENCE_DOORS)
@pytest.mark.parametrize("value", [None, object(), np.array(0.5)], ids=["none", "object", "0-d-array"])
@pytest.mark.parametrize(
    "argument, message",
    [("kinds", "estimator kinds must be a sequence of names"), ("d", "d values must be a sequence of numbers")],
)
def test_every_request_door_refuses_what_cannot_be_iterated(door, value, argument, message):
    """None, an object or a 0-d array in place of either sequence escaped as
    a bare TypeError from len() or iter()."""
    kinds, ds = (value, [0.5]) if argument == "kinds" else (["aule"], value)
    with pytest.raises(ValueError) as caught:
        REQUEST_DOORS[door](kinds, ds)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("door", [door for door in REQUEST_DOORS if door != "table_suite"])
def test_every_request_door_takes_real_numbers_of_any_type(door):
    for d in (0.5, np.float64(0.5), np.float32(0.5), 1, np.int64(0)):
        REQUEST_DOORS[door](["aule"], [d])


#: door name -> call(scenario, path): each door that takes a RiskScenario.
SCENARIO_DOORS = {
    "d_sweep": lambda sc, path: d_sweep(sc, ["mle"], [0.5]),
    "risk": lambda sc, path: risk(sc, EstimatorSpec("mle")),
    "spectral_risk_terms": lambda sc, path: spectral_risk_terms(sc),
    "save_scenario": lambda sc, path: save_scenario(path, sc),
    **{
        check.__name__: (lambda sc, path, check=check: check(sc, 0.5))
        for check in (check_all, check_t33, check_t34, check_t35, check_t36, check_t37, check_c31)
    },
}


@pytest.mark.parametrize("door", SCENARIO_DOORS)
@pytest.mark.parametrize(
    "value, name", [("x", "str"), (None, "NoneType"), ((GOOD_C, GOOD_BETA, RESTRICTION), "tuple")]
)
def test_every_scenario_door_refuses_what_is_not_a_scenario(door, value, name, tmp_path):
    path = tmp_path / "scenario.txt"
    with pytest.raises(ValueError) as caught:
        SCENARIO_DOORS[door](value, path)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"scenario must be a RiskScenario, got {name}"
    assert not path.exists()


def test_every_scenario_door_takes_a_scenario(tmp_path):
    scenario = RiskScenario(GOOD_C, GOOD_BETA, RESTRICTION)
    for call in SCENARIO_DOORS.values():
        call(scenario, tmp_path / "scenario.txt")
