"""IRLS fitting against closed forms and an independent Newton oracle."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.special import expit

from shrinklogit import (
    Dataset,
    FitOptions,
    LinearRestriction,
    NotConvergedError,
    SingularInformationError,
    irls_fit,
    is_psd,
    working_quantities,
)
from shrinklogit.linalg import definiteness_error


def newton_mle(X, y, iterations=100, tol=1e-12):
    """Brute-force Newton-Raphson on the exact log likelihood.

    Independent of the IRLS working-response machinery: iterates
    beta <- beta + (X'WX)^-1 X'(y - pi) on the raw score and Hessian.
    """
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        pi = expit(X @ beta)
        w = pi * (1.0 - pi)
        step = np.linalg.solve(X.T @ (w[:, None] * X), X.T @ (y - pi))
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta


def random_dataset(rng, n=60, p=3, intercept=True, beta_scale=1.0):
    x = rng.standard_normal((n, p))
    if intercept:
        x = np.column_stack([np.ones(n), x])
    beta = beta_scale * rng.standard_normal(x.shape[1])
    y = (rng.random(n) < expit(x @ beta)).astype(float)
    return Dataset(x, y, has_intercept=intercept)


class TestDatasetValidation:
    def test_rejects_non_binary_response(self):
        with pytest.raises(ValueError, match="0 or 1"):
            Dataset(np.ones((3, 1)), np.array([0.0, 1.0, 2.0]))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((2, 3)), np.array([0.0, 1.0]))

    def test_rejects_non_finite_design(self):
        x = np.ones((3, 1))
        x[1, 0] = np.nan
        with pytest.raises(ValueError):
            Dataset(x, np.array([0.0, 1.0, 0.0]))

    @pytest.mark.parametrize(
        "X, y, message",
        [
            pytest.param(np.ones(3), np.ones(3), "X must be 2-dimensional, got shape (3,)", id="1-d-X"),
            pytest.param(np.ones((3, 1, 1)), np.ones(3), "X must be 2-dimensional, got shape (3, 1, 1)", id="3-d-X"),
            pytest.param(np.ones((3, 1)), np.ones(2), "y has shape (2,), expected (3,)", id="short-y"),
            pytest.param(np.ones((3, 1)), np.ones((3, 1)), "y has shape (3, 1), expected (3,)", id="column-y"),
        ],
    )
    def test_rejects_a_design_or_response_of_the_wrong_shape(self, X, y, message):
        with pytest.raises(ValueError) as caught:
            Dataset(X, y)
        assert str(caught.value) == message

    def test_rejects_bad_intercept_flag(self):
        with pytest.raises(ValueError):
            Dataset(np.arange(6.0).reshape(3, 2), np.array([0.0, 1.0, 0.0]), has_intercept=True)


class TestFitOptions:
    @pytest.mark.parametrize(
        "kwargs", [{"max_iter": 0}, {"tol": 0.0}, {"prob_clip": 0.0}, {"prob_clip": 0.5}]
    )
    def test_rejects_bad_options(self, kwargs):
        with pytest.raises(ValueError):
            FitOptions(**kwargs)

    def test_rejects_nan_tolerance(self):
        # tol <= 0 is false for NaN, and every fit would then run to max_iter
        with pytest.raises(ValueError, match="^tol must be positive$"):
            FitOptions(tol=float("nan"))

    @pytest.mark.parametrize("max_iter", [2.5, float("nan"), 3.0, "3", True, False], ids=repr)
    def test_rejects_a_max_iter_that_is_not_an_integer(self, max_iter):
        # max_iter < 1 is false for 2.5 and NaN, and the fit then raised TypeError
        with pytest.raises(ValueError, match="^max_iter must be an integer, got "):
            FitOptions(max_iter=max_iter)

    @pytest.mark.parametrize("name", ["tol", "prob_clip"])
    @pytest.mark.parametrize("value", [True, False, "x", None, 0.5j, np.array(0.1)], ids=repr)
    def test_rejects_a_tolerance_or_clip_that_is_not_a_real_number(self, name, value):
        # tol=True was kept as the bool, and "x" or None raised TypeError from the range check
        with pytest.raises(ValueError) as caught:
            FitOptions(**{name: value})
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.25), Fraction(1, 4)], ids=repr)
    def test_keeps_a_tolerance_and_clip_of_any_real_type_as_a_float(self, value):
        opts = FitOptions(tol=value, prob_clip=value)
        assert type(opts.tol) is float and opts.tol == 0.25
        assert type(opts.prob_clip) is float and opts.prob_clip == 0.25

    @pytest.mark.parametrize("max_iter", [np.int64(7), np.uint8(7), 7])
    def test_accepts_any_integer_type_as_an_int(self, max_iter):
        opts = FitOptions(max_iter=max_iter)
        assert type(opts.max_iter) is int and opts.max_iter == 7
        data = Dataset(np.array([[1.0, -1.0], [1.0, 0.5], [1.0, 1.0], [1.0, -0.3]]), np.array([0.0, 1.0, 0.0, 1.0]))
        assert irls_fit(data, opts).iterations <= 7


class TestWorkingQuantities:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng)
        w, z, c = working_quantities(data, np.zeros(data.m))
        np.testing.assert_allclose(w, 0.25)
        np.testing.assert_allclose(c, 0.25 * data.X.T @ data.X, atol=1e-12)

    def test_single_row_at_log_three(self):
        # pi = 3/4 at eta = log 3, so the weight is (3/4)(1/4)
        data = Dataset(np.array([[1.0]]), np.array([1.0]))
        w, _, _ = working_quantities(data, np.array([np.log(3.0)]))
        assert w[0] == pytest.approx(0.75 * 0.25)

    def test_clamped_rows(self):
        opts = FitOptions()
        data = Dataset(np.array([[1.0], [1.0]]), np.array([1.0, 0.0]))
        w, _, _ = working_quantities(data, np.array([50.0]), opts)
        np.testing.assert_allclose(w, opts.prob_clip * (1.0 - opts.prob_clip))

    def test_information_is_psd_for_random_coefficients(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng)
        for _ in range(20):
            beta = rng.standard_normal(data.m) * rng.uniform(0, 20)
            _, _, c = working_quantities(data, beta)
            assert is_psd(c).ok


class TestIrlsFit:
    def test_intercept_only_balanced(self):
        data = Dataset(np.ones((4, 1)), np.array([0.0, 1.0, 0.0, 1.0]))
        fit = irls_fit(data)
        assert fit.beta_mle[0] == pytest.approx(0.0, abs=1e-12)

    def test_intercept_only_three_of_four(self):
        # closed form: pi-hat = 3/4, so beta = logit(3/4) = log 3
        data = Dataset(np.ones((4, 1)), np.array([1.0, 1.0, 1.0, 0.0]))
        fit = irls_fit(data)
        assert fit.beta_mle[0] == pytest.approx(np.log(3.0), abs=1e-8)

    def test_against_newton_oracle_small(self):
        # overlapping classes keep the MLE finite, so both solvers agree
        x = np.column_stack([np.ones(6), np.array([-2.0, -1.0, 0.0, 0.0, 1.0, 2.0])])
        y = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        data = Dataset(x, y, has_intercept=True)
        fit = irls_fit(data)
        np.testing.assert_allclose(fit.beta_mle, newton_mle(x, y), atol=1e-8)

    def test_against_newton_oracle_random(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            data = random_dataset(rng, n=80, p=3)
            fit = irls_fit(data)
            np.testing.assert_allclose(fit.beta_mle, newton_mle(data.X, data.y), atol=1e-7)

    def test_fixed_point_at_returned_state(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng)
        opts = FitOptions()
        fit = irls_fit(data, opts)
        w, z, _ = working_quantities(data, fit.beta_mle, opts)
        refit = np.linalg.solve(fit.C, data.X.T @ (w * z))
        assert np.max(np.abs(refit - fit.beta_mle)) <= opts.tol

    def test_score_vanishes_at_fit(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng)
        opts = FitOptions()
        fit = irls_fit(data, opts)
        w, z, _ = working_quantities(data, fit.beta_mle, opts)
        score = data.X.T @ (w * (z - data.X @ fit.beta_mle))
        assert np.max(np.abs(score)) <= 10 * opts.tol

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng)
        first = irls_fit(data)
        second = irls_fit(data)
        assert np.array_equal(first.beta_mle, second.beta_mle)
        assert np.array_equal(first.C, second.C)
        assert first.iterations == second.iterations

    def test_row_doubling_invariance(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng)
        doubled = Dataset(
            np.vstack([data.X, data.X]), np.concatenate([data.y, data.y]),
            has_intercept=data.has_intercept,
        )
        np.testing.assert_allclose(
            irls_fit(data).beta_mle, irls_fit(doubled).beta_mle, atol=1e-8
        )

    def test_not_converged_carries_partial_fit(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, beta_scale=2.0)
        with pytest.raises(NotConvergedError) as excinfo:
            irls_fit(data, FitOptions(max_iter=2))
        partial = excinfo.value.fit
        assert partial is not None
        assert not partial.converged
        assert partial.iterations == 2
        assert partial.final_step > 1e-8

    def test_singular_information(self):
        x = np.column_stack([np.ones(10), np.ones(10)])
        y = np.array([0.0, 1.0] * 5)
        with pytest.raises(SingularInformationError) as caught:
            irls_fit(Dataset(x, y))
        # the message reports the eigenvalues of X'WX at the failing iterate
        _, _, c = working_quantities(Dataset(x, y), np.zeros(2))
        assert str(caught.value) == str(definiteness_error(np.linalg.eigvalsh(c), "information matrix X'WX"))

    def test_weights_in_bernoulli_range(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng)
        opts = FitOptions()
        w, _, _ = working_quantities(data, irls_fit(data, opts).beta_mle, opts)
        assert np.all(w > 0.0)
        assert np.all(w <= 0.25)


class TestLinearRestriction:
    def test_shape_and_rank_validation(self):
        with pytest.raises(ValueError):
            LinearRestriction(np.ones((3, 2)), np.zeros(3))  # q > m
        with pytest.raises(ValueError):
            LinearRestriction(np.array([[1.0, 1.0], [1.0, 1.0]]), np.zeros(2))  # rank deficient
        with pytest.raises(ValueError):
            LinearRestriction(np.eye(2), np.zeros(3))  # h length

    @pytest.mark.parametrize(
        "H, h",
        [
            pytest.param([[1.0, np.inf]], [0.0], id="inf-H"),
            pytest.param([[1.0, 0.0]], [np.nan], id="nan-h"),
        ],
    )
    def test_rejects_non_finite_entries(self, H, h):
        with pytest.raises(ValueError) as caught:
            LinearRestriction(H, h)
        assert str(caught.value) == "restriction has non-finite entries"

    def test_properties(self):
        r = LinearRestriction(np.array([[1.0, 0.0, -2.0]]), np.array([0.5]))
        assert r.q == 1
        assert r.width == 3

    def test_later_edits_by_the_caller_change_nothing(self):
        H, h = np.array([[1.0, 0.0]]), np.array([1.0])
        r = LinearRestriction(H, h)
        null_basis, particular = r.null_basis.copy(), r.particular.copy()
        H[0] = [0.0, 1.0]
        h[0] = 5.0
        assert np.array_equal(r.H, [[1.0, 0.0]]) and np.array_equal(r.h, [1.0])
        assert np.array_equal(r.null_basis, null_basis)
        assert np.array_equal(r.particular, particular)
        assert np.allclose(r.H @ r.null_basis, 0.0)

    @pytest.mark.parametrize("name", ["H", "h", "null_basis", "particular"])
    def test_arrays_are_read_only(self, name):
        r = LinearRestriction(np.array([[1.0, -1.0, 0.0]]), np.array([0.5]))
        with pytest.raises(ValueError, match="read-only"):
            getattr(r, name)[0] = 9.0
