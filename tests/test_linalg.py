"""Symmetric kernel operations against hand-solved cases and random corpora."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from shrinklogit import (
    InvalidMatrixError,
    NotPSDError,
    in_range,
    is_psd,
    lambda_max_ratio,
    moore_penrose,
    sym_eigen,
    symmetrize,
)
from shrinklogit.linalg import (
    PSD_SLACK,
    RANK_CUT,
    _certify_positive_definite,
    definiteness_error,
    positive_definite,
)
from helpers import random_symmetric


def random_corpus(seed=1234, count=500, rank_deficient_share=0.4):
    """Random symmetric matrices of dims 2..10, many of them rank deficient.

    Nonzero eigenvalues stay well away from the rank cut so the numerical
    rank is unambiguous.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(2, 11))
        eigenvalues = rng.uniform(-1.0, 1.0, size=m) * np.exp(rng.uniform(0, 3))
        eigenvalues[np.abs(eigenvalues) < 1e-3] = 1e-3
        if rng.random() < rank_deficient_share:
            k = int(rng.integers(1, m))
            eigenvalues[rng.choice(m, size=k, replace=False)] = 0.0
        out.append(random_symmetric(rng, m, eigenvalues))
    return out


class TestSymmetrize:
    def test_symmetric_part(self):
        m = np.array([[1.0, 2.0], [0.0, 3.0]])
        np.testing.assert_allclose(symmetrize(m), [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidMatrixError):
            symmetrize(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrixError):
            symmetrize(np.array([[1.0, np.nan], [0.0, 1.0]]))


class TestThresholds:
    def test_values(self):
        assert RANK_CUT == 1e-10
        assert PSD_SLACK == 1e-8


class TestSymEigen:
    def test_identity(self):
        dec = sym_eigen(np.eye(3))
        np.testing.assert_allclose(dec.values, np.ones(3))
        np.testing.assert_allclose(dec.basis @ dec.basis.T, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        dec = sym_eigen(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.values, [4.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.basis), np.eye(2), atol=1e-12)

    def test_two_by_two_by_hand(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-t)^2 = 1, roots 3 and 1
        dec = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(dec.values, [3.0, 1.0], atol=1e-12)
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        w = np.array([1.0, -1.0]) / np.sqrt(2)
        assert abs(dec.basis[:, 0] @ v) == pytest.approx(1.0, abs=1e-12)
        assert abs(dec.basis[:, 1] @ w) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidMatrixError):
            sym_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_reconstruction_corpus(self):
        for m in random_corpus(seed=7, count=500):
            dec = sym_eigen(m)
            scale = max(np.abs(dec.values).max(), 1e-30)
            err = np.abs(dec.reconstruct() - m).max() / scale
            assert err <= 1e-10
            np.testing.assert_allclose(dec.basis.T @ dec.basis, np.eye(m.shape[0]), atol=1e-10)
            assert np.all(np.diff(dec.values) <= 1e-12)


class TestMoorePenrose:
    def test_diagonal(self):
        np.testing.assert_allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)

    def test_identity(self):
        np.testing.assert_allclose(moore_penrose(np.eye(3)), np.eye(3), atol=1e-14)

    def test_rank_one(self):
        # for M = vv' the Penrose conditions are solved by vv' / |v|^4
        v = np.array([1.0, 1.0])
        m = np.outer(v, v)
        np.testing.assert_allclose(moore_penrose(m), m / 4.0, atol=1e-14)

    def test_zero_matrix(self):
        np.testing.assert_allclose(moore_penrose(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_involution_corpus(self):
        for m in random_corpus(seed=11, count=200):
            back = moore_penrose(moore_penrose(m))
            scale = max(np.abs(m).max(), 1e-30)
            assert np.abs(back - m).max() / scale <= 1e-8

    def test_penrose_conditions_corpus(self):
        for m in random_corpus(seed=13, count=500):
            p = moore_penrose(m)
            scale = max(np.abs(m).max(), 1.0)
            assert np.abs(m @ p @ m - m).max() / scale <= 1e-10
            assert np.abs(p @ m @ p - p).max() / max(np.abs(p).max(), 1.0) <= 1e-10
            mp = m @ p
            pm = p @ m
            assert np.abs(mp - mp.T).max() <= 1e-10 * max(1.0, np.abs(mp).max())
            assert np.abs(pm - pm.T).max() <= 1e-10 * max(1.0, np.abs(pm).max())


class TestIsPsd:
    def test_identity(self):
        result = is_psd(np.eye(2))
        assert result.ok and bool(result)
        assert result.min_eigenvalue == pytest.approx(1.0)

    def test_diagonal_negative(self):
        result = is_psd(np.diag([1.0, -0.5]))
        assert not result.ok
        assert result.min_eigenvalue == pytest.approx(-0.5)

    def test_off_diagonal_by_hand(self):
        # eigenvalues of [[1,2],[2,1]] are 3 and -1
        result = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not result.ok
        assert result.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)

    def test_slack(self):
        assert is_psd(np.diag([1.0, -1e-9])).ok
        assert not is_psd(np.diag([1.0, -1e-6])).ok


class TestInRange:
    def test_diagonal_cases(self):
        m = np.diag([1.0, 0.0])
        assert in_range(np.array([1.0, 0.0]), m)
        assert not in_range(np.array([0.0, 1.0]), m)

    def test_rank_one_span(self):
        v = np.array([1.0, 1.0])
        assert in_range(v, np.outer(v, v))
        assert not in_range(np.array([1.0, -1.0]), np.outer(v, v))

    def test_zero_vector_always_in_range(self):
        assert in_range(np.zeros(2), np.zeros((2, 2)))
        assert in_range(np.zeros(2), np.diag([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidMatrixError):
            in_range(np.ones(3), np.eye(2))


class TestLambdaMaxRatio:
    def test_scaled_identity(self):
        assert lambda_max_ratio(0.5 * np.eye(3), np.eye(3)) == pytest.approx(0.5)

    def test_equal_pd_matrices(self):
        rng = np.random.default_rng(5)
        m = random_symmetric(rng, 4, [3.0, 2.0, 1.5, 0.5])
        assert lambda_max_ratio(m, m) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_with_null_direction(self):
        assert lambda_max_ratio(np.diag([1.0, 0.0]), np.diag([2.0, 3.0])) == pytest.approx(0.5)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            lambda_max_ratio(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(NotPSDError):
            lambda_max_ratio(np.eye(2), np.diag([1.0, -1.0]))

    def test_matches_psd_ordering_for_pd_denominator(self):
        # ratio <= 1 is equivalent to M - N being nonnegative definite
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(300):
            m_dim = int(rng.integers(2, 7))
            denom = random_symmetric(rng, m_dim, rng.uniform(0.5, 3.0, size=m_dim))
            numer = random_symmetric(rng, m_dim, rng.uniform(0.0, 2.0, size=m_dim))
            ratio = lambda_max_ratio(numer, denom)
            if abs(ratio - 1.0) < 1e-6:
                continue
            assert (ratio <= 1.0) == is_psd(denom - numer).ok
            checked += 1
        assert checked > 250


#: How the smallest eigenvalue of a drawn matrix sits against the largest (1).
SPECTRA = {
    "conditioned": st.floats(0.0, 13.0).map(lambda k: 10.0**-k),
    "near the cut": st.floats(-11.0, -9.0).map(lambda k: 10.0**k),
    "near the certificate": st.floats(-10.0, -7.0).map(lambda k: 10.0**k),
    "singular": st.just(0.0),
    "indefinite": st.floats(0.0, 12.0).map(lambda k: -(10.0**-k)),
    "zero": st.just(None),
}


@st.composite
def symmetric_stacks(draw):
    """Stacks (R, m, m) mixing rows of every kind in SPECTRA, at scales up to 1e200."""
    m, rows = draw(st.integers(1, 10)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = []
    for _ in range(rows):
        low = draw(st.sampled_from(sorted(SPECTRA)).flatmap(SPECTRA.get))
        if low is None:
            stack.append(np.zeros((m, m)))
            continue
        middle = np.abs(low) ** rng.uniform(0.0, 1.0, size=max(m - 2, 0)) if low else rng.uniform(0.0, 1.0, m)
        eigenvalues = np.concatenate([[1.0, low], middle])[:m] if m > 1 else np.array([low])
        scale = draw(st.sampled_from([1.0, 1e-3, 1e5, 1e200, -1.0]))
        stack.append(symmetrize(random_symmetric(rng, m, scale * eigenvalues)))
    return np.stack(stack)


class TestCertifyPositiveDefinite:
    """The shifted-Cholesky certificate decides every row as positive_definite
    does on the eigvalsh spectrum, and hands over that spectrum when needed."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(symmetric_stacks())
    def test_same_verdict_as_the_eigenvalue_route(self, stack):
        spectrum = np.linalg.eigvalsh(stack)
        expected = positive_definite(spectrum)
        definite, eigenvalues = _certify_positive_definite(stack)
        assert np.array_equal(definite, expected)
        assert eigenvalues is None or np.array_equal(eigenvalues, spectrum)
        for i in range(stack.shape[0]):
            alone, _ = _certify_positive_definite(stack[i : i + 1])
            assert alone[0] == expected[i]

    def test_well_conditioned_rows_need_no_eigensolve(self):
        stack = np.stack([np.eye(3), np.diag([1e3, 1.0, 1e-3]), 1e200 * np.eye(3)])
        definite, eigenvalues = _certify_positive_definite(stack)
        assert definite.all() and eigenvalues is None

    def test_band_near_the_cut_is_left_to_the_eigenvalues(self):
        # positive definite at RANK_CUT, yet below the certificate's shift
        stack = np.diag([1.0, 1.5 * RANK_CUT])[None]
        definite, eigenvalues = _certify_positive_definite(stack)
        assert definite.all() and eigenvalues is not None

    def test_non_finite_factor_is_no_certificate(self, monkeypatch):
        stack = np.stack([np.eye(2), np.diag([1.0, 0.1 * RANK_CUT])])
        monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan))
        definite, eigenvalues = _certify_positive_definite(stack)
        assert definite.tolist() == [True, False]
        assert np.array_equal(eigenvalues, np.linalg.eigvalsh(stack))

    def test_failing_rows_get_the_eigenvalue_route_message(self):
        stack = np.stack([np.eye(3), np.diag([1.0, 1e-12, 2.0]), np.diag([1.0, -1.0, 0.5]), np.zeros((3, 3))])
        definite, eigenvalues = _certify_positive_definite(stack)
        assert definite.tolist() == [True, False, False, False]
        for i in (1, 2, 3):
            message = str(definiteness_error(eigenvalues[i], "X'WX"))
            assert message == str(definiteness_error(np.linalg.eigvalsh(stack[i]), "X'WX"))
