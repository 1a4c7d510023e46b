import numpy as np
import pytest

from ifwb.errors import NotPositiveDefinite, NotSymmetric, RankDeficient
from ifwb.linalg import (
    cholesky_lower,
    complex_to_real,
    gram_schmidt,
    gram_schmidt_norms,
    realify_vector,
)


class TestCholeskyLower:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(2)), np.eye(2))

    def test_closed_form_2x2(self):
        # [[4,2],[2,5]] = [[2,0],[1,2]] [[2,1],[0,2]]
        l = cholesky_lower([[4.0, 2.0], [2.0, 5.0]])
        np.testing.assert_allclose(l, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.standard_normal((5, 5))
            s = m.T @ m + np.eye(5)
            l = cholesky_lower(s)
            assert np.abs(l @ l.T - s).max() <= 1e-10 * np.abs(s).max()
            assert np.all(np.diag(l) > 0)
            assert np.abs(np.triu(l, 1)).max() == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            l = np.tril(rng.standard_normal((4, 4)))
            np.fill_diagonal(l, np.abs(np.diag(l)) + 0.5)
            l2 = cholesky_lower(l @ l.T)
            assert np.abs(l2 - l).max() <= 1e-9 * np.abs(l).max()

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_lower([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            cholesky_lower([[np.nan, 0.0], [0.0, 1.0]])


class TestCholeskyLowerStack:
    @staticmethod
    def _spd_stack(seed, shape=(3, 4), n=3):
        m = np.random.default_rng(seed).standard_normal(shape + (n, n))
        return m @ np.swapaxes(m, -1, -2) + np.eye(n)

    def test_bitwise_equal_to_one_by_one(self):
        for shape, n in (((7,), 2), ((3, 4), 3), ((1,), 5)):
            s = self._spd_stack(shape[0] + n, shape, n)
            l = cholesky_lower(s)
            assert l.shape == s.shape
            for idx in np.ndindex(*shape):
                np.testing.assert_array_equal(l[idx], cholesky_lower(s[idx]))

    @pytest.mark.parametrize(
        "bad, error",
        [
            ([[1.0, 0.0], [0.0, -1.0]], NotPositiveDefinite),
            ([[0.0, 0.0], [0.0, 0.0]], NotPositiveDefinite),
            ([[np.nan, 0.0], [0.0, 1.0]], ValueError),
        ],
    )
    def test_one_bad_matrix_fails_the_stack(self, bad, error):
        s = self._spd_stack(5, (4,), 2)
        s[2] = bad
        with pytest.raises(error):
            cholesky_lower(s)

    def test_symmetry_is_judged_against_each_matrix_scale(self):
        # 1e-6 asymmetry passes next to entries of 1e6 but not next to entries of 1
        big = np.array([[1e6, 1.0], [1.0, 1e6]])
        small = np.array([[1.0, 1e-6], [0.0, 1.0]])
        cholesky_lower(big + np.array([[0.0, 1e-6], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            cholesky_lower(np.stack([big, small]))


class TestGramSchmidt:
    def test_identity(self):
        fstar, r = gram_schmidt(np.eye(3))
        np.testing.assert_array_equal(fstar, np.eye(3))
        np.testing.assert_array_equal(r, np.eye(3))

    def test_forced_2x2(self):
        f = np.array([[1.0, 1.0], [0.0, 1.0]])  # columns (1,0), (1,1)
        fstar, r = gram_schmidt(f)
        np.testing.assert_allclose(fstar, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(r, [[1.0, 1.0], [0.0, 1.0]], atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            f = rng.standard_normal((4, 3))
            fstar, r = gram_schmidt(f)
            assert np.abs(fstar @ r - f).max() <= 1e-10 * np.abs(f).max()
            dots = fstar.T @ fstar
            off = np.abs(dots - np.diag(np.diag(dots))).max()
            assert off <= 1e-10 * np.abs(dots).max()
            np.testing.assert_array_equal(np.diag(r), np.ones(3))

    def test_det_equals_product_of_norms(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            f = rng.standard_normal((4, 4))
            det = abs(np.linalg.det(f))
            prod = float(np.prod(gram_schmidt_norms(f)))
            assert abs(det - prod) <= 1e-9 * max(det, 1.0)

    def test_rank_deficient(self):
        f = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficient):
            gram_schmidt(f)
        with pytest.raises(RankDeficient):
            gram_schmidt(np.ones((2, 3)))


class TestComplexToReal:
    def test_real_scalar(self):
        np.testing.assert_array_equal(complex_to_real([[1.0]]), np.eye(2))

    def test_imaginary_unit(self):
        np.testing.assert_array_equal(complex_to_real([[1j]]), [[0.0, -1.0], [1.0, 0.0]])

    def test_multiplication_compatible(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            hc = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            xc = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            lhs = realify_vector(hc @ xc)
            rhs = complex_to_real(hc) @ realify_vector(xc)
            assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())

    def test_frobenius_scaling(self):
        rng = np.random.default_rng(6)
        hc = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        assert np.isclose(
            np.linalg.norm(complex_to_real(hc)), np.sqrt(2.0) * np.linalg.norm(hc)
        )

    def test_block_shape(self):
        hc = np.ones((2, 3), dtype=complex)
        assert complex_to_real(hc).shape == (4, 6)
