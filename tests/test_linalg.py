import numpy as np
import pytest

from ifwb.errors import NotPositiveDefinite, NotSymmetric
from ifwb.linalg import cholesky_lower, complex_to_real


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


def _realify(xc):
    """Real parts stacked over imaginary parts of a complex vector."""
    return np.concatenate([xc.real, xc.imag])


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
            lhs = _realify(hc @ xc)
            rhs = complex_to_real(hc) @ _realify(xc)
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
