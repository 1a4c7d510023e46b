import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conditioned_channel
from ifwb.errors import DegenerateBasis, DimensionTooLarge
from ifwb.lattice import (
    _bareiss,
    _sign_representatives,
    brute_force_min_max,
    int_det,
    is_kz_reduced,
    is_unimodular,
    kz_approx_successive_lll,
    kz_reduce,
    lll_reduce,
    shortest_vector,
)
from ifwb.linalg import cholesky_lower


def _ok(b):
    from ifwb.lattice import validate_basis

    try:
        validate_basis(b)
        return True
    except DegenerateBasis:
        return False


def _random_unimodular(rng, dim):
    """Unimodular integer matrix: a product of signed permutations and
    elementary column operations with multipliers in [-2, 2]."""
    u = np.eye(dim, dtype=np.int64)[:, rng.permutation(dim)] * rng.choice([-1, 1], size=dim)
    for _ in range(2 * dim):
        i, j = rng.choice(dim, size=2, replace=False)
        u[:, i] += int(rng.integers(-2, 3)) * u[:, j]
    return u


def draw_basis(rng, dim, ambient=None):
    """Random integer basis, resampled until the columns are independent."""
    ambient = ambient or dim
    while True:
        b = rng.integers(-5, 6, size=(ambient, dim)).astype(float)
        if _ok(b):
            return b


class TestIntegerHelpers:
    def test_int_det_matches_float(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = rng.integers(-9, 10, size=(4, 4))
            assert int_det(a) == round(np.linalg.det(a.astype(float)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), m=st.integers(1, 8), shape=st.sampled_from(["upper", "lower", "full"]))
    def test_int_det_matches_the_elimination(self, data, m, shape):
        """The diagonal product taken for triangular matrices, diagonal zeros
        included, is the determinant that Bareiss elimination returns."""
        entries = data.draw(st.lists(st.integers(-6, 6), min_size=m * m, max_size=m * m))
        a = np.array(entries, dtype=np.int64).reshape(m, m)
        zeros = data.draw(st.lists(st.booleans(), min_size=m, max_size=m))
        a[np.diag_indices(m)] *= ~np.array(zeros)
        if shape != "full":
            a = np.triu(a) if shape == "upper" else np.tril(a)
        assert int_det(a) == _bareiss(a.tolist())
        assert int_det(a.astype(float)) == _bareiss(a.tolist())

    def test_triangular_matrix_skips_the_elimination(self, monkeypatch):
        import ifwb.lattice as lattice_module

        a = np.array([[2, 0, 0], [5, -3, 0], [1, 4, 7]], dtype=np.int64)
        want = _bareiss(a.tolist())
        assert want == -42
        monkeypatch.setattr(lattice_module, "_bareiss", None)
        assert int_det(a) == int_det(a.T) == want
        assert int_det(np.zeros((3, 3), dtype=np.int64)) == 0


class TestShortestVector:
    def test_unit_lattice(self):
        coeffs, length = shortest_vector(np.eye(3))
        assert np.isclose(length, 1.0)
        assert sorted(np.abs(coeffs)) == [0, 0, 1]

    def test_skewed_2d_vs_exhaustive(self):
        basis = np.array([[2.0, 1.0], [0.0, 1.0]])  # columns (2,0), (1,1)
        coeffs, length = shortest_vector(basis)
        best = min(
            np.linalg.norm(basis @ np.array(z))
            for z in itertools.product(range(-3, 4), repeat=2)
            if any(z)
        )
        assert np.isclose(length, best)
        assert np.isclose(length, np.sqrt(2.0))
        assert np.isclose(np.linalg.norm(basis @ coeffs.astype(float)), length)

    def test_random_vs_exhaustive(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            basis = draw_basis(rng, 3)
            coeffs, length = shortest_vector(basis)
            best = min(
                np.linalg.norm(basis @ np.array(z, dtype=float))
                for z in itertools.product(range(-4, 5), repeat=3)
                if any(z)
            )
            # enumeration is exact; the boxed oracle can only be >= the true min
            assert length <= best + 1e-9

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(13)
        basis = draw_basis(rng, 3)
        _, length = shortest_vector(basis)
        _, scaled = shortest_vector(2.5 * basis)
        assert np.isclose(scaled, 2.5 * length)

    def test_guards(self):
        with pytest.raises(DimensionTooLarge):
            shortest_vector(np.eye(11))
        with pytest.raises(DegenerateBasis):
            shortest_vector(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestValidateBasis:
    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
    def test_every_scale_is_accepted(self, m):
        from ifwb.lattice import validate_basis

        basis = np.random.default_rng(m).standard_normal((m, m))
        for e in range(-150, 151, 10):
            validate_basis(10.0**e * basis)
            rep = lll_reduce(10.0**e * np.eye(m))
            np.testing.assert_array_equal(rep.transform, np.eye(m, dtype=np.int64))

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16])
    def test_dependent_basis_is_rejected_at_every_scale(self, m):
        from ifwb.lattice import validate_basis

        singular = np.random.default_rng(m).integers(-3, 4, size=(m, m)).astype(float)
        singular[:, 0] = 2.0 * singular[:, -1]
        for e in range(-490, 491, 35):  # powers of two keep the dependence exact
            with pytest.raises(DegenerateBasis):
                validate_basis(2.0**e * singular)

    def test_high_snr_channel_at_large_scale(self):
        from ifwb.rates import ChannelInstance, optimal_a

        h = 1e6 * np.random.default_rng(0).standard_normal((16, 16))
        assert is_unimodular(optimal_a(ChannelInstance(h, 1e12), "kz_lll"))


def assert_size_reduced_and_lovasz(basis, delta, lo=0):
    """LLL conditions for the columns from lo on (size reduction against all before)."""
    from ifwb.lattice import _gso

    _, mu, nsq = _gso(basis)
    m = basis.shape[1]
    for i in range(lo, m):
        for j in range(i):
            assert abs(mu[i, j]) <= 0.5 + 1e-9
    for k in range(lo + 1, m):
        assert nsq[k] >= (delta - mu[k, k - 1] ** 2) * nsq[k - 1] - 1e-9 * nsq[k - 1]


class TestLll:
    def test_identity_already_reduced(self):
        rep = lll_reduce(np.eye(2))
        np.testing.assert_array_equal(rep.reduced_basis, np.eye(2))
        np.testing.assert_array_equal(rep.transform, np.eye(2, dtype=np.int64))
        assert rep.method == "lll"

    def test_size_reduction_collapses_skew(self):
        rep = lll_reduce(np.array([[1.0, 100.0], [0.0, 1.0]]))
        cols = {tuple(np.abs(rep.reduced_basis[:, j])) for j in range(2)}
        assert cols == {(1.0, 0.0), (0.0, 1.0)}

    def test_conditions_and_transform(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            basis = draw_basis(rng, 4, ambient=5)
            rep = lll_reduce(basis, delta=0.75)
            assert_size_reduced_and_lovasz(rep.reduced_basis, 0.75)
            assert abs(int_det(rep.transform)) == 1
            recon = basis @ rep.transform.astype(float)
            assert np.abs(recon - rep.reduced_basis).max() <= 1e-9 * np.abs(basis).max()

    def test_determinant_invariance(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            basis = draw_basis(rng, 3)
            rep = lll_reduce(basis)
            d0 = abs(np.linalg.det(basis))
            d1 = abs(np.linalg.det(rep.reduced_basis))
            assert abs(d0 - d1) <= 1e-9 * max(1.0, d0)

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=0.2)
        with pytest.raises(ValueError):
            lll_reduce(np.eye(2), delta=1.01)

    def test_terminates_at_delta_one(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            basis = draw_basis(rng, 4)
            rep = lll_reduce(basis, delta=1.0)
            assert_size_reduced_and_lovasz(rep.reduced_basis, 1.0)

    def test_window_holds_leading_columns(self):
        from ifwb.lattice import _identity, _lll_inplace

        rng = np.random.default_rng(23)
        for lo in range(4):
            basis = draw_basis(rng, 5)
            cols, u = basis.T.tolist(), _identity(5)
            _lll_inplace(cols, u, 0.99, lo=lo)
            cols, u = np.array(cols).T, np.array(u).T
            np.testing.assert_array_equal(cols[:, :lo], basis[:, :lo])
            np.testing.assert_array_equal(u[:, :lo], np.eye(5, lo, dtype=np.int64))
            np.testing.assert_allclose(basis @ u, cols, atol=1e-9)
            assert_size_reduced_and_lovasz(cols, 0.99, lo=lo)


class TestKz:
    def test_unit_lattice(self):
        rep = kz_reduce(np.eye(4))
        assert np.abs(np.abs(rep.reduced_basis) - np.eye(4)).max() <= 1e-12
        assert rep.method == "kz_exact"

    def test_first_vector_is_shortest(self):
        basis = np.array([[2.0, 1.0], [0.0, 1.0]])
        rep = kz_reduce(basis)
        assert np.isclose(rep.gram_schmidt_norms[0], np.sqrt(2.0))

    def test_random_bases_pass_verifier(self):
        rng = np.random.default_rng(16)
        for dim in (2, 3):
            for _ in range(10):
                basis = draw_basis(rng, dim)
                rep = kz_reduce(basis)
                assert is_kz_reduced(rep.reduced_basis)
                assert abs(int_det(rep.transform)) == 1

    def test_first_norm_equals_shortest_length(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            basis = draw_basis(rng, 3)
            rep = kz_reduce(basis)
            _, length = shortest_vector(basis)
            assert abs(rep.gram_schmidt_norms[0] - length) <= 1e-9 * length

    def test_higher_dimensions_spot_check(self):
        rng = np.random.default_rng(99)
        for dim in (4, 5):
            basis = draw_basis(rng, dim)
            rep = kz_reduce(basis)
            assert is_kz_reduced(rep.reduced_basis)

    def test_insert_puts_the_combination_at_k(self):
        import math

        from ifwb.lattice import _identity, _insert

        rng = np.random.default_rng(24)
        for _ in range(30):
            basis = draw_basis(rng, 5)
            k = int(rng.integers(0, 4))
            z = rng.integers(-4, 5, size=5 - k)
            if not z.any():
                continue
            z //= math.gcd(*[int(v) for v in z])
            cols, u = basis.T.tolist(), _identity(5)
            _insert(cols, u, k, z.tolist())
            cols, u = np.array(cols).T, np.array(u).T
            np.testing.assert_allclose(cols[:, k], basis[:, k:] @ z, atol=1e-9)
            np.testing.assert_array_equal(cols[:, :k], basis[:, :k])
            assert is_unimodular(u)
            np.testing.assert_allclose(basis @ u, cols, atol=1e-9)

    def test_start_transform_gives_a_kz_basis_over_the_input(self, monkeypatch):
        """From a unimodular start, on bases without near ties, the one
        reduction returns a KZ basis over the input: the transform without
        the start, up to column signs."""
        import ifwb.lattice as lattice_module

        rng = np.random.default_rng(34)
        cases = [(rng.standard_normal((dim, dim)), _random_unimodular(rng, dim))
                 for dim in (2, 3, 4, 5, 6, 8) for _ in range(6)]
        cold = [kz_reduce(basis).transform for basis, _ in cases]
        calls = []
        monkeypatch.setattr(lattice_module, "kz_reduce", lambda *a, **kw: calls.append(a))
        for (basis, start), want in zip(cases, cold):
            rep = kz_reduce(basis, start=start)
            assert is_kz_reduced(rep.reduced_basis)
            assert rep.det == int_det(rep.transform) and abs(rep.det) == 1
            np.testing.assert_array_equal(rep.reduced_basis, basis @ rep.transform.astype(float))
            assert (np.all(rep.transform == want, axis=0) | np.all(rep.transform == -want, axis=0)).all()
        assert calls == []

    def test_start_that_could_decide_a_tie_is_dropped(self):
        """Where a tie, or a coefficient of 1/2, leaves the reduced basis to the
        lifts the start leads to, the result is still the one without the
        start, up to column signs."""
        rng = np.random.default_rng(36)
        # |b2| = |b2 - b1|: mu = 1/2, and the start lifts b2 as b2 - b1
        cases = [(np.array([[1.0, 0.5], [0.0, 2.0]]), np.array([[1, -1], [0, 1]]))]
        for dim in (2, 3, 4, 5):  # integer bases, many of them with ties
            cases += [(draw_basis(rng, dim), _random_unimodular(rng, dim)) for _ in range(8)]
        for scale in (1.0, 0.1, 3.0):  # c I: every level ties
            cases += [(scale * np.eye(4), _random_unimodular(rng, 4)) for _ in range(4)]
        # a circulant channel, started from a sweep's previous SNR: projected
        # vectors tie, and the tie key reads other lifts from this start
        from ifwb.rates import ChannelInstance

        h = np.array([[(1.0, 0.5, 0.25, 0.1)[(j - i) % 4] for j in range(4)] for i in range(4)])
        for db0, db1 in ((10, 20), (30, 45)):
            basis0, basis1 = (ChannelInstance(h, 10.0 ** (db / 10)).sic_cholesky.T for db in (db0, db1))
            cases.append((basis1, kz_reduce(basis0).transform))
        for basis, start in cases:
            want, got = kz_reduce(basis).transform, kz_reduce(basis, start=start).transform
            assert (np.all(got == want, axis=0) | np.all(got == -want, axis=0)).all()

    def test_bad_start_raises(self):
        basis = draw_basis(np.random.default_rng(35), 3)
        twice = np.diag([2, 1, 1])  # det 2: the report's unimodularity check
        with pytest.raises(ValueError, match="reduction transform is not unimodular"):
            kz_reduce(basis, start=twice)
        with pytest.raises(DegenerateBasis):
            kz_reduce(basis, start=np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]]))
        for start in (np.eye(2, dtype=np.int64), np.eye(3), np.eye(3, dtype=bool), [[1, 0, 0]]):
            with pytest.raises(ValueError, match="start must be an integer 3x3 matrix"):
                kz_reduce(basis, start=start)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            kz_reduce(np.eye(11))
        # the basis is validated first, as in shortest_vector and is_kz_reduced
        for check in (kz_reduce, shortest_vector, is_kz_reduced):
            with pytest.raises(DegenerateBasis):
                check(np.ones((11, 11)))

    def test_orthogonal_channel_ties_keep_identity(self):
        # link_sim's noiseless diagnostic: H = Q from a seeded QR at 25 dB. The
        # Gram-Schmidt norms of G^T agree to a few ulp, so every level ties;
        # ties go to the input basis's own columns whatever the rounding.
        from ifwb.rates import ChannelInstance, optimal_a

        eye = np.eye(5, dtype=np.int64)
        for seed in range(12):
            q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((5, 5)))
            ch = ChannelInstance(q, 10.0**2.5)
            basis = ch.sic_cholesky.T
            want = kz_reduce(basis).transform
            for scale in (1.0 + 1e-15, 1.0 - 1e-15, 3.0):
                np.testing.assert_array_equal(kz_reduce(scale * basis).transform, want, err_msg=f"seed {seed}")
            np.testing.assert_array_equal(optimal_a(ch, "kz_exact"), eye, err_msg=f"seed {seed}")
            perm = np.random.default_rng(seed).permutation(5)
            np.testing.assert_array_equal(kz_reduce(basis[:, perm]).transform, eye, err_msg=f"seed {seed}")


class TestKzSuccessiveLll:
    def test_identity_matches_exact(self):
        approx = kz_approx_successive_lll(np.eye(2))
        exact = kz_reduce(np.eye(2))
        assert np.abs(np.abs(approx.reduced_basis) - np.abs(exact.reduced_basis)).max() <= 1e-12
        assert approx.method == "kz_successive_lll"

    def test_2d_within_lll_factor_of_exact(self):
        rng = np.random.default_rng(18)
        factor = 2.0 ** ((2 - 1) / 2.0)  # LLL approximation factor at dimension 2
        for _ in range(100):
            basis = draw_basis(rng, 2)
            approx = kz_approx_successive_lll(basis)
            exact = kz_reduce(basis)
            assert approx.gram_schmidt_norms.max() <= factor * exact.gram_schmidt_norms.max() + 1e-9

    def test_runs_beyond_enumeration_scale(self):
        # dims 12-16 are those the benchmark reduces with successive LLL
        rng = np.random.default_rng(19)
        for m in (5, 12, 14, 16):
            bases = [draw_basis(rng, m) for _ in range(3)]
            bases += [_channel_g(rng, m, m, snr_db).T for snr_db in (10.0, 40.0, 120.0)]
            for basis in bases:
                rep = kz_approx_successive_lll(basis)
                assert is_unimodular(rep.transform)
                assert_size_reduced_and_lovasz(rep.reduced_basis, 0.99)


def _objectives(g, a):
    l = cholesky_lower(a.astype(float) @ (g @ g.T) @ a.astype(float).T)
    return float(np.max(np.diag(l) ** 2)), float(np.max(np.sum(l * l, axis=1)))


class TestBruteForceMinMax:
    @pytest.mark.parametrize("m, bound", [(1, 5), (2, 3), (3, 2)])
    def test_sign_table_is_built_once_and_read_only(self, m, bound):
        reps, as_float, frob, columns = _sign_representatives(m, bound)
        assert _sign_representatives(m, bound)[1] is as_float
        box = itertools.product(range(-bound, bound + 1), repeat=m)
        assert reps == tuple(v for v in box if any(v) and next(x for x in v if x) > 0)
        cand = np.array(reps, dtype=np.int64)
        np.testing.assert_array_equal(as_float, cand)
        np.testing.assert_array_equal(frob, np.sum(cand * cand, axis=1))
        np.testing.assert_array_equal(np.stack(columns), cand.T)
        assert not any(t.flags.writeable for t in (as_float, frob, *columns))

    def test_diagonal_case(self):
        snr = 15.0
        g = np.eye(2) / np.sqrt(1.0 + snr)  # from H = I
        a, value = brute_force_min_max(g, 5, "successive_if")
        assert np.isclose(value, 1.0 / (1.0 + snr))
        assert sorted(np.abs(a).ravel().tolist()) == [0, 0, 1, 1]

    def test_example_channel_known_values(self):
        from ifwb.rates import ChannelInstance

        ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10**1.5)
        a, value = brute_force_min_max(ch.sic_cholesky, 5, "successive_if")
        import math

        # the optimum achieves the reference worst-step rate 1.4463
        per_step_worst = -0.5 * math.log2(value)
        assert abs(per_step_worst - 1.4463) <= 5e-4
        suc, _ = _objectives(ch.sic_cholesky, np.array([[1, 1], [3, 2]]))
        assert abs(value - suc) <= 1e-9

    def test_objectives_genuinely_differ(self):
        # frozen divergence fixture: found by sweeping seeds
        from ifwb.rates import ChannelInstance

        rng = np.random.default_rng(0)
        h = rng.standard_normal((2, 2))
        g = ChannelInstance(h, 100.0).sic_cholesky
        a_s, v_s = brute_force_min_max(g, 3, "successive_if")
        a_i, v_i = brute_force_min_max(g, 3, "standard_if")
        _, std_of_s = _objectives(g, a_s)
        suc_of_i, _ = _objectives(g, a_i)
        assert std_of_s > v_i * (1.0 + 1e-6)  # successive optimum is not standard-optimal
        assert suc_of_i > v_s * (1.0 + 1e-6)  # and vice versa

    def test_never_worse_than_identity(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            m = rng.standard_normal((2, 2))
            g = np.linalg.cholesky(m @ m.T + 0.1 * np.eye(2))
            for objective in ("successive_if", "standard_if"):
                _, value = brute_force_min_max(g, 2, objective)
                ident_suc, ident_std = _objectives(g, np.eye(2, dtype=np.int64))
                ident = ident_suc if objective == "successive_if" else ident_std
                assert value <= ident + 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(21)
        m = rng.standard_normal((3, 3))
        g = np.linalg.cholesky(m @ m.T + np.eye(3))
        a1, v1 = brute_force_min_max(g, 2, "successive_if")
        a2, v2 = brute_force_min_max(g, 2, "successive_if")
        assert np.array_equal(a1, a2) and v1 == v2

    def test_matches_naive_full_scan(self):
        # the pruned search must reproduce a dumb scan of the whole box,
        # including the (value, frobenius, lexicographic) tie-break
        def naive(g, bound, objective):
            gram = g @ g.T
            best = None
            for entries in itertools.product(range(-bound, bound + 1), repeat=4):
                a = np.array(entries, dtype=np.int64).reshape(2, 2)
                if int_det(a) == 0:
                    continue
                l = cholesky_lower(a.astype(float) @ gram @ a.astype(float).T)
                if objective == "successive_if":
                    value = float(np.max(np.diag(l) ** 2))
                else:
                    value = float(np.max(np.sum(l * l, axis=1)))
                cand = (value, int(np.sum(a * a)), tuple(int(v) for v in a.ravel()), a)
                if best is None:
                    best = cand
                    continue
                tie = 1e-12 * max(1.0, best[0])
                if value < best[0] - tie or (
                    abs(value - best[0]) <= tie and cand[1:3] < best[1:3]
                ):
                    best = cand
            return best[3], best[0]

        rng = np.random.default_rng(23)
        for _ in range(8):
            m = rng.standard_normal((2, 2))
            g = np.linalg.cholesky(m @ m.T + rng.uniform(0.05, 1.0) * np.eye(2))
            for objective in ("successive_if", "standard_if"):
                a_fast, v_fast = brute_force_min_max(g, 2, objective)
                a_ref, v_ref = naive(g, 2, objective)
                assert abs(v_fast - v_ref) <= 1e-9 * max(1.0, v_ref)
                assert np.array_equal(a_fast, a_ref)

    def test_guards(self):
        with pytest.raises(DimensionTooLarge):
            brute_force_min_max(np.eye(4), 2)
        with pytest.raises(ValueError):
            brute_force_min_max(np.eye(2), 0)
        with pytest.raises(ValueError):
            brute_force_min_max(np.eye(2), 6)
        with pytest.raises(ValueError):
            brute_force_min_max(np.eye(2), 2, "nonsense")


# ---------------------------------------------------------------------------
# oracles: the numpy lattice kernel the list kernel replaced, and a full scan
# ---------------------------------------------------------------------------

# The reference recomputes its Gram-Schmidt data after a size reduction by
# |q| > _GSO_REFRESH_Q (Schnorr & Euchner, 1994), which the library omits.
_GSO_REFRESH_Q = 32


def _size_reduce(cols, u):
    """One full size-reduction sweep of the array cols from fresh Gram-Schmidt data."""
    from ifwb.lattice import _gso, _round_ties_to_zero

    bstar, _, nsq = _gso(cols)
    m = cols.shape[1]
    for j in range(1, m):
        for i in range(j - 1, -1, -1):
            coeff = (cols[:, j] @ bstar[:, i]) / nsq[i]
            q = _round_ties_to_zero(coeff)
            if q != 0:
                cols[:, j] -= q * cols[:, i]
                u[j] = [a - q * b for a, b in zip(u[j], u[i])]


def _reference_swap_gso(mu, nsq, k):
    """Update Gram-Schmidt data in place for the exchange of columns k-1 and k.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3 (SWAP).
    """
    mu_k = mu[k, k - 1]
    new_prev = nsq[k] + mu_k * mu_k * nsq[k - 1]
    if new_prev <= 0.0:
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    new_k = nsq[k - 1] * nsq[k] / new_prev
    if new_k <= 0.0:
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    mu[k, k - 1] = mu_k * nsq[k - 1] / new_prev
    nsq[k - 1], nsq[k] = new_prev, new_k
    mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
    t = mu[k + 1 :, k].copy()
    mu[k + 1 :, k] = mu[k + 1 :, k - 1] - mu_k * t
    mu[k + 1 :, k - 1] = t + mu[k, k - 1] * mu[k + 1 :, k]


def _reference_lll_inplace(cols, u, delta, lo=0):
    """LLL-reduce cols in place, mirroring every integer operation on u.

    Columns before lo are held fixed: they serve for size reduction but are
    never swapped, so only the projection of cols[:, lo:] orthogonal to them
    is reduced. Returns the Gram-Schmidt data (mu, nsq) of the result.

    The Gram-Schmidt data is computed once and then kept current by the
    incremental size-reduction and swap updates of Cohen's Alg. 2.6.3. It is
    recomputed after a size reduction by |q| > _GSO_REFRESH_Q, as in
    Schnorr & Euchner (1994).
    """
    from ifwb.lattice import _gso, _round_ties_to_zero

    m = cols.shape[1]
    _, mu, nsq = _gso(cols)
    k = max(lo, 1)
    sweeps = 0
    max_sweeps = 10000 * m * m + 1000
    while k < m:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("LLL failed to terminate (pathological delta?)")
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > 0.5:  # else the rounded coefficient is 0
                q = _round_ties_to_zero(mu[k, j])
                cols[:, k] -= q * cols[:, j]
                u[:, k] = u[:, k] - q * u[:, j]
                if abs(q) > _GSO_REFRESH_Q:
                    _, mu, nsq = _gso(cols)
                else:
                    mu[k, :j] -= q * mu[j, :j]
                    mu[k, j] -= q
        if k == lo or nsq[k] >= (delta - mu[k, k - 1] ** 2) * nsq[k - 1]:
            k += 1
        else:
            cols[:, [k - 1, k]] = cols[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            _reference_swap_gso(mu, nsq, k)
            k = max(k - 1, lo, 1)
    return mu, nsq


def _reference_enumerate_shortest(mu, nsq, init_z, init_cost, u):
    """Exhaustive search for the shortest nonzero coefficient vector.

    Cost model: ||sum_i z_i b_i||^2 = sum_j nsq[j] * (z_j + sum_{i>j} mu[i,j] z_i)^2.
    The search is complete for any bound >= the initial cost, which is seeded
    with an actual basis vector, so the returned minimum is exact. Costs
    within a relative 1e-12 of the least tie; of tied vectors the one whose
    coefficients over the input basis, u @ z with the sign of its first
    nonzero entry made positive, are lexicographically largest wins (z and
    -z tie with equal keys, so the first found of the two stays).
    """
    from ifwb.lattice import _round_ties_to_zero

    def key(z):
        v = [int(a) for a in u @ z]
        return v if next(a for a in v if a) > 0 else [-a for a in v]

    m = len(nsq)
    best_cost = float(init_cost)
    best_z = init_z.copy()
    z = np.zeros(m, dtype=np.int64)

    def descend(level: int, partial: float) -> None:
        nonlocal best_cost, best_z
        center = -sum(mu[i, level] * z[i] for i in range(level + 1, m))
        z0 = _round_ties_to_zero(center)
        for step in itertools.count():
            advanced = False
            for cand in ((z0,) if step == 0 else (z0 + step, z0 - step)):
                cost = partial + nsq[level] * (cand - center) ** 2
                if cost > best_cost * (1.0 + 1e-12):
                    continue
                advanced = True
                z[level] = cand
                if level == 0:
                    if any(z):
                        if cost < best_cost * (1.0 - 1e-12) or key(z) > key(best_z):
                            best_z = z.copy()
                        best_cost = min(best_cost, cost)
                else:
                    descend(level - 1, cost)
            z[level] = 0
            if step > 0 and not advanced:
                # both branches exceeded the radius; deeper steps only grow
                break

    descend(m - 1, 0.0)
    return best_z, best_cost


def _reference_insert(cols, u, k, z):
    """Make cols[:, k:] @ z column k by unimodular operations on cols[:, k:]."""
    import math

    g = math.gcd(*[int(v) for v in z])
    z = [int(v) // g for v in z]
    while True:
        nz = [i for i, v in enumerate(z) if v]
        if len(nz) == 1:
            break
        p = min(nz, key=lambda i: abs(z[i]))
        for j in nz:
            q = z[j] // z[p]
            if j != p and q:
                z[j] -= q * z[p]
                cols[:, k + p] += q * cols[:, k + j]
                u[:, k + p] = u[:, k + p] + q * u[:, k + j]
    s = k + nz[0]
    if z[nz[0]] < 0:
        cols[:, s] = -cols[:, s]
        u[:, s] = -u[:, s]
    cols[:, [k, s]] = cols[:, [s, k]]
    u[:, [k, s]] = u[:, [s, k]]


def _reference_transform(basis, reduction):
    """Transform of lll_reduce ("lll_0.75", "lll_0.99"), kz_approx_successive_lll
    ("kz_lll") or kz_reduce ("kz") with the numpy kernel: (n, m) float columns,
    an object-int transform; the final size reduction and report are shared."""
    from ifwb.lattice import _make_report, validate_basis

    original = validate_basis(basis)
    m = original.shape[1]
    cols = original.copy()
    u = np.eye(m, dtype=np.int64).astype(object)
    delta = float(reduction[4:]) if reduction.startswith("lll") else 0.99
    mu, nsq = _reference_lll_inplace(cols, u, delta)
    for k in range(m - 1 if reduction == "kz" else 0):
        e0 = np.zeros(m - k, dtype=np.int64)
        e0[0] = 1
        z, _ = _reference_enumerate_shortest(mu[k:, k:], nsq[k:], e0, nsq[k], u[:, k:])
        if z[1:].any():
            _reference_insert(cols, u, k, z)
            mu, nsq = _reference_lll_inplace(cols, u, 0.99, lo=k + 1)
    u_cols = [list(col) for col in u.T]
    if reduction.startswith("kz"):
        _size_reduce(original @ u.astype(float), u_cols)
    return _make_report(original, u_cols, reduction).transform


REDUCTIONS = {
    "lll_0.75": lambda b: lll_reduce(b, delta=0.75),
    "lll_0.99": lambda b: lll_reduce(b, delta=0.99),
    "kz_lll": kz_approx_successive_lll,
    "kz": kz_reduce,
}


def _full_scan_brute_force(g, bound, objective):
    """brute_force_min_max by scanning every ordered choice of M rows.

    Rows range over one sign variant of each nonzero vector of the box (a row
    sign flip leaves both objectives unchanged); singular choices are dropped
    by an exact integer determinant. Among the values within the 1e-12 tie
    tolerance of the minimum, the smallest Frobenius norm wins, then the
    lexicographically smallest flattened matrix with each row replaced by
    its smaller sign variant. Values for the selection come from a
    closed-form Cholesky; the returned value is recomputed with cholesky_lower.
    """
    m = g.shape[0]
    reps = np.array([v for v in itertools.product(range(-bound, bound + 1), repeat=m) if v > (0,) * m])
    gram_rows = reps @ (g @ g.T) @ reps.T
    # rows 1..m-1 of every choice; row 0 is looped over
    rest = np.array(list(itertools.product(range(len(reps)), repeat=m - 1)), dtype=np.int64)
    rest = rest.reshape(len(reps) ** (m - 1), m - 1)
    sub = reps[rest]
    # det A = cofactors @ row 0 (Laplace expansion); the minors are integer
    # matrices of size <= 2 with small entries, so rounding their float
    # determinants is exact
    cofactors = np.stack([(-1) ** c * np.rint(np.linalg.det(np.delete(sub, c, axis=2).astype(float)))
                          for c in range(m)], axis=1)
    rest_gram = {(i, j): gram_rows[rest[:, i - 1], rest[:, j - 1]]
                 for i in range(1, m) for j in range(1, i + 1)}
    values = []
    for first in range(len(reps)):
        entry = {**rest_gram, (0, 0): gram_rows[first, first]}
        entry.update({(i, 0): gram_rows[first][rest[:, i - 1]] for i in range(1, m)})
        chol = {}
        with np.errstate(invalid="ignore", divide="ignore"):
            for i in range(m):
                for j in range(i + 1):
                    s = entry[i, j] - sum(chol[i, c] * chol[j, c] for c in range(j))
                    chol[i, j] = np.sqrt(s) if i == j else s / chol[j, j]
            if objective == "successive_if":
                per_row = [chol[i, i] ** 2 for i in range(m)]
            else:
                per_row = [sum(chol[i, c] ** 2 for c in range(i + 1)) for i in range(m)]
            value = np.max(np.broadcast_arrays(*per_row), axis=0)
        values.append(np.where(cofactors @ reps[first] != 0, value, np.inf))
    values = np.concatenate(values)
    ties = np.flatnonzero(values <= values.min() + 1e-12 * max(1.0, values.min()))

    def canonical(t):
        rows = reps[[t // len(rest), *rest[t % len(rest)]]].tolist()
        return [min(row, [-x for x in row]) for row in rows]

    best = min((canonical(t) for t in ties), key=lambda rows: (sum(x * x for r in rows for x in r), rows))
    a = np.array(best)
    return a, _objectives(g, a)[objective == "standard_if"]


def _channel_g(rng, m, n, snr_db, cond=None):
    """Cholesky factor G of (I + snr H^T H)^{-1}; H Gaussian or with a set condition number."""
    return conditioned_channel(rng, m, n, snr_db, cond).sic_cholesky


def _oracle_cases():
    # dims above 10 (successive LLL only) stay at 0-40 dB, as when the
    # reference recomputed the Gram-Schmidt data after every step
    rng = np.random.default_rng(2024)
    cases = []
    for i, m in enumerate(list(range(2, 11)) * 3 + list(range(11, 17))):
        n = int(rng.integers(1, 17))
        snr_db = float(rng.uniform(0.0, 120.0 if m <= 10 else 40.0))
        cond = None if i % 3 == 0 else float(10.0 ** rng.uniform(0.0, 9.0))
        case_id = f"m{m}-n{n}-{snr_db:.0f}dB" + ("" if cond is None else f"-cond{cond:.0e}")
        cases.append(pytest.param(_channel_g(rng, m, n, snr_db, cond), id=case_id))
    # size reductions by large q: the reference refreshes its Gram-Schmidt
    # data there, the library does not, and the transforms must agree
    for seed, m, n in ((92, 8, 5), (135, 8, 4), (14, 10, 5), (35, 10, 5), (59, 10, 5)):
        g = _channel_g(np.random.default_rng(seed), m, n, 120.0)
        cases.append(pytest.param(g, id=f"refresh-seed{seed}-m{m}-n{n}-120dB"))
    return cases


class TestIncrementalMatchesReference:
    """The list kernel returns exactly the transforms of the numpy kernel, and the
    pruned brute force exactly the full scan's (A, value)."""

    @pytest.mark.parametrize("g", _oracle_cases())
    def test_transforms_identical(self, g):
        for name, reduce in REDUCTIONS.items():
            if name == "kz" and g.shape[0] > 10:
                continue  # exact KZ is guarded to dimension 10
            got, want = reduce(g.T).transform, _reference_transform(g.T, name)
            assert got.dtype == want.dtype and got.flags.c_contiguous
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_degenerate_swap_raises(self):
        from ifwb.lattice import _swap_gso

        with pytest.raises(DegenerateBasis):
            _swap_gso([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0], 1)

    # at M = 3 the full scan of bounds 4 and 5 has up to 665^3 row triples
    @pytest.mark.parametrize("bound, m", [(b, m) for m in (1, 2, 3) for b in range(1, 4 if m == 3 else 6)])
    @pytest.mark.parametrize("objective", ["successive_if", "standard_if"])
    def test_brute_force_identical(self, m, bound, objective):
        rng = np.random.default_rng([m, bound, objective == "standard_if"])
        for snr_db in (0.0, 20.0, 60.0):
            g = _channel_g(rng, m, int(rng.integers(1, 4)), snr_db)
            a, value = brute_force_min_max(g, bound, objective)
            a_ref, value_ref = _full_scan_brute_force(g, bound, objective)
            np.testing.assert_array_equal(a, a_ref)
            assert value == value_ref

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 12, 16])
    def test_gso_from_a_kept_prefix(self, m):
        # Gram-Schmidt row i depends only on columns 0..i: bases that share
        # their first start columns share those rows, up to rounding.
        from ifwb.lattice import _gso

        rng = np.random.default_rng(m)
        cols = rng.standard_normal((m + 1, m))
        bstar, mu, nsq = _gso(cols)
        for start in range(m + 1):
            other = cols.copy()
            other[:, start:] = rng.standard_normal((m + 1, m - start))  # same first start columns
            o_bstar, o_mu, o_nsq = _gso(other)
            np.testing.assert_allclose(o_bstar[:, :start], bstar[:, :start], rtol=0, atol=1e-12)
            np.testing.assert_allclose(o_mu[:start, :start], mu[:start, :start], rtol=0, atol=1e-12)
            np.testing.assert_allclose(o_nsq[:start], nsq[:start], rtol=1e-12)

    def test_kz_after_a_level_without_insertion(self, monkeypatch):
        # Level 0 inserts nothing and level 1 inserts: the LLL after the
        # insertion holds columns 0 and 1 fixed and must still match the
        # reference kernel.
        from ifwb import lattice

        g = _channel_g(np.random.default_rng(37), 4, 1, 20.0)
        levels = []
        insert = lattice._insert

        def recording_insert(cols, u, k, z):
            levels.append(k)
            insert(cols, u, k, z)

        monkeypatch.setattr(lattice, "_insert", recording_insert)
        got = kz_reduce(g.T).transform
        assert levels == [1]
        np.testing.assert_array_equal(got, _reference_transform(g.T, "kz"))

    def test_gram_schmidt_norms_on_read(self):
        from ifwb.lattice import _gso

        g = _channel_g(np.random.default_rng(3), 6, 4, 30.0)
        for name, reduce in REDUCTIONS.items():
            rep = reduce(g.T)
            assert "gram_schmidt_norms" not in rep.__dict__
            eager = np.sqrt(_gso(g.T @ rep.transform.astype(float))[2])
            np.testing.assert_array_equal(rep.gram_schmidt_norms, eager, err_msg=name)
            assert rep.gram_schmidt_norms is rep.gram_schmidt_norms

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("objective", ["successive_if", "standard_if"])
    def test_brute_force_exact_ties(self, m, bound, objective):
        # Structured G whose last-level values tie exactly. With c = 3 the
        # objective exceeds 1, so the tie tolerance 1e-12 max(1, best) scales
        # with it; a channel G never gets there (S <= I).
        gs = [c * np.eye(m) for c in (1e-3, 1.0, 3.0)]
        if m > 1:
            gs.append(np.array([[1, 0, 0], [2, 1, 0], [-1, 3, 1]], dtype=float)[:m, :m])
        for g in gs:
            a, value = brute_force_min_max(g, bound, objective)
            a_ref, value_ref = _full_scan_brute_force(g, bound, objective)
            np.testing.assert_array_equal(a, a_ref)
            assert value == value_ref


def test_kz_at_100_db_six_streams():
    g = _channel_g(np.random.default_rng(1), 6, 2, 100.0)
    assert is_kz_reduced(kz_reduce(g.T).reduced_basis)


@pytest.mark.parametrize(
    "seed, m, n, snr_db",
    [(138, 9, 5, 110.0), (1, 10, 5, 95.0), (2, 10, 6, 100.0), (4, 10, 5, 120.0),
     (5, 10, 6, 88.0), (9, 10, 4, 120.0)],
)
def test_kz_high_snr_stays_exact(seed, m, n, snr_db):
    # channels on which multiplying unreduced per-level transforms overflows
    # int64 or collapses the float basis original @ U
    g = _channel_g(np.random.default_rng(seed), m, n, snr_db)
    assert is_kz_reduced(kz_reduce(g.T).reduced_basis)
