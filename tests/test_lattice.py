import itertools

import numpy as np
import pytest

from ifwb.errors import DegenerateBasis, DimensionTooLarge
from ifwb.lattice import (
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

    def test_int_rank(self):
        assert int_rank([[1, 2], [2, 4]]) == 1
        assert int_rank([[1, 0], [0, 1]]) == 2
        assert int_rank([[0, 0], [0, 0]]) == 0
        assert int_rank([[2, 4, 6]]) == 1


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
            cols, u = basis.copy(), _identity(5)
            _lll_inplace(cols, u, 0.99, lo=lo)
            np.testing.assert_array_equal(cols[:, :lo], basis[:, :lo])
            np.testing.assert_array_equal(u[:, :lo].astype(np.int64), np.eye(5, lo, dtype=np.int64))
            np.testing.assert_allclose(basis @ u.astype(float), cols, atol=1e-9)
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
            cols, u = basis.copy(), _identity(5)
            _insert(cols, u, k, z)
            np.testing.assert_allclose(cols[:, k], basis[:, k:] @ z, atol=1e-9)
            np.testing.assert_array_equal(cols[:, :k], basis[:, :k])
            assert is_unimodular(u.astype(np.int64))
            np.testing.assert_allclose(basis @ u.astype(float), cols, atol=1e-9)

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            kz_reduce(np.eye(11))


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
        rng = np.random.default_rng(19)
        basis = draw_basis(rng, 5)
        rep = kz_approx_successive_lll(basis)
        assert abs(int_det(rep.transform)) == 1
        assert is_unimodular(rep.transform)


def _objectives(g, a):
    l = cholesky_lower(a.astype(float) @ (g @ g.T) @ a.astype(float).T)
    return float(np.max(np.diag(l) ** 2)), float(np.max(np.sum(l * l, axis=1)))


class TestBruteForceMinMax:
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
# oracles: the implementations before the incremental rewrites
# ---------------------------------------------------------------------------

def _reference_lll_inplace(cols, u, delta):
    """LLL that recomputes all Gram-Schmidt data after every size reduction and swap."""
    from ifwb.lattice import _gso, _round_ties_to_zero

    m = cols.shape[1]
    _, mu, nsq = _gso(cols)
    k = 1
    while k < m:
        for j in range(k - 1, -1, -1):
            q = _round_ties_to_zero(mu[k, j])
            if q != 0:
                cols[:, k] -= q * cols[:, j]
                u[:, k] = u[:, k] - q * u[:, j]
                _, mu, nsq = _gso(cols)
        if nsq[k] >= (delta - mu[k, k - 1] ** 2) * nsq[k - 1]:
            k += 1
        else:
            cols[:, [k - 1, k]] = cols[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            _, mu, nsq = _gso(cols)
            k = max(k - 1, 1)
    return mu, nsq


def int_rank(rows) -> int:
    """Exact rank of an integer matrix (rows given as an iterable of vectors); the
    dependency test of the brute-force reference below."""
    mat = [[int(v) for v in row] for row in rows]
    if not mat:
        return 0
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                p, q = mat[rank][c], mat[i][c]
                mat[i] = [p * mat[i][j] - q * mat[rank][j] for j in range(cols)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def _reference_brute_force_min_max(g, entry_bound, objective):
    """Branch-and-bound that canonicalizes every candidate matrix's signs row by row."""
    m = g.shape[0]
    b = entry_bound
    reps = [
        v
        for v in itertools.product(range(-b, b + 1), repeat=m)
        if any(v) and next(x for x in v if x != 0) > 0
    ]
    cand = np.array(reps, dtype=np.int64)
    vecs = cand.astype(float) @ g
    norms_sq = np.sum(vecs * vecs, axis=1)
    gram = g @ g.T
    rank_thresh = 1e-9 * float(norms_sq.max())
    successive = objective == "successive_if"

    def chol_value(a_rows):
        l = cholesky_lower(a_rows.astype(float) @ gram @ a_rows.astype(float).T)
        if successive:
            return float(np.max(np.diag(l) ** 2))
        return float(np.max(np.sum(l * l, axis=1)))

    def lexmin_signs(a_rows):
        rows = []
        for r in a_rows:
            t = tuple(int(v) for v in r)
            neg = tuple(-v for v in t)
            rows.append(t if t <= neg else neg)
        return np.array(rows, dtype=np.int64)

    best = {"value": np.inf, "frob": None, "key": None, "a": None}

    def consider(a_rows, value):
        tie = 1e-12 * max(1.0, best["value"] if np.isfinite(best["value"]) else 1.0)
        if value > best["value"] + tie:
            return
        canon = lexmin_signs(a_rows)
        frob = int(np.sum(canon * canon))
        key = tuple(int(v) for v in canon.ravel())
        if value < best["value"] - tie or (frob, key) < (best["frob"], best["key"]):
            best.update(value=value, frob=frob, key=key, a=canon)

    ident = np.eye(m, dtype=np.int64)
    consider(ident, chol_value(ident))

    def independent(chosen, idx, resid):
        if resid > rank_thresh:
            return True
        return int_rank(cand[chosen + [idx]]) == len(chosen) + 1

    def descend(chosen, resid_sq, ortho, partial_max):
        level_val = resid_sq if successive else norms_sq
        order = np.argsort(level_val, kind="stable")
        last = len(chosen) == m - 1
        node_best = None
        for idx in order:
            value = max(partial_max, float(level_val[idx]))
            tie = 1e-12 * max(1.0, best["value"])
            if value > best["value"] + tie:
                break
            if last:
                if node_best is not None and value > node_best + tie:
                    break
                if not independent(chosen, idx, float(resid_sq[idx])):
                    continue
                if node_best is None:
                    node_best = value
                consider(cand[chosen + [idx]], value)
            else:
                if not independent(chosen, idx, float(resid_sq[idx])):
                    continue
                v = vecs[idx].copy()
                for q in ortho:
                    v -= (v @ q) * q
                vn = np.linalg.norm(v)
                if vn <= 0.0:
                    continue
                q = v / vn
                child_resid = np.maximum(resid_sq - (vecs @ q) ** 2, 0.0)
                descend(chosen + [idx], child_resid, ortho + [q], value)

    descend([], norms_sq.copy(), [], 0.0)
    return best["a"], chol_value(best["a"])


def _channel_g(rng, m, n, snr_db, cond=None):
    """Cholesky factor G of (I + snr H^T H)^{-1}; H Gaussian or with a set condition number."""
    from ifwb.rates import ChannelInstance

    if cond is None:
        h = rng.standard_normal((n, m))
    else:
        k = min(n, m)
        left, _ = np.linalg.qr(rng.standard_normal((n, n)))
        right, _ = np.linalg.qr(rng.standard_normal((m, m)))
        h = left[:, :k] @ np.diag(np.logspace(0, -np.log10(cond), k)) @ right[:, :k].T
    return ChannelInstance(h, 10.0 ** (snr_db / 10.0)).sic_cholesky


def _oracle_cases():
    # dims above 10 (successive LLL only) stay at 0-40 dB: at higher SNR the
    # full-recompute reference needs seconds per basis there
    rng = np.random.default_rng(2024)
    cases = []
    for i, m in enumerate(list(range(2, 11)) * 3 + list(range(11, 17))):
        n = int(rng.integers(1, 17))
        snr_db = float(rng.uniform(0.0, 120.0 if m <= 10 else 40.0))
        cond = None if i % 3 == 0 else float(10.0 ** rng.uniform(0.0, 9.0))
        case_id = f"m{m}-n{n}-{snr_db:.0f}dB" + ("" if cond is None else f"-cond{cond:.0e}")
        cases.append(pytest.param(_channel_g(rng, m, n, snr_db, cond), id=case_id))
    # size reductions by large q: without the Gram-Schmidt refresh these differ
    for seed, m, n in ((92, 8, 5), (135, 8, 4)):
        g = _channel_g(np.random.default_rng(seed), m, n, 120.0)
        cases.append(pytest.param(g, id=f"refresh-seed{seed}-m{m}-n{n}-120dB"))
    return cases


class TestIncrementalMatchesReference:
    """The incremental rewrites return exactly what the full-recompute versions did."""

    @pytest.mark.parametrize("g", _oracle_cases())
    def test_transforms_identical(self, g, monkeypatch):
        from ifwb import lattice

        reductions = [lll_reduce, lambda b: lll_reduce(b, delta=0.99), kz_approx_successive_lll]
        new = [reduce(g.T).transform for reduce in reductions]
        with monkeypatch.context() as patch:
            patch.setattr(lattice, "_lll_inplace", _reference_lll_inplace)
            ref = [reduce(g.T).transform for reduce in reductions]
        for got, want in zip(new, ref):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_degenerate_swap_raises(self):
        from ifwb.lattice import _swap_gso

        with pytest.raises(DegenerateBasis):
            _swap_gso(np.zeros((2, 2)), np.array([1.0, 0.0]), 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bound", [1, 2, 3])
    @pytest.mark.parametrize("objective", ["successive_if", "standard_if"])
    def test_brute_force_identical(self, m, bound, objective):
        rng = np.random.default_rng([m, bound, objective == "standard_if"])
        for snr_db in (0.0, 20.0, 60.0):
            g = _channel_g(rng, m, int(rng.integers(1, 4)), snr_db)
            a, value = brute_force_min_max(g, bound, objective)
            a_ref, value_ref = _reference_brute_force_min_max(g, bound, objective)
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
