import itertools
import math
import re

import numpy as np
import pytest

from conftest import EXAMPLE1_A, conditioned_channel, random_channel, random_full_rank_int
from ifwb import rates as rates_module
from ifwb.errors import DegenerateBasis, DimensionTooLarge, IfwbError, InfeasiblePermutation, SingularA
from ifwb.lattice import int_det
from ifwb.rates import (
    ChannelInstance,
    _diagonal_signs,
    _effective_noise,
    _feasible_permutations,
    _monotone,
    _mt,
    _signed_permutation,
    allocate_rates,
    as_integer_matrix,
    feasible_allocations,
    gdfe_filters,
    if_effective_model,
    if_rates,
    mmse_sic_plan,
    optimal_a,
    pseudo_triangularize,
    successive_if_rates,
    successive_objective,
    waterfilling_capacity,
    white_input_capacity,
)
from ifwb.region import _scan_table

ANCHOR_TOL = 5e-4  # reference values are quoted to four decimals

DERIVED = ("sic_cholesky", "mmse_equalizer")


def _error_gram(ch):
    """(I + snr H^T H)^{-1} by explicit inversion, the reference the QR kernel replaced."""
    return np.linalg.inv(np.eye(ch.num_streams) + ch.snr * (ch.H.T @ ch.H))


class TestChannelRange:
    @pytest.mark.parametrize("h, snr", [
        ([[1e200, 0.0]], 1.0),
        ([[-1e300], [1.0]], 1e-10),
        ([[1e154, 1.0]], 1e4),
        ([[1.0, 2.0]], 1.7976931348623157e308),
    ])
    def test_overflowing_product_is_rejected(self, h, snr):
        with pytest.raises(ValueError, match=r"snr \* max\|H_ij\|\^2 .* beyond the float range"):
            ChannelInstance(np.array(h), snr)

    @pytest.mark.parametrize("h, snr", [([[1e154, 1.0]], 1.0), ([[1.5e154, 0.0]], 0.01), ([[1.0]], 1e308)])
    def test_product_within_range_is_accepted(self, h, snr):
        assert ChannelInstance(np.array(h), snr).snr == snr


class TestChannelDerivedMatrices:
    def test_values(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            ch = random_channel(rng)
            n = ch.num_receive
            g = ch.sic_cholesky
            np.testing.assert_array_equal(g, np.tril(g))
            assert np.all(np.diag(g) > 0)
            np.testing.assert_allclose(g @ g.T, _error_gram(ch), atol=1e-12)
            expected = ch.H.T @ np.linalg.inv(np.eye(n) / ch.snr + ch.H @ ch.H.T)
            np.testing.assert_allclose(ch.mmse_equalizer, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("name", DERIVED)
    def test_read_only_and_computed_once(self, example1, name):
        value = getattr(example1, name)
        assert getattr(example1, name) is value
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[0, 0] = 1.0

    @pytest.mark.parametrize("name", DERIVED)
    def test_reordered_channel_has_its_own_values(self, example1, name):
        swapped = ChannelInstance(example1.H[:, ::-1], example1.snr)
        ours, theirs = getattr(example1, name), getattr(swapped, name)
        assert theirs is not ours
        if name == "sic_cholesky":
            np.testing.assert_allclose(theirs @ theirs.T, _error_gram(swapped), atol=1e-12)
            assert not np.allclose(theirs, ours[::-1, ::-1])
        else:
            np.testing.assert_allclose(theirs, ours[::-1], rtol=1e-12)

    def test_sic_plan_reuses_the_channel_factor(self, example1):
        """In the natural order, the plan's G (the factor L of A = I) is the
        channel's factor bit for bit (0-120 dB)."""
        rng = np.random.default_rng(47)
        channels = [example1] + [
            conditioned_channel(rng, m, int(rng.integers(1, m + 3)), float(rng.uniform(0.0, 120.0)))
            for m in (2, 3, 4, 5, 6) * 10
        ]
        for ch in channels:
            np.testing.assert_array_equal(mmse_sic_plan(ch).G, ch.sic_cholesky)


class TestEffectiveNoiseKernel:
    def test_stack_matches_one_matrix_at_a_time(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            ch = random_channel(rng, max_dim=3)
            stack = np.stack([random_full_rank_int(rng, ch.num_streams) for _ in range(6)])
            af = stack.astype(float).reshape((2, 3) + stack.shape[1:])
            ktilde, l = _effective_noise(ch, af)
            for idx, a in zip(np.ndindex(2, 3), stack):
                model = if_effective_model(ch, a)
                np.testing.assert_array_equal(ktilde[idx], model.Ktilde)
                np.testing.assert_array_equal(l[idx], model.L)


# The kernel with per-matrix stacked products and checks by each matrix's
# largest difference, verbatim with the two helpers it used, except that it
# returns the messages of the checks that fail, in the order the kernel
# raised them, beside its arrays: the reference that
# TestEffectiveNoiseReference holds rates._effective_noise to.
def _gram(x):
    xt = _mt(x)
    return x @ (np.ascontiguousarray(xt) if x.ndim > 2 else xt)


def _any(flags) -> bool:
    return bool(flags.any() if flags.ndim else flags)


FILTER = "filter-algebra and inversion-lemma covariances disagree"
CHOLESKY = "Ktilde does not match snr * L L^T"


def _reference_effective_noise(ch, af):
    ag = af @ ch.sic_cholesky
    ktilde = ch.snr * _gram(ag)
    r = np.linalg.qr(_mt(ag), mode="r")
    l = _mt(r * _diagonal_signs(r)[..., None])
    b = af @ ch.mmse_equalizer
    mismatch = b @ ch.H - af
    direct = ch.snr * _gram(mismatch) + _gram(b)
    scale = np.maximum(np.abs(ktilde).max(axis=(-2, -1)), 1e-300)
    failed = []
    if _any(np.abs(direct - ktilde).max(axis=(-2, -1)) > 1e-8 * scale):
        failed.append(FILTER)
    if _any(np.abs(ktilde - ch.snr * l @ _mt(l)).max(axis=(-2, -1)) > 1e-9 * scale):
        failed.append(CHOLESKY)
    return (ktilde, l, b), failed


def assert_matches_reference(ch, af) -> bool:
    """rates._effective_noise(ch, af) against the reference: Ktilde and L bit
    for bit, and af @ ch.mmse_equalizer, what the equalizer's readers
    compute, against the reference's B matrix by matrix; or the
    snr L L^T error where the reference raised it. Where the reference
    fails its filter-algebra check alone, the kernel, which does not make
    that check, must return the reference's bits; returns whether it did so."""
    (ktilde, l, b), failed = _reference_effective_noise(ch, af)
    if CHOLESKY in failed:
        with pytest.raises(IfwbError, match=re.escape(CHOLESKY)):
            _effective_noise(ch, af)
        return False
    got = _effective_noise(ch, af)
    assert [x.tobytes() for x in got] == [ktilde.tobytes(), l.tobytes()]
    for idx in np.ndindex(af.shape[:-2]):
        assert (af[idx] @ ch.mmse_equalizer).tobytes() == b[idx].tobytes()
    return failed == [FILTER]


class TestEffectiveNoiseReference:
    @pytest.mark.parametrize("bound", [1, 2, 3, 4, 5])
    def test_scan_stacks_match_the_reference(self, bound):
        """Ktilde, L and B bit for bit, or the same error, on the region scan's
        stack of two-stream channels: N 1-3, 0-120 dB."""
        af = _scan_table(bound)[1]
        rng = np.random.default_rng([4200, bound])
        for n in (1, 2, 3):
            for snr_db in np.linspace(0.0, 120.0, 13):
                ch = ChannelInstance(rng.standard_normal((n, 2)), 10.0 ** (snr_db / 10.0))
                assert not assert_matches_reference(ch, af)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_single_matrices_and_stacks_match_the_reference(self, m):
        """The same on single matrices at N 1..M+2, 0-120 dB, M 2-16 (ifwb
        builds single models up to M 16), and on (4, 5) stacks of them at M
        2-6. At some M from 9 to 15 (which M depends on the BLAS kernel) a single
        matrix's x @ x.T has other last bits than a stack's x @ contiguous(x^T),
        and a stack's one 2-D product with G other bits than the reference's
        per-matrix products; the scan's stacks are two-stream."""
        rng = np.random.default_rng([4300, m])
        for _ in range(12):
            ch = conditioned_channel(rng, m, int(rng.integers(1, m + 3)), float(rng.uniform(0.0, 120.0)))
            stack = np.stack([random_full_rank_int(rng, m, bound=3) for _ in range(20)]).astype(float)
            if m <= 6:
                assert not assert_matches_reference(ch, stack.reshape(4, 5, m, m))
            for af in stack[:5]:
                assert not assert_matches_reference(ch, af)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_filter_algebra_false_alarms_keep_the_reference_bits(self, m):
        """At 150-300 dB the reference's filter-algebra check fires on channels
        whose factor passes: there the kernel returns the reference's bits.
        Single matrices and (2, 5) stacks, M 2-4, N M..M+1, Gaussian H."""
        rng = np.random.default_rng([4400, m])
        false_alarms = 0
        for snr_db in (150.0, 200.0, 250.0, 300.0):
            for n in (m, m + 1):
                ch = conditioned_channel(rng, m, n, snr_db)
                stack = np.stack([random_full_rank_int(rng, m, bound=3) for _ in range(10)]).astype(float)
                false_alarms += assert_matches_reference(ch, stack.reshape(2, 5, m, m))
                false_alarms += sum(assert_matches_reference(ch, af) for af in stack[:3])
        assert false_alarms > 0


def _perturbed_qr(monkeypatch, ch, index, value):
    """np.linalg.qr with R[index] set to value(R[index]), after ch's own QR
    factor is computed: one entry of R, or all of one matrix of a stack."""
    _ = ch.mmse_equalizer, ch.sic_cholesky
    qr = np.linalg.qr

    def perturbed(x, mode="reduced"):
        r = qr(x, mode=mode).copy()
        r[index] = value(r[index])
        return r

    monkeypatch.setattr(np.linalg, "qr", perturbed)


FACTOR = r"channel square-root factor fails Q\^T Q = I or Q R = \[sqrt\(snr\) H J; J\]"


class TestChannelFactorCheck:
    """The channel's square-root factor [Q1; Q2] R is checked once, before
    any quantity is read off it: a perturbed Q2 (the block G = Q2 J comes
    from), Q1 (the equalizer sqrt(snr) Q2 Q1^T) or R fails the check, on
    whichever derived quantity is read first."""

    @staticmethod
    def perturb_factor(monkeypatch, ch, part, rel):
        """np.linalg.qr with one entry of the factor of a full QR (ch's, which
        must not have been read yet) scaled by 1 + rel."""
        assert "_sqrt_factor" not in ch.__dict__
        qr = np.linalg.qr
        n = ch.num_receive

        def perturbed(x, mode="reduced"):
            if mode != "reduced":  # the effective-noise kernel's QR
                return qr(x, mode=mode)
            q, r = (f.copy() for f in qr(x, mode=mode))
            {"Q1": q[:n], "Q2": q[n:], "R": r}[part][0, -1] *= 1.0 + rel
            return q, r

        monkeypatch.setattr(np.linalg, "qr", perturbed)

    @pytest.mark.parametrize("read", ["sic_cholesky", "mmse_equalizer", "model", "capacity"])
    @pytest.mark.parametrize("part", ["Q1", "Q2", "R"])
    def test_perturbed_factor_fails(self, example1, monkeypatch, part, read):
        self.perturb_factor(monkeypatch, example1, part, 1e-9)
        reads = {"sic_cholesky": lambda: example1.sic_cholesky,
                 "mmse_equalizer": lambda: example1.mmse_equalizer,
                 "model": lambda: if_effective_model(example1, EXAMPLE1_A),
                 "capacity": lambda: white_input_capacity(example1)}
        with pytest.raises(IfwbError, match=FACTOR):
            reads[read]()

    @pytest.mark.parametrize("part", ["Q1", "R"])
    def test_perturbed_factor_fails_at_300_db(self, monkeypatch, part):
        """At 300 dB a relative perturbation of 1e-13 in one entry of Q1 or R
        is caught: the check does not cancel as the SNR grows. (Q2 is of the
        order of 1/sqrt(snr) there, and Q R is checked against the largest
        entry of the factored matrix, so Q2 is checked normwise; G's accuracy
        at 150-300 dB is TestHighPrecisionReference's.)"""
        ch = ChannelInstance(np.array([[1.0, 0.5], [0.3, 1.2]]), 1e30)
        self.perturb_factor(monkeypatch, ch, part, 1e-13)
        with pytest.raises(IfwbError, match=FACTOR):
            _ = ch.sic_cholesky

    @pytest.mark.parametrize("part", ["Q1", "Q2", "R"])
    def test_unperturbed_factor_passes(self, example1, monkeypatch, part):
        self.perturb_factor(monkeypatch, example1, part, 0.0)
        assert if_effective_model(example1, EXAMPLE1_A).L.shape == (2, 2)


class TestEffectiveNoiseChecks:
    """The snr L L^T check raises its message on a single matrix, and on a
    stack in which one matrix alone is corrupted."""

    CHOLESKY = r"Ktilde does not match snr \* L L\^T"

    @staticmethod
    def stack():
        return _scan_table(3)[1]

    def test_unperturbed_kernel_passes(self, example1):
        _effective_noise(example1, self.stack())
        _effective_noise(example1, EXAMPLE1_A.astype(float))

    def test_perturbed_qr_fails_the_cholesky_check(self, example1, monkeypatch):
        _perturbed_qr(monkeypatch, example1, (0, 0), lambda v: v * (1.0 + 1e-6))
        with pytest.raises(IfwbError, match=self.CHOLESKY):
            if_effective_model(example1, EXAMPLE1_A)

    def test_each_matrix_is_checked_against_its_own_scale(self, example1, monkeypatch):
        """Matrix 36 of the bound-3 stack has the least max|Ktilde|, about 1/120 of
        the stack's largest. Scaling the first row of its R by 1 + 3e-8 moves
        snr L L^T by up to 6e-8 of that scale: beyond the bound of 1e-9 on it,
        and within 1e-9 of the largest."""
        stack = self.stack()
        ktilde, _ = _effective_noise(example1, stack)
        scales = np.abs(ktilde).max(axis=(1, 2))
        assert scales.argmin() == 36 and 60 * scales[36] < scales.max()
        _perturbed_qr(monkeypatch, example1, (36, 0, 0), lambda v: v * (1.0 + 3e-8))
        with pytest.raises(IfwbError, match=self.CHOLESKY):
            _effective_noise(example1, stack)

    def test_nan_beside_an_entry_beyond_the_bound_fails(self, example1, monkeypatch):
        """snr L L^T of matrix 36 holds NaNs and an entry beyond the bound, which
        the largest |entry| alone, a NaN, would not show."""
        def corrupt(r):
            r = r * (1.0 + 1e-6)
            r[0, 1] = np.nan
            return r

        _perturbed_qr(monkeypatch, example1, 36, corrupt)
        with pytest.raises(IfwbError, match=self.CHOLESKY):
            _effective_noise(example1, self.stack())


class TestEffectiveModelSharing:
    def test_one_model_per_channel_and_matrix(self, example1):
        model = if_effective_model(example1, EXAMPLE1_A)
        assert if_effective_model(example1, EXAMPLE1_A.tolist()) is model
        assert if_effective_model(example1, EXAMPLE1_A.astype(float)) is model
        assert if_effective_model(example1, [[1, 0], [0, 1]]) is not model
        other = ChannelInstance(example1.H, example1.snr)
        again = if_effective_model(other, EXAMPLE1_A)
        assert again is not model
        for name in ("A", "Ktilde", "L"):
            np.testing.assert_array_equal(getattr(again, name), getattr(model, name))

    def test_arrays_read_only_and_owned(self, example1):
        a = np.array([[2, 1], [1, 1]], dtype=np.int64)
        model = if_effective_model(example1, a)
        a[0, 0] = 7
        np.testing.assert_array_equal(model.A, [[2, 1], [1, 1]])
        for name in ("A", "Ktilde", "L"):
            with pytest.raises(ValueError):
                getattr(model, name)[0, 0] = 0

    def test_invalid_matrices_raise_every_time(self, example1):
        for _ in range(2):
            with pytest.raises(SingularA):
                if_effective_model(example1, [[1, 2], [2, 4]])
            with pytest.raises(ValueError, match=r"A must be 2x2 for this channel, got \(3, 3\)"):
                if_effective_model(example1, np.eye(3, dtype=int))
            # the size is checked before the determinant
            with pytest.raises(ValueError, match="must be 2x2"):
                if_effective_model(example1, np.zeros((3, 3), dtype=int))

    def test_one_conversion_and_one_determinant_per_model(self, example1, monkeypatch):
        converted, dets = [], []
        monkeypatch.setattr(rates_module, "as_integer_matrix",
                            lambda a: converted.append(a) or as_integer_matrix(a))
        monkeypatch.setattr(rates_module, "int_det", lambda a: dets.append(a) or int_det(a))
        model = if_effective_model(example1, [[2, 1], [3, 4]])
        assert model.det == 5 and model.det_gap == math.log2(5)
        assert len(converted) == len(dets) == 1
        assert if_effective_model(example1, [[2, 1], [3, 4]]) is model
        assert len(converted) == 2 and len(dets) == 1

    def test_rate_functions_share_one_factorization(self, monkeypatch):
        calls = []

        def counting(ch, af):
            calls.append(af.shape)
            return _effective_noise(ch, af)

        monkeypatch.setattr(rates_module, "_effective_noise", counting)
        ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5)
        if_rates(ch, EXAMPLE1_A)
        successive_if_rates(ch, EXAMPLE1_A)
        for tri in pseudo_triangularize(EXAMPLE1_A):
            allocate_rates(ch, EXAMPLE1_A, tri.permutation)
        successive_objective(ch, EXAMPLE1_A)
        gdfe_filters(ch, EXAMPLE1_A)
        assert calls == [(2, 2)]


class TestAsIntegerMatrix:
    @pytest.mark.parametrize("a", [
        [[1e30, 0], [0, 1]],  # float beyond int64
        [[2.0**63, 0], [0, 1]],
        [[-1e30, 0], [0, 1]],
        [[2**63, 0], [0, 1]],  # numpy reads this one as a float
        [[10**20, 0], [0, 1]],  # and this one as a Python-int object
        [[-(2**63) - 1, 0], [0, 1]],
        np.array([[2**63, 0], [0, 1]], dtype=np.uint64),
    ])
    def test_rejects_entries_beyond_int64(self, a):
        with pytest.raises(ValueError, match="beyond the int64 range"):
            as_integer_matrix(a)

    def test_rejects_booleans(self):
        with pytest.raises(ValueError, match="got booleans"):
            as_integer_matrix(np.eye(2, dtype=bool))

    def test_keeps_the_int64_extremes(self):
        extremes = [[2**63 - 1, -(2**63)], [0, 1]]
        np.testing.assert_array_equal(as_integer_matrix(extremes), np.array(extremes, dtype=np.int64))
        got = as_integer_matrix([[2.0**63 - 1024, -(2.0**63)], [0.0, -3.0]])
        assert got.dtype == np.int64 and got.tolist() == [[2**63 - 1024, -(2**63)], [0, -3]]


class TestWhiteInputCapacity:
    def test_zero_channel(self):
        assert white_input_capacity(ChannelInstance(np.zeros((2, 2)), 5.0)) == 0.0

    def test_identity_channel(self):
        ch = ChannelInstance(np.eye(2), 15.0)
        assert np.isclose(white_input_capacity(ch), 2 * 0.5 * np.log2(16.0))

    def test_example_closed_form(self, example1):
        snr = 10**1.5
        expected = 0.5 * math.log2(1.0 + 3.0 * snr)
        assert abs(white_input_capacity(example1) - expected) <= 1e-12
        # consistent with both corner-point sums
        assert abs(expected - (0.7776 + 2.5139)) <= 2 * ANCHOR_TOL
        assert abs(expected - (1.8452 + 1.4463)) <= 2 * ANCHOR_TOL


class TestHighPrecisionReference:
    @pytest.mark.parametrize("conditioned, tol", [(False, 1e-12), (True, 1e-11)])
    def test_capacity_and_sic_rates_to_120_db(self, conditioned, tol):
        """C_WI and the MMSE-SIC rates, in the natural and in a random decode
        order, against 60-digit arithmetic on 60 channels with M 2-6, N 1..M+2
        and 0-120 dB; H Gaussian, or with a condition number up to 1e9, where
        the float64 input itself limits the accuracy (worst error 3.2e-12 bits).
        Explicitly inverted Gram matrices were off by up to 4e-5 bits on both
        sets."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(45)
        orders = np.random.default_rng(46)
        for _ in range(60):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, m + 3))
            cond = float(10.0 ** rng.uniform(0.0, 9.0)) if conditioned else None
            ch = conditioned_channel(rng, m, n, float(rng.uniform(0.0, 120.0)), cond)
            order = tuple(orders.permutation(m).tolist())
            with mpmath.workdps(60):
                h = mpmath.matrix(ch.H.tolist())
                gram = mpmath.eye(m) + mpmath.mpf(ch.snr) * (h.T * h)
                cwi = mpmath.log(mpmath.det(gram), 2) / 2
                sic = {}
                for decode in (tuple(range(m)), order):
                    p = mpmath.matrix([[float(i == j) for j in range(m)] for i in decode])
                    g = mpmath.cholesky(p * gram**-1 * p.T)
                    sic[decode] = [-mpmath.log(g[k, k], 2) for k in range(m)]
            assert abs(white_input_capacity(ch) - float(cwi)) <= tol
            for decode, want in sic.items():
                got = mmse_sic_plan(ch, decode).rates
                assert max(abs(r - float(w)) for r, w in zip(got, want)) <= tol


    @pytest.mark.parametrize("conditioned, tol", [(False, 1e-12), (True, 1e-7)])
    def test_kz_successive_if_and_sic_rates_at_150_to_300_db(self, conditioned, tol):
        """S-IF per-step rates with the KZ-optimal A, the MMSE-SIC rates and
        C_WI against 60-digit arithmetic on 60 channels with M 2-6, N M..M+2
        and 150-300 dB; H Gaussian (worst error 2.8e-14 bits), or with a
        condition number up to 1e9 (worst 2.6e-8 bits, in C_WI and the SIC
        rates alike: rounding sqrt(snr) H moves its smallest singular value
        by up to eps times the largest). KZ may refuse an ill-conditioned
        basis G^T as numerically dependent (1 of those 60); its SIC rates
        and C_WI are still compared."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(48)
        worst = 0.0
        for _ in range(60):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(m, m + 3))
            cond = float(10.0 ** rng.uniform(0.0, 9.0)) if conditioned else None
            ch = conditioned_channel(rng, m, n, float(rng.uniform(150.0, 300.0)), cond)
            try:
                a = optimal_a(ch, "kz_exact")
            except DegenerateBasis:
                a = None
            with mpmath.workdps(60):
                h = mpmath.matrix(ch.H.tolist())
                gram = mpmath.eye(m) + mpmath.mpf(ch.snr) * (h.T * h)
                inv = gram**-1
                want = {"cwi": [mpmath.log(mpmath.det(gram), 2) / 2]}
                # L of A = I is the channel's G: the MMSE-SIC rates
                for name, am in (("sic", np.eye(m, dtype=np.int64)), ("sif", a)):
                    if am is not None:
                        am = mpmath.matrix(am.tolist())
                        l = mpmath.cholesky(am * inv * am.T)
                        want[name] = [-mpmath.log(l[k, k], 2) for k in range(m)]
            got = {"cwi": [white_input_capacity(ch)], "sic": mmse_sic_plan(ch).rates}
            if a is not None:
                got["sif"] = successive_if_rates(ch, a).per_step
            for name, rates in want.items():
                worst = max(worst, max(abs(r - float(w)) for r, w in zip(got[name], rates)))
        assert worst <= tol


class TestWaterfilling:
    def test_identity_channel(self):
        ch = ChannelInstance(np.eye(3), 7.0)
        value, q = waterfilling_capacity(ch)
        assert np.isclose(value, white_input_capacity(ch), atol=1e-9)
        np.testing.assert_allclose(q, 7.0 * np.eye(3), atol=1e-9)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 2), (1, 3)])
    def test_zero_channel_has_no_capacity(self, shape):
        value, q = waterfilling_capacity(ChannelInstance(np.zeros(shape), 10.0))
        assert value == 0.0 and type(value) is float
        assert q.shape == (shape[1], shape[1]) and not q.any()

    def test_single_mode_gets_all_power(self):
        # rank-one channel: both streams' power rides the single eigenmode
        h = np.array([[1.0, 1.0]]) / np.sqrt(2.0)  # lone singular value 1
        ch = ChannelInstance(h, 5.0)
        value, q = waterfilling_capacity(ch)
        assert np.isclose(value, 0.5 * np.log2(1.0 + 2.0 * 5.0), atol=1e-9)
        assert np.isclose(np.trace(q), 10.0, atol=1e-9)

    def test_grid_search_oracle(self):
        rng = np.random.default_rng(30)
        h = rng.standard_normal((3, 3))
        ch = ChannelInstance(h, 1.0)
        value, q = waterfilling_capacity(ch)
        gains = np.linalg.svd(h, compute_uv=False) ** 2
        budget = 3.0
        steps = 1200
        grid = np.linspace(0.0, budget, steps + 1)
        p1, p2 = np.meshgrid(grid, grid, indexing="ij")
        p3 = budget - p1 - p2
        ok = p3 >= 0
        cap = np.where(
            ok,
            0.5
            * (
                np.log2(1.0 + p1 * gains[0])
                + np.log2(1.0 + p2 * gains[1])
                + np.log2(1.0 + np.maximum(p3, 0.0) * gains[2])
            ),
            -np.inf,
        )
        grid_best = float(cap.max())
        assert value >= grid_best - 1e-9
        assert value - grid_best <= 1e-6

    def test_matches_50_digit_waterfilling(self):
        """The exact water level against 50-digit water-filling on the singular
        values of 40 Gaussian channels, M 1-8, N 1-9, -20 to 120 dB."""
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(46)
        for _ in range(40):
            m = int(rng.integers(1, 9))
            ch = conditioned_channel(rng, m, int(rng.integers(1, 10)), float(rng.uniform(-20.0, 120.0)))
            value, _ = waterfilling_capacity(ch)
            with mpmath.workdps(50):
                gains = sorted((s**2 for s in mpmath.svd_r(mpmath.matrix(ch.H.tolist()), compute_uv=False)),
                               reverse=True)
                inv = [1 / g for g in gains]
                k = max(k for k in range(1, len(inv) + 1) if m * mpmath.mpf(ch.snr) + sum(inv[:k]) > k * inv[k - 1])
                level = (m * mpmath.mpf(ch.snr) + sum(inv[:k])) / k
                want = sum(mpmath.log(level * g, 2) for g in gains[:k]) / 2
            assert abs(value - float(want)) <= 1e-12 * float(want)

    def test_constraints_and_dominance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            ch = random_channel(rng)
            value, q = waterfilling_capacity(ch)
            assert value >= white_input_capacity(ch) - 1e-12
            assert np.trace(q) <= ch.num_streams * ch.snr + 1e-9
            eigs = np.linalg.eigvalsh(q)
            assert eigs.min() >= -1e-9


class TestMmseSicPlan:
    def test_example_corner_first_order(self, example1):
        plan = mmse_sic_plan(example1)
        assert abs(plan.rates[0] - 0.7776) <= ANCHOR_TOL
        assert abs(plan.rates[1] - 2.5139) <= ANCHOR_TOL

    def test_example_corner_reversed(self, example1):
        plan = mmse_sic_plan(example1, decode_order=(1, 0))
        assert abs(plan.rates[0] - 0.2887) <= ANCHOR_TOL
        assert abs(plan.rates[1] - 3.0028) <= ANCHOR_TOL
        assert abs(plan.stream_rates[0] - 3.0028) <= ANCHOR_TOL
        assert abs(plan.stream_rates[1] - 0.2887) <= ANCHOR_TOL

    def test_identity_channel_decoupled(self):
        ch = ChannelInstance(np.eye(2), 9.0)
        plan = mmse_sic_plan(ch)
        expected = 0.5 * np.log2(10.0)
        np.testing.assert_allclose(plan.rates, [expected, expected], atol=1e-12)

    def test_sum_rate_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            ch = random_channel(rng)
            plan = mmse_sic_plan(ch)
            assert abs(plan.sum_rate - white_input_capacity(ch)) <= 1e-9

    def test_order_validation(self):
        ch = ChannelInstance(np.eye(2), 2.0)
        with pytest.raises(ValueError):
            mmse_sic_plan(ch, decode_order=(0, 0))


class TestEffectiveModel:
    def test_diagonal_case(self):
        ch = ChannelInstance(np.eye(2), 15.0)
        model = if_effective_model(ch, np.eye(2, dtype=int))
        np.testing.assert_allclose(model.Ktilde, (15.0 / 16.0) * np.eye(2), atol=1e-12)

    def test_example_cholesky_diagonal(self, example1):
        model = if_effective_model(example1, EXAMPLE1_A)
        diag = np.diag(model.L)
        assert abs(-np.log2(diag[0]) - 1.8452) <= ANCHOR_TOL
        assert abs(-np.log2(diag[1]) - 1.4463) <= ANCHOR_TOL

    def test_covariance_routes_agree(self):
        # the filter-algebra covariance, from the equalizer toward A, against
        # the model's Ktilde, which the kernel computes another way
        rng = np.random.default_rng(33)
        for _ in range(20):
            ch = random_channel(rng, max_dim=3)
            a = random_full_rank_int(rng, ch.num_streams)
            model = if_effective_model(ch, a)
            b = a.astype(float) @ ch.mmse_equalizer
            mismatch = b @ ch.H - a.astype(float)
            direct = ch.snr * mismatch @ mismatch.T + b @ b.T
            assert np.abs(direct - model.Ktilde).max() <= 1e-8 * np.abs(model.Ktilde).max()

    def test_ktilde_is_snr_llt(self):
        rng = np.random.default_rng(34)
        ch = random_channel(rng, max_dim=3)
        a = random_full_rank_int(rng, ch.num_streams)
        model = if_effective_model(ch, a)
        assert (
            np.abs(model.Ktilde - ch.snr * model.L @ model.L.T).max()
            <= 1e-9 * np.abs(model.Ktilde).max()
        )

    def test_singular_a_rejected(self):
        ch = ChannelInstance(np.eye(2), 2.0)
        with pytest.raises(SingularA):
            if_effective_model(ch, [[1, 1], [2, 2]])


class TestIfRates:
    def test_identity(self):
        ch = ChannelInstance(np.eye(2), 15.0)
        rates = if_rates(ch, np.eye(2, dtype=int))
        np.testing.assert_allclose(rates.rates, [0.5 * np.log2(16.0)] * 2, atol=1e-12)

    def test_example_row_structure(self, example1):
        rates = if_rates(example1, EXAMPLE1_A)
        sif = successive_if_rates(example1, EXAMPLE1_A)
        # first L row has a single entry: parallel and successive agree there
        assert abs(rates.raw[0] - sif.per_step[0]) <= 1e-12
        assert rates.raw[1] < sif.per_step[1]
        assert abs(rates.raw[0] - 1.8452) <= ANCHOR_TOL

    def test_componentwise_dominance(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            ch = random_channel(rng, max_dim=3)
            a = random_full_rank_int(rng, ch.num_streams)
            par = if_rates(ch, a)
            sif = successive_if_rates(ch, a)
            for r_if, r_sif in zip(par.raw, sif.per_step):
                assert r_if <= r_sif + 1e-12

    def test_clamping_flags(self):
        ch = ChannelInstance(np.eye(2), 2.0)
        rates = if_rates(ch, [[5, 0], [0, 5]])  # det 25, heavy noise amplification
        assert all(rates.undecodable)
        assert rates.rates == (0.0, 0.0)
        assert all(r < 0 for r in rates.raw)


class TestSuccessiveIfRates:
    def test_example_per_step(self, example1):
        sif = successive_if_rates(example1, EXAMPLE1_A)
        assert abs(sif.per_step[0] - 1.8452) <= ANCHOR_TOL
        assert abs(sif.per_step[1] - 1.4463) <= ANCHOR_TOL
        assert sif.det_gap == 0.0
        assert abs(sif.symmetric_total - 2 * 1.4463) <= 2 * ANCHOR_TOL

    def test_identity_matches_sic_exactly(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            ch = random_channel(rng)
            ident = np.eye(ch.num_streams, dtype=np.int64)
            sif = successive_if_rates(ch, ident)
            plan = mmse_sic_plan(ch)
            assert max(abs(a - b) for a, b in zip(sif.per_step, plan.rates)) <= 1e-12

    def test_determinant_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            ch = random_channel(rng)
            a = random_full_rank_int(rng, ch.num_streams)
            sif = successive_if_rates(ch, a)
            cwi = white_input_capacity(ch)
            assert abs(sif.sum_rate + sif.det_gap - cwi) <= 1e-9


class TestPseudoTriangularize:
    def test_identity_only_natural_order(self):
        tris = pseudo_triangularize(np.eye(2, dtype=int))
        assert [t.permutation for t in tris] == [(0, 1)]

    def test_example_both_orders(self):
        tris = pseudo_triangularize(EXAMPLE1_A)
        assert {t.permutation for t in tris} == {(0, 1), (1, 0)}

    def test_structure_of_outputs(self):
        for tri in pseudo_triangularize(EXAMPLE1_A):
            m = tri.R.shape[0]
            np.testing.assert_array_equal(np.diag(tri.R), np.ones(m))
            assert np.abs(np.triu(tri.R, 1)).max() == 0.0
            np.testing.assert_allclose(tri.Atilde, tri.R @ EXAMPLE1_A, atol=1e-12)
            permuted = tri.Atilde[:, tri.permutation]
            assert np.abs(np.tril(permuted, -1)).max() <= 1e-10

    def test_random_full_rank_always_feasible(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            a = random_full_rank_int(rng, 3)
            assert len(pseudo_triangularize(a)) >= 1

    def test_guards(self):
        with pytest.raises(SingularA):
            pseudo_triangularize([[1, 1], [1, 1]])
        with pytest.raises(DimensionTooLarge):
            pseudo_triangularize(np.eye(7, dtype=int))


def _is_feasible(a: np.ndarray, perm: tuple) -> bool:
    """True iff elimination without row swaps or scaling realizes perm, that is
    iff every leading principal minor of the column-permuted matrix is nonzero:
    the per-permutation reference for _feasible_permutations."""
    cols = a[:, list(perm)]
    return all(int_det(cols[:k, :k]) != 0 for k in range(1, len(perm) + 1))


class TestFeasiblePermutations:
    def test_matches_per_permutation_leading_minors(self):
        rng = np.random.default_rng(39)
        for m in range(1, 7):
            for _ in range(40 if m < 6 else 10):
                density = rng.uniform(0.3, 1.0)
                while True:
                    a = rng.integers(-2, 3, size=(m, m)) * (rng.random((m, m)) < density)
                    if int_det(a) != 0:
                        break
                want = [p for p in itertools.permutations(range(m)) if _is_feasible(a, p)]
                assert _feasible_permutations(a) == want

    def test_each_column_set_minor_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a.shape)
            return int_det(a)

        monkeypatch.setattr(rates_module, "int_det", counting)
        # every minor of a generalized Vandermonde matrix with 0 < x_1 < ... is positive
        a = np.array([[1, 2, 3, 4, 5], [1, 4, 9, 16, 25], [1, 8, 27, 64, 125],
                      [1, 16, 81, 256, 625], [1, 32, 243, 1024, 3125]], dtype=np.int64)
        assert len(_feasible_permutations(a)) == 120
        # the 2^5 - 2 proper column sets; the full set's minor is det A, checked by the caller
        assert len(calls) == 2**5 - 2
        assert (5, 5) not in calls


class TestAllocateRates:
    def test_example_both_permutations(self, example1):
        plan_12 = allocate_rates(example1, EXAMPLE1_A, (0, 1))
        plan_21 = allocate_rates(example1, EXAMPLE1_A, (1, 0))
        assert plan_12.monotone_feasible and plan_21.monotone_feasible
        assert abs(plan_12.stream_rates[0] - 1.8452) <= ANCHOR_TOL
        assert abs(plan_12.stream_rates[1] - 1.4463) <= ANCHOR_TOL
        assert abs(plan_21.stream_rates[0] - 1.4463) <= ANCHOR_TOL
        assert abs(plan_21.stream_rates[1] - 1.8452) <= ANCHOR_TOL
        for plan in (plan_12, plan_21):
            assert plan.sum_rate_gap == 0.0
            assert abs(plan.sum_rate - white_input_capacity(example1)) <= 1e-9

    def test_identity_equals_sic(self):
        rng = np.random.default_rng(39)
        ch = random_channel(rng)
        m = ch.num_streams
        plan = allocate_rates(ch, np.eye(m, dtype=int), tuple(range(m)))
        sic = mmse_sic_plan(ch)
        assert plan.monotone_feasible  # a signed permutation, a plan whatever its diagonal
        assert max(abs(a - b) for a, b in zip(plan.stream_rates, sic.rates)) <= 1e-12

    def test_signed_permutation_is_sic_in_its_row_order(self):
        """A = D P_pi, row k of P_pi being e_pi(k) and D any sign matrix, is plain
        MMSE-SIC in order pi: a plan whatever its diagonal, with the stream rates
        of mmse_sic_plan(ch, pi) bit for bit (M 2-4, 0-60 dB)."""
        rng = np.random.default_rng(48)
        monotone = set()
        for m in (2, 3, 4) * 4:
            ch = conditioned_channel(rng, m, int(rng.integers(1, m + 2)), float(rng.uniform(0.0, 60.0)))
            for order in itertools.permutations(range(m)):
                want = mmse_sic_plan(ch, order).stream_rates
                for signs in itertools.product((1, -1), repeat=m):
                    a = np.diag(signs) @ np.eye(m, dtype=np.int64)[list(order)]
                    plan = allocate_rates(ch, a, order)
                    assert plan.monotone_feasible and plan.stream_rates == want
                    assert plan.sum_rate == sum(want)
                    monotone.add(bool(_monotone(np.diag(if_effective_model(ch, a).L))))
        assert monotone == {True, False}  # both kinds of diagonal were covered

    def test_signed_permutation_predicate(self):
        """Over the trailing two axes of one matrix or a stack (M 1-4): every
        D P_pi is a signed permutation; a row (1, 1), an entry +-2 and an entry
        -2**63, whose abs wraps to a negative int64, are not."""
        for m in (1, 2, 3, 4):
            eye = np.eye(m, dtype=np.int64)
            yes = [np.diag(signs) @ eye[list(order)] for order in itertools.permutations(range(m))
                   for signs in itertools.product((1, -1), repeat=m)]
            no = []
            for entry in (2, -2, -2**63):
                a = eye[::-1].copy()
                a[0, -1] = entry
                no.append(a)
            if m > 1:
                a = eye.copy()
                a[0, 1] = 1  # row (1, 1, 0, ...)
                no.append(a)
            for a, want in [(a, True) for a in yes] + [(a, False) for a in no]:
                got = _signed_permutation(a)
                assert got.shape == () and bool(got) is want
            got = _signed_permutation(np.stack(yes + no))
            assert got.tolist() == [True] * len(yes) + [False] * len(no)

    def test_sum_identity_with_kz_optimal(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            h = rng.standard_normal((2, 2))
            ch = ChannelInstance(h, 10.0)
            a = optimal_a(ch, "kz_exact")
            tri = pseudo_triangularize(a)[0]
            plan = allocate_rates(ch, a, tri.permutation)
            if plan.monotone_feasible:
                expected = white_input_capacity(ch) - plan.sum_rate_gap
                assert abs(plan.sum_rate - expected) <= 1e-9

    def test_infeasible_permutation_raises(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(InfeasiblePermutation):
            allocate_rates(ch, np.eye(2, dtype=int), (1, 0))

    @pytest.mark.parametrize("perm", [(0, 1), (0, 1, 2)])
    def test_wrong_size_a_is_a_size_error(self, perm):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError, match=r"A must be 2x2 for this channel, got \(3, 3\)"):
            allocate_rates(ch, np.eye(3, dtype=int), perm)

    def test_wrong_size_a_fails_before_the_permutation_scan(self, monkeypatch):
        ch = ChannelInstance(np.eye(2), 4.0)
        scans = []
        monkeypatch.setattr(rates_module, "_feasible_permutations",
                            lambda a: scans.append(a) or _feasible_permutations(a))
        with pytest.raises(ValueError, match=r"A must be 2x2 for this channel, got \(3, 3\)"):
            feasible_allocations(ch, np.eye(3, dtype=int))
        assert scans == []
        assert len(feasible_allocations(ch, np.eye(2, dtype=int))) == len(scans) == 1

    def test_non_monotone_falls_back_to_symmetric(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            ch = random_channel(rng, max_dim=3)
            a = random_full_rank_int(rng, ch.num_streams)
            perm = pseudo_triangularize(a)[0].permutation
            plan = allocate_rates(ch, a, perm)
            if not plan.monotone_feasible:
                assert len(set(plan.stream_rates)) == 1
                assert plan.stream_rates[0] >= 0.0
                return
        pytest.skip("no non-monotone instance drawn")

    def test_monotone_rule_on_one_diagonal_or_a_stack(self):
        rng = np.random.default_rng(43)
        diags = np.abs(rng.standard_normal((200, 3))) + 0.1
        diags[:60] = np.sort(diags[:60], axis=1)
        diags[40:60, 0] = diags[40:60, 1] * (1.0 + 1e-13)  # decreasing within 1e-12
        want = [all(d[i] ** 2 <= d[i + 1] ** 2 * (1.0 + 1e-12) for i in range(2)) for d in diags]
        assert _monotone(diags).tolist() == want == [bool(_monotone(d)) for d in diags]
        assert all(want[:60]) and not all(want[60:])

    def test_feasible_allocations_are_the_per_permutation_plans(self, monkeypatch):
        """One call gives allocate_rates's plan for every permutation of
        pseudo_triangularize, in its order; it computes A's determinant and
        leading minors, at most 2^M of them, and no float elimination."""
        rng = np.random.default_rng(42)
        feasible = set()
        for i in range(60):
            ch = random_channel(rng, max_dim=4)
            m = ch.num_streams
            a = random_full_rank_int(rng, m) if i else np.eye(m, dtype=np.int64)
            want = [allocate_rates(ch, a, tri.permutation) for tri in pseudo_triangularize(a)]
            dets = []
            with monkeypatch.context() as patch:
                patch.setattr(rates_module, "int_det", lambda x: dets.append(x) or int_det(x))
                patch.setattr(rates_module, "pseudo_triangularize", None)
                got = feasible_allocations(ch, a)
            assert got == want
            assert len(dets) <= 2**m
            feasible.update(plan.monotone_feasible for plan in got)
        assert feasible == {True, False}


class TestOptimalA:
    def test_identity_channel(self):
        ch = ChannelInstance(np.eye(2), 20.0)
        a = optimal_a(ch, "kz_exact")
        assert abs(int_det(a)) == 1
        assert sorted(np.abs(a).ravel().tolist()) == [0, 0, 1, 1]

    def test_example_objective_matches_reference(self, example1):
        a = optimal_a(example1, "kz_exact")
        worst_rate = -0.5 * math.log2(successive_objective(example1, a))
        assert worst_rate >= 1.4463 - 1e-4
        assert abs(int_det(a)) == 1

    def test_kz_matches_brute_force_2x2(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            ch = ChannelInstance(rng.standard_normal((2, 2)), float(rng.choice([1, 10, 100])))
            obj_kz = successive_objective(ch, optimal_a(ch, "kz_exact"))
            from ifwb.lattice import brute_force_min_max

            _, obj_bf = brute_force_min_max(ch.sic_cholesky, 5, "successive_if")
            assert abs(obj_kz - obj_bf) <= 1e-9 * max(1.0, obj_bf)

    def test_lll_mode_unimodular(self):
        rng = np.random.default_rng(43)
        ch = ChannelInstance(rng.standard_normal((4, 4)), 10.0)
        a = optimal_a(ch, "kz_lll")
        assert abs(int_det(a)) == 1

    def test_brute_force_mode_needs_bound(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError):
            optimal_a(ch, "brute_force")
        a = optimal_a(ch, "brute_force", bound=2)
        assert int_det(a) != 0

    def test_exact_mode_guard(self):
        ch = ChannelInstance(np.eye(11), 4.0)
        with pytest.raises(DimensionTooLarge):
            optimal_a(ch, "kz_exact")

    @pytest.mark.parametrize("mode", ["kz_exact", "kz_lll"])
    def test_one_determinant_per_reduction(self, mode, monkeypatch):
        """The reduction report's exact det U is the model's det A, A = U^T:
        the model of the returned A computes no determinant of its own."""
        from ifwb import lattice as lattice_module

        ch = conditioned_channel(np.random.default_rng(44), 6, 5, 25.0)
        reduction_dets, model_dets = [], []
        monkeypatch.setattr(lattice_module, "int_det", lambda a: reduction_dets.append(a) or int_det(a))
        monkeypatch.setattr(rates_module, "int_det", lambda a: model_dets.append(a) or int_det(a))
        a = optimal_a(ch, mode)
        model = if_effective_model(ch, a)
        assert len(reduction_dets) == 1 and model_dets == []
        assert model.det == int_det(a) and abs(model.det) == 1 and model.det_gap == 0.0
        np.testing.assert_array_equal(model.A, a)
        assert a.flags.writeable and not model.A.flags.writeable

    def test_start_is_for_exact_kz_only(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        eye = np.eye(2, dtype=np.int64)
        np.testing.assert_array_equal(optimal_a(ch, "kz_exact", start=eye), eye)
        for mode in ("kz_lll", "brute_force"):
            with pytest.raises(ValueError, match="start applies to mode 'kz_exact' only"):
                optimal_a(ch, mode, bound=2, start=eye)


class TestGdfeFilters:
    def test_identity_is_trivial(self):
        ch = ChannelInstance(np.eye(2), 8.0)
        filters = gdfe_filters(ch, np.eye(2, dtype=int))
        np.testing.assert_allclose(filters.Rmonic, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(filters.Cfeedback, np.zeros((2, 2)), atol=1e-12)

    def test_example_diagonal_values(self, example1):
        filters = gdfe_filters(example1, EXAMPLE1_A)
        rates = -0.5 * np.log2(np.diag(filters.Kee) / example1.snr)
        assert abs(rates[0] - 1.8452) <= ANCHOR_TOL
        assert abs(rates[1] - 1.4463) <= ANCHOR_TOL

    def test_random_instances_diagonalize(self):
        rng = np.random.default_rng(44)
        for _ in range(30):
            ch = random_channel(rng, max_dim=3)
            a = random_full_rank_int(rng, ch.num_streams)
            filters = gdfe_filters(ch, a)
            off = np.abs(filters.Kee - np.diag(np.diag(filters.Kee))).max()
            assert off <= 1e-9 * np.trace(filters.Kee)
            np.testing.assert_array_equal(np.diag(filters.Rmonic), np.ones(ch.num_streams))
            np.testing.assert_array_equal(np.diag(filters.Cfeedback), np.zeros(ch.num_streams))
            gdfe_rates = -0.5 * np.log2(np.diag(filters.Kee) / ch.snr)
            sif = successive_if_rates(ch, a)
            assert np.abs(gdfe_rates - np.asarray(sif.per_step)).max() <= 1e-9



class TestScaleCovariance:
    def test_rates_invariant_under_rescaling(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            h = rng.standard_normal((3, 3))
            snr = float(rng.choice([1.0, 10.0]))
            c = float(rng.uniform(0.3, 3.0))
            ch = ChannelInstance(h, snr)
            ch_scaled = ChannelInstance(c * h, snr / c**2)
            a = random_full_rank_int(rng, 3)
            assert abs(
                white_input_capacity(ch) - white_input_capacity(ch_scaled)
            ) <= 1e-10
            s1 = successive_if_rates(ch, a).per_step
            s2 = successive_if_rates(ch_scaled, a).per_step
            assert max(abs(x - y) for x, y in zip(s1, s2)) <= 1e-10
