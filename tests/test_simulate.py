import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import EXAMPLE1_A
from ifwb import simulate
from ifwb.errors import SingularA
from ifwb.rates import gdfe_filters
from ifwb.rates import ChannelInstance, if_effective_model, optimal_a
from ifwb.simulate import (
    CHUNK_TRIALS,
    SimConfig,
    run_lr_aided_sic_trials,
    run_mmse_sic_trials,
    run_successive_if_trials,
    trial_decisions,
)


def _equal_columns_cfg():
    """Columns 3 and 4 of H are equal, so x3 - x4 is unobservable."""
    ch = ChannelInstance(np.array([[1.5, 2.875, 1.2890625, 1.2890625]]), 1.0)
    a = np.array([[0, 1, 0, 0], [1, 2, 1, 1], [-1, -1, 0, 0], [0, 1, 0, 1]])
    return SimConfig(ch=ch, A=a, pam_points=2, trials=1000, seed=1)


def example_cfg(trials=2000, seed=7, pam=4):
    ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5)
    return SimConfig(ch=ch, A=EXAMPLE1_A, pam_points=pam, trials=trials, seed=seed)


def assert_same_decisions(got, want):
    """Equation indices and stream decisions, each trials x M, agree exactly."""
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def assert_same_counts(got, want, ktilde_rtol=0.0):
    """Error rates agree exactly, empirical Ktilde to ktilde_rtol of its largest entry."""
    assert got.trials == want.trials
    assert got.symbol_error_rate == want.symbol_error_rate
    assert got.equation_error_rate == want.equation_error_rate
    scale = np.abs(want.empirical_Ktilde).max()
    assert np.abs(got.empirical_Ktilde - want.empirical_Ktilde).max() <= ktilde_rtol * scale


def pam_ser_closed_form(q_points: int, snr: float) -> float:
    """Symbol error rate of q-PAM over x + n with n ~ N(0, snr/(1+snr))."""
    c = math.sqrt(3.0 * snr / (q_points**2 - 1.0))
    sigma = math.sqrt(snr / (1.0 + snr))
    tail = 0.5 * math.erfc(c / sigma / math.sqrt(2.0))
    return 2.0 * (1.0 - 1.0 / q_points) * tail


class TestConfigValidation:
    def test_rejects_odd_pam(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError):
            SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=3, trials=10, seed=0)

    @pytest.mark.parametrize("pam", [2**31 + 2, 2**32])
    def test_rejects_pam_points_above_int32_draw(self, pam):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError, match=r"from 2 to 2\*\*31"):
            SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=pam, trials=10, seed=0)
        assert SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=2**31, trials=10,
                         seed=0).pam_points == 2**31

    def test_rejects_zero_trials(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError):
            SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=4, trials=0, seed=0)

    def test_rejects_singular_a(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(SingularA):
            SimConfig(ch=ch, A=np.array([[1, 1], [1, 1]]), pam_points=4, trials=10, seed=0)

    def test_a_is_the_effective_models(self):
        ch = ChannelInstance(np.eye(2), 4.0)
        with pytest.raises(ValueError, match=r"A must be 2x2 for this channel, got \(3, 3\)"):
            SimConfig(ch=ch, A=np.eye(3, dtype=int), pam_points=4, trials=10, seed=0)
        cfg = SimConfig(ch=ch, A=[[2, 1], [1, 1]], pam_points=4, trials=10, seed=0)
        assert cfg.A is if_effective_model(ch, [[2, 1], [1, 1]]).A

    @pytest.mark.parametrize("noise_scale", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize(
        "run", [run_successive_if_trials, run_lr_aided_sic_trials, run_mmse_sic_trials]
    )
    def test_rejects_bad_noise_scale(self, run, noise_scale):
        with pytest.raises(ValueError, match="noise_scale"):
            run(example_cfg(trials=10), noise_scale=noise_scale)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", 2.7), ("trials", True), ("trials", math.inf), ("trials", math.nan),
         ("pam_points", 4.9), ("pam_points", np.True_), ("seed", 1.5), ("seed", False)],
    )
    def test_rejects_non_integers(self, field, value):
        fields = dict(ch=ChannelInstance(np.eye(2), 100.0), A=np.eye(2, dtype=int),
                      pam_points=4, trials=10, seed=0)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(**dict(fields, **{field: value}))

    def test_accepts_integral_floats_and_numpy_integers(self):
        cfg = SimConfig(ch=ChannelInstance(np.eye(2), 100.0), A=np.eye(2, dtype=int),
                        pam_points=np.int64(4), trials=1e3, seed=np.float64(2.0**40))
        assert (cfg.pam_points, cfg.trials, cfg.seed) == (4, 1000, 2**40)
        assert all(type(v) is int for v in (cfg.pam_points, cfg.trials, cfg.seed))

    def test_rejects_unknown_decoder(self):
        with pytest.raises(ValueError, match="unknown decoder"):
            trial_decisions(example_cfg(trials=10), 1.0, "zero_forcing")


class TestDeterminism:
    def test_identical_configs_identical_results(self):
        cfg = example_cfg()
        r1 = run_successive_if_trials(cfg)
        r2 = run_successive_if_trials(cfg)
        assert r1.symbol_error_rate == r2.symbol_error_rate
        assert np.array_equal(r1.empirical_Ktilde, r2.empirical_Ktilde)
        assert_same_decisions(trial_decisions(cfg, 1.0, "successive_if"),
                              trial_decisions(cfg, 1.0, "successive_if"))

    def test_seed_changes_results(self):
        k1, _ = trial_decisions(example_cfg(seed=1), 1.0, "successive_if")
        k2, _ = trial_decisions(example_cfg(seed=2), 1.0, "successive_if")
        assert not np.array_equal(k1, k2)


class TestNoiselessDiagnostic:
    def test_zero_noise_zero_errors(self):
        result = run_successive_if_trials(example_cfg(trials=500), noise_scale=0.0)
        assert result.symbol_error_rate == (0.0, 0.0)
        assert result.equation_error_rate == (0.0, 0.0)

    def test_zero_noise_mmse_sic(self):
        # needs a determined channel: with A = I on a fat channel the residual
        # self-interference alone causes slicing errors (the IF motivation)
        ch = ChannelInstance(np.eye(2), 10.0**1.5)
        cfg = SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=4, trials=500, seed=5)
        result = run_mmse_sic_trials(cfg, noise_scale=0.0)
        assert result.symbol_error_rate == (0.0, 0.0)

    def test_zero_noise_eight_pam(self):
        # larger constellation on a clean channel; exercises both slicer
        # parities via an A with even and odd row sums
        ch = ChannelInstance(np.eye(2), 10.0**2)
        a = np.array([[1, 1], [0, 1]])
        cfg = SimConfig(ch=ch, A=a, pam_points=8, trials=500, seed=6)
        result = run_successive_if_trials(cfg, noise_scale=0.0)
        assert result.symbol_error_rate == (0.0, 0.0)
        assert result.equation_error_rate == (0.0, 0.0)


class TestDecoderEquivalence:
    def test_lr_sic_matches_noise_prediction_trial_by_trial(self):
        cfg = example_cfg(trials=10000, seed=123)
        assert_same_decisions(trial_decisions(cfg, 1.0, "successive_if"),
                              trial_decisions(cfg, 1.0, "lr_aided_sic"))

    def test_equivalence_on_random_channels(self):
        rng = np.random.default_rng(50)
        for _ in range(5):
            ch = ChannelInstance(rng.standard_normal((3, 3)), 10.0)
            a = optimal_a(ch, "kz_exact")
            cfg = SimConfig(ch=ch, A=a, pam_points=4, trials=2000, seed=int(rng.integers(1 << 31)))
            k1, _ = trial_decisions(cfg, 1.0, "successive_if")
            k2, _ = trial_decisions(cfg, 1.0, "lr_aided_sic")
            assert np.array_equal(k1, k2)

    @pytest.mark.xfail(
        strict=True,
        reason="x3 - x4 is unobservable when columns 3 and 4 of H are equal, so the "
        "reduced channel puts the last statistic exactly on a slicing boundary; the "
        "two decoders' rounding errors break that tie differently in 80 of 1000 trials",
    )
    def test_decoders_agree_on_equal_columns(self):
        cfg = _equal_columns_cfg()
        k1, _ = trial_decisions(cfg, 1.0, "successive_if")
        k2, _ = trial_decisions(cfg, 1.0, "lr_aided_sic")
        assert np.array_equal(k1, k2)

    def test_equal_columns_disagree_only_on_last_step_ties(self):
        cfg = _equal_columns_cfg()
        k1, _ = trial_decisions(cfg, 1.0, "successive_if")
        k2, _ = trial_decisions(cfg, 1.0, "lr_aided_sic")
        assert np.array_equal(k1[:, :3], k2[:, :3])
        # the last step's statistic (target / c - parity) / 2, fed back from
        # the first three (agreed) decisions, sits on a half-integer
        _, y, parity = _mono_draw(cfg, 1.0)
        filters = gdfe_filters(cfg.ch, cfg.A)
        c = cfg.symbol_scale
        v_hat = c * (2.0 * k1[:, :3] + parity[:3])
        target = (y @ filters.B.T)[:, 3] - v_hat @ filters.Cfeedback[3, :3]
        stat = (target / c - parity[3]) / 2.0
        on_tie = np.abs(stat - np.floor(stat) - 0.5) <= 1e-9
        assert on_tie.sum() > cfg.trials // 2
        assert np.all(on_tie[k1[:, 3] != k2[:, 3]])

    def test_mmse_sic_is_identity_path(self):
        ch = ChannelInstance(np.array([[np.sqrt(2.0), 1.0]]), 10.0**1.5)
        cfg_ident = SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=4, trials=3000, seed=9)
        assert_same_counts(run_mmse_sic_trials(cfg_ident), run_successive_if_trials(cfg_ident))
        assert_same_decisions(trial_decisions(cfg_ident, 1.0, "mmse_sic"),
                              trial_decisions(cfg_ident, 1.0, "successive_if"))

    def test_mmse_sic_forces_identity(self):
        cfg = example_cfg(trials=100)  # A is not the identity here
        ident_cfg = SimConfig(
            ch=cfg.ch, A=np.eye(2, dtype=int), pam_points=4, trials=100, seed=cfg.seed
        )
        assert_same_counts(run_mmse_sic_trials(cfg), run_successive_if_trials(ident_cfg))
        assert_same_decisions(trial_decisions(cfg, 1.0, "mmse_sic"),
                              trial_decisions(ident_cfg, 1.0, "successive_if"))


class TestClosedFormOracle:
    def test_identity_channel_high_snr(self):
        # 20 dB per-stream SNR, 4-PAM: essentially error-free regime
        snr = 100.0
        ch = ChannelInstance(np.eye(2), snr)
        cfg = SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=4, trials=100000, seed=7)
        result = run_mmse_sic_trials(cfg)
        pe = pam_ser_closed_form(4, snr)
        stderr = math.sqrt(pe * (1.0 - pe) / cfg.trials)
        for ser in result.symbol_error_rate:
            assert abs(ser - pe) <= 3.0 * stderr

    def test_ser_decreases_with_snr(self):
        sers = []
        for snr_db in (0.0, 10.0, 20.0):
            ch = ChannelInstance(np.eye(2), 10.0 ** (snr_db / 10.0))
            cfg = SimConfig(ch=ch, A=np.eye(2, dtype=int), pam_points=4, trials=100000, seed=77)
            result = run_mmse_sic_trials(cfg)
            sers.append(float(np.mean(result.symbol_error_rate)))
        # strictly decreasing well beyond Monte Carlo noise (3 sigma ~ 0.005)
        assert sers[0] > sers[1] + 0.005
        assert sers[1] > sers[2] + 0.005


class TestEffectiveNoiseStatistics:
    def test_empirical_matches_analytic_ktilde(self):
        rng = np.random.default_rng(51)
        ch = ChannelInstance(rng.standard_normal((3, 3)), 10.0)
        a = optimal_a(ch, "kz_exact")
        cfg = SimConfig(ch=ch, A=a, pam_points=4, trials=100000, seed=11)
        result = run_successive_if_trials(cfg)
        analytic = if_effective_model(ch, a).Ktilde
        tol = 5.0 / math.sqrt(cfg.trials)
        rel = np.abs(result.empirical_Ktilde - analytic).max() / np.abs(analytic).max()
        assert rel <= tol

    def test_equation_error_ordering_with_kz_a(self):
        # monotone Cholesky diagonal: the first equation is the most protected
        rng = np.random.default_rng(3)
        ch = ChannelInstance(rng.standard_normal((3, 3)), 10.0)
        a = optimal_a(ch, "kz_exact")
        model = if_effective_model(ch, a)
        diag_sq = np.diag(model.L) ** 2
        assert diag_sq[0] <= diag_sq[-1]
        cfg = SimConfig(ch=ch, A=a, pam_points=4, trials=100000, seed=13)
        result = run_successive_if_trials(cfg)
        p1, pm = result.equation_error_rate[0], result.equation_error_rate[-1]
        stderr = math.sqrt(max(pm, 1e-12) * (1 - pm) / cfg.trials)
        assert p1 <= pm + 3.0 * stderr


# ---------------------------------------------------------------------------
# oracle: the whole-run, trial-major simulator before chunking (one
# trials x M array per quantity), kept as the reference that the chunked,
# stream-major kernel is compared against; it returns its decisions beside
# a counts-only TrialResult
# ---------------------------------------------------------------------------

def _mono_draw(cfg, noise_scale):
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    u = rng.integers(0, cfg.pam_points, size=(cfg.trials, cfg.ch.num_streams))
    noise = rng.standard_normal((cfg.trials, cfg.ch.num_receive))
    odd = (2 * u - (cfg.pam_points - 1)).astype(np.int64)
    y = cfg.symbol_scale * odd.astype(float) @ cfg.ch.H.T + noise_scale * noise
    parity = np.array([int(row.sum()) % 2 for row in cfg.A], dtype=np.int64)
    return odd, y, parity


def _mono_slice(values, scale, parity):
    return np.rint((values / scale - parity) / 2.0).astype(np.int64)


def _mono_finalize(cfg, odd, eq_idx, y_eff, parity):
    v_true = odd @ cfg.A.T
    eq_true = (v_true - parity[None, :]) // 2
    v_int = 2 * eq_idx + parity[None, :]
    x_hat = v_int.astype(float) @ np.linalg.inv(cfg.A.astype(float)).T
    lim = cfg.pam_points - 1
    stream_hat = np.clip(2 * np.rint((x_hat - 1.0) / 2.0).astype(np.int64) + 1, -lim, lim)
    z_eff = y_eff - cfg.symbol_scale * v_true.astype(float)
    result = simulate.TrialResult(
        symbol_error_rate=tuple(np.mean(stream_hat != odd, axis=0).tolist()),
        equation_error_rate=tuple(np.mean(eq_idx != eq_true, axis=0).tolist()),
        empirical_Ktilde=z_eff.T @ z_eff / cfg.trials,
        trials=cfg.trials,
    )
    return result, (eq_idx, stream_hat)


def _equalizer(cfg):
    """The MMSE equalizer toward cfg.A, A H^T (I/snr + H H^T)^{-1}."""
    return cfg.A.astype(float) @ cfg.ch.mmse_equalizer


def _mono_successive_if(cfg, noise_scale):
    model = if_effective_model(cfg.ch, cfg.A)
    odd, y, parity = _mono_draw(cfg, noise_scale)
    y_eff = y @ _equalizer(cfg).T
    c, sq, m = cfg.symbol_scale, math.sqrt(cfg.ch.snr), cfg.ch.num_streams
    w = np.zeros((cfg.trials, m))
    eq_idx = np.zeros((cfg.trials, m), dtype=np.int64)
    for step in range(m):
        predicted = sq * (w[:, :step] @ model.L[step, :step]) if step else 0.0
        target = y_eff[:, step] - predicted
        k_hat = _mono_slice(target, c, parity[step])
        v_hat = c * (2 * k_hat + parity[step]).astype(float)
        w[:, step] = (target - v_hat) / (sq * model.L[step, step])
        eq_idx[:, step] = k_hat
    return _mono_finalize(cfg, odd, eq_idx, y_eff, parity)


def _mono_lr_aided_sic(cfg, noise_scale):
    filters = gdfe_filters(cfg.ch, cfg.A)
    odd, y, parity = _mono_draw(cfg, noise_scale)
    y_fwd = y @ filters.B.T
    c, m = cfg.symbol_scale, cfg.ch.num_streams
    v_hat = np.zeros((cfg.trials, m))
    eq_idx = np.zeros((cfg.trials, m), dtype=np.int64)
    for step in range(m):
        fed_back = v_hat[:, :step] @ filters.Cfeedback[step, :step] if step else 0.0
        target = y_fwd[:, step] - fed_back
        k_hat = _mono_slice(target, c, parity[step])
        v_hat[:, step] = c * (2 * k_hat + parity[step]).astype(float)
        eq_idx[:, step] = k_hat
    return _mono_finalize(cfg, odd, eq_idx, y @ _equalizer(cfg).T, parity)


_DECODERS = [
    pytest.param(run_successive_if_trials, _mono_successive_if, id="successive_if"),
    pytest.param(run_lr_aided_sic_trials, _mono_lr_aided_sic, id="lr_aided_sic"),
]


def _decoder_name(run):
    return run.__name__.removeprefix("run_").removesuffix("_trials")


def _oracle_cfg(m, pam, seed):
    """KZ-exact config on an N x M Gaussian channel with N != M, 5-25 dB."""
    rng = np.random.default_rng([m, pam, seed])
    n = m + 1 if m % 2 else m - 1
    ch = ChannelInstance(rng.standard_normal((n, m)), 10.0 ** rng.uniform(0.5, 2.5))
    return SimConfig(ch=ch, A=optimal_a(ch, "kz_exact"), pam_points=pam, trials=1, seed=seed)


def _assert_matches_reference(run, cfg, noise_scale, reference):
    """run's counts and trial_decisions' decisions agree with the whole-run oracle."""
    want, want_decisions = reference(cfg, noise_scale)
    assert_same_decisions(trial_decisions(cfg, noise_scale, _decoder_name(run)), want_decisions)
    assert_same_counts(run(cfg, noise_scale), want, ktilde_rtol=1e-12)


# around the second and sixth chunk boundaries (16383 to 49159 trials)
_BOUNDARY_CASES = [(1, 3, 4), (2 * CHUNK_TRIALS - 1, 2, 16), (2 * CHUNK_TRIALS, 4, 6),
                   (2 * CHUNK_TRIALS + 1, 1, 2), (6 * CHUNK_TRIALS + 7, 8, 4)]
# 1 adds the noise as drawn, the others scale it first
_NOISE_SCALES = [0.0, 0.5, 1.0, 2.0]


class TestChunkedMatchesMonolithic:
    """Chunked runs make exactly the decisions of one whole-run pass."""

    @pytest.mark.parametrize("run, reference", _DECODERS)
    @pytest.mark.parametrize("trials, m, pam", _BOUNDARY_CASES)
    def test_at_chunk_boundaries(self, run, reference, trials, m, pam):
        cfg = dataclasses.replace(_oracle_cfg(m, pam, seed=trials), trials=trials)
        for noise_scale in _NOISE_SCALES:
            _assert_matches_reference(run, cfg, noise_scale, reference)

    def test_boundary_cases_cover_one_stream_and_both_parities(self):
        """The slicer skips the parity steps of an even row, so both kinds are run."""
        cfgs = [_oracle_cfg(m, pam, seed=trials) for trials, m, pam in _BOUNDARY_CASES]
        assert 1 in [cfg.ch.num_streams for cfg in cfgs]
        assert {0, 1} <= set(np.concatenate([simulate._parities(cfg) for cfg in cfgs]).tolist())

    @pytest.mark.parametrize("run, reference", _DECODERS)
    @pytest.mark.parametrize("noise_scale", _NOISE_SCALES)
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("pam", [2, 4, 6, 16, 2**16, 2**31])
    def test_many_small_chunks(self, monkeypatch, run, reference, noise_scale, m, pam):
        chunk = 5
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", chunk)
        cfg = _oracle_cfg(m, pam, seed=m * pam)
        for trials in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 7):
            cfg = dataclasses.replace(cfg, trials=trials)
            _assert_matches_reference(run, cfg, noise_scale, reference)

    @pytest.mark.parametrize("run, reference", _DECODERS)
    @pytest.mark.parametrize("pam", [4, 6])
    def test_noiseless_run_draws_no_noise(self, monkeypatch, run, reference, pam):
        """noise_scale 0 never places the noise generator, and decides as the
        reference that draws the noise and adds it times 0."""

        def placed(cfg):
            raise AssertionError("the noise generator was placed")

        monkeypatch.setattr(simulate, "_noise_generator", placed)
        cfg = dataclasses.replace(_oracle_cfg(3, pam, seed=pam), trials=CHUNK_TRIALS + 3)
        _assert_matches_reference(run, cfg, 0.0, reference)
        with pytest.raises(AssertionError, match="noise generator was placed"):
            run(cfg, 1.0)


class TestReceivedSignal:
    """Each chunk's H x has the bits of the product with the transposed view
    Hᵀ, the operand of the whole-run simulator, also for a one-trial chunk."""

    @pytest.mark.parametrize("m, n", [(2, 2), (3, 5), (5, 3), (8, 8)])
    def test_chunk_products_match_transposed_view(self, monkeypatch, m, n):
        chunk, trials = 5, 11  # the last chunk is one trial
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", chunk)
        ch = ChannelInstance(np.random.default_rng([m, n]).standard_normal((n, m)), 100.0)
        cfg = SimConfig(ch=ch, A=np.eye(m), pam_points=16, trials=trials, seed=m * n)
        x = cfg.symbol_scale * _mono_draw(cfg, 0.0)[0].astype(float)
        decode = simulate._successive_if(cfg)
        seen = []

        def spy(y, y_eff, v_int):
            seen.append(y.copy())
            decode(y, y_eff, v_int)

        simulate._run_chunks(cfg, 0.0, spy)
        assert [len(y) for y in seen] == [5, 5, 1]
        for lo, y in zip(range(0, trials, chunk), seen):
            assert np.array_equal(y, x[lo:lo + len(y)] @ ch.H.T)


@pytest.mark.parametrize("parity", [np.int64(0), np.int64(1), 1.0])
def test_slice_grid_is_the_rounding_formula(parity):
    """_slice_grid gives 2 rint((x - p) / 2) + p value for value (a zero may
    differ in sign only), on random values, exact half-integers and +-0."""
    rng = np.random.default_rng(5)
    halves = np.arange(-40, 41) / 2.0
    x = np.concatenate([rng.normal(0.0, 30.0, 5000), rng.uniform(-3.0, 3.0, 5000),
                        halves, halves + parity, [0.0, -0.0, 1e-300, -1e-300]])
    want = 2.0 * np.rint((x - parity) / 2.0) + parity
    got = simulate._slice_grid(x.copy(), parity)
    assert np.array_equal(got, want)


class TestChunkSizeInvariance:
    """CHUNK_TRIALS changes how a run is split, never what it decides."""

    @pytest.mark.parametrize("run", [run_successive_if_trials, run_lr_aided_sic_trials])
    @pytest.mark.parametrize(
        "trials", [1, 6, 7, 8, 13, 14, 15, CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1]
    )
    def test_chunk_sizes_agree(self, monkeypatch, run, trials):
        cfg = dataclasses.replace(_oracle_cfg(3, 4, seed=trials), trials=trials)
        want = run(cfg, 1.0)
        want_decisions = trial_decisions(cfg, 1.0, _decoder_name(run))
        # every trial count is a boundary for chunks of 1; near the default
        # boundary they would cost about a second per case
        for chunk in (1, 7) if trials < 100 else (7,):
            monkeypatch.setattr(simulate, "CHUNK_TRIALS", chunk)
            assert_same_decisions(trial_decisions(cfg, 1.0, _decoder_name(run)), want_decisions)
            assert_same_counts(run(cfg, 1.0), want, ktilde_rtol=1e-12)


class TestNoiseGenerator:
    """_noise_generator starts where the noise of one whole-run draw starts."""

    # trials x M values take W = ceil(trials M / 2) words: M = 1 with 1 to 8
    # trials gives both parities of trials M and every W mod 4; the rest cross
    # the chunk boundaries. 2^32 mod 1431655766 is close to 1431655766, so
    # about a third of its draws are rejected and W depends on the data.
    @pytest.mark.parametrize("pam", [2, 4, 6, 16, 1431655766])
    @pytest.mark.parametrize(
        "trials, m",
        [(t, 1) for t in range(1, 9)]
        + [(CHUNK_TRIALS - 1, 3), (CHUNK_TRIALS, 3), (CHUNK_TRIALS + 1, 2), (3 * CHUNK_TRIALS + 1, 1)],
    )
    def test_placed_after_one_piece_symbol_draw(self, pam, trials, m):
        cfg = SimConfig(ch=ChannelInstance(np.eye(m), 10.0), A=np.eye(m), pam_points=pam,
                        trials=trials, seed=trials * m + pam)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        rng.integers(0, pam, size=(trials, m), dtype=np.int32)
        got = simulate._noise_generator(cfg).standard_normal(50)
        assert np.array_equal(got, rng.standard_normal(50))


class TestIndexDraw:
    """_index_draw's chunks are numpy's one-piece bounded draw of the indices."""

    # q = 2 to 2^31 shifts each 32-bit half-word right by 31 down to 1; odd
    # trials x M leave a half-word to the next chunk, which chunks of 1, 5
    # and 7 trials cross at every parity. 6 takes Generator.integers.
    @pytest.mark.parametrize("pam", [2, 4, 6, 16, 2**16, 2**31])
    @pytest.mark.parametrize("chunk", [1, 5, 7])
    @pytest.mark.parametrize("trials, m", [(1, 1), (4, 1), (9, 3), (23, 1), (36, 5)])
    def test_chunks_match_one_piece_draw(self, monkeypatch, pam, chunk, trials, m):
        monkeypatch.setattr(simulate, "CHUNK_TRIALS", chunk)
        cfg = SimConfig(ch=ChannelInstance(np.eye(m), 10.0), A=np.eye(m), pam_points=pam,
                        trials=trials, seed=trials * m + pam)
        draw = simulate._index_draw(cfg)  # each call overwrites the last one's indices
        got = np.concatenate(
            [draw(min(chunk, trials - lo)).copy() for lo in range(0, trials, chunk)])
        rng = np.random.Generator(np.random.Philox(key=cfg.seed))
        assert np.array_equal(got, rng.integers(0, pam, size=(trials, m), dtype=np.int32))


def test_memory_stays_bounded_as_trials_grow():
    """A run holds one chunk's working arrays whatever the trial count: no
    whole-run symbol draw and no per-trial decisions."""
    rng = np.random.default_rng(60)
    ch = ChannelInstance(rng.standard_normal((4, 4)), 100.0)
    a = optimal_a(ch, "kz_exact")
    chunk_array = 8 * 4 * simulate.CHUNK_TRIALS  # one 4 x chunk float64 array
    # PAM 4 places the noise generator by counter arithmetic, PAM 6 by a skip pass
    for pam, run in itertools.product((4, 6), (run_successive_if_trials, run_lr_aided_sic_trials)):
        peaks = []
        for trials in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                run(SimConfig(ch=ch, A=a, pam_points=pam, trials=trials, seed=3))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # about ten chunk arrays are live at once; allow sixteen
        assert max(peaks) <= 16 * chunk_array, (pam, run.__name__, peaks)
        assert abs(peaks[1] - peaks[0]) <= chunk_array, (pam, run.__name__, peaks)
