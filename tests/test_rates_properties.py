"""Property-based checks of the rate engine in the regimes most sensitive to rounding.

Channels are drawn from a seed (H Gaussian, or with a condition number up to
1e9) with N != M and SNR 0-120 dB, or 0-300 dB with N = M allowed. There the
snr L L^T check of rates._effective_noise and the pentagon test of the region
scan fail unless the channel-derived matrices come from the square-root (QR)
kernel, and the checks must not false-alarm.
"""

import math

import numpy as np
from hypothesis import given, note, settings
from hypothesis import strategies as st

from conftest import conditioned_channel, random_full_rank_int
from ifwb.errors import IfwbError
from ifwb.rates import (
    ChannelInstance,
    _effective_noise,
    if_effective_model,
    if_rates,
    optimal_a,
    successive_if_rates,
    white_input_capacity,
)
from ifwb.region import _class_representatives, enumerate_achievable_points, pentagon_contains
from test_rates import assert_matches_reference

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def seeded_channel(draw, dims, max_db=120.0, square=False, max_cond=1e9):
    """Channel with M in dims, N in 1..M+2 (other than M unless square),
    0-max_db dB, H Gaussian or with a condition number up to max_cond; H
    from a drawn seed."""
    m = draw(st.sampled_from(dims))
    n = draw(st.integers(1, m + 2).filter(lambda n: square or n != m))
    snr_db = draw(st.floats(0.0, max_db))
    cond = draw(st.one_of(st.none(), st.floats(0.0, math.log10(max_cond)).map(lambda e: 10.0**e)))
    seed = draw(st.integers(0, 2**32 - 1))
    note(f"ch = conditioned_channel(default_rng({seed}), {m}, {n}, {snr_db!r}, {cond!r})")
    return conditioned_channel(np.random.default_rng(seed), m, n, snr_db, cond)


@PROPERTY_SETTINGS
@given(ch=seeded_channel(dims=[2]))
def test_region_points_lie_in_the_pentagon(ch):
    reg = enumerate_achievable_points(ch, 2)
    assert all(pentagon_contains(ch, p.rates) for p in reg.points)


@PROPERTY_SETTINGS
@given(ch=seeded_channel(dims=range(2, 7)))
def test_kz_rates_telescope_to_white_input_capacity(ch):
    sif = successive_if_rates(ch, optimal_a(ch, "kz_exact"))
    assert sif.det_gap == 0.0
    assert abs(sif.sum_rate - white_input_capacity(ch)) <= 1e-9


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(ch=seeded_channel(dims=range(2, 11), max_db=0.0, square=True, max_cond=1e6),
       snr_db=st.lists(st.floats(-10.0, 120.0), min_size=2, max_size=6),
       order=st.sampled_from(["as drawn", "sorted", "repeated"]))
def test_sweep_started_from_the_previous_snr_matches_a_cold_start(ch, snr_db, order):
    """A sweep's KZ, started at each SNR from the previous SNR's transform,
    gives the A of a reduction without the start up to row signs, and the
    same IF and S-IF rates bit for bit (M 2-10, N 1..M+2, condition numbers
    up to 1e6, -10 to 120 dB in any order, SNRs repeated). The drawn
    channel's SNR is not used."""
    if order == "sorted":
        snr_db = sorted(snr_db)
    elif order == "repeated":
        snr_db = [v for v in snr_db for _ in range(2)]
    warm = None
    for db in snr_db:
        at = [ChannelInstance(ch.H, 10.0 ** (db / 10.0)) for _ in range(2)]
        cold = optimal_a(at[0], "kz_exact")
        warm = optimal_a(at[1], "kz_exact", start=None if warm is None else warm.T)
        assert (np.all(warm == cold, axis=1) | np.all(warm == -cold, axis=1)).all()
        assert if_rates(at[1], warm).raw == if_rates(at[0], cold).raw
        assert successive_if_rates(at[1], warm).per_step == successive_if_rates(at[0], cold).per_step


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(ch=seeded_channel(dims=range(1, 7), max_db=300.0, square=True),
       seed=st.integers(0, 2**32 - 1))
def test_no_false_alarm_up_to_300_db(ch, seed):
    """The channel's factor check, the snr L L^T check and the sum-rate
    identity check pass, and every model builds: A = I, the reversal (decode
    order M..1) and a random full-rank A with entries in [-3, 3], at M 1-6,
    N 1..M+2, 0-300 dB and condition numbers 1-1e9. The per-step rates sum
    to C_WI - log2|det A| within 1e-9 bits."""
    m = ch.num_streams
    rng = np.random.default_rng(seed)
    cwi = white_input_capacity(ch)
    for a in (np.eye(m, dtype=np.int64), np.eye(m, dtype=np.int64)[::-1],
              random_full_rank_int(rng, m, bound=3)):
        model = if_effective_model(ch, a)
        assert np.all(np.diag(model.L) > 0)
        sif = successive_if_rates(ch, a)
        assert abs(sif.sum_rate + sif.det_gap - cwi) <= 1e-9


@PROPERTY_SETTINGS
@given(n=st.integers(1, 3), snr_db=st.floats(0.0, 90.0), seed=st.integers(0, 2**32 - 1))
def test_stacked_effective_noise_matches_single_matrix_calls(n, snr_db, seed):
    """Each matrix of a stack gets the Ktilde and L bits of a call on it
    alone, on the region scan's bound-3 stack of two-stream channels; the
    stack and each single matrix match the reference kernel, its equalizer
    included (test_rates.assert_matches_reference)."""
    ch = ChannelInstance(np.random.default_rng(seed).standard_normal((n, 2)), 10.0 ** (snr_db / 10.0))
    a = _class_representatives(3)
    stack = a[a[:, 0, 0] * a[:, 1, 1] != a[:, 0, 1] * a[:, 1, 0]].astype(float)

    def outcome(af):
        try:
            return _effective_noise(ch, af)
        except IfwbError as exc:
            return str(exc)

    singles = [outcome(af) for af in stack]
    stacked = outcome(stack)
    for af in (stack, *stack):
        assert_matches_reference(ch, af)
    if isinstance(stacked, str):
        assert stacked in singles
        return
    for i, single in enumerate(singles):
        assert [x[i].tobytes() for x in stacked] == [x.tobytes() for x in single]
