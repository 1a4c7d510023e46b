"""Property-based check of the link simulator: both decoders decide alike.

Channels have M in 1..6 and N in 1..6 (N != M allowed), Gaussian entries and
SNR 0-40 dB; A is the exact-KZ integer matrix. The chunk size is patched
small, so the trials cross several chunk boundaries.

The entries come from a drawn seed, not from hypothesis floats: those repeat
values, and a channel with two equal columns puts decision statistics exactly
on slicing boundaries, where the two decoders' rounding errors break the tie
differently (pinned by test_simulate.py::test_decoders_agree_on_equal_columns).
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ifwb import simulate
from ifwb.rates import ChannelInstance, optimal_a
from ifwb.simulate import SimConfig, run_lr_aided_sic_trials, run_successive_if_trials

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SMALL_CHUNK = 7


@st.composite
def sim_configs(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    h = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, m))
    ch = ChannelInstance(h, 10.0 ** (draw(st.floats(0.0, 40.0)) / 10.0))
    return SimConfig(
        ch=ch,
        A=optimal_a(ch, "kz_exact"),
        pam_points=draw(st.sampled_from([2, 4, 16])),
        trials=draw(st.integers(1, 4 * SMALL_CHUNK + 3)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


@PROPERTY_SETTINGS
@given(cfg=sim_configs())
def test_noise_prediction_and_lr_aided_sic_decide_alike(cfg):
    with mock.patch.object(simulate, "CHUNK_TRIALS", SMALL_CHUNK):
        sif = run_successive_if_trials(cfg)
        lr = run_lr_aided_sic_trials(cfg)
    assert np.array_equal(sif.equation_decisions, lr.equation_decisions)
    assert np.array_equal(sif.stream_decisions, lr.stream_decisions)
