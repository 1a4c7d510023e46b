"""Property-based checks of the lattice layer on channel-derived bases.

Bases are G^T with G = chol((I + snr H^T H)^{-1}), the lattice whose KZ basis
gives the S-IF integer matrix, over SNR 0-120 dB and N != M (exact KZ is
checked against its verifier up to 60 dB only, see below).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ifwb.lattice import brute_force_min_max, is_kz_reduced, kz_reduce, lll_reduce
from ifwb.linalg import cholesky_lower
from ifwb.rates import ChannelInstance, sic_cholesky

from test_lattice import assert_size_reduced_and_lovasz

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def channel_g(draw, dims, square=False, max_snr_db=120.0):
    """G for a channel with M in dims, N = M or in 1..6, entries in [-3, 3], 0-max_snr_db dB."""
    m = draw(st.sampled_from(dims))
    n = m if square else draw(st.integers(1, 6))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    h = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    snr_db = draw(st.floats(0.0, max_snr_db))
    return sic_cholesky(ChannelInstance(h, 10.0 ** (snr_db / 10.0)))


@PROPERTY_SETTINGS
@given(g=channel_g(dims=range(2, 9)), delta=st.sampled_from([0.75, 0.99]))
def test_lll_output_is_size_reduced_and_lovasz(g, delta):
    rep = lll_reduce(g.T, delta=delta)
    assert_size_reduced_and_lovasz(rep.reduced_basis, delta)


@PROPERTY_SETTINGS
@given(g=channel_g(dims=range(2, 7), max_snr_db=60.0))
def test_kz_output_passes_verifier(g):
    # from 80 dB on, exact KZ at M = 6 can fail the verifier; pinned by
    # test_lattice.py::test_kz_at_100_db_six_streams
    assert is_kz_reduced(kz_reduce(g.T).reduced_basis)


@PROPERTY_SETTINGS
@given(g=channel_g(dims=[2, 3], square=True))
def test_kz_never_worse_than_bounded_oracle(g):
    """KZ optimizes over all integer matrices, the oracle over [-3, 3] only.

    At high SNR the optimum can have entries beyond the box, so only
    obj_kz <= obj_bf holds in general, not equality.
    """
    a = kz_reduce(g.T).transform.T.astype(float)
    core = a @ (g @ g.T) @ a.T  # symmetrized as in rates.if_effective_model
    obj_kz = float(np.max(np.diag(cholesky_lower(0.5 * (core + core.T))) ** 2))
    _, obj_bf = brute_force_min_max(g, 3, "successive_if")
    assert obj_kz <= obj_bf * (1.0 + 1e-9)
