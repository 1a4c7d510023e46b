"""Property-based checks of the lattice layer on channel-derived bases.

Bases are G^T with G = chol((I + snr H^T H)^{-1}), the lattice whose KZ basis
gives the S-IF integer matrix, over SNR 0-120 dB and N != M.

The exact-KZ properties draw H from a seed (Gaussian, or with a condition
number up to 1e9), not from hypothesis floats: those repeat values and
rarely reach the ill-conditioned high-SNR bases where reduction goes wrong.
"""

import numpy as np
from hypothesis import given, note, settings
from hypothesis import strategies as st

from ifwb.lattice import brute_force_min_max, is_kz_reduced, kz_reduce, lll_reduce
from ifwb.linalg import cholesky_lower
from ifwb.rates import ChannelInstance

from test_lattice import REDUCTIONS, _channel_g, _reference_transform, assert_size_reduced_and_lovasz

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def channel_g(draw, dims, square=False, max_snr_db=120.0):
    """G for a channel with M in dims, N = M or in 1..6, entries in [-3, 3], 0-max_snr_db dB."""
    m = draw(st.sampled_from(dims))
    n = m if square else draw(st.integers(1, 6))
    entries = st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False)
    h = np.array(draw(st.lists(entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    snr_db = draw(st.floats(0.0, max_snr_db))
    return ChannelInstance(h, 10.0 ** (snr_db / 10.0)).sic_cholesky


@st.composite
def seeded_channel_g(draw, dims):
    """G for a channel with M in dims, N in 1..10 and 0-120 dB; H from a drawn seed."""
    m = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 10))
    snr_db = draw(st.floats(0.0, 120.0))
    cond = draw(st.one_of(st.none(), st.floats(0.0, 9.0).map(lambda e: 10.0**e)))
    seed = draw(st.integers(0, 2**32 - 1))
    note(f"G = _channel_g(default_rng({seed}), {m}, {n}, {snr_db!r}, {cond!r})")
    return _channel_g(np.random.default_rng(seed), m, n, snr_db, cond)


@PROPERTY_SETTINGS
@given(g=channel_g(dims=range(2, 9)), delta=st.sampled_from([0.75, 0.99]))
def test_lll_output_is_size_reduced_and_lovasz(g, delta):
    rep = lll_reduce(g.T, delta=delta)
    assert_size_reduced_and_lovasz(rep.reduced_basis, delta)


@PROPERTY_SETTINGS
@given(g=seeded_channel_g(dims=range(2, 11)))
def test_kz_output_passes_verifier(g):
    assert is_kz_reduced(kz_reduce(g.T).reduced_basis)


@PROPERTY_SETTINGS
@given(g=seeded_channel_g(dims=range(2, 11)))
def test_list_kernel_matches_numpy_kernel(g):
    for name, reduce in REDUCTIONS.items():
        want = _reference_transform(g.T, name)
        np.testing.assert_array_equal(reduce(g.T).transform, want, err_msg=name)


@PROPERTY_SETTINGS
@given(g=channel_g(dims=[2, 3], square=True))
def test_kz_never_worse_than_bounded_oracle(g):
    """KZ optimizes over all integer matrices, the oracle over [-3, 3] only.

    KZ = brute force is meaningful only when the optimum lies inside the
    oracle's box. At high SNR it often does not: of 90 2x2 channels with
    entries uniform in [-3, 3] at 60-120 dB, 11 had KZ matrices with entries
    beyond 3, up to 31. So only obj_kz <= obj_bf holds in general.
    """
    a = kz_reduce(g.T).transform.T.astype(float)
    core = a @ (g @ g.T) @ a.T  # symmetrized as in rates.if_effective_model
    obj_kz = float(np.max(np.diag(cholesky_lower(0.5 * (core + core.T))) ** 2))
    _, obj_bf = brute_force_min_max(g, 3, "successive_if")
    assert obj_kz <= obj_bf * (1.0 + 1e-9)
