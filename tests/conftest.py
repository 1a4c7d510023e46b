import numpy as np
import pytest

from ifwb.rates import ChannelInstance

# Two-user scalar MAC used throughout: y = sqrt(2) x1 + x2 + z at 15 dB.
EXAMPLE1_H = np.array([[np.sqrt(2.0), 1.0]])
EXAMPLE1_SNR_DB = 15.0
EXAMPLE1_A = np.array([[1, 1], [3, 2]])


@pytest.fixture
def example1() -> ChannelInstance:
    return ChannelInstance(EXAMPLE1_H, 10.0 ** (EXAMPLE1_SNR_DB / 10.0))


def random_channel(rng, max_dim: int = 4, snr_choices=(1.0, 10.0, 100.0)) -> ChannelInstance:
    m = int(rng.integers(1, max_dim + 1))
    n = int(rng.integers(1, max_dim + 1))
    h = rng.standard_normal((n, m))
    snr = float(rng.choice(snr_choices))
    return ChannelInstance(h, snr)


def conditioned_channel(rng, m, n, snr_db, cond=None) -> ChannelInstance:
    """N x M channel at snr_db; H Gaussian, or with singular values log-spaced from 1 to 1/cond."""
    if cond is None:
        h = rng.standard_normal((n, m))
    else:
        k = min(n, m)
        left, _ = np.linalg.qr(rng.standard_normal((n, n)))
        right, _ = np.linalg.qr(rng.standard_normal((m, m)))
        h = left[:, :k] @ np.diag(np.logspace(0, -np.log10(cond), k)) @ right[:, :k].T
    return ChannelInstance(h, 10.0 ** (snr_db / 10.0))


def random_full_rank_int(rng, m: int, bound: int = 2) -> np.ndarray:
    from ifwb.lattice import int_det

    while True:
        a = rng.integers(-bound, bound + 1, size=(m, m))
        if int_det(a) != 0:
            return a.astype(np.int64)
