"""Link-level Monte Carlo validation with uncoded PAM streams.

Each trial sends one PAM symbol per stream (scaled so the per-stream average
power equals snr) through Y = H X + Z with unit-variance Gaussian noise. The
receiver equalizes toward the integer matrix A and decodes the integer
combinations one at a time with noise prediction; at this uncoded scale the
scheme coincides with lattice-reduction-aided SIC, and a decision-feedback
decoder over the reduced channel is provided to check that equivalence
trial by trial.

Randomness is counter-based: a Philox generator keyed by the seed produces
the symbol and noise arrays in a fixed layout, so trial t's randomness is a
pure function of (seed, t) and results do not depend on execution order.
Trials are decoded CHUNK_TRIALS at a time, one contiguous row per stream, so
memory beyond the returned decisions is about 4 M bytes per trial (the drawn
symbol indices) plus one chunk's working arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rates import ChannelInstance, as_integer_matrix, gdfe_filters, if_effective_model


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical results."""

    ch: ChannelInstance
    A: np.ndarray
    pam_points: int
    trials: int
    seed: int

    def __post_init__(self):
        a = as_integer_matrix(self.A)
        if a.shape[0] != self.ch.num_streams:
            raise ValueError(
                f"A must be {self.ch.num_streams}x{self.ch.num_streams} for this channel"
            )
        object.__setattr__(self, "A", a)
        self.A.setflags(write=False)
        q = int(self.pam_points)
        if q < 2 or q % 2 != 0:
            raise ValueError(f"pam_points must be an even integer >= 2, got {self.pam_points}")
        object.__setattr__(self, "pam_points", q)
        t = int(self.trials)
        if t < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", t)
        object.__setattr__(self, "seed", int(self.seed) & (2**64 - 1))

    @property
    def symbol_scale(self) -> float:
        """PAM half-spacing c: symbols are c * {+-1, +-3, ...} with mean power snr."""
        q = self.pam_points
        return math.sqrt(3.0 * self.ch.snr / (q * q - 1.0))


@dataclass(frozen=True)
class TrialResult:
    """Aggregated error rates plus raw per-trial decisions for cross-checks."""

    symbol_error_rate: tuple  # per stream
    equation_error_rate: tuple  # per decoding step
    empirical_Ktilde: np.ndarray
    equation_decisions: np.ndarray  # trials x M integer grid indices (a view)
    stream_decisions: np.ndarray  # trials x M decoded odd integers (a view)
    trials: int


# Trials decoded per pass, the length of every row a decoding step works on.
# Timed over the link_sim case mix, 2^13 was the fastest of 2^10 to 2^16:
# 2^12 and 2^14 took 5-8 % longer, 2^16 10 % and 2^10 31 %.
CHUNK_TRIALS = 1 << 13


def _slice_grid(values: np.ndarray, scale: float, parity: int) -> np.ndarray:
    """Round to the nearest point of scale * (2Z + parity); return 2k + parity as exact floats."""
    return 2.0 * np.rint((values / scale - parity) / 2.0) + parity


def _parities(cfg: SimConfig) -> np.ndarray:
    return np.array([int(row.sum()) % 2 for row in cfg.A], dtype=np.int64)


def _run_chunks(cfg: SimConfig, noise_scale: float, model, decode) -> TrialResult:
    """Draw, receive, decode and count the trials CHUNK_TRIALS at a time.

    The symbol indices are drawn in one piece, then the noise chunk by chunk
    from the same Philox stream, which reproduces one whole-run draw exactly.
    Per-stream arrays are M x chunk, so each step of ``decode(y, y_eff,
    v_int)`` works on contiguous rows; it fills ``v_int`` with the decided
    combinations 2k + parity, which are then inverted and sliced per stream.
    """
    noise_scale = float(noise_scale)
    if not (math.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    trials, m, q = cfg.trials, cfg.ch.num_streams, cfg.pam_points
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    u = rng.integers(0, q, size=(trials, m), dtype=np.int32)
    c = cfg.symbol_scale
    parity = _parities(cfg).astype(float)[:, None]
    a_inv = np.linalg.inv(cfg.A)
    eq_idx = np.empty((m, trials), dtype=np.int64)
    stream_hat = np.empty((m, trials), dtype=np.int64)
    sym_errors, eq_errors = np.zeros((2, m), dtype=np.int64)
    zz = np.zeros((m, m))
    for lo in range(0, trials, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, trials)
        odd = 2.0 * u[lo:hi] - (q - 1)  # exact odd integers, trials x M
        noise = rng.standard_normal((hi - lo, cfg.ch.num_receive))
        y = (c * odd) @ cfg.ch.H.T + noise_scale * noise
        y_eff = model.B @ y.T
        v_int = np.empty_like(y_eff)
        decode(y, y_eff, v_int)
        eq_idx[:, lo:hi] = (v_int - parity) / 2.0
        v_true = cfg.A @ odd.T  # exact small integers
        eq_errors += np.count_nonzero(v_int != v_true, axis=1)
        odd_hat = 2.0 * np.rint((a_inv @ v_int - 1.0) / 2.0) + 1.0
        np.clip(odd_hat, 1 - q, q - 1, out=odd_hat)
        stream_hat[:, lo:hi] = odd_hat
        sym_errors += np.count_nonzero(odd_hat != odd.T, axis=1)
        z = y_eff - c * v_true
        zz += z @ z.T
    return TrialResult(
        symbol_error_rate=tuple((sym_errors / trials).tolist()),
        equation_error_rate=tuple((eq_errors / trials).tolist()),
        empirical_Ktilde=zz / trials,
        equation_decisions=eq_idx.T,
        stream_decisions=stream_hat.T,
        trials=trials,
    )


def run_successive_if_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Successive integer-forcing with noise prediction.

    Step m subtracts sqrt(snr) * L[m, :m] @ w from the m-th equalized row,
    slices the result to the m-th combination's integer grid, then recovers
    the whitened noise coordinate w_m from its own decision. Streams are
    solved from the decided combinations at the end. ``noise_scale=0`` is the
    noiseless diagnostic.
    """
    model = if_effective_model(cfg.ch, cfg.A)
    parity = _parities(cfg)
    c = cfg.symbol_scale
    sq = math.sqrt(cfg.ch.snr)

    def decode(y, y_eff, v_int):
        w = np.empty_like(y_eff)
        for step, row in enumerate(y_eff):
            target = row - sq * (model.L[step, :step] @ w[:step]) if step else row
            v_int[step] = _slice_grid(target, c, parity[step])
            w[step] = (target - c * v_int[step]) / (sq * model.L[step, step])

    return _run_chunks(cfg, noise_scale, model, decode)


def run_lr_aided_sic_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Decision-feedback SIC on the unimodularly reduced channel.

    Uses the monic feedback form: the forward filter is R B and decided
    combinations are fed back through R - I. For any full-rank A this makes
    the same per-trial decisions as run_successive_if_trials, realizing
    lattice-reduction-aided SIC when A comes from a reduction; the two differ
    only where a statistic lies exactly on a slicing boundary, which rounding
    then breaks either way.
    """
    filters = gdfe_filters(cfg.ch, cfg.A)
    model = if_effective_model(cfg.ch, cfg.A)
    parity = _parities(cfg)
    c = cfg.symbol_scale

    def decode(y, y_eff, v_int):
        y_fwd = filters.B @ y.T
        v_hat = np.empty_like(y_fwd)
        for step, row in enumerate(y_fwd):
            target = row - filters.Cfeedback[step, :step] @ v_hat[:step] if step else row
            v_int[step] = _slice_grid(target, c, parity[step])
            v_hat[step] = c * v_int[step]

    # y_eff (the prediction path's equalizer output) carries the effective-noise bookkeeping
    return _run_chunks(cfg, noise_scale, model, decode)


def run_mmse_sic_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Plain MMSE-SIC: the A = I special case of successive integer forcing."""
    m = cfg.ch.num_streams
    forced = SimConfig(
        ch=cfg.ch,
        A=np.eye(m, dtype=np.int64),
        pam_points=cfg.pam_points,
        trials=cfg.trials,
        seed=cfg.seed,
    )
    return run_successive_if_trials(forced, noise_scale=noise_scale)
