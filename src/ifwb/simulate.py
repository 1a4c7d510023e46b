"""Link-level Monte Carlo validation with uncoded PAM streams.

Each trial sends one PAM symbol per stream (scaled so the per-stream average
power equals snr) through Y = H X + Z with unit-variance Gaussian noise. The
receiver equalizes toward the integer matrix A and decodes the integer
combinations one at a time with noise prediction; at this uncoded scale the
scheme coincides with lattice-reduction-aided SIC, and a decision-feedback
decoder over the reduced channel is provided to check that equivalence
trial by trial.

Randomness is counter-based: a Philox stream keyed by the seed holds all
trials' symbol indices, then all trials' noise, so trial t's randomness is a
pure function of (seed, t) and results do not depend on execution order.
Trials are drawn and decoded CHUNK_TRIALS at a time, one contiguous row per
stream, from two generators with the run's key, one reading the symbol part
of the stream and one placed at the start of the noise part. A run allocates
its chunk arrays once and every chunk writes into them, and it keeps only
error counts and the effective-noise sums, so it holds one chunk's arrays
whatever the trial count. trial_decisions runs the same chunk loop and also
returns every trial's decisions (16 M bytes per trial), for cross-checks.

The chunk loop skips the steps whose result is known without them (scaling
noise by 1, a zero parity in the slicer, the last step's feedback), so every
decision and every bit of the effective-noise sums stay as they were: each
statistic a decision slices comes from the same float operations in the same
order, which the runs on exact slicing boundaries rely on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .rates import ChannelInstance, gdfe_filters, if_effective_model


def _integer(name: str, value) -> int:
    """int(value) for an integer, an integral float such as 1e6 or a decimal
    string; a bool, a fraction or a non-finite float is a ValueError, not truncated."""
    try:
        n = int(value)
    except (OverflowError, ValueError):
        n = None
    truncated = n is None or (not isinstance(value, str) and n != value)
    if truncated or isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return n


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run description; identical configs give identical results."""

    ch: ChannelInstance
    A: np.ndarray
    pam_points: int
    trials: int
    seed: int

    def __post_init__(self):
        # the model's A: checked once for size and rank, int64 and read-only
        object.__setattr__(self, "A", if_effective_model(self.ch, self.A).A)
        q = _integer("pam_points", self.pam_points)
        if q < 2 or q % 2 != 0 or q > 2**31:
            raise ValueError(
                f"pam_points must be an even integer from 2 to 2**31, got {self.pam_points}"
            )
        object.__setattr__(self, "pam_points", q)
        t = _integer("trials", self.trials)
        if t < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "trials", t)
        object.__setattr__(self, "seed", _integer("seed", self.seed) & (2**64 - 1))

    @property
    def symbol_scale(self) -> float:
        """PAM half-spacing c: symbols are c * {+-1, +-3, ...} with mean power snr."""
        q = self.pam_points
        return math.sqrt(3.0 * self.ch.snr / (q * q - 1.0))


@dataclass(frozen=True)
class TrialResult:
    """Aggregated error rates and effective-noise covariance of one run; the
    per-trial decisions behind them come from trial_decisions."""

    symbol_error_rate: tuple  # per stream
    equation_error_rate: tuple  # per decoding step
    empirical_Ktilde: np.ndarray
    trials: int


# Trials decoded per pass, the length of every row a decoding step works on.
# Timed over the link_sim case mix, 2^13 was the fastest of 2^10 to 2^16:
# 2^12 and 2^14 took 5-8 % longer, 2^16 10 % and 2^10 31 %. With the chunk
# workspace, in 10 rotating rounds on a 2-core VM, 2^12 and 2^14 took 6 %
# longer in the median and were faster in 5 and 4 of the 10 rounds. It is
# not re-tuned with the chunk loop's later savings: the per-chunk sums of the
# effective-noise covariance, and so its last bits, depend on it.
CHUNK_TRIALS = 1 << 13


def _slice_grid(values: np.ndarray, parity) -> np.ndarray:
    """Round values in place to the nearest point of 2Z + parity, as exact floats.

    The value is 2 rint((x - parity) / 2) + parity; halving is a multiply by
    0.5, which gives the value of the divide by 2. A zero parity skips its
    subtract and add: they would only turn a -0 result into +0, and no
    decision depends on the sign of a zero.
    """
    if parity:
        np.subtract(values, parity, out=values)
    np.multiply(values, 0.5, out=values)
    np.rint(values, out=values)
    np.multiply(values, 2.0, out=values)
    return np.add(values, parity, out=values) if parity else values


def _parities(cfg: SimConfig) -> np.ndarray:
    return np.array([int(row.sum()) % 2 for row in cfg.A], dtype=np.int64)


def _rows(buf: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The C-contiguous rows x cols view at the start of the flat workspace buf,
    laid out as a fresh array of that shape would be."""
    return buf[: rows * cols].reshape(rows, cols)


def _noise_generator(cfg: SimConfig) -> np.random.Generator:
    """A Philox generator with the run's key, placed just after the draw of all
    trials x M symbol indices, where the noise of the whole-run layout starts.

    A power-of-two pam_points reaches that place in O(1). Other sizes reject
    a data-dependent number of words; the indices are then drawn chunk by
    chunk and dropped.
    """
    trials, m, q = cfg.trials, cfg.ch.num_streams, cfg.pam_points
    bits = np.random.Philox(key=cfg.seed)
    rng = np.random.Generator(bits)
    if q & (q - 1) == 0:
        # For q = 2^k numpy's bounded 32-bit draw (Lemire's method) never
        # rejects: each index is the top k bits, x >> (32 - k), of one 32-bit
        # half of a 64-bit word, low half first; _index_draw takes them from
        # the words this way. The indices use ceil(trials M / 2) words, and
        # Philox4x64 yields four words per counter step.
        words = (trials * m + 1) // 2
        bits.advance(words // 4)
        bits.random_raw(words % 4)
    else:
        for lo in range(0, trials, CHUNK_TRIALS):
            rng.integers(0, q, size=(min(CHUNK_TRIALS, trials - lo), m), dtype=np.int32)
    return rng


def _index_draw(cfg: SimConfig):
    """draw(t) returns the next t x M symbol indices of the whole-run draw
    Generator(Philox(key=seed)).integers(0, q, size=(trials, M), dtype=int32).

    A power-of-two q takes them straight from the Philox words, by the layout
    stated in _noise_generator, into a workspace that the next call
    overwrites; when t M is odd the unused high half of the last word opens
    the next call. Other sizes use Generator.integers.
    """
    m, q = cfg.ch.num_streams, cfg.pam_points
    bits = np.random.Philox(key=cfg.seed)
    if q & (q - 1):
        rng = np.random.Generator(bits)
        return lambda t: rng.integers(0, q, size=(t, m), dtype=np.int32)
    shift = 33 - q.bit_length()
    buf = np.empty(min(CHUNK_TRIALS, cfg.trials) * m, dtype=np.uint32)
    carry = []  # the high half-word that the previous call left unused

    def draw(t):
        u = buf[: t * m]
        head = len(carry)
        u[:head] = carry
        words = bits.random_raw((u.size - head + 1) // 2)
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first on any host
        np.right_shift(halves[: u.size - head], shift, out=u[head:])
        carry[:] = [halves[-1] >> shift] if halves.size > u.size - head else []
        return u.reshape(t, m)

    return draw


def _run_chunks(cfg: SimConfig, noise_scale: float, model, decode, record=None) -> TrialResult:
    """Draw, receive, decode and count the trials CHUNK_TRIALS at a time.

    Each chunk's symbol indices come from _index_draw and its noise from
    _noise_generator's generator, so the chunks reproduce one whole-run draw
    of the indices and then of the noise exactly. With noise_scale 0 no noise
    is drawn and the generator is not placed: noise scaled by 0 would leave
    the received signal unchanged. With noise_scale 1 the noise is added as
    drawn, since x * 1.0 is x. The channel product takes a contiguous copy
    of Hᵀ, which numpy hands to BLAS; over two or more trials that gives the
    bits of numpy's own loop over the transposed view (the tests pin this).
    A one-trial chunk is a vector-matrix product, whose sums follow the
    operand's layout, so it keeps the view. The chunk arrays are
    allocated once per run, for min(CHUNK_TRIALS, trials) trials; a short
    last chunk uses contiguous views at their start. Every elementwise step
    and product writes into them with ``out=``, the same operations on the
    same operands as with fresh arrays. Per-stream arrays are M x chunk, so
    each step of ``decode(y, y_eff, v_int)`` works on contiguous rows; it
    fills ``v_int`` with the decided combinations 2k + parity, which are then
    inverted and sliced per stream. The decoders skip the last step's
    feedback, which no later step reads, and the error counts take one 1-D
    count per row, not a count along an axis, which sums through a cast.
    ``record(lo, hi, v_int, odd_hat)``, if given, sees each chunk's decided
    combinations and odd stream integers for trials lo to hi. Like the arrays
    passed to ``decode``, they are workspace views that the next chunk
    overwrites, so ``record`` must copy what it keeps.
    """
    noise_scale = float(noise_scale)
    if not (math.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ValueError(f"noise_scale must be finite and >= 0, got {noise_scale}")
    trials, m, n, q = cfg.trials, cfg.ch.num_streams, cfg.ch.num_receive, cfg.pam_points
    draw = _index_draw(cfg)
    noise_rng = _noise_generator(cfg) if noise_scale else None
    c = cfg.symbol_scale
    h_t = np.ascontiguousarray(cfg.ch.H.T)
    a = cfg.A.astype(float)
    a_inv = np.linalg.inv(cfg.A)
    sym_errors, eq_errors = np.zeros((2, m), dtype=np.int64)
    zz, zz_chunk = np.zeros((2, m, m))
    size = min(CHUNK_TRIALS, trials)
    odd_buf, c_odd_buf, y_eff_buf, v_int_buf, v_true_buf, odd_hat_buf = np.empty((6, size * m))
    noise_buf, y_buf = np.empty((2, size * n))
    mask_buf = np.empty(size * m, dtype=bool)
    for lo in range(0, trials, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, trials)
        t = hi - lo
        odd, c_odd = _rows(odd_buf, t, m), _rows(c_odd_buf, t, m)
        noise, y = _rows(noise_buf, t, n), _rows(y_buf, t, n)
        y_eff, v_int, v_true, odd_hat, mask = (
            _rows(b, m, t) for b in (y_eff_buf, v_int_buf, v_true_buf, odd_hat_buf, mask_buf))
        np.multiply(draw(t), 2.0, out=odd)
        np.subtract(odd, q - 1, out=odd)  # exact odd integers, trials x M
        np.matmul(np.multiply(odd, c, out=c_odd), h_t if t > 1 else cfg.ch.H.T, out=y)
        if noise_rng is not None:
            noise_rng.standard_normal(out=noise)
            if noise_scale != 1.0:
                np.multiply(noise, noise_scale, out=noise)
            np.add(y, noise, out=y)
        np.matmul(model.B, y.T, out=y_eff)
        decode(y, y_eff, v_int)
        np.matmul(a, odd.T, out=v_true)  # exact small integers
        eq_errors += [np.count_nonzero(r) for r in np.not_equal(v_int, v_true, out=mask)]
        _slice_grid(np.matmul(a_inv, v_int, out=odd_hat), 1.0)
        np.clip(odd_hat, 1 - q, q - 1, out=odd_hat)
        sym_errors += [np.count_nonzero(r) for r in np.not_equal(odd_hat, odd.T, out=mask)]
        if record is not None:
            record(lo, hi, v_int, odd_hat)
        z = np.subtract(y_eff, np.multiply(v_true, c, out=v_true), out=v_true)
        zz += np.matmul(z, z.T, out=zz_chunk)
    return TrialResult(
        symbol_error_rate=tuple((sym_errors / trials).tolist()),
        equation_error_rate=tuple((eq_errors / trials).tolist()),
        empirical_Ktilde=zz / trials,
        trials=trials,
    )


def _successive_if(cfg: SimConfig):
    """The (model, decode) pair of the noise-prediction decoder, for _run_chunks."""
    model = if_effective_model(cfg.ch, cfg.A)
    parity = _parities(cfg)
    c = cfg.symbol_scale
    sq = math.sqrt(cfg.ch.snr)
    m, size = cfg.ch.num_streams, min(CHUNK_TRIALS, cfg.trials)
    w_buf, target_buf = np.empty(size * m), np.empty(size)

    def decode(y, y_eff, v_int):
        t = y_eff.shape[1]
        w = _rows(w_buf, m, t)
        for step, row in enumerate(y_eff):
            target = row
            if step:
                target = np.matmul(model.L[step, :step], w[:step], out=target_buf[:t])
                np.subtract(row, np.multiply(target, sq, out=target), out=target)
            _slice_grid(np.divide(target, c, out=v_int[step]), parity[step])
            if step < m - 1:  # the last w is never read
                np.subtract(target, np.multiply(v_int[step], c, out=w[step]), out=w[step])
                np.divide(w[step], sq * model.L[step, step], out=w[step])

    return model, decode


def _lr_aided_sic(cfg: SimConfig):
    """The (model, decode) pair of the decision-feedback decoder, for _run_chunks.

    y_eff (the prediction path's equalizer output) carries the effective-noise
    bookkeeping; the decisions come from the forward filter's output.
    """
    filters = gdfe_filters(cfg.ch, cfg.A)
    model = if_effective_model(cfg.ch, cfg.A)
    parity = _parities(cfg)
    c = cfg.symbol_scale
    m, size = cfg.ch.num_streams, min(CHUNK_TRIALS, cfg.trials)
    y_fwd_buf, v_hat_buf, target_buf = np.empty(size * m), np.empty(size * m), np.empty(size)

    def decode(y, y_eff, v_int):
        t = y_eff.shape[1]
        y_fwd = np.matmul(filters.B, y.T, out=_rows(y_fwd_buf, m, t))
        v_hat = _rows(v_hat_buf, m, t)
        for step, row in enumerate(y_fwd):
            target = row
            if step:
                target = np.matmul(filters.Cfeedback[step, :step], v_hat[:step], out=target_buf[:t])
                np.subtract(row, target, out=target)
            _slice_grid(np.divide(target, c, out=v_int[step]), parity[step])
            if step < m - 1:  # the last feedback is never read
                np.multiply(v_int[step], c, out=v_hat[step])

    return model, decode


def _identity_a(cfg: SimConfig) -> SimConfig:
    return dataclasses.replace(cfg, A=np.eye(cfg.ch.num_streams, dtype=np.int64))


def run_successive_if_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Successive integer-forcing with noise prediction.

    Step m subtracts sqrt(snr) * L[m, :m] @ w from the m-th equalized row,
    slices the result to the m-th combination's integer grid, then recovers
    the whitened noise coordinate w_m from its own decision. Streams are
    solved from the decided combinations at the end. ``noise_scale=0`` is the
    noiseless diagnostic.
    """
    return _run_chunks(cfg, noise_scale, *_successive_if(cfg))


def run_lr_aided_sic_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Decision-feedback SIC on the unimodularly reduced channel.

    Uses the monic feedback form: the forward filter is R B and decided
    combinations are fed back through R - I. For any full-rank A this makes
    the same per-trial decisions as run_successive_if_trials, realizing
    lattice-reduction-aided SIC when A comes from a reduction; the two differ
    only where a statistic lies exactly on a slicing boundary, which rounding
    then breaks either way.
    """
    return _run_chunks(cfg, noise_scale, *_lr_aided_sic(cfg))


def run_mmse_sic_trials(cfg: SimConfig, noise_scale: float = 1.0) -> TrialResult:
    """Plain MMSE-SIC: the A = I special case of successive integer forcing."""
    return run_successive_if_trials(_identity_a(cfg), noise_scale=noise_scale)


def trial_decisions(cfg: SimConfig, noise_scale: float, decoder: str):
    """Every trial's decisions in the run of run_<decoder>_trials(cfg, noise_scale).

    ``decoder`` is "successive_if", "lr_aided_sic" or "mmse_sic". The run is
    the same chunk loop, which also stores each chunk's decisions in
    stream-major M x trials int64 arrays (16 M bytes per trial). Returns the
    integer grid indices k of the decided combinations 2k + parity and the
    decoded odd stream integers, each as a trials x M view.
    """
    if decoder == "mmse_sic":
        cfg, decoder = _identity_a(cfg), "successive_if"
    builders = {"successive_if": _successive_if, "lr_aided_sic": _lr_aided_sic}
    if decoder not in builders:
        raise ValueError(f"unknown decoder {decoder!r}")
    model, decode = builders[decoder](cfg)
    eq_idx = np.empty((cfg.ch.num_streams, cfg.trials), dtype=np.int64)
    stream_hat = np.empty_like(eq_idx)
    parity = _parities(cfg).astype(float)[:, None]

    def record(lo, hi, v_int, odd_hat):
        eq_idx[:, lo:hi] = (v_int - parity) / 2.0
        stream_hat[:, lo:hi] = odd_hat

    _run_chunks(cfg, noise_scale, model, decode, record)
    return eq_idx.T, stream_hat.T
