"""Achievable-rate engine for integer-forcing MIMO receivers.

Implements, for a real channel Y = H X + Z at a given per-stream SNR:

- white-input mutual information and the water-filling capacity,
- MMSE-SIC (noise prediction) per-stream rates,
- integer-forcing and successive integer-forcing effective-noise models and
  the per-equation / per-step rates they support,
- pseudo-triangularization of the integer target matrix and the resulting
  sum-rate-optimal rate allocations,
- the optimal integer matrix via Korkin-Zolotarev reduction (with an
  exhaustive oracle mode),
- the equivalent decision-feedback (GDFE) filter realization.

Rates are in bits per real channel use; logs are base 2 throughout.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    DimensionTooLarge,
    IfwbError,
    InfeasiblePermutation,
    SingularA,
)
from .lattice import (
    brute_force_min_max,
    int_det,
    kz_approx_successive_lll,
    kz_reduce,
)
from .linalg import as_matrix

MAX_PSEUDO_TRI_DIM = 6


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelInstance:
    """Immutable problem statement: real channel matrix H (N x M) and linear SNR."""

    H: np.ndarray
    snr: float

    def __post_init__(self):
        h = as_matrix(self.H, "H")
        snr = float(self.snr)
        if not (math.isfinite(snr) and snr > 0):
            raise ValueError(f"snr must be a positive finite number, got {self.snr}")
        peak = float(np.abs(h).max())
        if snr * peak * peak > sys.float_info.max:  # Python floats: inf, no warning
            raise ValueError(
                f"snr * max|H_ij|^2 = {snr!r} * {peak!r}^2 is beyond the float range "
                f"(largest float {sys.float_info.max!r})"
            )
        object.__setattr__(self, "H", h.copy())
        object.__setattr__(self, "snr", snr)
        self.H.setflags(write=False)
        # if_effective_model's models, keyed by the validated int64 A's bytes
        object.__setattr__(self, "_effective_models", {})

    @property
    def num_streams(self) -> int:
        return self.H.shape[1]

    @property
    def num_receive(self) -> int:
        return self.H.shape[0]

    # The matrices below are pure functions of (H, snr); each is computed
    # once per instance and returned read-only.

    @cached_property
    def _sqrt_factor(self) -> tuple[np.ndarray, np.ndarray]:
        """Q = [Q1; Q2] and R, diag(R) > 0, of the QR of [sqrt(snr) H J; J].

        J reverses the column order, so R^T R = J (I + snr H^T H) J. This is
        the square-root form of MMSE-SIC (Hassibi, ICASSP 2000; Wubben et
        al., VTC 2003): every channel-derived quantity is read off Q and R,
        with no inverse or Cholesky factorization of a Gram matrix. The
        factor is checked once, where the rounding enters: Q^T Q = I, and
        Q R = [sqrt(snr) H J; J] relative to its largest entry, each to 10
        eps per row, a bound Householder QR meets at any SNR.
        """
        m = self.num_streams
        augmented = np.vstack([math.sqrt(self.snr) * self.H[:, ::-1], np.eye(m)[::-1]])
        q, r = np.linalg.qr(augmented)
        signs = _diagonal_signs(r)
        q, r = q * signs, r * signs[:, None]
        bound = 10 * len(augmented) * np.finfo(float).eps
        if not (np.abs(q.T @ q - np.eye(m)).max() <= bound
                and np.abs(q @ r - augmented).max() <= bound * np.abs(augmented).max()):
            raise IfwbError("channel square-root factor fails Q^T Q = I or Q R = [sqrt(snr) H J; J]")
        return _read_only(q), _read_only(r)

    @cached_property
    def sic_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor G of (I + snr H^T H)^{-1}.

        J = Q2 R gives G = J R^{-1} J = Q2 J, which is lower triangular.
        """
        q, _ = self._sqrt_factor
        return _read_only(np.tril(q[self.num_receive:, ::-1]))

    @cached_property
    def mmse_equalizer(self) -> np.ndarray:
        """Forward MMSE filter H^T (I/snr + H H^T)^{-1} = sqrt(snr) Q2 Q1^T."""
        q, _ = self._sqrt_factor
        n = self.num_receive
        return _read_only(math.sqrt(self.snr) * (q[n:] @ q[:n].T))


def _diagonal_signs(r: np.ndarray) -> np.ndarray:
    """+-1 per row of each upper-triangular r (..., n, n) that makes its diagonal positive."""
    return np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)


def _read_only(value: np.ndarray) -> np.ndarray:
    value.setflags(write=False)
    return value


def as_integer_matrix(a) -> np.ndarray:
    """Validate an integer square matrix within the int64 range, returned as int64."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"A must be square, got shape {arr.shape}")
    if arr.dtype.kind == "b":
        raise ValueError("A must have integer entries, got booleans")
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)) or not np.all(arr == np.round(arr)):
            raise ValueError("A must have integer entries")
        in_range = np.all((-(2.0**63) <= arr) & (arr < 2.0**63))
    else:  # numpy holds Python ints beyond int64 as uint64 or as objects
        in_range = arr.dtype.kind not in "uO" or all(-(2**63) <= v < 2**63 for v in arr.flat)
    if not in_range:
        raise ValueError("A has an entry beyond the int64 range")
    return arr.astype(np.int64)


def _validate_full_rank(a: np.ndarray) -> int:
    """det A, exact, for an int64 matrix A from as_integer_matrix that must be full rank."""
    det = int_det(a)
    if det == 0:
        raise SingularA("A is singular (exact integer determinant is zero)")
    return det


# ---------------------------------------------------------------------------
# capacities
# ---------------------------------------------------------------------------

def white_input_capacity(ch: ChannelInstance) -> float:
    """White-input mutual information (1/2) log2 det(I + snr H^T H) = sum log2 r_ii."""
    _, r = ch._sqrt_factor
    return float(np.sum(np.log2(np.diag(r))))


def waterfilling_capacity(ch: ChannelInstance) -> tuple[float, np.ndarray]:
    """Capacity under the total power constraint trace(Q) <= M * snr.

    The optimal input covariance Q is diagonal in the right-singular basis
    of H with powers set by water-filling. The water level is exact: the
    active modes are those with the k smallest inverse gains, and the level
    is the last (budget + their sum) / k that exceeds the k-th of them.
    Returns (capacity_bits, Q).
    """
    m = ch.num_streams
    _, sing, vt = np.linalg.svd(ch.H, full_matrices=True)
    gains = np.zeros(m)
    gains[: len(sing)] = sing**2
    budget = m * ch.snr
    positive = gains > (gains.max() * 1e-14 if gains.max() > 0 else np.inf)
    if not positive.any():
        return 0.0, np.zeros((m, m))
    inv_gain = 1.0 / gains[positive]
    inv = np.sort(inv_gain)
    levels = (budget + np.cumsum(inv)) / np.arange(1, len(inv) + 1)
    active = np.flatnonzero(levels > inv)
    level = levels[active[-1]] if active.size else inv[0]
    powers = np.zeros(m)
    powers[positive] = np.maximum(0.0, level - inv_gain)
    value = float(0.5 * np.sum(np.log2(1.0 + powers * gains)))
    q = vt.T @ np.diag(powers) @ vt
    return value, 0.5 * (q + q.T)


# ---------------------------------------------------------------------------
# MMSE-SIC via noise prediction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SicPlan:
    """MMSE-SIC noise-prediction outcome for a fixed decoding order."""

    G: np.ndarray  # lower Cholesky factor of P (I + snr H^T H)^{-1} P^T, P = I[decode_order]
    decode_order: tuple  # stream indices in decoding sequence (0-based)
    rates: tuple  # rate of the k-th decoded stream, -log2 g_kk
    stream_rates: tuple  # same rates indexed by original stream
    sum_rate: float


def mmse_sic_plan(ch: ChannelInstance, decode_order=None) -> SicPlan:
    """Per-stream MMSE-SIC rates -1/2 log2(g_mm^2) for a decoding order.

    The default order decodes stream 0 first. MMSE-SIC in order pi is
    successive IF with the permutation matrix P whose row k is e_pi(k), so G
    is the factor L of if_effective_model(ch, P): ch.sic_cholesky bit for bit
    in the default order. ``stream_rates`` maps the rates back to the
    original stream indices.
    """
    m = ch.num_streams
    order = tuple(range(m)) if decode_order is None else tuple(int(i) for i in decode_order)
    if sorted(order) != list(range(m)):
        raise ValueError(f"decode_order must be a permutation of 0..{m - 1}")
    g = if_effective_model(ch, np.eye(m, dtype=np.int64)[list(order)]).L
    diag = np.diag(g)
    assert np.all(diag > 0) and np.all(diag <= 1.0 + 1e-12), "g_mm must lie in (0, 1]"
    rates = _step_rates(diag)
    return SicPlan(
        G=g,
        decode_order=order,
        rates=rates,
        stream_rates=tuple(rates[order.index(s)] for s in range(m)),
        sum_rate=float(sum(rates)),
    )


# ---------------------------------------------------------------------------
# integer-forcing effective model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EffectiveNoiseModel:
    """Effective-noise geometry for one integer target matrix."""

    A: np.ndarray  # int64, full rank
    Ktilde: np.ndarray  # generalized covariance of the effective noise
    L: np.ndarray  # lower Cholesky factor of A (I + snr H^T H)^{-1} A^T
    det: int  # exact det A, nonzero
    det_gap: float  # log2 |det A|


def _mt(x: np.ndarray) -> np.ndarray:
    """Transpose of each matrix over the trailing two axes."""
    return x.swapaxes(-1, -2)


def _gram(x: np.ndarray) -> np.ndarray:
    """x x^T for each matrix over the trailing two axes.

    numpy's matmul runs its non-BLAS loop on a stack whose right operand is a
    transposed view, so a stack is multiplied by a C-contiguous copy of its
    transpose; a single matrix keeps the view, which BLAS takes as it is.
    """
    xt = _mt(x)
    return x @ (np.ascontiguousarray(xt) if x.ndim > 2 else xt)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for each matrix of x over its trailing two axes; a stack as one
    2-D product (S m, k) @ (k, n), reshaped back: one BLAS call, not S."""
    if x.ndim == 2:
        return x @ y
    return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape[:-1] + y.shape[-1:])


def _peak(x: np.ndarray) -> np.ndarray:
    """max(max|x_ij|, 1e-300) of each matrix over the trailing two axes.

    A stack's maxima are one reduce over a contiguous (M*M, S) copy of |x|,
    which runs along the stack, not one short reduce per matrix.
    """
    if x.ndim == 2:
        return np.maximum(np.abs(x).max(axis=(-2, -1)), 1e-300)
    flat = np.abs(x).reshape(-1, x.shape[-2] * x.shape[-1])
    return np.maximum(np.ascontiguousarray(flat.T).max(axis=0), 1e-300).reshape(x.shape[:-2])


def _exceeds(diff: np.ndarray, bound) -> bool:
    """Whether some matrix of diff has an |entry| beyond its own bound.

    A stack is compared elementwise with the bounds broadcast over each
    matrix: true whenever a matrix's largest |entry| is beyond its bound, and
    also when a NaN entry hides that largest one. A single matrix compares
    its largest |entry|, which costs less than the elementwise test.
    """
    if diff.ndim == 2:
        return bool(np.abs(diff).max(axis=(-2, -1)) > bound)
    return bool((np.abs(diff) > bound[..., None, None]).any())


def _effective_noise(ch: ChannelInstance, af: np.ndarray):
    """(Ktilde, L) for float integer matrices af of shape (..., M, M).

    With AG = A ch.sic_cholesky, Ktilde = snr (AG)(AG)^T, which is
    snr A (I + snr H^T H)^{-1} A^T because G G^T is that inverse; L is the
    transpose of the positive-diagonal R of the QR of (AG)^T, so
    L L^T = (AG)(AG)^T without that product being factored. Each matrix of a
    stack is checked on its own: snr L L^T must match Ktilde to 1e-9 of
    max|Ktilde| of that matrix. A stack's product with G is one 2-D product
    (_product).
    """
    ag = _product(af, ch.sic_cholesky)
    ktilde = ch.snr * _gram(ag)
    r = np.linalg.qr(_mt(ag), mode="r")
    l = _mt(r * _diagonal_signs(r)[..., None])
    if _exceeds(ktilde - ch.snr * l @ _mt(l), 1e-9 * _peak(ktilde)):
        raise IfwbError("Ktilde does not match snr * L L^T")
    return ktilde, l


def if_effective_model(ch: ChannelInstance, a) -> EffectiveNoiseModel:
    """Generalized covariance Ktilde and Cholesky factor L for A.

    Ktilde = snr A (I + snr H^T H)^{-1} A^T is checked against snr L L^T to
    1e-9 relative; the equalizer toward A is A @ ch.mmse_equalizer, computed
    where it is read. This is the one check of a (channel, A) pair: A must
    be an M x M integer matrix with a nonzero exact determinant, which the
    model carries as det. The model is built once per (channel, A) and
    shared by later calls; its arrays are read-only.
    """
    return _effective_model(ch, as_integer_matrix(a))


def _effective_model(ch: ChannelInstance, a: np.ndarray, det: int | None = None):
    """if_effective_model for an int64 matrix a from as_integer_matrix. det,
    when given, is det a, exact and nonzero, and is not computed again."""
    key = a.tobytes()
    if key not in ch._effective_models:
        m = ch.num_streams
        if a.shape[0] != m:
            raise ValueError(f"A must be {m}x{m} for this channel, got {a.shape}")
        if det is None:
            det = _validate_full_rank(a)
        k, l = _effective_noise(ch, a.astype(float))
        ch._effective_models[key] = EffectiveNoiseModel(
            A=_read_only(a), Ktilde=_read_only(k), L=_read_only(l), det=det,
            det_gap=float(math.log2(abs(det))),
        )
    return ch._effective_models[key]


# ---------------------------------------------------------------------------
# per-equation and per-step rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IfRates:
    """Standard (parallel) integer-forcing rates per equation."""

    raw: tuple  # -1/2 log2 of the L row norms; may be negative
    rates: tuple  # raw clamped at zero
    undecodable: tuple  # flags where clamping occurred
    symmetric_rate: float  # M * min rate


@dataclass(frozen=True)
class SuccessiveIfRates:
    """Successive integer-forcing per-step rates."""

    per_step: tuple  # -1/2 log2 l_mm^2
    symmetric_total: float  # M * min per_step
    sum_rate: float  # sum of per-step rates
    det_gap: float  # log2 |det A|


def _step_rates(diag: np.ndarray) -> tuple:
    """The per-step rates -log2 l_mm of a Cholesky diagonal, as floats."""
    return tuple(float(-np.log2(d)) for d in diag)


def if_rates(ch: ChannelInstance, a) -> IfRates:
    """Parallel IF rates (1/2) log2(snr / Ktilde_mm) per equation.

    Negative values (effective variance above snr) are clamped to zero and
    flagged undecodable; ``raw`` keeps the unclamped values.
    """
    model = if_effective_model(ch, a)
    row_sq = np.sum(model.L * model.L, axis=1)
    raw = tuple(float(-0.5 * np.log2(v)) for v in row_sq)
    rates = tuple(max(0.0, v) for v in raw)
    return IfRates(
        raw=raw,
        rates=rates,
        undecodable=tuple(v < 0.0 for v in raw),
        symmetric_rate=float(len(raw) * min(rates)),
    )


def successive_if_rates(ch: ChannelInstance, a) -> SuccessiveIfRates:
    """Per-step successive IF rates -1/2 log2(l_mm^2) from the Cholesky diagonal.

    The per-step rates telescope: their sum equals the white-input mutual
    information minus log2|det A|.
    """
    model = if_effective_model(ch, a)
    per_step = _step_rates(np.diag(model.L))
    return SuccessiveIfRates(
        per_step=per_step,
        symmetric_total=float(len(per_step) * min(per_step)),
        sum_rate=float(sum(per_step)),
        det_gap=model.det_gap,
    )


# ---------------------------------------------------------------------------
# pseudo-triangularization and rate allocation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PseudoTriangularization:
    """One feasible permutation with its eliminating filter: Atilde = R @ A."""

    permutation: tuple  # 0-based column permutation
    R: np.ndarray  # unit-diagonal lower triangular
    Atilde: np.ndarray  # Atilde[:, permutation] is upper triangular


def _feasible_permutations(a: np.ndarray) -> list[tuple]:
    """All permutations realizable by elimination without row swaps or scaling.

    That needs det A[:k, S] != 0 for the set S of the first k columns, for
    every k; each of the at most 2^M - 2 proper sets' minors is computed once,
    in integer arithmetic. The full set's minor is det A, which the caller
    has checked, so the last column of each order is the one left over.
    Prefixes grow in increasing column order (itertools.permutations order).
    A is a validated full-rank int64 matrix.
    """
    m = a.shape[0]
    if m > MAX_PSEUDO_TRI_DIM:
        raise DimensionTooLarge(
            f"pseudo-triangularization scans {m}! permutations; guarded to {MAX_PSEUDO_TRI_DIM}"
        )

    @cache
    def nonzero(cols: frozenset) -> bool:
        return int_det(a[: len(cols), sorted(cols)]) != 0

    prefixes = [()]
    for _ in range(m - 1):
        prefixes = [p + (c,) for p in prefixes for c in range(m)
                    if c not in p and nonzero(frozenset(p + (c,)))]
    if not prefixes:
        raise IfwbError("full-rank matrix produced no feasible permutation")
    return [p + tuple(c for c in range(m) if c not in p) for p in prefixes]


def pseudo_triangularize(a) -> list[PseudoTriangularization]:
    """All column permutations under which A becomes upper triangular (those of
    _feasible_permutations), each with the filter of a float elimination, which
    is checked to triangularize A."""
    a = as_integer_matrix(a)
    _validate_full_rank(a)
    m = a.shape[0]
    results = []
    for perm in _feasible_permutations(a):
        work = a[:, perm].astype(float)
        r = np.eye(m)
        for j in range(m - 1):
            factors = work[j + 1:, j] / work[j, j]
            work[j + 1:] -= np.outer(factors, work[j])
            r[j + 1:] -= np.outer(factors, r[j])
        atilde = r @ a.astype(float)
        strict_lower = np.tril(atilde[:, perm], -1)
        if np.abs(strict_lower).max() > 1e-10 * max(1.0, np.abs(atilde).max()):
            raise IfwbError("elimination failed to triangularize a feasible permutation")
        results.append(PseudoTriangularization(permutation=perm, R=r, Atilde=atilde))
    return results


@dataclass(frozen=True)
class AllocationPlan:
    """Rate allocation for one feasible permutation of the integer matrix."""

    permutation: tuple
    stream_rates: tuple  # rate of stream m (original indexing)
    monotone_feasible: bool  # Cholesky diagonal is nondecreasing, or A is a signed permutation
    sum_rate: float
    sum_rate_gap: float  # log2 |det A|


def _monotone(diag: np.ndarray) -> np.ndarray:
    """Whether l_11^2 <= ... <= l_MM^2, each step to 1e-12 relative, over the
    last axis of diag: one Cholesky diagonal or a stack of them."""
    return np.all(diag[..., :-1] ** 2 <= diag[..., 1:] ** 2 * (1.0 + 1e-12), axis=-1)


def _signed_permutation(a: np.ndarray) -> np.ndarray:
    """Whether each full-rank integer matrix over a's trailing two axes is a signed
    permutation: entries in {-1, 0, 1}, M of them nonzero (no abs: it wraps at -2**63)."""
    return ((a >= -1) & (a <= 1)).all(axis=(-2, -1)) & ((a != 0).sum(axis=(-2, -1)) == a.shape[-1])


def _allocation_plans(model: EffectiveNoiseModel, perms) -> list[AllocationPlan]:
    """allocate_rates's plans for perms, every one of them feasible for model.A.

    The per-step rates and the monotone flag depend on A alone, so they are
    computed once for all of perms.
    """
    m = model.A.shape[0]
    diag = np.diag(model.L)
    per_step = _step_rates(diag)
    # the one exception to the monotone rule: a signed permutation is plain SIC, always a plan
    feasible = bool(_monotone(diag)) or bool(_signed_permutation(model.A))
    sym = max(0.0, min(per_step))
    plans = []
    for perm in perms:
        rates = tuple(per_step[perm.index(s)] for s in range(m)) if feasible else (sym,) * m
        plans.append(AllocationPlan(
            permutation=perm,
            stream_rates=rates,
            monotone_feasible=feasible,
            sum_rate=float(sum(rates)) if feasible else float(m * sym),
            sum_rate_gap=model.det_gap,
        ))
    return plans


def allocate_rates(ch: ChannelInstance, a, permutation) -> AllocationPlan:
    """Per-stream rate allocation for a feasible permutation.

    Stream m is assigned the per-step rate at position perm^{-1}(m). The plan
    is marked feasible when the squared Cholesky diagonal is nondecreasing,
    and always when A is a signed permutation D P_pi: plain SIC in order pi,
    its one feasible permutation, with mmse_sic_plan(ch, pi)'s stream rates.
    An infeasible plan falls back to the conservative symmetric allocation.
    """
    model = if_effective_model(ch, a)
    m = ch.num_streams
    perm = tuple(int(i) for i in permutation)
    if sorted(perm) != list(range(m)):
        raise ValueError(f"permutation must be a permutation of 0..{m - 1}")
    if perm not in _feasible_permutations(model.A):
        raise InfeasiblePermutation(f"permutation {perm} is not feasible for this A")
    return _allocation_plans(model, [perm])[0]


def feasible_allocations(ch: ChannelInstance, a) -> list[AllocationPlan]:
    """allocate_rates(ch, a, p) for every permutation p of pseudo_triangularize(a), in its order.

    A is checked by if_effective_model, and its feasible permutations found, once.
    """
    model = if_effective_model(ch, a)
    return _allocation_plans(model, _feasible_permutations(model.A))


# ---------------------------------------------------------------------------
# optimal integer matrix
# ---------------------------------------------------------------------------

def optimal_a(ch: ChannelInstance, mode: str = "kz_exact", bound: int | None = None,
              start=None) -> np.ndarray:
    """Integer matrix minimizing the worst per-step prediction residual.

    Modes:
    - "kz_exact": exact Korkin-Zolotarev reduction of the lattice spanned by
      G^T; the returned A is unimodular and provably optimal. ``start``, an
      earlier result's A.T (a sweep's previous SNR), is kz_reduce's starting
      transform; A is then the same up to row signs.
    - "kz_lll": LLL with delta = 0.99 plus one size reduction of G^T (no
      dimension guard, optimality not guaranteed).
    - "brute_force": exhaustive search over entries in [-bound, bound]
      (requires ``bound``; dimension guarded), used as an independent oracle.

    The channel's effective model of a KZ or LLL matrix A = U^T is built here
    with det A = det U from the reduction report's check, so it is not
    computed again.
    """
    if start is not None and mode != "kz_exact":
        raise ValueError(f"start applies to mode 'kz_exact' only, not {mode!r}")
    g = ch.sic_cholesky
    if mode in ("kz_exact", "kz_lll"):
        if mode == "kz_exact":
            report = kz_reduce(g.T, start=start)
        else:
            report = kz_approx_successive_lll(g.T)
        _effective_model(ch, report.transform.T.copy(), report.det)  # the model keeps its copy
        return report.transform.T.copy()
    if mode == "brute_force":
        if bound is None:
            raise ValueError("brute_force mode requires an entry bound")
        a, _ = brute_force_min_max(g, bound, objective="successive_if")
        return a
    raise ValueError(f"unknown mode {mode!r}")


def successive_objective(ch: ChannelInstance, a) -> float:
    """max_m l_mm^2 for the given A: the quantity optimal_a minimizes."""
    model = if_effective_model(ch, a)
    return float(np.max(np.diag(model.L) ** 2))


# ---------------------------------------------------------------------------
# decision-feedback (GDFE) realization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GdfeFilters:
    """Forward filter, monic feedback filter and the diagonalized covariance."""

    B: np.ndarray  # forward filter, M x N
    Rmonic: np.ndarray  # unit-diagonal lower triangular
    Cfeedback: np.ndarray  # Rmonic - I (strictly lower triangular)
    Kee: np.ndarray  # resulting error covariance snr * diag(l_11^2 .. l_MM^2)


def gdfe_filters(ch: ChannelInstance, a) -> GdfeFilters:
    """Optimal decision-feedback filters equivalent to noise prediction.

    With R = diag(l_11..l_MM) L^{-1}, from a solve with L^T, the error
    covariance becomes exactly snr * diag(l_mm^2), so the per-step rates
    coincide with successive_if_rates. The forward filter is R A ch.mmse_equalizer.
    """
    model = if_effective_model(ch, a)
    l = model.L
    diag = np.diag(l)
    rmonic = np.tril(np.linalg.solve(l.T, np.diag(diag)).T)
    np.fill_diagonal(rmonic, 1.0)
    cfeedback = rmonic - np.eye(l.shape[0])
    np.fill_diagonal(cfeedback, 0.0)
    b = rmonic @ (model.A.astype(float) @ ch.mmse_equalizer)
    rl = rmonic @ l
    kee = ch.snr * (rl @ rl.T)
    off = np.abs(kee - np.diag(np.diag(kee))).max()
    if off > 1e-9 * np.trace(kee):
        raise IfwbError("GDFE covariance failed to diagonalize")
    if np.abs(np.diag(kee) - ch.snr * diag**2).max() > 1e-9 * np.abs(kee).max():
        raise IfwbError("GDFE covariance diagonal does not match snr * l_mm^2")
    return GdfeFilters(B=b, Rmonic=rmonic, Cfeedback=cfeedback, Kee=kee)

