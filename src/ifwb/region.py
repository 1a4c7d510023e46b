"""Two-user MAC rate-region enumeration for successive integer-forcing.

Scans a bounded box of integer target matrices, keeps every feasible
allocation plus the two plain-SIC corner points, and extracts the Pareto
frontier together with the capacity pentagon. The box is evaluated in one
vectorized pass, and results are sorted by rate tuple before deduplication
and frontier extraction, so enumeration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, IfwbError, WrongDimension
from .lattice import int_det
from .rates import ChannelInstance, _effective_noise, mmse_sic_plan, white_input_capacity

MAX_COEFF_BOUND = 5
_DEDUP_TOL = 1e-9
_PERMUTATIONS = ((0, 1), (1, 0))


@dataclass(frozen=True)
class RatePoint:
    """One achievable rate tuple and how it was obtained."""

    rates: tuple
    source: str  # "sic_corner" or "successive_if"
    A: tuple  # integer matrix as nested tuples
    permutation: tuple

    @property
    def det_a(self) -> int:
        return int_det(np.array(self.A, dtype=np.int64))


@dataclass(frozen=True)
class RateRegion:
    points: tuple
    frontier: tuple
    capacity_vertices: tuple


def _pentagon_constants(ch: ChannelInstance):
    """(I1, I2, C_WI) with single-user rates I_m = (1/2) log2(1 + snr ||h_m||^2)."""
    if ch.num_streams != 2:
        raise WrongDimension(f"pentagon geometry needs 2 streams, got {ch.num_streams}")
    i1 = 0.5 * np.log2(1.0 + ch.snr * float(ch.H[:, 0] @ ch.H[:, 0]))
    i2 = 0.5 * np.log2(1.0 + ch.snr * float(ch.H[:, 1] @ ch.H[:, 1]))
    return i1, i2, white_input_capacity(ch)


def _inside(constants, r1, r2, slack: float):
    """Pentagon test; elementwise when r1 and r2 are arrays."""
    i1, i2, c = constants
    low = (r1 >= -slack) & (r2 >= -slack)
    return low & (r1 <= i1 + slack) & (r2 <= i2 + slack) & (r1 + r2 <= c + slack)


def capacity_polytope_2user(ch: ChannelInstance):
    """Vertices of the 2-user pentagon {R1 <= I1, R2 <= I2, R1+R2 <= C_WI}, CCW.

    The corner points coincide with the MMSE-SIC rates under the two decode
    orders.
    """
    i1, i2, c = _pentagon_constants(ch)
    vertices = []
    for v in [(0.0, 0.0), (i1, 0.0), (i1, c - i1), (c - i2, i2), (0.0, i2)]:
        if not vertices or max(abs(v[0] - vertices[-1][0]), abs(v[1] - vertices[-1][1])) > 1e-12:
            vertices.append((float(v[0]), float(v[1])))
    return vertices


def pentagon_contains(ch: ChannelInstance, rates, slack: float = 1e-9) -> bool:
    """Whether a rate pair satisfies the individual and sum constraints."""
    return bool(_inside(_pentagon_constants(ch), float(rates[0]), float(rates[1]), slack))


def _scan_box(ch: ChannelInstance, bound: int):
    """Monotone-feasible successive-IF plans for every full-rank A in the box.

    All (2 bound + 1)^4 matrices form one stack, which rates._effective_noise
    factors and checks matrix by matrix as for rates.if_effective_model; the
    diagonal of each Cholesky factor L gives the per-step rates -log2 l_mm.
    For full-rank 2x2 A, permutation (0, 1) is feasible iff a00 != 0 and
    (1, 0) iff a01 != 0. Returns the matrices, indices into _PERMUTATIONS and
    the stream rates clamped at zero, ordered by A lexicographically, then by
    permutation.
    """
    side = 2 * bound + 1
    a = (np.indices((side,) * 4, dtype=np.int64).reshape(4, -1).T - bound).reshape(-1, 2, 2)
    a = a[a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0] != 0]
    _, l, _ = _effective_noise(ch, a.astype(float))
    diag = np.diagonal(l, axis1=1, axis2=2)
    diag_sq = diag**2
    monotone = diag_sq[:, 0] <= diag_sq[:, 1] * (1.0 + 1e-12)
    identity = np.all(a == np.eye(2, dtype=np.int64), axis=(1, 2))
    index, perm = np.nonzero((monotone | identity)[:, None] & (a[:, 0, :] != 0))
    per_step = -np.log2(diag)
    rates = np.stack([per_step, per_step[:, ::-1]], axis=1)[index, perm]
    return a[index], perm, np.where(rates > 0.0, rates, 0.0)


def _is_duplicate(p: RatePoint, kept) -> bool:
    """Whether a kept point is within _DEDUP_TOL of p in both rates.

    kept is sorted by rates[0], none above p.rates[0], so the backward scan
    stops at the first kept point too far left: every earlier one is farther.
    """
    for k in reversed(kept):
        if abs(p.rates[0] - k.rates[0]) > _DEDUP_TOL:
            return False
        if abs(p.rates[1] - k.rates[1]) <= _DEDUP_TOL:
            return True
    return False


def enumerate_achievable_points(ch: ChannelInstance, coeff_bound: int) -> RateRegion:
    """Achievable region: feasible allocations over a bounded integer box.

    Scans every full-rank integer A with entries in [-coeff_bound,
    coeff_bound], keeps allocation plans that are monotone-feasible, adds the
    two SIC corners, deduplicates rate tuples to 1e-9 and computes the Pareto
    frontier. Rates are clamped at zero (sending nothing is always allowed).
    """
    if ch.num_streams != 2:
        raise DimensionTooLarge("region enumeration is guarded to 2 streams")
    bound = int(coeff_bound)
    if not 1 <= bound <= MAX_COEFF_BOUND:
        raise ValueError(f"coeff_bound must be in [1, {MAX_COEFF_BOUND}]")

    points = [
        RatePoint(
            rates=tuple(max(0.0, r) for r in mmse_sic_plan(ch, order).stream_rates),
            source="sic_corner",
            A=((1, 0), (0, 1)),
            permutation=order,
        )
        for order in _PERMUTATIONS
    ]
    matrices, perms, rates = _scan_box(ch, bound)
    all_rates = np.concatenate([np.array([p.rates for p in points]), rates])
    outside = ~_inside(_pentagon_constants(ch), all_rates[:, 0], all_rates[:, 1], 1e-9)
    if outside.any():
        bad = tuple(all_rates[np.argmax(outside)].tolist())
        raise IfwbError(f"enumerated point {bad} exceeds the capacity pentagon")

    points += [
        RatePoint(rates=tuple(r), source="successive_if", A=tuple(map(tuple, m)),
                  permutation=_PERMUTATIONS[k])
        for r, m, k in zip(rates.tolist(), matrices.tolist(), perms.tolist())
    ]
    points.sort(key=lambda p: (p.rates, p.source, p.A, p.permutation))
    kept = []
    for p in points:
        if not _is_duplicate(p, kept):
            kept.append(p)

    # kept is sorted by rates and has no equal pair, so a point is dominated
    # iff a later point has a second rate at least as large
    frontier, best = [], -np.inf
    for p in reversed(kept):
        if p.rates[1] > best:
            frontier.append(p)
            best = p.rates[1]
    return RateRegion(
        points=tuple(kept),
        frontier=tuple(reversed(frontier)),
        capacity_vertices=tuple(capacity_polytope_2user(ch)),
    )
