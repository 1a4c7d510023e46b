"""Two-user MAC rate-region enumeration for successive integer-forcing.

Scans a bounded box of integer target matrices, keeps every feasible
allocation plus the two plain-SIC corner points, and extracts the Pareto
frontier together with the capacity pentagon. A row sign of A changes
neither its rates nor its feasible permutations, so one vectorized pass
covers one matrix per row-sign class, a quarter of the box. Results are
sorted by rate tuple on arrays before deduplication and frontier
extraction, so enumeration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DimensionTooLarge, IfwbError, WrongDimension
from .rates import (
    ChannelInstance,
    _effective_noise,
    _read_only,
    mmse_sic_plan,
    white_input_capacity,
)

MAX_COEFF_BOUND = 5
_DEDUP_TOL = 1e-9
_PERMUTATIONS = ((0, 1), (1, 0))
_SOURCES = ("sic_corner", "successive_if")


@dataclass(frozen=True)
class RatePoint:
    """One achievable rate tuple and how it was obtained."""

    rates: tuple
    source: str  # "sic_corner" or "successive_if"
    A: tuple  # integer matrix as nested tuples
    permutation: tuple

    @property
    def det_a(self) -> int:
        return self.A[0][0] * self.A[1][1] - self.A[0][1] * self.A[1][0]


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


def _class_representatives(bound: int) -> np.ndarray:
    """One matrix per row-sign class {D A} of the box, then the identity.

    The rows lexicographically before (0, 0) are those whose first nonzero
    entry is negative, so each matrix is the smallest of its class, the one
    the sorted deduplication keeps, and the stack is in lexicographic order.
    The identity, a plan even when not monotone because it is plain SIC,
    sorts after it. ((side^2 - 1) / 2)^2 + 1 matrices, side = 2 bound + 1.
    """
    side = 2 * bound + 1
    rows = (np.indices((side, side), dtype=np.int64).reshape(2, -1).T - bound)[: side * side // 2]
    pairs = np.indices((len(rows),) * 2).reshape(2, -1)
    return np.concatenate([rows[pairs].transpose(1, 0, 2), np.eye(2, dtype=np.int64)[None]])


@cache
def _scan_table(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonsingular matrices of _class_representatives(bound), the identity
    still last, as int64 and as float, and the mask of their nonzero first-row
    entries. Built once per bound, so at most MAX_COEFF_BOUND tables; read-only."""
    a = _class_representatives(bound)
    a = a[a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0] != 0]
    return _read_only(a), _read_only(a.astype(float)), _read_only(a[:, 0, :] != 0)


def _scan_box(ch: ChannelInstance, bound: int):
    """Monotone-feasible successive-IF plans for every full-rank A in the box.

    Negating a row of A negates that row of A G, B and B H - A exactly, and
    a Householder QR of (A G)^T only negates the matching row of R, so the
    diagonal of L, both checks and feasibility are the same bit for bit
    across a row-sign class. The nonsingular class
    representatives form one stack, which rates._effective_noise factors and
    checks matrix by matrix; the diagonal of each factor L gives the per-step
    rates -log2 l_mm. For full-rank 2x2 A, permutation (0, 1) is feasible iff
    a00 != 0 and (1, 0) iff a01 != 0. Returns the matrices, indices into
    _PERMUTATIONS and the stream rates clamped at zero, ordered by A, then by
    permutation.
    """
    a, af, first_row_nonzero = _scan_table(bound)
    _, l, _ = _effective_noise(ch, af)
    diag = np.diagonal(l, axis1=1, axis2=2)
    plan = diag[:, 0] ** 2 <= diag[:, 1] ** 2 * (1.0 + 1e-12)  # monotone
    plan[-1] = True  # the identity, last in the table, is plain SIC
    index, perm = np.nonzero(plan[:, None] & first_row_nonzero)
    per_step = -np.log2(diag)
    rates = np.stack([per_step, per_step[:, ::-1]], axis=1)[index, perm]
    return a[index], perm, np.where(rates > 0.0, rates, 0.0)


def _kept_positions(r1, r2) -> list:
    """Positions of the points no kept point is within _DEDUP_TOL of in both
    rates. r1 is ascending, so the backward scan over the kept points stops at
    the first one too far left: every earlier one is farther."""
    kept = []
    for i, (x, y) in enumerate(zip(r1, r2)):
        for k in reversed(kept):
            if abs(x - r1[k]) > _DEDUP_TOL:
                kept.append(i)
                break
            if abs(y - r2[k]) <= _DEDUP_TOL:  # a duplicate
                break
        else:
            kept.append(i)
    return kept


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

    corners = [[max(0.0, r) for r in mmse_sic_plan(ch, order).stream_rates]
               for order in _PERMUTATIONS]
    matrices, perms, rates = _scan_box(ch, bound)
    all_rates = np.concatenate([corners, rates])
    outside = ~_inside(_pentagon_constants(ch), all_rates[:, 0], all_rates[:, 1], 1e-9)
    if outside.any():
        bad = tuple(all_rates[np.argmax(outside)].tolist())
        raise IfwbError(f"enumerated point {bad} exceeds the capacity pentagon")

    # the corners (A = I, permutation = decode order), then the scan; the
    # lexsort keys give the order of the (rates, source, A, permutation) tuples
    a = np.concatenate([np.eye(2, dtype=np.int64)[None].repeat(2, 0), matrices])
    perm = np.concatenate([[0, 1], perms])
    source = np.arange(len(perm)) >= 2  # "sic_corner" sorts before "successive_if"
    order = np.lexsort((perm, *a.reshape(-1, 4).T[::-1], source, *all_rates.T[::-1]))
    r1, r2 = all_rates[order].T.tolist()
    keep = _kept_positions(r1, r2)
    index = order[keep]
    kept = tuple(
        RatePoint((r1[j], r2[j]), _SOURCES[s], tuple(map(tuple, m)), _PERMUTATIONS[k])
        for j, s, m, k in zip(keep, source[index].tolist(), a[index].tolist(), perm[index].tolist())
    )

    # kept is sorted by rates and has no equal pair, so a point is dominated
    # iff a later point has a second rate at least as large
    frontier, best = [], -np.inf
    for p in reversed(kept):
        if p.rates[1] > best:
            frontier.append(p)
            best = p.rates[1]
    return RateRegion(
        points=kept,
        frontier=tuple(reversed(frontier)),
        capacity_vertices=tuple(capacity_polytope_2user(ch)),
    )
