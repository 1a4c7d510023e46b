"""Two-user MAC rate-region enumeration for successive integer-forcing.

Scans a bounded box of integer target matrices, keeps every feasible
allocation, among them the two plain-SIC corners (the plans of -I and
-swap), and extracts the Pareto frontier together with the capacity
pentagon. A row sign of A changes neither its rates nor its feasible
permutations, so one vectorized pass covers one matrix per row-sign class,
a quarter of the box. Results are sorted by rate tuple on arrays before
deduplication and frontier extraction, so enumeration is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import IfwbError, WrongDimension
from .rates import (
    ChannelInstance,
    _effective_noise,
    _monotone,
    _read_only,
    _signed_permutation,
    white_input_capacity,
)

MAX_COEFF_BOUND = 5
_DEDUP_TOL = 1e-9
_PERMUTATIONS = ((0, 1), (1, 0))
_SOURCES = ("successive_if", "sic_corner")


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
    return _vertices(*_pentagon_constants(ch))


def _vertices(i1, i2, c) -> list:
    """capacity_polytope_2user's vertices from _pentagon_constants."""
    vertices = []
    for v in [(0.0, 0.0), (i1, 0.0), (i1, c - i1), (c - i2, i2), (0.0, i2)]:
        if not vertices or max(abs(v[0] - vertices[-1][0]), abs(v[1] - vertices[-1][1])) > 1e-12:
            vertices.append((float(v[0]), float(v[1])))
    return vertices


def pentagon_contains(ch: ChannelInstance, rates, slack: float = 1e-9) -> bool:
    """Whether a rate pair satisfies the individual and sum constraints."""
    return bool(_inside(_pentagon_constants(ch), float(rates[0]), float(rates[1]), slack))


def _class_representatives(bound: int) -> np.ndarray:
    """One matrix per row-sign class {D A} of the box with no zero row.

    The rows lexicographically before (0, 0) are those whose first nonzero
    entry is negative, so each matrix is the smallest of its class, the one
    the sorted deduplication keeps, and the stack is in lexicographic order.
    ((side^2 - 1) / 2)^2 matrices, side = 2 bound + 1.
    """
    side = 2 * bound + 1
    rows = (np.indices((side, side), dtype=np.int64).reshape(2, -1).T - bound)[: side * side // 2]
    pairs = np.indices((len(rows),) * 2).reshape(2, -1)
    return rows[pairs].transpose(1, 0, 2)


@cache
def _scan_table(bound: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonsingular matrices of _class_representatives(bound), as int64 and
    as float, the mask of their nonzero first-row entries and that of the signed
    permutations (-I, -swap). Built once per bound, at most MAX_COEFF_BOUND; read-only."""
    a = _class_representatives(bound)
    a = a[a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0] != 0]
    return (_read_only(a), _read_only(a.astype(float)), _read_only(a[:, 0, :] != 0),
            _read_only(_signed_permutation(a)))


def _scan_box(ch: ChannelInstance, bound: int):
    """Successive-IF plans for every full-rank A in the box, as in rates.

    Negating a row of A negates that row of A G exactly, and a Householder
    QR of (A G)^T only negates the matching row of R, so the diagonal of L,
    the snr L L^T check and feasibility are the same bit for bit across a
    row-sign class. The nonsingular class
    representatives form one stack, which rates._effective_noise factors and
    checks matrix by matrix; the diagonal of each factor L gives the per-step
    rates -log2 l_mm. For full-rank 2x2 A, permutation (0, 1) is feasible iff
    a00 != 0 and (1, 0) iff a01 != 0. A plan is kept when it is monotone or
    A is a signed permutation, as in rates: -I and -swap, plain SIC, the SIC
    corners, reported as A = I with their decode order. Returns the matrices,
    indices into _PERMUTATIONS, the stream rates clamped at zero and the
    corner mask, ordered by A, then by permutation.
    """
    a, af, first_row_nonzero, signed_permutation = _scan_table(bound)
    _, l = _effective_noise(ch, af)
    diag = np.diagonal(l, axis1=1, axis2=2)
    index, perm = np.nonzero((signed_permutation | _monotone(diag))[:, None] & first_row_nonzero)
    per_step = -np.log2(diag)
    rates = np.stack([per_step, per_step[:, ::-1]], axis=1)[index, perm]
    matrices, corner = a[index], signed_permutation[index]
    matrices[corner] = np.eye(2, dtype=np.int64)
    return matrices, perm, np.where(rates > 0.0, rates, 0.0), corner


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
    coeff_bound] and keeps the allocation plans that are monotone-feasible
    and the two SIC corners, the signed permutations' plans (a point within
    1e-9 of a corner in both rates is that corner), deduplicates rate tuples
    to 1e-9 and computes the Pareto frontier (a point is dominated when
    another is at least as large in both rates, to 1e-9). Rates are clamped
    at zero (sending nothing is always allowed).
    """
    constants = _pentagon_constants(ch)  # raises WrongDimension unless 2 streams
    bound = int(coeff_bound)
    if not 1 <= bound <= MAX_COEFF_BOUND:
        raise ValueError(f"coeff_bound must be in [1, {MAX_COEFF_BOUND}]")

    a, perm, rates, corner = _scan_box(ch, bound)
    outside = ~_inside(constants, rates[:, 0], rates[:, 1], 1e-9)
    if outside.any():
        bad = tuple(rates[np.argmax(outside)].tolist())
        raise IfwbError(f"enumerated point {bad} exceeds the capacity pentagon")

    # drop the other points that are a corner, then sort: the lexsort keys
    # give the order of the (rates, A, permutation) tuples
    twin = np.zeros(len(rates), dtype=bool)
    for c1, c2 in rates[corner].tolist():  # the two corner rows
        twin |= (np.abs(rates[:, 0] - c1) <= _DEDUP_TOL) & (np.abs(rates[:, 1] - c2) <= _DEDUP_TOL)
    a, perm, rates, corner = (x[corner | ~twin] for x in (a, perm, rates, corner))
    order = np.lexsort((perm, *a.reshape(-1, 4).T[::-1], *rates.T[::-1]))
    r1, r2 = rates[order].T.tolist()
    order = order.tolist()
    keep = _kept_positions(r1, r2)
    index = [order[j] for j in keep]
    kept = tuple(
        RatePoint((r1[j], r2[j]), _SOURCES[c], tuple(map(tuple, m)), _PERMUTATIONS[k])
        for j, c, m, k in zip(keep, corner[index].tolist(), a[index].tolist(), perm[index].tolist())
    )

    # kept is sorted by rates, so only the later points (best: their largest R2)
    # and the earlier ones within _DEDUP_TOL in R1 can dominate a point
    frontier, best = [], -np.inf
    for i in range(len(kept) - 1, -1, -1):
        x, y = kept[i].rates
        if y > best:
            j = i - 1
            while j >= 0 and x - kept[j].rates[0] <= _DEDUP_TOL < y - kept[j].rates[1]:
                j -= 1
            if y - best > _DEDUP_TOL and (j < 0 or x - kept[j].rates[0] > _DEDUP_TOL):
                frontier.append(kept[i])
            best = y
    return RateRegion(
        points=kept,
        frontier=tuple(reversed(frontier)),
        capacity_vertices=tuple(_vertices(*constants)),
    )
