"""Lattice basis reduction with exact unimodular transform tracking.

Bases are real matrices whose columns are the basis vectors. Reductions
return a ReductionReport carrying the reduced basis, the integer transform U
with reduced = original @ U, the Gram-Schmidt norms of the reduced basis and
a method tag. Transforms are tracked in exact integer arithmetic (Python
ints), so det(U) = +-1 is checked exactly, not numerically.

Exact routines (shortest vector, KZ) are guarded to dimension 10; they rely
on depth-first enumeration with a radius seeded by the shortest LLL-reduced
basis vector, which makes the search provably exhaustive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, DimensionTooLarge, NoFullRankCandidate
from .linalg import as_matrix, cholesky_lower

MAX_ENUM_DIM = 10
MAX_BRUTE_DIM = 3
MAX_BRUTE_BOUND = 5


# ---------------------------------------------------------------------------
# exact integer helpers
# ---------------------------------------------------------------------------

def int_det(a) -> int:
    """Exact determinant of an integer matrix via fraction-free (Bareiss) elimination."""
    mat = [[int(v) for v in row] for row in np.asarray(a)]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("determinant requires a square matrix")
    if n == 1:
        return mat[0][0]
    if n == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = mat
        return a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            for i in range(k + 1, n):
                if mat[i][k] != 0:
                    mat[k], mat[i] = mat[i], mat[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
            mat[i][k] = 0
        prev = mat[k][k]
    return sign * mat[n - 1][n - 1]


def int_rank(rows) -> int:
    """Exact rank of an integer matrix (rows given as an iterable of vectors)."""
    mat = [[int(v) for v in row] for row in rows]
    if not mat:
        return 0
    rank = 0
    cols = len(mat[0])
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                p, q = mat[rank][c], mat[i][c]
                mat[i] = [p * mat[i][j] - q * mat[rank][j] for j in range(cols)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def is_unimodular(u) -> bool:
    """True iff u is integer with determinant exactly +-1."""
    arr = np.asarray(u)
    if arr.dtype.kind == "f" and not np.all(arr == np.round(arr)):
        return False
    return abs(int_det(arr)) == 1


def unimodular_completion(z) -> np.ndarray:
    """Unimodular integer matrix whose first column is the primitive vector z.

    Reduces z to a unit vector with recorded elementary row operations, then
    applies the inverse operations to the identity. Requires gcd(z) = 1.
    """
    work = [int(v) for v in z]
    m = len(work)
    if math.gcd(*work) != 1:
        raise ValueError("completion requires a primitive integer vector")
    ops = []  # ("add", i, j, q): row_i += q * row_j ; ("swap", i, j) ; ("neg", i)
    while True:
        nz = [k for k, v in enumerate(work) if v != 0]
        if len(nz) <= 1:
            break
        p = min(nz, key=lambda k: abs(work[k]))
        for k in nz:
            if k == p:
                continue
            q = work[k] // work[p]
            if q != 0:
                work[k] -= q * work[p]
                ops.append(("add", k, p, -q))
    s = next(k for k, v in enumerate(work) if v != 0)
    if work[s] < 0:
        ops.append(("neg", s))
        work[s] = -work[s]
    if work[s] != 1:
        raise ValueError("completion requires a primitive integer vector")
    if s != 0:
        ops.append(("swap", 0, s))
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    for op in reversed(ops):
        if op[0] == "add":
            _, i, j, q = op
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]  # inverse of row_i += q*row_j
        elif op[0] == "neg":
            u[op[1]] = [-a for a in u[op[1]]]
        else:
            _, i, j = op
            u[i], u[j] = u[j], u[i]
    out = np.array(u, dtype=object)
    return out


def _as_int_transform(u_obj: np.ndarray) -> np.ndarray:
    """Convert an exact object-int transform to int64, refusing silent overflow."""
    flat = [int(v) for v in u_obj.ravel()]
    if any(abs(v) >= 2 ** 62 for v in flat):
        raise OverflowError("unimodular transform entries exceed int64 range")
    return np.array(flat, dtype=np.int64).reshape(u_obj.shape)


# ---------------------------------------------------------------------------
# basis validation and Gram-Schmidt data
# ---------------------------------------------------------------------------

def validate_basis(b) -> np.ndarray:
    """Check that the columns of b are linearly independent basis vectors."""
    b = as_matrix(b, "basis")
    n, m = b.shape
    if n < m:
        raise DegenerateBasis(f"{m} basis vectors in ambient dimension {n}")
    gram = b.T @ b
    det = np.linalg.det(gram)
    scale = max(np.abs(gram).max(), 1e-300)
    if det <= (1e-12 * scale) ** m:
        raise DegenerateBasis("basis columns are (numerically) linearly dependent")
    return b


def _gso(cols: np.ndarray):
    """Gram-Schmidt data: orthogonal vectors, coefficients mu[i][j] (j < i), squared norms."""
    n, m = cols.shape
    bstar = np.zeros((n, m))
    mu = np.zeros((m, m))
    nsq = np.zeros(m)
    for i in range(m):
        v = cols[:, i].copy()
        for j in range(i):
            mu[i, j] = (cols[:, i] @ bstar[:, j]) / nsq[j]
            v -= mu[i, j] * bstar[:, j]
        bstar[:, i] = v
        nsq[i] = v @ v
        if nsq[i] <= 0.0:
            raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    return bstar, mu, nsq


def _round_ties_to_zero(x: float) -> int:
    """Round to nearest integer, half-integers toward zero."""
    a = abs(x)
    q = math.floor(a + 0.5)
    if q - a == 0.5:
        q -= 1
    return int(math.copysign(q, x)) if q else 0


# ---------------------------------------------------------------------------
# reduction report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Outcome of a basis reduction: reduced = original @ transform."""

    reduced_basis: np.ndarray
    transform: np.ndarray  # int64, det +-1 exactly
    gram_schmidt_norms: np.ndarray
    method: str
    original_basis: np.ndarray = field(repr=False, default=None)

    def __post_init__(self):
        if not is_unimodular(self.transform):
            raise ValueError("reduction transform is not unimodular")
        if self.original_basis is not None:
            lhs = self.original_basis @ self.transform.astype(float)
            scale = max(np.abs(self.reduced_basis).max(), 1e-300)
            if np.abs(lhs - self.reduced_basis).max() > 1e-9 * scale:
                raise ValueError("reduced basis does not match original @ transform")


def _make_report(original, u_obj, method) -> ReductionReport:
    u = _as_int_transform(u_obj)
    reduced = original @ u.astype(float)
    _, _, nsq = _gso(reduced)
    return ReductionReport(
        reduced_basis=reduced,
        transform=u,
        gram_schmidt_norms=np.sqrt(nsq),
        method=method,
        original_basis=original,
    )


# ---------------------------------------------------------------------------
# LLL
# ---------------------------------------------------------------------------

# A size reduction by q multiplies the rounding error in mu[j, :j] by |q|;
# beyond this the incremental update could flip a later rounding decision.
_GSO_REFRESH_Q = 32


def _swap_gso(mu: np.ndarray, nsq: np.ndarray, k: int) -> None:
    """Update Gram-Schmidt data in place for the exchange of columns k-1 and k.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3 (SWAP).
    """
    mu_k = mu[k, k - 1]
    new_prev = nsq[k] + mu_k * mu_k * nsq[k - 1]
    if new_prev <= 0.0:
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    new_k = nsq[k - 1] * nsq[k] / new_prev
    if new_k <= 0.0:
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    mu[k, k - 1] = mu_k * nsq[k - 1] / new_prev
    nsq[k - 1], nsq[k] = new_prev, new_k
    mu[[k - 1, k], : k - 1] = mu[[k, k - 1], : k - 1]
    t = mu[k + 1 :, k].copy()
    mu[k + 1 :, k] = mu[k + 1 :, k - 1] - mu_k * t
    mu[k + 1 :, k - 1] = t + mu[k, k - 1] * mu[k + 1 :, k]


def _lll_inplace(cols: np.ndarray, u: np.ndarray, delta: float) -> None:
    """LLL-reduce cols in place, mirroring every integer operation on u.

    The Gram-Schmidt data is computed once and then kept current by the
    incremental size-reduction and swap updates of Cohen's Alg. 2.6.3. It is
    recomputed after a size reduction by |q| > _GSO_REFRESH_Q, as in
    Schnorr & Euchner (1994).
    """
    m = cols.shape[1]
    _, mu, nsq = _gso(cols)
    k = 1
    sweeps = 0
    max_sweeps = 10000 * m * m + 1000
    while k < m:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("LLL failed to terminate (pathological delta?)")
        for j in range(k - 1, -1, -1):
            if abs(mu[k, j]) > 0.5:  # else the rounded coefficient is 0
                q = _round_ties_to_zero(mu[k, j])
                cols[:, k] -= q * cols[:, j]
                u[:, k] = u[:, k] - q * u[:, j]
                if abs(q) > _GSO_REFRESH_Q:
                    _, mu, nsq = _gso(cols)
                else:
                    mu[k, :j] -= q * mu[j, :j]
                    mu[k, j] -= q
        if nsq[k] >= (delta - mu[k, k - 1] ** 2) * nsq[k - 1]:
            k += 1
        else:
            cols[:, [k - 1, k]] = cols[:, [k, k - 1]]
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            _swap_gso(mu, nsq, k)
            k = max(k - 1, 1)


def lll_reduce(basis, delta: float = 0.75) -> ReductionReport:
    """LLL reduction with Lovasz parameter delta in (0.25, 1].

    The output is size-reduced (all |mu| <= 1/2) and satisfies the Lovasz
    condition for consecutive Gram-Schmidt norms; the returned transform is
    unimodular so the lattice itself is unchanged.
    """
    if not 0.25 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0.25, 1], got {delta}")
    original = validate_basis(basis)
    cols = original.copy()
    m = cols.shape[1]
    u = np.array([[1 if i == j else 0 for j in range(m)] for i in range(m)], dtype=object)
    _lll_inplace(cols, u, delta)
    return _make_report(original, u, "lll")


# ---------------------------------------------------------------------------
# exact shortest vector (depth-first enumeration)
# ---------------------------------------------------------------------------

def _enumerate_shortest(mu: np.ndarray, nsq: np.ndarray, init_z: np.ndarray, init_cost: float):
    """Exhaustive search for the shortest nonzero coefficient vector.

    Cost model: ||sum_i z_i b_i||^2 = sum_j nsq[j] * (z_j + sum_{i>j} mu[i,j] z_i)^2.
    The search is complete for any bound >= the initial cost, which is seeded
    with an actual basis vector, so the returned minimum is exact.
    """
    m = len(nsq)
    best_cost = float(init_cost)
    best_z = init_z.copy()
    z = np.zeros(m, dtype=np.int64)

    def descend(level: int, partial: float) -> None:
        nonlocal best_cost, best_z
        center = -sum(mu[i, level] * z[i] for i in range(level + 1, m))
        z0 = _round_ties_to_zero(center)
        for step in itertools.count():
            advanced = False
            for cand in ((z0,) if step == 0 else (z0 + step, z0 - step)):
                cost = partial + nsq[level] * (cand - center) ** 2
                if cost >= best_cost:
                    continue
                advanced = True
                z[level] = cand
                if level == 0:
                    if any(z):
                        best_cost = cost
                        best_z = z.copy()
                else:
                    descend(level - 1, cost)
            z[level] = 0
            if step > 0 and not advanced:
                # both branches exceeded the radius; deeper steps only grow
                break

    descend(m - 1, 0.0)
    return best_z, best_cost


def shortest_vector(basis):
    """Shortest nonzero lattice vector by exact enumeration.

    Returns (coeffs, length) where basis @ coeffs is a shortest vector. The
    enumeration radius is initialized from the shortest vector of an
    LLL-reduced copy, which guarantees exactness.
    """
    original = validate_basis(basis)
    m = original.shape[1]
    if m > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"exact enumeration guarded to dimension {MAX_ENUM_DIM}")
    cols = original.copy()
    u = np.array([[1 if i == j else 0 for j in range(m)] for i in range(m)], dtype=object)
    _lll_inplace(cols, u, 0.99)
    _, mu, nsq = _gso(cols)
    col_norms = np.sum(cols * cols, axis=0)
    seed = int(np.argmin(col_norms))
    init_z = np.zeros(m, dtype=np.int64)
    init_z[seed] = 1
    z, _ = _enumerate_shortest(mu, nsq, init_z, col_norms[seed])
    coeffs_obj = u @ z.astype(object)
    coeffs = _as_int_transform(coeffs_obj.reshape(-1, 1)).ravel()
    length = float(np.linalg.norm(original @ coeffs.astype(float)))
    return coeffs, length


# ---------------------------------------------------------------------------
# Korkin-Zolotarev reduction
# ---------------------------------------------------------------------------

def _size_reduce(cols: np.ndarray, u: np.ndarray) -> None:
    """One full size-reduction sweep: leaves Gram-Schmidt vectors untouched."""
    bstar, _, nsq = _gso(cols)
    m = cols.shape[1]
    for j in range(1, m):
        for i in range(j - 1, -1, -1):
            coeff = (cols[:, j] @ bstar[:, i]) / nsq[i]
            q = _round_ties_to_zero(coeff)
            if q != 0:
                cols[:, j] -= q * cols[:, i]
                u[:, j] = u[:, j] - q * u[:, i]


def _kz_transform(cols: np.ndarray, exact: bool) -> np.ndarray:
    """Recursive KZ transform (object-int matrix) for the given columns.

    Picks a first vector (exact shortest by enumeration, or the first LLL
    vector for the successive-LLL approximation), projects the remaining
    columns onto its orthogonal complement and recurses on the projected
    lattice.
    """
    n, m = cols.shape
    ident = np.array([[1 if i == j else 0 for j in range(m)] for i in range(m)], dtype=object)
    if m == 1:
        return ident

    if exact:
        work = cols.copy()
        u_lll = ident.copy()
        _lll_inplace(work, u_lll, 0.99)
        _, mu, nsq = _gso(work)
        col_norms = np.sum(work * work, axis=0)
        seed = int(np.argmin(col_norms))
        init_z = np.zeros(m, dtype=np.int64)
        init_z[seed] = 1
        z, _ = _enumerate_shortest(mu, nsq, init_z, col_norms[seed])
        coeffs = u_lll @ z.astype(object)
        g = math.gcd(*[int(v) for v in coeffs])
        if g > 1:  # a true shortest vector is primitive; guard against fp artifacts
            coeffs = np.array([int(v) // g for v in coeffs], dtype=object)
        u1 = unimodular_completion(coeffs)
    else:
        u1 = ident.copy()
        work = cols.copy()
        _lll_inplace(work, u1, 0.99)

    b1 = cols @ u1.astype(float)
    f1 = b1[:, 0]
    f1sq = f1 @ f1
    if f1sq <= 0.0:
        raise DegenerateBasis("zero vector selected during KZ recursion")
    tail = b1[:, 1:]
    proj = tail - np.outer(f1, (f1 @ tail) / f1sq)
    u_sub = _kz_transform(proj, exact)
    u2 = np.array(
        [[1 if i == j else 0 for j in range(m)] for i in range(m)], dtype=object
    )
    u2[1:, 1:] = u_sub
    return u1 @ u2


def _kz_common(basis, exact: bool, method: str) -> ReductionReport:
    original = validate_basis(basis)
    u = _kz_transform(original.copy(), exact)
    cols = original @ u.astype(float)
    _size_reduce(cols, u)
    return _make_report(original, u, method)


def kz_reduce(basis) -> ReductionReport:
    """Exact Korkin-Zolotarev reduction.

    Each Gram-Schmidt vector of the output is a shortest nonzero vector of
    the correspondingly projected lattice, and all Gram-Schmidt coefficients
    satisfy |r| <= 1/2. Guarded to dimension 10 because every recursion level
    runs an exact shortest-vector enumeration.
    """
    b = as_matrix(basis, "basis")
    if b.shape[1] > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"exact KZ guarded to dimension {MAX_ENUM_DIM}")
    return _kz_common(b, exact=True, method="kz_exact")


def kz_approx_successive_lll(basis) -> ReductionReport:
    """KZ approximation: LLL applied successively on shrinking projections.

    Identical recursion to kz_reduce but the first vector at each level is
    taken from LLL instead of exact enumeration; the result is exact KZ
    whenever those LLL first vectors happen to be true shortest vectors.
    No dimension guard (nothing is enumerated).
    """
    return _kz_common(as_matrix(basis, "basis"), exact=False, method="kz_successive_lll")


def is_kz_reduced(basis, tol: float = 1e-9) -> bool:
    """Verify both KZ conditions by explicit enumeration of projected lattices."""
    cols = validate_basis(basis)
    m = cols.shape[1]
    if m > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"KZ verification guarded to dimension {MAX_ENUM_DIM}")
    bstar, mu, nsq = _gso(cols)
    # condition (b): size-reduced coefficients
    for i in range(m):
        for j in range(i + 1, m):
            if abs(mu[j, i]) > 0.5 + tol:
                return False
    # condition (a): each projected Gram-Schmidt vector is a projected-lattice shortest
    for i in range(m):
        proj = cols[:, i:].copy()
        for k in range(i):
            proj -= np.outer(bstar[:, k], (bstar[:, k] @ proj) / nsq[k])
        _, length = shortest_vector(proj)
        if math.sqrt(nsq[i]) > length * (1.0 + tol):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive integer-matrix optimizer (correctness oracle)
# ---------------------------------------------------------------------------

def brute_force_min_max(g, entry_bound: int, objective: str = "successive_if"):
    """Minimize a Cholesky-diagonal objective over bounded integer matrices.

    Searches all full-rank integer matrices A with entries in
    [-entry_bound, entry_bound], evaluating the Cholesky factor L of
    A @ (g g^T) @ A^T. Objectives:

    - "successive_if": max_k L[k,k]^2 (worst per-step prediction residual)
    - "standard_if":   max_k sum_i L[k,i]^2 (worst equation row norm)

    Returns (A, value). Ties are broken by smallest Frobenius norm, then by
    lexicographic order of the flattened entries, so results are stable.

    The search is a depth-first branch-and-bound over ordered row prefixes,
    exhaustive because both objectives are monotone in the prefix maximum.
    The objective is invariant under per-row sign flips, so only sign
    representatives are enumerated and each surviving matrix is canonicalized
    to its lexicographically smallest sign variant, which reproduces the
    tie-break of a full scan.
    """
    g = as_matrix(g, "G")
    m = g.shape[0]
    if g.shape[1] != m:
        raise ValueError("G must be square")
    if m > MAX_BRUTE_DIM:
        raise DimensionTooLarge(f"exhaustive search guarded to dimension {MAX_BRUTE_DIM}")
    if not 1 <= int(entry_bound) <= MAX_BRUTE_BOUND:
        raise ValueError(f"entry_bound must be in [1, {MAX_BRUTE_BOUND}]")
    if objective not in ("successive_if", "standard_if"):
        raise ValueError(f"unknown objective {objective!r}")
    b = int(entry_bound)

    reps = [
        v
        for v in itertools.product(range(-b, b + 1), repeat=m)
        if any(v) and next(x for x in v if x != 0) > 0
    ]
    cand = np.array(reps, dtype=np.int64)
    vecs = cand.astype(float) @ g  # row i = a_i^T G
    norms_sq = np.sum(vecs * vecs, axis=1)
    gram = g @ g.T
    rank_thresh = 1e-9 * float(norms_sq.max())
    successive = objective == "successive_if"

    def chol_value(a_rows: np.ndarray) -> float:
        l = cholesky_lower(a_rows.astype(float) @ gram @ a_rows.astype(float).T)
        if successive:
            return float(np.max(np.diag(l) ** 2))
        return float(np.max(np.sum(l * l, axis=1)))

    # Each enumerated row's first nonzero entry is positive, so its
    # lexicographically smallest sign variant is its negation.
    canon_rows = [tuple(-int(v) for v in row) for row in reps]
    row_frob = [int(v) for v in np.sum(cand * cand, axis=1)]
    best = {"value": math.inf, "frob": None, "rows": None}

    def consider(rows: list, value: float) -> None:
        tie = 1e-12 * max(1.0, best["value"] if math.isfinite(best["value"]) else 1.0)
        if value > best["value"] + tie:
            return
        frob = sum(row_frob[i] for i in rows)
        if value < best["value"] - tie or frob < best["frob"] or (
            frob == best["frob"]
            and [canon_rows[i] for i in rows] < [canon_rows[i] for i in best["rows"]]
        ):
            best.update(value=value, frob=frob, rows=rows)

    ident = [reps.index(tuple(int(i == j) for j in range(m))) for i in range(m)]
    consider(ident, chol_value(np.eye(m)))  # always feasible, seeds the bound

    def independent(chosen: list, idx: int, resid: float) -> bool:
        if resid > rank_thresh:
            return True  # a dependent row would have residual at fp-noise level
        return int_rank(cand[chosen + [idx]]) == len(chosen) + 1

    def descend(chosen: list, resid_sq: np.ndarray, ortho: list, partial_max: float) -> None:
        level_val = resid_sq if successive else norms_sq
        order = np.argsort(level_val, kind="stable")
        last = len(chosen) == m - 1
        node_best = None
        for idx in order:
            lv = float(level_val[idx])
            value = max(partial_max, lv)
            tie = 1e-12 * max(1.0, best["value"])
            if value > best["value"] + tie:
                break  # ascending level values: the rest only get worse
            if last:
                if node_best is not None and value > node_best + tie:
                    break  # worse than this node's own optimum: never a global tie
                if not independent(chosen, idx, float(resid_sq[idx])):
                    continue
                if node_best is None:
                    node_best = value
                consider(chosen + [idx], value)
            else:
                if not independent(chosen, idx, float(resid_sq[idx])):
                    continue
                v = vecs[idx].copy()
                for q in ortho:
                    v -= (v @ q) * q
                vn = np.linalg.norm(v)
                if vn <= 0.0:
                    continue
                q = v / vn
                child_resid = np.maximum(resid_sq - (vecs @ q) ** 2, 0.0)
                descend(chosen + [idx], child_resid, ortho + [q], value)

    descend([], norms_sq.copy(), [], 0.0)

    if best["rows"] is None:  # unreachable for entry_bound >= 1
        raise NoFullRankCandidate("no full-rank integer matrix in the search box")
    a = np.array([canon_rows[i] for i in best["rows"]], dtype=np.int64)
    return a, chol_value(a)
