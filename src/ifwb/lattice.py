"""Lattice basis reduction with exact unimodular transform tracking.

Bases are real matrices whose columns are the basis vectors. Reductions
return a ReductionReport carrying the reduced basis, the integer transform U
with reduced = original @ U, the Gram-Schmidt norms of the reduced basis and
a method tag. Transforms are tracked in exact integer arithmetic (Python
ints), so det(U) = +-1 is checked exactly, not numerically. The Gram-Schmidt
data comes from one Householder QR (_gso); the reduction loops then keep it
current on Python lists (one float list per column, mu as a list of rows)
with the same IEEE operations, in the same order, as numpy elementwise. Only
_gso, the dot products of _size_reduce and the last search level of the
brute-force oracle (one pass over its sorted candidates per incumbent) run
in numpy.

Exact routines (shortest vector, KZ) are guarded to dimension 10; they rely
on depth-first enumeration with a radius seeded by an actual lattice vector,
which makes the search provably exhaustive. Exact KZ works on one basis: LLL
once, then at each level k the shortest vector of the lattice projected
orthogonally to the first k columns is enumerated from the current
Gram-Schmidt data, inserted at k by unimodular column operations, and the
columns after k are LLL-reduced again, so the transform stays reduced (Zhang,
Qiao & Wei, IEEE TSP 2012; the insertion step of Schnorr & Euchner's BKZ,
1994).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, DimensionTooLarge
from .linalg import as_matrix, cholesky_lower

MAX_ENUM_DIM = 10
MAX_BRUTE_DIM = 3
MAX_BRUTE_BOUND = 5


# ---------------------------------------------------------------------------
# exact integer helpers
# ---------------------------------------------------------------------------

def int_det(a) -> int:
    """Exact determinant of an integer matrix via fraction-free (Bareiss) elimination."""
    arr = np.asarray(a)
    mat = (arr.astype(np.int64) if arr.dtype.kind in "fb" else arr).tolist()
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


def is_unimodular(u) -> bool:
    """True iff u is integer with determinant exactly +-1."""
    arr = np.asarray(u)
    if arr.dtype.kind == "f" and not np.all(arr == np.round(arr)):
        return False
    return abs(int_det(arr)) == 1


def _identity(m: int) -> list:
    """m x m identity as exact Python-int columns."""
    return [[int(i == j) for i in range(m)] for j in range(m)]


def _matrix(cols: list, dtype=np.int64) -> np.ndarray:
    """The C-ordered matrix with the given column lists; int64 refuses silent overflow."""
    if dtype is np.int64 and any(abs(v) >= 2 ** 62 for col in cols for v in col):
        raise OverflowError("unimodular transform entries exceed int64 range")
    return np.array(cols, dtype=dtype).T.copy()


# ---------------------------------------------------------------------------
# basis validation and Gram-Schmidt data
# ---------------------------------------------------------------------------

def validate_basis(b) -> np.ndarray:
    """Check that the columns of b are linearly independent basis vectors."""
    b = as_matrix(b, "basis")
    n, m = b.shape
    if n < m:
        raise DegenerateBasis(f"{m} basis vectors in ambient dimension {n}")
    # det(B^T B) <= (1e-12 * max|B^T B|)^m, taken in logs and on B scaled by
    # a power of two to max|B| < 1 (exact, so an integer basis keeps an exact
    # zero determinant), so that neither side overflows or underflows
    unit = np.ldexp(b, -int(np.frexp(np.abs(b).max())[1]))
    gram = unit.T @ unit
    sign, logdet = np.linalg.slogdet(gram)
    if sign <= 0 or logdet <= m * math.log(1e-12 * np.abs(gram).max()):
        raise DegenerateBasis("basis columns are (numerically) linearly dependent")
    return b


def _gso(cols: np.ndarray):
    """Gram-Schmidt data: orthogonal vectors, coefficients mu[i][j] (j < i), squared norms.

    Read off one Householder QR, cols = Q R: with d the diagonal of R, the
    Gram-Schmidt vectors are Q d, their squared norms d^2, and
    mu[i][j] = R[j][i] / d[j].
    """
    q, r = np.linalg.qr(cols)
    d = np.diag(r)
    nsq = d * d
    if (nsq <= 0.0).any():
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    return q * d, np.tril((r / d[:, None]).T, -1), nsq


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
    method: str
    original_basis: np.ndarray = field(repr=False)

    @functools.cached_property
    def gram_schmidt_norms(self) -> np.ndarray:
        """Gram-Schmidt norms of the reduced basis, computed on first read."""
        return np.sqrt(_gso(self.reduced_basis)[2])

    def __post_init__(self):
        if not is_unimodular(self.transform):
            raise ValueError("reduction transform is not unimodular")
        lhs = self.original_basis @ self.transform.astype(float)
        scale = max(np.abs(self.reduced_basis).max(), 1e-300)
        if np.abs(lhs - self.reduced_basis).max() > 1e-9 * scale:
            raise ValueError("reduced basis does not match original @ transform")


def _make_report(original, u: list, method) -> ReductionReport:
    t = _matrix(u)
    return ReductionReport(
        reduced_basis=original @ t.astype(float),
        transform=t,
        method=method,
        original_basis=original,
    )


# ---------------------------------------------------------------------------
# LLL
# ---------------------------------------------------------------------------

# A size reduction by q multiplies the rounding error in mu[j, :j] by |q|;
# beyond this the incremental update could flip a later rounding decision.
_GSO_REFRESH_Q = 32


def _swap_gso(mu: list, nsq: list, k: int) -> None:
    """Update Gram-Schmidt data in place for the exchange of columns k-1 and k.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.3 (SWAP).
    """
    mu_k = mu[k][k - 1]
    new_prev = nsq[k] + mu_k * mu_k * nsq[k - 1]
    if new_prev <= 0.0 or (new_k := nsq[k - 1] * nsq[k] / new_prev) <= 0.0:
        raise DegenerateBasis("zero Gram-Schmidt norm encountered")
    row_prev, row_k = mu[k - 1], mu[k]
    new_mu = row_k[k - 1] = mu_k * nsq[k - 1] / new_prev
    nsq[k - 1], nsq[k] = new_prev, new_k
    row_prev[: k - 1], row_k[: k - 1] = row_k[: k - 1], row_prev[: k - 1]
    for row in mu[k + 1 :]:
        t = row[k]
        row[k] = row[k - 1] - mu_k * t
        row[k - 1] = t + new_mu * row[k]


def _lll_inplace(cols: list, u: list, delta: float, lo: int = 0):
    """LLL-reduce the column lists cols in place, mirroring every integer operation on u.

    Columns before lo are held fixed: they serve for size reduction but are
    never swapped, so only the projection of cols[lo:] orthogonal to them
    is reduced. Returns the Gram-Schmidt data (mu, nsq) of the result.

    The Gram-Schmidt data is computed once by _gso and then kept current by
    the incremental size-reduction and swap updates of Cohen's Alg. 2.6.3.
    It is recomputed after a size reduction by |q| > _GSO_REFRESH_Q, as in
    Schnorr & Euchner (1994).
    """
    m = len(cols)
    _, mu, nsq = _gso(_matrix(cols, float))
    mu, nsq = mu.tolist(), nsq.tolist()
    k = max(lo, 1)
    sweeps = 0
    max_sweeps = 10000 * m * m + 1000
    while k < m:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError("LLL failed to terminate (pathological delta?)")
        row = mu[k]
        for j in range(k - 1, -1, -1):
            if abs(row[j]) > 0.5:  # else the rounded coefficient is 0
                q = _round_ties_to_zero(row[j])
                cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                if abs(q) > _GSO_REFRESH_Q:
                    _, mu, nsq = _gso(_matrix(cols, float))
                    mu, nsq = mu.tolist(), nsq.tolist()
                    row = mu[k]
                else:
                    row[:j] = [a - q * b for a, b in zip(row, mu[j][:j])]
                    row[j] -= q
        if k == lo or nsq[k] >= (delta - row[k - 1] ** 2) * nsq[k - 1]:
            k += 1
        else:
            cols[k - 1], cols[k] = cols[k], cols[k - 1]
            u[k - 1], u[k] = u[k], u[k - 1]
            _swap_gso(mu, nsq, k)
            k = max(k - 1, lo, 1)
    return mu, nsq


def lll_reduce(basis, delta: float = 0.75) -> ReductionReport:
    """LLL reduction with Lovasz parameter delta in (0.25, 1].

    The output is size-reduced (all |mu| <= 1/2) and satisfies the Lovasz
    condition for consecutive Gram-Schmidt norms; the returned transform is
    unimodular so the lattice itself is unchanged.
    """
    if not 0.25 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0.25, 1], got {delta}")
    original = validate_basis(basis)
    u = _identity(original.shape[1])
    _lll_inplace(original.T.tolist(), u, delta)
    return _make_report(original, u, "lll")


# ---------------------------------------------------------------------------
# exact shortest vector (depth-first enumeration)
# ---------------------------------------------------------------------------

def _enumerate_shortest(mu: list, nsq: list, k: int, init_z: list, init_cost: float):
    """Exhaustive search for the shortest nonzero coefficient vector over columns k...

    Cost model: ||sum_i z_i b_i||^2 = sum_{j>=k} nsq[j] * (z_j + sum_{i>j} mu[i][j] z_i)^2,
    the lattice projected orthogonally to the first k columns. The search is
    complete for any bound >= the initial cost, which is seeded with an
    actual basis vector, so the returned minimum is exact.
    """
    m = len(nsq)
    best_cost = float(init_cost)
    best_z = init_z
    z = [0] * m

    def descend(level: int, partial: float) -> None:
        nonlocal best_cost, best_z
        center = 0
        for i in range(level + 1, m):
            center -= mu[i][level] * z[i]
        z0 = _round_ties_to_zero(center)
        for step in itertools.count():
            advanced = False
            for cand in ((z0,) if step == 0 else (z0 + step, z0 - step)):
                cost = partial + nsq[level] * (cand - center) ** 2
                if cost >= best_cost:
                    continue
                advanced = True
                z[level] = cand
                if level == k:
                    if any(z):
                        best_cost = cost
                        best_z = z[k:]
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
    cols = original.T.tolist()
    u = _identity(m)
    mu, nsq = _lll_inplace(cols, u, 0.99)
    reduced = _matrix(cols, float)
    col_norms = np.sum(reduced * reduced, axis=0)
    seed = int(np.argmin(col_norms))
    z, _ = _enumerate_shortest(mu, nsq, 0, _identity(m)[seed], col_norms[seed])
    coeffs = _matrix([[sum(c * v for c, v in zip(row, z)) for row in zip(*u)]]).ravel()
    length = float(np.linalg.norm(original @ coeffs.astype(float)))
    return coeffs, length


# ---------------------------------------------------------------------------
# Korkin-Zolotarev reduction
# ---------------------------------------------------------------------------

def _size_reduce(cols: np.ndarray, u: list) -> None:
    """One full size-reduction sweep of the array cols: leaves Gram-Schmidt vectors untouched."""
    bstar, _, nsq = _gso(cols)
    m = cols.shape[1]
    for j in range(1, m):
        for i in range(j - 1, -1, -1):
            coeff = (cols[:, j] @ bstar[:, i]) / nsq[i]
            q = _round_ties_to_zero(coeff)
            if q != 0:
                cols[:, j] -= q * cols[:, i]
                u[j] = [a - q * b for a, b in zip(u[j], u[i])]


def _insert(cols: list, u: list, k: int, z: list) -> None:
    """Make sum_i z_i cols[k + i] column k by unimodular operations on cols[k:].

    Euclid's algorithm on the coefficients: z_j -= q z_p together with
    b_p += q b_j keeps sum_i z_i b_i fixed. Once one coefficient is left it
    is +-1 (z is primitive), and its column, signed, is swapped to k.
    """
    g = math.gcd(*z)  # a shortest vector is primitive; guard fp artifacts
    z = [v // g for v in z]
    while True:
        nz = [i for i, v in enumerate(z) if v]
        if len(nz) == 1:
            break
        p = min(nz, key=lambda i: abs(z[i]))
        for j in nz:
            q = z[j] // z[p]
            if j != p and q:
                z[j] -= q * z[p]
                cols[k + p] = [a + q * b for a, b in zip(cols[k + p], cols[k + j])]
                u[k + p] = [a + q * b for a, b in zip(u[k + p], u[k + j])]
    s = k + nz[0]
    if z[nz[0]] < 0:
        cols[s] = [-a for a in cols[s]]
        u[s] = [-a for a in u[s]]
    cols[k], cols[s] = cols[s], cols[k]
    u[k], u[s] = u[s], u[k]


def kz_reduce(basis) -> ReductionReport:
    """Exact Korkin-Zolotarev reduction by insertion into one LLL basis.

    Each Gram-Schmidt vector of the output is a shortest nonzero vector of
    the correspondingly projected lattice, and all Gram-Schmidt coefficients
    satisfy |r| <= 1/2. Each level's shortest vector is inserted into one
    LLL-reduced basis (Zhang, Qiao & Wei, "HKZ and Minkowski reduction
    algorithms for lattice-reduced MIMO detection", IEEE TSP 60(11), 2012).
    Guarded to dimension 10 because every level runs an exact enumeration.
    """
    b = as_matrix(basis, "basis")
    if b.shape[1] > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"exact KZ guarded to dimension {MAX_ENUM_DIM}")
    original = validate_basis(b)
    m = original.shape[1]
    cols = original.T.tolist()
    u = _identity(m)
    mu, nsq = _lll_inplace(cols, u, 0.99)
    for k in range(m - 1):
        z, _ = _enumerate_shortest(mu, nsq, k, [1] + [0] * (m - k - 1), nsq[k])
        if any(z[1:]):
            _insert(cols, u, k, z)  # changes columns k... only
            mu, nsq = _lll_inplace(cols, u, 0.99, lo=k + 1)
    _size_reduce(original @ _matrix(u, float), u)
    return _make_report(original, u, "kz_exact")


def kz_approx_successive_lll(basis) -> ReductionReport:
    """KZ approximation: LLL with delta = 0.99, then one size reduction.

    The projections of an LLL-reduced basis are LLL-reduced themselves, so
    this is also LLL applied successively on shrinking projections. No
    dimension guard (nothing is enumerated); KZ optimality is not guaranteed.
    """
    original = validate_basis(basis)
    u = _identity(original.shape[1])
    _lll_inplace(original.T.tolist(), u, 0.99)
    _size_reduce(original @ _matrix(u, float), u)
    return _make_report(original, u, "kz_successive_lll")


def is_kz_reduced(basis, tol: float = 1e-9) -> bool:
    """Verify both KZ conditions by explicit enumeration of projected lattices."""
    cols = validate_basis(basis)
    m = cols.shape[1]
    if m > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"KZ verification guarded to dimension {MAX_ENUM_DIM}")
    bstar, mu, nsq = _gso(cols)
    if np.abs(mu).max() > 0.5 + tol:  # condition (b): size-reduced coefficients
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
    tie-break of a full scan. The last row is chosen by a numpy scan of the
    node's candidates in ascending order, one pass per change of the
    incumbent (scan_last), not by one Python step per candidate.
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
    successive = objective == "successive_if"

    def chol_value(a_rows: np.ndarray) -> float:
        l = cholesky_lower(a_rows.astype(float) @ gram @ a_rows.astype(float).T)
        if successive:
            return float(np.max(np.diag(l) ** 2))
        return float(np.max(np.sum(l * l, axis=1)))

    # Each enumerated row's first nonzero entry is positive, so its
    # lexicographically smallest sign variant is its negation; reps ascend
    # lexicographically, so these descend and rank in reverse.
    canon_rows = [tuple(row) for row in (-cand).tolist()]
    canon_rank = np.arange(len(reps))[::-1]
    frob_arr = np.sum(cand * cand, axis=1)
    row_frob = [int(v) for v in frob_arr]
    # A = I is always feasible and seeds the bound
    ident = [reps.index(tuple(int(i == j) for j in range(m))) for i in range(m)]
    best = {"value": chol_value(np.eye(m)), "frob": m, "rows": ident}

    def consider(rows: list, value: float) -> None:
        """Make rows the incumbent if better; value is at most the incumbent's plus the tie."""
        tie = 1e-12 * max(1.0, best["value"])
        frob = sum(row_frob[i] for i in rows)
        if value < best["value"] - tie or frob < best["frob"] or (
            frob == best["frob"]
            and [canon_rows[i] for i in rows] < [canon_rows[i] for i in best["rows"]]
        ):
            best.update(value=value, frob=frob, rows=rows)

    c = list(cand.T)

    def independent(chosen: list) -> np.ndarray:
        """Exact mask of the candidates independent of the chosen rows (M <= 3)."""
        if not chosen:
            return np.ones(len(reps), dtype=bool)
        r = reps[chosen[0]]
        if m == 2:  # 2x2 determinant
            return r[0] * c[1] - r[1] * c[0] != 0
        if len(chosen) == 1:  # nonzero cross product
            return ((r[1] * c[2] - r[2] * c[1] != 0) | (r[2] * c[0] - r[0] * c[2] != 0)
                    | (r[0] * c[1] - r[1] * c[0] != 0))
        s = reps[chosen[1]]  # nonzero triple product
        return ((r[1] * s[2] - r[2] * s[1]) * c[0] + (r[2] * s[0] - r[0] * s[2]) * c[1]
                + (r[0] * s[1] - r[1] * s[0]) * c[2] != 0)

    def scan_last(chosen: list, indep: np.ndarray, order: np.ndarray, vals: np.ndarray) -> None:
        """The last level, one numpy pass per incumbent over the ascending vals.

        Between two replacements of the incumbent every candidate's outcome
        in consider is fixed, so only the first independent candidate (which
        sets node_best) and each one that would replace the incumbent are
        passed to consider. After the first, no value is below the
        incumbent's minus the tie (the first either became the incumbent or
        was not below it), so a later one replaces only on the tie-break.
        """
        prefix = [canon_rows[i] for i in chosen]
        prefix_frob = sum(row_frob[i] for i in chosen)
        node_best = None
        start = 0
        while True:
            tie = 1e-12 * max(1.0, best["value"])
            bound = best["value"] + tie
            if node_best is not None:
                # beyond node_best + tie: worse than this node's own optimum,
                # never a global tie
                bound = min(bound, node_best + tie)
            end = int(vals.searchsorted(bound, side="right"))
            window = order[start:end]
            hit = indep[window]
            if node_best is not None:
                best_prefix = [canon_rows[i] for i in best["rows"][:-1]]
                if prefix == best_prefix:
                    smaller = canon_rank[window] < canon_rank[best["rows"][-1]]
                else:
                    smaller = prefix < best_prefix
                frob = frob_arr[window] + prefix_frob
                hit &= (frob < best["frob"]) | ((frob == best["frob"]) & smaller)
            if not hit.any():
                return
            i = start + int(hit.argmax())
            if node_best is None:
                node_best = float(vals[i])
            consider(chosen + [int(order[i])], float(vals[i]))
            start = i + 1

    def descend(chosen: list, resid_sq: np.ndarray, ortho: list, partial_max: float) -> None:
        indep = independent(chosen)
        level_val = resid_sq if successive else norms_sq
        order = np.argsort(level_val, kind="stable")
        if len(chosen) == m - 1:
            scan_last(chosen, indep, order, np.maximum(partial_max, level_val[order]))
            return
        for idx in order:
            value = max(partial_max, float(level_val[idx]))
            if value > best["value"] + 1e-12 * max(1.0, best["value"]):
                break  # ascending level values: the rest only get worse
            if not indep[idx]:
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
    a = np.array([canon_rows[i] for i in best["rows"]], dtype=np.int64)
    return a, chol_value(a)
