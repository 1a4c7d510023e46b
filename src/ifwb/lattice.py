"""Lattice basis reduction with exact unimodular transform tracking.

Bases are real matrices whose columns are the basis vectors. Reductions
return a ReductionReport carrying the reduced basis, the integer transform U
with reduced = original @ U, the Gram-Schmidt norms of the reduced basis and
a method tag. Transforms are tracked in exact integer arithmetic (Python
ints), so det(U) = +-1 is checked exactly, not numerically. The Gram-Schmidt
data comes from one Householder QR (_gso); the reduction loops then keep it
current on Python lists (one float list per column, mu as a list of rows)
with the same IEEE operations, in the same order, as numpy elementwise. Only
_gso and the last search level of the brute-force oracle (one pass over its
candidates per node) run in numpy.

Exact routines (shortest vector, KZ) are guarded to dimension 10; they rely
on one depth-first enumeration (_shortest) with a radius seeded by an actual
lattice vector, which makes the search provably exhaustive. Vectors whose
lengths agree to a relative 1e-12 are ties, decided by their coefficients
over the input basis, so an orthogonal basis keeps its own columns. Exact KZ
works on one basis: LLL once, then at each level k the shortest vector of the
lattice projected orthogonally to the first k columns is enumerated from the
current Gram-Schmidt data, inserted at k by unimodular column operations, and
the columns after k are LLL-reduced again, so the transform stays reduced
(Zhang, Qiao & Wei, IEEE TSP 2012; the insertion step of Schnorr & Euchner's
BKZ, 1994).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBasis, DimensionTooLarge, IfwbError
from .linalg import as_matrix, cholesky_lower

MAX_ENUM_DIM = 10
MAX_BRUTE_DIM = 3
MAX_BRUTE_BOUND = 5
_KZ_TOL = 1e-9  # is_kz_reduced's relative slack on both conditions


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


def _integer_det(u) -> int:
    """det u, exact, or 0 when u has a non-integer entry."""
    arr = np.asarray(u)
    if arr.dtype.kind == "f" and not np.all(arr == np.round(arr)):
        return 0
    return int_det(arr)


def is_unimodular(u) -> bool:
    """True iff u is integer with determinant exactly +-1."""
    return abs(_integer_det(u)) == 1


def _identity(m: int) -> list:
    """m x m identity as exact Python-int columns."""
    return [[int(i == j) for i in range(m)] for j in range(m)]


def _matrix(cols: list, dtype=np.int64) -> np.ndarray:
    """The C-ordered matrix with the given column lists; int64 refuses silent overflow."""
    if dtype is np.int64 and any(abs(v) >= 2 ** 62 for col in cols for v in col):
        raise IfwbError("unimodular transform entries exceed int64 range")
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

    reduced_basis: np.ndarray = field(init=False)  # original_basis @ transform
    transform: np.ndarray  # int64, det +-1 exactly
    method: str
    original_basis: np.ndarray = field(repr=False)
    det: int = field(init=False, repr=False)  # det(transform), +-1, from the check below

    @functools.cached_property
    def gram_schmidt_norms(self) -> np.ndarray:
        """Gram-Schmidt norms of the reduced basis, computed on first read."""
        return np.sqrt(_gso(self.reduced_basis)[2])

    def __post_init__(self):
        det = _integer_det(self.transform)
        if abs(det) != 1:
            raise ValueError("reduction transform is not unimodular")
        object.__setattr__(self, "det", det)
        object.__setattr__(self, "reduced_basis", self.original_basis @ self.transform.astype(float))


def _make_report(original, u: list, method) -> ReductionReport:
    return ReductionReport(transform=_matrix(u), method=method, original_basis=original)


# ---------------------------------------------------------------------------
# LLL
# ---------------------------------------------------------------------------

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


def _size_reduce_column(cols: list, u: list, mu: list, k: int) -> None:
    """Size-reduce column k against the columns before it, keeping row k of mu current."""
    row = mu[k]
    for j in range(k - 1, -1, -1):
        if abs(row[j]) > 0.5:  # else the rounded coefficient is 0
            q = _round_ties_to_zero(row[j])
            cols[k] = [a - q * b for a, b in zip(cols[k], cols[j])]
            u[k] = [a - q * b for a, b in zip(u[k], u[j])]
            row[:j] = [a - q * b for a, b in zip(row, mu[j][:j])]
            row[j] -= q


def _lll_inplace(cols: list, u: list, delta: float, lo: int = 0):
    """LLL-reduce the column lists cols in place, mirroring every integer operation on u.

    Columns before lo are held fixed: they serve for size reduction but are
    never swapped, so only the projection of cols[lo:] orthogonal to them
    is reduced. Returns the Gram-Schmidt data (mu, nsq) of the result.

    The Gram-Schmidt data is computed once by _gso and then kept current by
    the incremental size-reduction and swap updates of Cohen's Alg. 2.6.3.
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
        _size_reduce_column(cols, u, mu, k)
        if k == lo or nsq[k] >= (delta - mu[k][k - 1] ** 2) * nsq[k - 1]:
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
    return _make_report(original, _lll(original, delta)[1], "lll")


def _lll(original: np.ndarray, delta: float, start: np.ndarray | None = None):
    """A validated basis LLL-reduced: its columns, transform and Gram-Schmidt data.

    With start, an integer matrix, LLL runs on original @ start, which must
    pass validate_basis, and the transform starts at start, so it is still
    over original.
    """
    if start is None:
        cols, u = original.T.tolist(), _identity(original.shape[1])
    else:
        cols, u = validate_basis(original @ start).T.tolist(), start.T.tolist()
    return (cols, u, *_lll_inplace(cols, u, delta))


# ---------------------------------------------------------------------------
# exact shortest vector (depth-first enumeration)
# ---------------------------------------------------------------------------

_TIE = 1e-12  # projected costs within this relative distance of the least tie
# A started reduction keeps its shortest vectors only where no other vector
# comes within this relative distance, and its Gram-Schmidt coefficients
# only where each is this far inside 1/2 (kz_reduce).
_START_MARGIN = 1e-6


def _shortest(mu: list, nsq: list, u: list, k: int, margin: float = 0.0) -> list | None:
    """Shortest nonzero coefficient vector over columns k..., ties broken reproducibly.

    Cost model: ||sum_i z_i b_i||^2 = sum_{j>=k} nsq[j] * (z_j + sum_{i>j} mu[i][j] z_i)^2,
    the lattice projected orthogonally to the first k columns. The radius
    starts at nsq[k], the cost of column k itself, so the depth-first
    Schnorr-Euchner search is exhaustive. Of z and -z only the one whose last
    nonzero entry is positive is visited. Among costs within a relative _TIE
    of the least, the largest sign-normalized coefficient vector over the
    input basis, sum_i z_i u[k + i] (u the transform's columns), wins.

    With margin > _TIE the search also reaches costs within a relative margin
    of the least, and returns None if any vector but the winner has one: the
    winner is then not clear of the rounding. The winner itself is the same.
    """
    m = len(nsq)
    best_z, best_key, best_cost = [1] + [0] * (m - k - 1), None, nsq[k]
    lower, radius = best_cost * (1.0 - _TIE), best_cost * (1.0 + _TIE)
    reach, best_z_cost, second = max(radius, best_cost * (1.0 + margin)), best_cost, math.inf
    z = [0] * m

    def key(zk: list) -> list:
        v = [sum(c * col[r] for c, col in zip(zk, u[k:])) for r in range(len(u[0]))]
        return v if next(a for a in v if a) > 0 else [-a for a in v]

    def descend(level: int, partial: float, signed: bool) -> None:
        nonlocal best_z, best_key, best_cost, lower, radius, reach, best_z_cost, second
        center = 0
        for i in range(level + 1, m):
            center -= mu[i][level] * z[i]
        z0 = _round_ties_to_zero(center)
        for step in itertools.count():
            advanced = False
            # while z is 0 above this level, center is 0 and only z >= 0 is tried
            for cand in ((z0,) if step == 0 else (z0 + step, z0 - step) if signed else (step,)):
                cost = partial + nsq[level] * (cand - center) ** 2
                if cost > reach:
                    continue
                advanced = True
                z[level] = cand
                if level > k:
                    descend(level - 1, cost, signed or cand != 0)
                elif signed or cand:
                    if cost > radius:  # beyond the ties, within the margin
                        second = min(second, cost)
                    elif cost < lower:
                        second = min(second, best_z_cost)
                        best_z, best_key, best_z_cost = z[k:], None, cost
                    elif z[k:] != best_z:  # a tie with another vector
                        best_key = best_key or key(best_z)
                        if (cand_key := key(z[k:])) > best_key:
                            second = min(second, best_z_cost)
                            best_z, best_key, best_z_cost = z[k:], cand_key, cost
                        else:
                            second = min(second, cost)
                    if cost < best_cost:
                        best_cost = cost
                        lower, radius = cost * (1.0 - _TIE), cost * (1.0 + _TIE)
                        reach = max(radius, cost * (1.0 + margin))
            z[level] = 0
            if step > 0 and not advanced:
                # both branches exceeded the radius; deeper steps only grow
                break

    descend(m - 1, 0.0, False)
    return None if margin and second <= reach else best_z


def shortest_vector(basis):
    """Shortest nonzero lattice vector by exact enumeration.

    Returns (coeffs, length) where basis @ coeffs is a shortest vector,
    enumerated on an LLL-reduced copy within the length of its first column.
    Of vectors equally short to a relative 1e-12, the one with the largest
    sign-normalized coeffs (compared lexicographically) is returned.
    """
    original = validate_basis(basis)
    if original.shape[1] > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"exact enumeration guarded to dimension {MAX_ENUM_DIM}")
    _, u, mu, nsq = _lll(original, 0.99)
    z = _shortest(mu, nsq, u, 0)
    coeffs = _matrix([[sum(c * v for c, v in zip(row, z)) for row in zip(*u)]]).ravel()
    length = float(np.linalg.norm(original @ coeffs.astype(float)))
    return coeffs, length


# ---------------------------------------------------------------------------
# Korkin-Zolotarev reduction
# ---------------------------------------------------------------------------

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


def kz_reduce(basis, start=None) -> ReductionReport:
    """Exact Korkin-Zolotarev reduction by insertion into one LLL basis.

    Each Gram-Schmidt vector of the output is a shortest nonzero vector of
    the correspondingly projected lattice, and all Gram-Schmidt coefficients
    satisfy |r| <= 1/2. Each level's shortest vector is inserted into one
    LLL-reduced basis (Zhang, Qiao & Wei, "HKZ and Minkowski reduction
    algorithms for lattice-reduced MIMO detection", IEEE TSP 60(11), 2012).
    Ties among equally short vectors go to the largest input-basis
    coefficients, so an orthogonal basis keeps the transform I. Guarded to
    dimension 10 because every level runs an exact enumeration.

    start, an M x M integer matrix that must be unimodular, is the transform
    to start from: the reduction runs on basis @ start, while the transform
    and the tie key stay over basis. From a nearby lattice's transform (the
    previous SNR of a sweep) LLL and the insertions have less to do. The
    result is kz_reduce(basis)'s up to column signs: each level's shortest
    vector is kept only where every other vector is a relative
    _START_MARGIN longer, and the result only where every Gram-Schmidt
    coefficient is _START_MARGIN inside 1/2. Then each column is the one
    size-reduced lift of the same projected vector, whatever the start and
    the rounding. Otherwise a tie could go to another vector, since the tie
    key reads the lifts the start leads to, and the reduction runs again
    without the start. A start that is not unimodular fails the report's
    check.
    """
    original = validate_basis(basis)
    m = original.shape[1]
    if m > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"exact KZ guarded to dimension {MAX_ENUM_DIM}")
    margin = 0.0
    if start is not None:
        start = np.asarray(start)
        if start.shape != (m, m) or start.dtype.kind not in "iu":
            raise ValueError(f"start must be an integer {m}x{m} matrix, "
                             f"got {start.dtype} of shape {start.shape}")
        margin = _START_MARGIN
    cols, u, mu, nsq = _lll(original, 0.99, start)
    for k in range(m - 1):
        z = _shortest(mu, nsq, u, k, margin)
        if z is None:
            return kz_reduce(original)
        if any(z[1:]):
            _insert(cols, u, k, z)  # changes columns k... only
            mu, nsq = _lll_inplace(cols, u, 0.99, lo=k + 1)
    # size-reduce the inserted columns; mu is current (each LLL starts from _gso)
    for k in range(1, m):
        _size_reduce_column(cols, u, mu, k)
    if margin and any(abs(v) > 0.5 - margin for row in mu for v in row):
        return kz_reduce(original)
    return _make_report(original, u, "kz_exact")


def kz_approx_successive_lll(basis) -> ReductionReport:
    """KZ approximation: LLL with delta = 0.99.

    The projections of an LLL-reduced basis are LLL-reduced themselves, so
    this is also LLL applied successively on shrinking projections. No
    dimension guard (nothing is enumerated); KZ optimality is not guaranteed.
    """
    original = validate_basis(basis)
    return _make_report(original, _lll(original, 0.99)[1], "kz_successive_lll")


def is_kz_reduced(basis) -> bool:
    """Verify both KZ conditions by explicit enumeration of projected lattices,
    each to a relative _KZ_TOL."""
    cols = validate_basis(basis)
    m = cols.shape[1]
    if m > MAX_ENUM_DIM:
        raise DimensionTooLarge(f"KZ verification guarded to dimension {MAX_ENUM_DIM}")
    bstar, mu, nsq = _gso(cols)
    if np.abs(mu).max() > 0.5 + _KZ_TOL:  # condition (b): size-reduced coefficients
        return False
    # condition (a): each projected Gram-Schmidt vector is a projected-lattice shortest
    for i in range(m):
        proj = cols[:, i:].copy()
        for k in range(i):
            proj -= np.outer(bstar[:, k], (bstar[:, k] @ proj) / nsq[k])
        _, length = shortest_vector(proj)
        if math.sqrt(nsq[i]) > length * (1.0 + _KZ_TOL):
            return False
    return True


# ---------------------------------------------------------------------------
# exhaustive integer-matrix optimizer (correctness oracle)
# ---------------------------------------------------------------------------

@functools.cache
def _sign_representatives(m: int, bound: int):
    """(reps, as_float, frob, columns): the sign representatives of [-bound, bound]^m.

    reps are the nonzero vectors whose first nonzero entry is positive, in
    itertools.product order, as tuples; as_float holds them as float rows,
    frob their squared norms and columns the int64 columns of the stack.
    Built once per (m, bound), so at most MAX_BRUTE_DIM * MAX_BRUTE_BOUND
    tables; the arrays are read-only.
    """
    reps = tuple(
        v
        for v in itertools.product(range(-bound, bound + 1), repeat=m)
        if any(v) and next(x for x in v if x != 0) > 0
    )
    cand = np.array(reps, dtype=np.int64)
    as_float, frob = cand.astype(float), np.sum(cand * cand, axis=1)
    for table in (cand, as_float, frob):  # cand for the views in cand.T
        table.setflags(write=False)
    return reps, as_float, frob, tuple(cand.T)


def brute_force_min_max(g, entry_bound: int, objective: str = "successive_if"):
    """Minimize a Cholesky-diagonal objective over bounded integer matrices.

    Searches all full-rank integer matrices A with entries in
    [-entry_bound, entry_bound], evaluating the Cholesky factor L of
    A @ (g g^T) @ A^T. Objectives:

    - "successive_if": max_k L[k,k]^2 (worst per-step prediction residual)
    - "standard_if":   max_k sum_i L[k,i]^2 (worst equation row norm)

    Returns (A, value). Values within 1e-12 max(1, v) of the least value v
    are ties; of the tied matrices the smallest Frobenius norm wins, then
    the lexicographically smallest flattened entries, so results are stable.

    The search is a depth-first branch-and-bound over ordered row prefixes,
    exhaustive because both objectives are monotone in the prefix maximum.
    The objective is invariant under per-row sign flips, so only sign
    representatives are enumerated and each matrix is canonicalized to its
    lexicographically smallest sign variant, as in a full scan. Each
    last-level node keeps its candidates tied with the least value so far,
    in one numpy pass; the tie is broken once, over what is kept at the end.
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
    reps, cand_float, frob, c = _sign_representatives(m, int(entry_bound))
    vecs = cand_float @ g  # row i = a_i^T G
    norms_sq = np.sum(vecs * vecs, axis=1)
    gram = g @ g.T
    successive = objective == "successive_if"

    def chol_value(a_rows: np.ndarray) -> float:
        l = cholesky_lower(a_rows.astype(float) @ gram @ a_rows.astype(float).T)
        if successive:
            return float(np.max(np.diag(l) ** 2))
        return float(np.max(np.sum(l * l, axis=1)))

    least = chol_value(np.eye(m))  # A = I is always feasible and seeds the bound
    kept = []  # (prefix, indices, values) of last-level candidates tied with least

    def ceiling(value: float) -> float:
        return value + _TIE * max(1.0, value)

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

    def descend(chosen: list, resid_sq: np.ndarray, ortho: list, partial_max: float) -> None:
        nonlocal least
        indep = independent(chosen)
        level_val = resid_sq if successive else norms_sq
        if len(chosen) == m - 1:
            idx = np.flatnonzero(indep)
            vals = np.maximum(partial_max, level_val[idx])
            if len(idx):
                least = min(least, float(vals.min()))
                tied = vals <= ceiling(least)
                kept.append((chosen, idx[tied], vals[tied]))
            return
        for idx in np.argsort(level_val, kind="stable"):
            value = max(partial_max, float(level_val[idx]))
            if value > ceiling(least):
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

    def winner(prefix: list, idx: np.ndarray, vals: np.ndarray):
        """(Frobenius norm, canonical rows) of the prefix's best tie, or None."""
        idx = idx[vals <= ceiling(least)]
        if not len(idx):
            return None
        # reps ascend and a canonical row is its representative's negation,
        # so of the smallest norms the largest index is the smallest row
        rows = prefix + [int(idx[np.lexsort((-idx, frob[idx]))[0]])]
        return int(frob[rows].sum()), [[-x for x in reps[i]] for i in rows]

    _, rows = min(filter(None, (winner(*entry) for entry in kept)))
    a = np.array(rows, dtype=np.int64)
    return a, chol_value(a)
