"""Dense linear-algebra kernels shared by the whole workbench.

Everything here operates on plain float64 numpy arrays at desk scale
(matrices up to roughly 8x8). Column vectors are the convention for lattice
bases; matrices are validated to be finite on entry.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric, RankDeficient

SYMMETRY_RTOL = 1e-10
RANK_RTOL = 1e-12


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def _any(flags) -> bool:
    """flags.any(); the 0-d flag of a single matrix is tested directly, because
    a numpy scalar's .any() costs more than the per-matrix check itself."""
    return bool(flags.any() if flags.ndim else flags)


def cholesky_lower(s) -> np.ndarray:
    """Lower-triangular Cholesky factor L of a symmetric positive-definite S.

    Returns L with strictly positive diagonal such that L @ L.T == S.
    The input is symmetrized before factoring; asymmetry beyond
    SYMMETRY_RTOL (relative to max |S|) raises NotSymmetric, a nonpositive
    pivot raises NotPositiveDefinite. Failures are never regularized away:
    every caller in this package passes matrices that are SPD by
    construction, so a failure indicates a caller bug.

    A stack of shape (..., n, n) is factored matrix by matrix; the scale,
    zero-matrix and symmetry checks apply to each matrix on its own.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim <= 2:
        s = as_matrix(s, "S")
    elif s.size == 0:
        raise ValueError("S must be nonempty")
    elif not np.all(np.isfinite(s)):
        raise ValueError("S contains NaN or Inf")
    n, m = s.shape[-2:]
    if n != m:
        raise NotSymmetric(f"S must be square, got {s.shape}")
    st = s.swapaxes(-1, -2)
    scale = np.abs(s).max(axis=(-2, -1))
    if _any(scale == 0.0):
        raise NotPositiveDefinite("S is the zero matrix")
    asym = np.abs(s - st).max(axis=(-2, -1))
    bad = asym > SYMMETRY_RTOL * scale
    if _any(bad):
        i = np.argmax(bad)
        raise NotSymmetric(
            f"asymmetry {asym.flat[i]:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale.flat[i]:.3e}"
        )
    sym = 0.5 * (s + st)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def gram_schmidt(f) -> tuple[np.ndarray, np.ndarray]:
    """Classical (unnormalized) Gram-Schmidt orthogonalization.

    Decomposes a full-column-rank F as F = Fstar @ R where the columns of
    Fstar are mutually orthogonal (not normalized) and R is upper triangular
    with unit diagonal; R[i, j] is the projection coefficient of column j
    onto orthogonal direction i. Raises RankDeficient when a projected
    column's norm falls below RANK_RTOL * ||F||.
    """
    f = as_matrix(f, "F")
    n, m = f.shape
    if n < m:
        raise RankDeficient(f"{m} columns cannot be independent in dimension {n}")
    threshold = RANK_RTOL * max(np.linalg.norm(f), 1e-300)
    fstar = np.zeros((n, m))
    r = np.eye(m)
    for j in range(m):
        v = f[:, j].copy()
        for i in range(j):
            denom = fstar[:, i] @ fstar[:, i]
            r[i, j] = (f[:, j] @ fstar[:, i]) / denom
            v -= r[i, j] * fstar[:, i]
        if np.linalg.norm(v) < threshold:
            raise RankDeficient(f"column {j} is dependent on previous columns")
        fstar[:, j] = v
    return fstar, r


def gram_schmidt_norms(f) -> np.ndarray:
    """Euclidean norms of the Gram-Schmidt vectors of F's columns."""
    fstar, _ = gram_schmidt(f)
    return np.linalg.norm(fstar, axis=0)


def complex_to_real(hc) -> np.ndarray:
    """Real 2Nx2M block representation [[Re, -Im], [Im, Re]] of a complex NxM matrix.

    Multiplying the realified matrix by a realified vector (real parts
    stacked over imaginary parts) equals realification of the complex
    product.
    """
    hc = np.asarray(hc, dtype=complex)
    if hc.ndim != 2:
        raise ValueError(f"complex matrix must be 2-D, got shape {hc.shape}")
    if not np.all(np.isfinite(hc)):
        raise ValueError("complex matrix contains NaN or Inf")
    re, im = hc.real, hc.imag
    return np.block([[re, -im], [im, re]])


def realify_vector(xc) -> np.ndarray:
    """Stack real parts over imaginary parts of a complex vector."""
    xc = np.asarray(xc, dtype=complex)
    return np.concatenate([xc.real, xc.imag])
