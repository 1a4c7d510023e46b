"""Dense linear-algebra kernels shared by the whole workbench.

Everything here operates on plain float64 numpy arrays at desk scale
(matrices up to roughly 8x8). Column vectors are the convention for lattice
bases; matrices are validated to be finite on entry.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPositiveDefinite, NotSymmetric

SYMMETRY_RTOL = 1e-10


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


def cholesky_lower(s) -> np.ndarray:
    """Lower-triangular Cholesky factor L of a symmetric positive-definite S.

    Returns L with strictly positive diagonal such that L @ L.T == S.
    The input is symmetrized before factoring; asymmetry beyond
    SYMMETRY_RTOL (relative to max |S|) raises NotSymmetric, a nonpositive
    pivot raises NotPositiveDefinite. Failures are never regularized away:
    every caller in this package passes matrices that are SPD by
    construction, so a failure indicates a caller bug.
    """
    s = as_matrix(s, "S")
    n, m = s.shape
    if n != m:
        raise NotSymmetric(f"S must be square, got {s.shape}")
    scale = np.abs(s).max()
    if scale == 0.0:
        raise NotPositiveDefinite("S is the zero matrix")
    asym = np.abs(s - s.T).max()
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:.0e} * {scale:.3e}")
    sym = 0.5 * (s + s.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


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
