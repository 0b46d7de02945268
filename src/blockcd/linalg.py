"""Dense linear-algebra kernel: extreme eigenvalues, spectral norms,
strict-lower truncation and minimum-norm least squares, from one
factorisation per matrix when it serves many right-hand sides.

All functions are pure and deterministic.  The spectral norm comes from a
dense LAPACK SVD at every size.  That adds no new order of cost: a problem
whose Hessian reaches spectral_norm has already paid a dense eigensolve of
the same order for its constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative singular-value cutoff for rank decisions.
RANK_RTOL = 1e-9
# Relative entrywise tolerance when checking symmetry of Gram-type inputs.
SYMMETRY_RTOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration cap."""


@dataclass(frozen=True)
class SpectralResult:
    """Spectral norm plus the work done to obtain it.  The dense SVD does no
    iterations and leaves no residual, so both are always 0."""

    value: float
    iterations: int
    residual: float


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def spectral_norm(m) -> SpectralResult:
    """Largest singular value of ``m``, from a dense LAPACK SVD."""
    value = float(np.linalg.svd(as_matrix(m), compute_uv=False)[0])
    return SpectralResult(value=value, iterations=0, residual=0.0)


def sym_eig_extremes(m) -> tuple[float, float]:
    """(min, max) eigenvalue of a symmetric matrix.

    Rejects inputs that are asymmetric beyond |M_ij - M_ji| <=
    SYMMETRY_RTOL * max(1, |M_ij|); Gram matrices formed in floating point
    stay well inside that band.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    gap = np.abs(a - a.T)
    allowed = SYMMETRY_RTOL * np.maximum(1.0, np.abs(a))
    if not (gap <= allowed).all():
        worst = float((gap - allowed).max())
        raise ValueError(f"matrix is asymmetric beyond tolerance (excess {worst:.3e})")
    eigenvalues = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(eigenvalues[0]), float(eigenvalues[-1])


def strict_lower_truncate(z) -> np.ndarray:
    """Keep strictly-lower entries; diagonal and above become exactly zero."""
    a = as_matrix(z)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    return np.tril(a, k=-1)


@dataclass(frozen=True)
class MinNormFactors:
    """Thin SVD of a matrix M over its numerical range: singular values at
    or below RANK_RTOL * sigma_max are dropped, so M ~= u diag(s) vt with
    ``s`` possibly empty."""

    u: np.ndarray
    s: np.ndarray
    vt: np.ndarray

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Minimum-norm minimizer of ||M x - rhs|| for a 1-D ``rhs``."""
        return self.vt.T @ ((self.u.T @ rhs) / self.s)


def min_norm_factors(m, top: float | None = None) -> MinNormFactors:
    """Factor ``m`` once for many minimum-norm least-squares solves.

    Singular values at or below RANK_RTOL * top count as zero; ``top`` is
    sigma_max(m) unless given, as for a column subset of a larger matrix
    that should share that matrix's rank threshold.
    """
    a = as_matrix(m)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    top = s[0] if top is None else top
    keep = s > RANK_RTOL * top if top > 0.0 else np.zeros(s.shape, dtype=bool)
    return MinNormFactors(u[:, keep], s[keep], vt[keep])


def least_squares_min_norm(m, rhs) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||M x - rhs||.

    SVD-based; singular values at or below RANK_RTOL * sigma_max are
    treated as zero, matching the rank threshold used for case
    classification.
    """
    a = as_matrix(m)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"rhs length {b.shape[0]} does not match {a.shape[0]} rows")
    return min_norm_factors(a).solve(b)
