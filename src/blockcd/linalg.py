"""Dense linear-algebra kernel: extreme eigenvalues, spectral norms,
strict-lower truncation and minimum-norm least squares.

All functions are pure and deterministic.  For matrices whose larger side
is at most DENSE_CUTOFF = 1024 the spectral norm comes from a dense LAPACK
SVD.  Dense adds no new order of cost: a problem whose Hessian reaches
spectral_norm has already paid a dense eigensolve of the same order for its
constants, while power iteration can need tens of thousands of steps, or
miss its cap, when the top singular values cluster.  Larger matrices use
power iteration on the Gram matrix with a fixed all-ones start vector so
repeated runs give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Largest dimension still handled by the dense (authoritative) SVD path.
DENSE_CUTOFF = 1024
# Relative singular-value cutoff for rank decisions.
RANK_RTOL = 1e-9
# Relative entrywise tolerance when checking symmetry of Gram-type inputs.
SYMMETRY_RTOL = 1e-12

DEFAULT_TOL = 1e-10
MAX_POWER_ITERATIONS = 50_000


class ConvergenceError(RuntimeError):
    """Raised when an iterative routine exhausts its iteration cap."""


@dataclass(frozen=True)
class SpectralResult:
    """Spectral-norm estimate plus the work done to obtain it.

    ``residual`` is the eigen-residual ||B v - lam v|| of the final Gram
    iterate (0.0 when the dense path was taken).
    """

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


def spectral_norm(m, tol: float = DEFAULT_TOL,
                  max_iterations: int = MAX_POWER_ITERATIONS) -> SpectralResult:
    """Largest singular value of ``m``.

    Dense LAPACK SVD when max(shape) <= DENSE_CUTOFF (1024), otherwise
    deterministic power iteration on the smaller Gram matrix.  Up to the
    cutoff the SVD costs no more than the dense eigensolve already paid for
    the problem's constants, and it has no iteration cap to hit.
    Power-iteration non-convergence raises ConvergenceError rather than
    returning a silently wrong value.
    """
    a = as_matrix(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max(a.shape) <= DENSE_CUTOFF:
        value = float(np.linalg.svd(a, compute_uv=False)[0])
        return SpectralResult(value=value, iterations=0, residual=0.0)
    return power_iteration_norm(a, tol=tol, max_iterations=max_iterations)


def power_iteration_norm(m, tol: float = DEFAULT_TOL,
                         max_iterations: int = MAX_POWER_ITERATIONS) -> SpectralResult:
    """Spectral norm via power iteration on the Gram matrix.

    Start vector is all-ones normalized; converged when the eigen-residual
    ||B v - lam v|| drops below tol * max(1, lam).
    """
    a = as_matrix(m)
    if tol <= 0:
        raise ValueError("tol must be positive")
    gram = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    gram = 0.5 * (gram + gram.T)
    n = gram.shape[0]
    v = np.ones(n) / np.sqrt(n)
    lam = 0.0
    for iteration in range(1, max_iterations + 1):
        w = gram @ v
        lam = float(v @ w)
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol * max(1.0, abs(lam)):
            return SpectralResult(value=float(np.sqrt(max(lam, 0.0))),
                                  iterations=iteration, residual=residual)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            # ones-vector lies in the nullspace; restart from e_1
            v = np.zeros(n)
            v[0] = 1.0
            continue
        v = w / norm_w
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} within {max_iterations} "
        f"iterations (last eigenvalue estimate {lam})")


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


def least_squares_min_norm(m, rhs) -> np.ndarray:
    """Minimum-Euclidean-norm minimizer of ||M x - rhs||.

    SVD-based; singular values below RANK_RTOL * sigma_max are treated as
    zero, matching the rank threshold used for case classification.
    """
    a = as_matrix(m)
    b = np.asarray(rhs, dtype=float).reshape(-1)
    if b.shape[0] != a.shape[0]:
        raise ValueError(
            f"rhs length {b.shape[0]} does not match {a.shape[0]} rows")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.shape[1])
    keep = s > RANK_RTOL * s[0]
    coeffs = (u[:, keep].T @ b) / s[keep]
    return vt[keep].T @ coeffs

