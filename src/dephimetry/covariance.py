"""Phase-noise covariance families and the effective average-phase variance.

The estimation-relevant summary of an N-site covariance matrix C is
delta2_c = (1^T C^{-1} 1)^{-1}, the variance of the optimally weighted
average of the site phases; the minimizing weights are
gamma = delta2_c * C^{-1} 1.  Two analytic families are provided: constant
off-diagonal correlation (build_c1) and exponentially decaying correlation
(build_c2).  The fully correlated limit C = c * ones is singular and is
handled as a declared special case (delta2_c = c, uniform weights) rather
than through a pseudo-inverse.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _readonly
from .errors import SingularCovarianceError

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10
WEIGHT_SUM_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric positive semidefinite phase covariance.

    regularization_eps sets the relative eigenvalue threshold below which
    the matrix is treated as singular.
    """

    entries: np.ndarray
    regularization_eps: float = 1e-12

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("covariance has non-finite entries")
        dev = np.abs(a - a.T).max() if a.size else 0.0
        if dev > SYMMETRY_TOL:
            raise ValueError(f"covariance deviates from symmetry by {dev:.3e}")
        a = (a + a.T) / 2
        lam = np.linalg.eigvalsh(a)
        if lam[0] < PSD_TOL:
            raise ValueError("covariance has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "entries", _readonly(a))
        object.__setattr__(self, "_spectrum_edges", (float(lam[0]), float(lam[-1])))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def is_singular(self) -> bool:
        smallest, largest = self._spectrum_edges
        return smallest <= self.regularization_eps * max(largest, 0.0)

    @cached_property
    def is_collective(self) -> bool:
        """True when C = c * ones, the fully correlated (rank-one) form."""
        c = self.entries[0, 0]
        return bool(np.allclose(self.entries, c, rtol=0.0, atol=1e-12 * max(1.0, abs(c))))

    def __add__(self, other: "CovarianceMatrix") -> "CovarianceMatrix":
        if not isinstance(other, CovarianceMatrix):
            return NotImplemented
        eps = min(self.regularization_eps, other.regularization_eps)
        return CovarianceMatrix(self.entries + other.entries, eps)

    @property
    def delta2(self) -> float:
        return delta2_c(self)

    @property
    def gamma(self) -> np.ndarray:
        return weights(self).gamma


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Averaging weights, required to sum to 1."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("weights must form a nonempty vector")
        total = g.sum()
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "gamma", _readonly(g))

    @property
    def n(self) -> int:
        return self.gamma.size


def build_c1(n: int, two_beta2: float, alpha: float) -> CovarianceMatrix:
    """Constant-correlation family: diagonal 2 beta^2, off-diagonal
    2 beta^2 alpha.  alpha = 1 gives the singular collective matrix."""
    _check_family_args(n, two_beta2, alpha)
    out = np.full((n, n), two_beta2 * alpha)
    np.fill_diagonal(out, two_beta2)
    return CovarianceMatrix(out)


def build_c2(n: int, two_beta2: float, alpha: float) -> CovarianceMatrix:
    """Exponential-decay family: entries 2 beta^2 alpha^{|j-k|}.
    Nonsingular for every alpha < 1; alpha = 1 again gives the collective
    matrix."""
    _check_family_args(n, two_beta2, alpha)
    idx = np.arange(n)
    out = two_beta2 * alpha ** np.abs(idx[:, None] - idx[None, :]).astype(float)
    return CovarianceMatrix(out)


def _check_family_args(n: int, two_beta2: float, alpha: float) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 < two_beta2 < np.inf:
        raise ValueError("two_beta2 must be positive and finite")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")


def _inverse_times_ones(cov: CovarianceMatrix) -> np.ndarray:
    # SPD Cholesky solve; singularity is gated on the eigenvalue ratio first.
    chol = np.linalg.cholesky(cov.entries)
    ones = np.ones(cov.n)
    return np.linalg.solve(chol.T, np.linalg.solve(chol, ones))


def delta2_c(cov: CovarianceMatrix) -> float:
    """(1^T C^{-1} 1)^{-1}; for the singular collective form returns its
    limit value, the common entry c."""
    if cov.is_singular:
        if cov.is_collective:
            return float(cov.entries[0, 0])
        raise SingularCovarianceError(
            "covariance is singular and not of the collective form"
        )
    total = float(_inverse_times_ones(cov).sum())
    if total <= 0.0:
        raise SingularCovarianceError("covariance inverse has nonpositive mass")
    return 1.0 / total


def weights(cov: CovarianceMatrix) -> WeightVector:
    """Variance-minimizing averaging weights gamma = delta2_c * C^{-1} 1."""
    if cov.is_singular:
        if cov.is_collective:
            return WeightVector(np.full(cov.n, 1.0 / cov.n))
        raise SingularCovarianceError(
            "covariance is singular and not of the collective form"
        )
    x = _inverse_times_ones(cov)
    return WeightVector(x / x.sum())


def delta2_c1_closed(n: int, two_beta2: float, alpha: float) -> float:
    """Closed form for the constant-correlation family:
    2 beta^2 (alpha + (1 - alpha)/n)."""
    _check_family_args(n, two_beta2, alpha)
    return two_beta2 * (alpha + (1.0 - alpha) / n)


def delta2_c2_closed(n: int, two_beta2: float, alpha: float) -> float:
    """Closed form for the exponential-decay family:
    2 beta^2 (1 + alpha) / (n (1 - alpha) + 2 alpha).

    This is the exact reduction of (1^T C^{-1} 1)^{-1} via the tridiagonal
    inverse of the correlation matrix; it matches direct numerical
    inversion to rounding for all n and alpha < 1, and keeps the large-n
    asymptote 2 beta^2 (1 + alpha) / ((1 - alpha) n).
    """
    _check_family_args(n, two_beta2, alpha)
    if not alpha < 1.0:
        raise ValueError("alpha must lie in [0, 1) for the closed form")
    return two_beta2 * (1.0 + alpha) / (n * (1.0 - alpha) + 2.0 * alpha)
