"""Phase-noise covariance families and the effective average-phase variance.

The estimation-relevant summary of an N-site covariance matrix C is
delta2_c = (1^T C^{-1} 1)^{-1}, the variance of the optimally weighted
average of the site phases; the minimizing weights are
gamma = delta2_c * C^{-1} 1.  Two analytic families are provided: constant
off-diagonal correlation (build_c1) and exponentially decaying correlation
(build_c2).  The fully correlated limit C = c * ones is singular and is
handled as a declared special case (delta2_c = c, uniform weights) rather
than through a pseudo-inverse.  Both invariants of a covariance are checked
once, in CovarianceMatrix, relative to its scale, since rounding errors in
its entries and computed eigenvalues grow with it: it is refused when
max|C - C^T| exceeds SYMMETRY_TOL * max(1, max|C_jk|), or when its smallest
eigenvalue falls below PSD_TOL * max(1, largest eigenvalue).  A covariance
counts as singular when its smallest eigenvalue is at most SINGULAR_TOL
times its largest.  A covariance whose absolute entries sum past the float
range is refused: that sum bounds 1^T C 1 and delta^T C delta for every
|delta_j| <= 1, so no qubit channel or mass derived from an accepted one
overflows.

The conditional state given a fixed value of the weighted average phase is
again of product form: dephasing with the Schur-complement covariance
C' = C - delta2_c * ones (conditional_covariance) followed by a rigid
rotation by the conditioned value (conditional_dephased_state), so
d rho'_phi / d phi = -i [H, rho'_phi] exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import DensityMatrix, GeneratorSpec, _readonly, dephase, encode_phase
from .errors import SingularCovarianceError

SYMMETRY_TOL = 1e-12
PSD_TOL = -1e-10
WEIGHT_SUM_TOL = 1e-10
SINGULAR_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CovarianceMatrix:
    """Symmetric positive semidefinite phase covariance."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("covariance must be a square matrix")
        if a.size == 0:
            raise ValueError("covariance must be a nonempty matrix")
        if not np.isfinite(a).all():
            raise ValueError("covariance has non-finite entries")
        with np.errstate(over="ignore"):
            dev = np.abs(a - a.T).max()
            if dev > SYMMETRY_TOL * max(1.0, np.abs(a).max()):
                raise ValueError(f"covariance deviates from symmetry by {dev:.3e}")
            a = a / 2 + a.T / 2  # (a + a.T) / 2 without overflow
            reach = np.abs(a).sum()
        if not np.isfinite(reach):
            raise ValueError("covariance entries sum past the float range")
        lam = np.linalg.eigvalsh(a)
        if lam[0] < PSD_TOL * max(1.0, lam[-1]):
            raise ValueError("covariance has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "entries", _readonly(a))
        object.__setattr__(self, "_spectrum_edges", (float(lam[0]), float(lam[-1])))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def is_singular(self) -> bool:
        smallest, largest = self._spectrum_edges
        return smallest <= SINGULAR_TOL * max(largest, 0.0)

    @cached_property
    def is_collective(self) -> bool:
        """True when C = c * ones, the fully correlated (rank-one) form."""
        c = self.entries[0, 0]
        return bool(np.allclose(self.entries, c, rtol=0.0, atol=1e-12 * max(1.0, abs(c))))

    @cached_property
    def _averaging(self) -> tuple[float, WeightVector]:
        """(delta2_c, weights) from one Cholesky solve x = C^{-1} 1: 1 / sum x
        and x / sum x; c and uniform weights for the collective form c * ones.
        Any other singular covariance, or a sum outside (0, inf), is refused."""
        if self.is_singular:
            if self.is_collective:
                return float(self.entries[0, 0]), WeightVector(np.full(self.n, 1.0 / self.n))
            raise SingularCovarianceError(
                "covariance is singular and not of the collective form"
            )
        # SPD Cholesky solve; singularity is gated on the eigenvalue ratio first.
        chol = np.linalg.cholesky(self.entries)
        x = np.linalg.solve(chol.T, np.linalg.solve(chol, np.ones(self.n)))
        total = float(x.sum())
        if not 0.0 < total < math.inf:
            raise SingularCovarianceError(f"covariance inverse has mass {total!r}, not in (0, inf)")
        return 1.0 / total, WeightVector(x / total)


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Averaging weights, required to sum to 1."""

    gamma: np.ndarray

    def __post_init__(self):
        g = np.array(self.gamma, dtype=float)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("weights must form a nonempty vector")
        total = g.sum()
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:
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


def delta2_c(cov: CovarianceMatrix) -> float:
    """(1^T C^{-1} 1)^{-1}; for the singular collective form returns its
    limit value, the common entry c."""
    return cov._averaging[0]


def weights(cov: CovarianceMatrix) -> WeightVector:
    """Variance-minimizing averaging weights gamma = delta2_c * C^{-1} 1."""
    return cov._averaging[1]


def conditional_covariance(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Schur complement C' = C - delta2_c * ones, the residual phase
    covariance once the weighted average phase is fixed: b (I - 11^T / n)
    for C = a 11^T + b I entry for entry.  Elsewhere the subtraction keeps
    rounding at the scale of C, which can leave C' outside
    CovarianceMatrix's tolerances; they refuse it with a ValueError."""
    entries, n = cov.entries, cov.n
    delta2_c(cov)  # refuses a singular C that is not collective
    if np.array_equal(entries, np.where(np.eye(n, dtype=bool), entries[0, 0], entries[0, -1])):
        local = entries[0, 0] - entries[0, -1]  # b, or 0 at n = 1
        return CovarianceMatrix(local * np.eye(n) - local / n)
    return CovarianceMatrix(entries - delta2_c(cov))


def conditional_dephased_state(
    rho: DensityMatrix,
    gen: GeneratorSpec,
    cov: CovarianceMatrix,
    phi: float,
) -> DensityMatrix:
    """State conditioned on the weighted average phase taking the value phi.

    Equals encode_phase(dephase(rho, C'), phi) with C' from
    conditional_covariance.
    """
    reduced = dephase(rho, gen, conditional_covariance(cov))
    return encode_phase(reduced, gen, phi)


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
    asymptote 2 beta^2 (1 + alpha) / ((1 - alpha) n).  At alpha = 1 it is
    exactly 2 beta^2, the collective matrix's limit value.
    """
    _check_family_args(n, two_beta2, alpha)
    return two_beta2 * (1.0 + alpha) / (n * (1.0 - alpha) + 2.0 * alpha)


def mass_c2_closed(n: int, two_beta2: float, alpha: float) -> float:
    """1^T C 1 of the exponential-decay family in O(1): 2 beta^2 (n + 2 S),
    S = alpha (n (1 - alpha) - 1 + alpha^n) / (1 - alpha)^2, its bracket taken
    as E(n t) - n E(t), t = -ln alpha, E(z) = e^{-z} - 1 + z.  That cancels
    like t only where S ~ alpha n, a share of the mass that falls like e^{-t},
    so the mass matches 60-digit decimal to 1e-14 relative up to n = 10^18."""
    _check_family_args(n, two_beta2, alpha)
    if alpha in (0.0, 1.0):  # the c1 matrix, where t is infinite or 0
        return two_beta2 * (n + n * (n - 1) * alpha)
    t = -math.log(alpha)
    lagged = alpha * (_exp_remainder(n * t) - n * _exp_remainder(t)) / (1.0 - alpha) ** 2
    return two_beta2 * (n + 2.0 * lagged)


def _exp_remainder(z: float) -> float:
    """e^{-z} - 1 + z to full precision: below z = 0.5 from its series,
    whose terms past the 19th are under 1e-23 of the sum."""
    if z >= 0.5:
        return math.expm1(-z) + z
    return sum((-z) ** k / math.factorial(k) for k in range(2, 20))
