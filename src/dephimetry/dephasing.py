"""Correlated Gaussian dephasing, exact and Monte Carlo.

Averaging exp(-i sum_j phi_j H_j) rho exp(+i ...) over zero-mean Gaussian
phases with covariance C multiplies entry (m, n) by the characteristic
function exp(-1/2 delta^T C delta), where delta_j = h_j(m_j) - h_j(n_j).
Because everything is diagonal in the same product basis this channel is
exact, trace preserving (diagonal entries see delta = 0), and commutes with
unitary phase encoding.

The conditional state given a fixed value of the weighted average phase is
again of product form: dephasing with the Schur-complement covariance
C' = C - delta2_c * ones followed by a rigid rotation by the conditioned
value, so d rho'_phi / d phi = -i [H, rho'_phi] exactly.
"""
from __future__ import annotations

import numpy as np

from .core import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    _check_pairing,
    _grid,
    _support,
    _trusted,
    encode_phase,
)
from .covariance import CovarianceMatrix, delta2_c
from .errors import NumericalConsistencyError

_SQRT_PSD_TOL = -1e-10
CHUNK_SHOTS = 8192


def _check_cov_pairing(gen: GeneratorSpec, cov: CovarianceMatrix) -> None:
    if cov.n != gen.nsites:
        raise ValueError(
            f"covariance is {cov.n}-site but generator has {gen.nsites} sites"
        )


def _pair_quadratic(table: np.ndarray, cov: CovarianceMatrix) -> np.ndarray:
    """Matrix of delta^T C delta over pairs of the basis states whose
    columns of the site energy table are given."""
    gram = table.T @ (cov.entries @ table)
    gram = (gram + gram.T) / 2
    diag = np.diag(gram)
    quad = diag[:, None] + diag[None, :] - 2.0 * gram
    np.fill_diagonal(quad, 0.0)
    return quad


def dephase(rho: DensityMatrix, gen: GeneratorSpec, cov: CovarianceMatrix) -> DensityMatrix:
    """Apply the exact channel: entry (m, n) times exp(-1/2 delta^T C delta).

    Only the support of rho (core._support) is computed; every other entry
    of rho, and so of the result, is zero."""
    _check_pairing(rho, gen)
    _check_cov_pairing(gen, cov)
    live = _support(rho.entries)
    factor = np.exp(-0.5 * _pair_quadratic(gen.site_energy_table[:, live], cov))
    if isinstance(live, slice):
        return _trusted(DensityMatrix, rho.entries * factor)
    out = np.zeros_like(rho.entries)
    out[_grid(live)] = rho.entries[_grid(live)] * factor
    return _trusted(DensityMatrix, out)


def covariance_sqrt(cov: CovarianceMatrix) -> np.ndarray:
    """Symmetric PSD square root of C, used for Gaussian phase sampling."""
    lam, vec = np.linalg.eigh(cov.entries)
    if lam[0] < _SQRT_PSD_TOL * max(1.0, lam[-1]):
        raise NumericalConsistencyError("covariance is not PSD within tolerance")
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return (root + root.T) / 2


def sample_phases(
    cov: CovarianceMatrix, mean: float, rng: np.random.Generator, count: int
) -> np.ndarray:
    """(count, n) Gaussian phase draws with common mean and covariance C."""
    z = rng.standard_normal((count, cov.n))
    return mean + z @ covariance_sqrt(cov)


def chunk_rngs(seed: int, shots: int) -> list[tuple[np.random.Generator, int]]:
    """Fixed partition policy: ceil(shots / CHUNK_SHOTS) chunks, chunk i
    seeded with the i-th child of SeedSequence(seed).  Sampled results
    depend only on (seed, shots, CHUNK_SHOTS)."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    sizes = [CHUNK_SHOTS] * (shots // CHUNK_SHOTS)
    if shots % CHUNK_SHOTS:
        sizes = [*sizes, shots % CHUNK_SHOTS]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(np.random.default_rng(child), size) for child, size in zip(children, sizes)]


def dephase_monte_carlo(
    rho: DensityMatrix,
    gen: GeneratorSpec,
    cov: CovarianceMatrix,
    shots: int,
    seed: int,
) -> DensityMatrix:
    """Average exp(-i phi . H) rho exp(+i phi . H) over `shots` Gaussian draws.

    Conjugation by a diagonal unitary is entrywise, so the average reduces to
    multiplying rho entrywise by the empirical characteristic function, a
    Gram matrix, which keeps the sampled state positive.  Shots follow the
    fixed chunk partition of dephasing.chunk_rngs, so the result depends
    only on (seed, shots).
    """
    _check_pairing(rho, gen)
    _check_cov_pairing(gen, cov)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    root = covariance_sqrt(cov)
    table = gen.site_energy_table

    def chunk_gram(rng, size):
        phases = rng.standard_normal((size, cov.n)) @ root
        w = np.exp(-1j * (phases @ table))
        return w.T @ w.conj()

    gram = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    for rng, size in chunk_rngs(seed, shots):
        gram += chunk_gram(rng, size)
    out = rho.entries * (gram / shots)
    # The Gram sum is Hermitian only to rounding.
    return _trusted(DensityMatrix, (out + out.conj().T) / 2)


def derivative_state(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """-i [H, rho], the generator of the encoded family; traceless Hermitian."""
    _check_pairing(rho, gen)
    return _trusted(HermitianOperator, _derivative_block(rho.entries, gen.energies))


def _derivative_block(entries: np.ndarray, energy: np.ndarray) -> np.ndarray:
    """-i [H, rho] on any principal block of rho, given the energies of its
    rows; the commutator is entrywise, so the block needs no other rows."""
    d = -1j * (energy[:, None] - energy[None, :]) * entries
    return (d + d.conj().T) / 2


def conditional_covariance(cov: CovarianceMatrix) -> CovarianceMatrix:
    """Schur complement C' = C - delta2_c * ones, the residual phase
    covariance once the weighted average phase is fixed."""
    d2 = delta2_c(cov)
    residual = cov.entries - d2
    lam = np.linalg.eigvalsh((residual + residual.T) / 2)
    if lam[0] < -1e-10 * max(1.0, float(np.abs(cov.entries).max())):
        raise NumericalConsistencyError("conditional covariance lost positivity")
    return CovarianceMatrix(residual)


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
