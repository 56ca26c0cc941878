"""Correlated Gaussian dephasing: the exact channel, the generator -i [H, rho]
of the encoded family, and the state conditioned on the weighted average
phase.  The seeded phase sampling of bayes.simulate lives in bayes.

Averaging exp(-i sum_j phi_j H_j) rho exp(+i ...) over zero-mean Gaussian
phases with covariance C multiplies entry (m, n) by the characteristic
function exp(-1/2 delta^T C delta), where delta_j = h_j(m_j) - h_j(n_j).
Because everything is diagonal in the same product basis this channel is
exact, trace preserving (diagonal entries see delta = 0), and commutes with
unitary phase encoding.  The factor is real, so a real state stays real,
and it is never held whole: dephase computes it a block of rows of at most
ROW_BLOCK_ELEMENTS entries at a time (512 KiB; 64 rows at n = 10), so the
channel holds its input, its output and at most three such blocks.

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
    _embed,
    _grid,
    _support,
    _trusted,
    encode_phase,
)
from .covariance import CovarianceMatrix, delta2_c
from .errors import NumericalConsistencyError


# Most entries of one block of rows of the channel factor (see dephase).
ROW_BLOCK_ELEMENTS = 1 << 16


def dephase(rho: DensityMatrix, gen: GeneratorSpec, cov: CovarianceMatrix) -> DensityMatrix:
    """Apply the exact channel: entry (m, n) times exp(-1/2 delta^T C delta).

    Only the support of rho (core._support) is computed; every other entry
    of rho, and so of the result, is zero.  The result keeps the dtype of
    rho.  With T the site energy table on the support and g = T^T (C T),
    delta^T C delta = d_m + d_n - (g_mn + g_nm) with d_m = g_mm.  Each block
    of rows computes its entries up to the diagonal, refuses an overflow
    (ValueError; no accepted covariance overflows with energy gaps of at
    most 1, as qubits have, see covariance), and writes the factor to its
    rows and, transposed, to its columns above: the result is exactly
    Hermitian."""
    _check_pairing(rho, gen)
    if cov.n != gen.nsites:
        raise ValueError(f"covariance is {cov.n}-site but generator has {gen.nsites} sites")
    live = _support(rho.entries)
    block = rho.entries[_grid(live)]
    table = gen.site_energy_table[:, live]
    weighted = cov.entries @ table
    size = block.shape[0]
    step = max(1, ROW_BLOCK_ELEMENTS // size)
    diag = np.empty(size)
    out = np.empty(block.shape, dtype=block.dtype)
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        with np.errstate(over="ignore", invalid="ignore"):
            # Rows lo:hi of g and of g^T, left of column hi.
            pair = table[:, lo:hi].T @ weighted[:, :hi]
            diag[lo:hi] = pair[:, lo:].diagonal()
            pair += (table[:, :hi].T @ weighted[:, lo:hi]).T
            quad = np.add.outer(diag[lo:hi], diag[:hi])
            quad -= pair
        del pair
        if not np.isfinite(quad).all():
            raise ValueError("delta^T C delta overflows for this covariance and generator")
        np.fill_diagonal(quad[:, lo:], 0.0)
        quad *= -0.5
        factor = np.exp(quad, out=quad)
        np.multiply(block[lo:hi, :hi], factor, out=out[lo:hi, :hi])
        np.multiply(block[:lo, lo:hi], factor[:, :lo].T, out=out[:lo, lo:hi])
    return _trusted(DensityMatrix, _embed(out, live, rho.dim))


def derivative_state(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """-i [H, rho], the generator of the encoded family; traceless Hermitian."""
    _check_pairing(rho, gen)
    energy = gen.energies
    d = -1j * (energy[:, None] - energy[None, :]) * rho.entries
    return _trusted(HermitianOperator, (d + d.conj().T) / 2)


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
