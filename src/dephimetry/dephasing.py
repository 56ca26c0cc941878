"""Correlated Gaussian dephasing: the exact channel, the generator -i [H, rho]
of the encoded family, and the state conditioned on the weighted average
phase.  The seeded phase sampling of bayes.simulate lives in bayes.

Averaging exp(-i sum_j phi_j H_j) rho exp(+i ...) over zero-mean Gaussian
phases with covariance C multiplies entry (m, n) by the characteristic
function exp(-1/2 delta^T C delta), where delta_j = h_j(m_j) - h_j(n_j).
Because everything is diagonal in the same product basis this channel is
exact, trace preserving (diagonal entries see delta = 0), and commutes with
unitary phase encoding.  The factor is real, so a real state stays real,
and it is never held whole: dephase (defined in core, so that fisher can
use it) computes it a block of rows of at most core.ROW_BLOCK_ELEMENTS
entries at a time (512 KiB; 64 rows at n = 10), so the channel holds its
input, its output and at most three such blocks.

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
    _trusted,
    dephase,
    encode_phase,
)
from .covariance import CovarianceMatrix, delta2_c
from .errors import NumericalConsistencyError


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
