"""Correlated Gaussian dephasing: the exact channel, and the seeded phase
sampling that bayes.simulate, the one Monte Carlo sampler, is built on.

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
# Elements per shots-last work buffer of the one Monte Carlo sampler,
# bayes.simulate.  A chunk whose buffers would hold more runs in batches of
# fewer shots; the batches consume no random numbers, so the seeded streams
# do not depend on this.
BATCH_ELEMENTS = 1 << 19


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
    if cov.n != gen.nsites:
        raise ValueError(f"covariance is {cov.n}-site but generator has {gen.nsites} sites")
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


def _batch_shots(rows: int) -> int:
    """Shots per batch of a kernel whose widest buffer has `rows` rows."""
    return max(1, min(CHUNK_SHOTS, BATCH_ELEMENTS // max(rows, 1)))


def _shaped(buffer: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Contiguous (rows, cols) view of the front of a flat work buffer."""
    return buffer[: rows * cols].reshape(rows, cols)


def _phase_weights(table: np.ndarray, phases: np.ndarray, arg: np.ndarray, out: np.ndarray):
    """exp(-i phi_s . h(m)) with the basis states m along the rows and the
    shots s along the columns: `table` is the (nsites, s) site energy table
    of those basis states, `phases` the (b, nsites) draws.  arg (b, s) real
    is overwritten with -phases @ table, the product in the shots-first
    layout of the draws, and out (s, b) complex receives the weights.  cos
    and sin fill its real and imaginary parts in place: bit for bit what
    np.exp(-1j * (phases @ table)).T gives, with no complex temporaries.

    This is the route of a partial support (GHZ has s = 2 rows at any n):
    one cos and sin pair per row and shot, 2 s calls per shot.  A full
    support takes _product_weights, sum_j (d_j - 1) tangents per shot."""
    np.matmul(phases, table, out=arg)
    np.negative(arg, out=arg)
    np.cos(arg.T, out=out.real)
    np.sin(arg.T, out=out.imag)
    return out


def _site_steps(gen: GeneratorSpec) -> np.ndarray:
    """(T, nsites) steps of _product_weights, T = sum_j (d_j - 1): one row
    per site j, in order, and level k = 1 .. d_j - 1, holding
    -(h_j(k) - h_j(0)) / 2 in column j and zeros elsewhere."""
    levels = [(j, (h[0] - v) / 2) for j, h in enumerate(gen.sites) for v in h[1:]]
    steps = np.zeros((len(levels), gen.nsites))
    for row, (j, step) in enumerate(levels):
        steps[row, j] = step
    return steps


def _product_weights(
    dims: tuple[int, ...], steps: np.ndarray, phases: np.ndarray, scratch: np.ndarray,
    out: np.ndarray,
):
    """exp(-i phi_s . (h(m) - h(0))) on the full product basis, in the
    layout of _phase_weights: it differs from exp(-i phi_s . h(m)) by the
    unit factor exp(i phi_s . h(0)) of each shot, which cancels in every
    probability.  The weight of m is the product over the sites j of the
    factor exp(-i phi_j (h_j(m_j) - h_j(0))) of level m_j, and level 0 has
    factor 1, so a shot costs one tangent per higher level, sum_j (d_j - 1)
    in all (n for qubits, against 2^n cos and sin pairs), and dim - 1
    complex row products.

    `dims` are the local dimensions and `steps` is _site_steps of the
    generator.  scratch (2 T, b) real is overwritten with t = tan(steps @
    phases^T), the tangent of half of each level's angle, and u =
    2 / (1 + t^2); the factor is cos + i sin = (u - 1) + i t u.  numpy
    vectorises its float64 tangent but evaluates cos and sin one element at
    a time (3 against 16 ns per element, measured on an AVX-512 host), so
    the one tangent is the cheaper of the two.  out (dim, b) receives the
    weights, built in place from the last site outward: once the rows of the
    sites after j are filled, the block of level k of site j is that filled
    block times level k's factor, which is written first into the block's
    own first row."""
    levels = steps.shape[0]
    t, u = scratch[:levels], scratch[levels:]
    np.matmul(steps, phases.T, out=t)
    np.tan(t, out=t)
    np.square(t, out=u)
    u += 1.0
    np.divide(2.0, u, out=u)
    out[0] = 1.0
    rows = 1
    for d in reversed(dims):
        levels -= d - 1
        for k in range(1, d):
            level, head = levels + k - 1, out[k * rows]
            np.multiply(t[level], u[level], out=head.imag)
            np.subtract(u[level], 1.0, out=head.real)
            np.multiply(out[1:rows], head, out=out[k * rows + 1 : (k + 1) * rows])
        rows *= d
    return out


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
