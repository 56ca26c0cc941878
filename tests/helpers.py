"""Shared factories and independent oracles for the test suite."""
from __future__ import annotations

import contextlib
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
from numpy.polynomial.hermite import hermgauss

from dephimetry import (
    CovarianceMatrix,
    DensityMatrix,
    GeneratorSpec,
    Povm,
    build_c2,
    dephase,
    encode_phase,
    ghz_state,
    product_plus_state,
    simulate,
    weights,
)
from dephimetry import fisher
from dephimetry.bayes import SimulationResult, chunk_rngs, covariance_sqrt
from dephimetry.core import derivative_state
from dephimetry.fisher import _rounding_floor

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(r: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return r.normal(size=(rows, cols)) + 1j * r.normal(size=(rows, cols))


def random_density(r: np.random.Generator, dim: int) -> DensityMatrix:
    """Full-rank state from a Ginibre square."""
    g = ginibre(r, dim, 2 * dim)
    rho = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def random_pure_density(r: np.random.Generator, dim: int) -> DensityMatrix:
    v = ginibre(r, dim, 1)[:, 0]
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_psd_cov(r: np.random.Generator, n: int, scale: float = 0.5) -> CovarianceMatrix:
    """Well-conditioned random covariance."""
    b = r.normal(size=(n, n + 2))
    return CovarianceMatrix(scale * (b @ b.T) / (n + 2))


def random_projective_povm(r: np.random.Generator, dim: int) -> Povm:
    q, _ = np.linalg.qr(ginibre(r, dim, dim))
    return Povm.projective(q)


def tilted_qubit_basis(theta: float) -> np.ndarray:
    """Eigenbasis of sin(theta) sigma_x + cos(theta) sigma_y, as columns."""
    _, vec = np.linalg.eigh(np.sin(theta) * SIGMA_X + np.cos(theta) * SIGMA_Y)
    return vec


def phase_profile_state(rho: DensityMatrix, gen: GeneratorSpec, theta: np.ndarray) -> np.ndarray:
    """Encode one phase per site: entries rho_mn exp(-i (E_m(theta) - E_n(theta)))."""
    w = np.exp(-1j * (np.asarray(theta, dtype=float) @ gen.site_energy_table))
    return rho.entries * np.outer(w, w.conj())


def gh_bayes_mse(
    rho: DensityMatrix,
    gen: GeneratorSpec,
    cov: CovarianceMatrix,
    povm: Povm,
    estimates: np.ndarray,
    phi0: float = 0.0,
    nodes: int = 7,
) -> float:
    """Tensor Gauss-Hermite quadrature for E[(estimate(x) - w . theta)^2]
    with theta ~ N(phi0 1, C).  Independent of the estimator identities
    under test; cost nodes**nsites."""
    n = gen.nsites
    z, wts = hermgauss(nodes)
    root = covariance_sqrt(cov)
    w_vec = weights(cov).gamma
    effects = dense_effects(povm)
    total = 0.0
    grids = np.meshgrid(*([z] * n), indexing="ij")
    zs = np.stack([g.ravel() for g in grids], axis=1)
    wprod = np.prod(
        np.stack(np.meshgrid(*([wts] * n), indexing="ij"), axis=0).reshape(n, -1), axis=0
    )
    for k in range(zs.shape[0]):
        theta = phi0 + np.sqrt(2.0) * (root @ zs[k])
        probs = np.array(
            [np.trace(e @ phase_profile_state(rho, gen, theta)).real for e in effects]
        )
        target = float(w_vec @ theta)
        total += wprod[k] * float(probs @ (estimates - target) ** 2)
    return total / np.pi ** (n / 2.0)


def gh_site_estimates(
    rho: DensityMatrix,
    gen: GeneratorSpec,
    cov: CovarianceMatrix,
    povm: Povm,
    phi0: float = 0.0,
    nodes: int = 7,
) -> np.ndarray:
    """Posterior means E[theta_j | x] by direct tensor Gauss-Hermite
    quadrature of the defining integrals; (outcomes, nsites) array."""
    n = gen.nsites
    z, wts = hermgauss(nodes)
    root = covariance_sqrt(cov)
    grids = np.meshgrid(*([z] * n), indexing="ij")
    zs = np.stack([g.ravel() for g in grids], axis=1)
    wprod = np.prod(
        np.stack(np.meshgrid(*([wts] * n), indexing="ij"), axis=0).reshape(n, -1), axis=0
    )
    effects = dense_effects(povm)
    numer = np.zeros((povm.outcomes, n))
    denom = np.zeros(povm.outcomes)
    for k in range(zs.shape[0]):
        theta = phi0 + np.sqrt(2.0) * (root @ zs[k])
        state = phase_profile_state(rho, gen, theta)
        probs = np.array([np.trace(e @ state).real for e in effects])
        numer += wprod[k] * probs[:, None] * theta[None, :]
        denom += wprod[k] * probs
    return numer / denom[:, None]


def delta2_brute(cov: CovarianceMatrix) -> float:
    """1 / (1^T C^{-1} 1) via plain inv; oracle for the solver route."""
    n = cov.entries.shape[0]
    return 1.0 / float(np.ones(n) @ np.linalg.inv(cov.entries) @ np.ones(n))


def collective_and_local(cov: CovarianceMatrix):
    """(a, b) with C = a 11^T + b I entry for entry and b >= 0, or None;
    read back from the dense matrix by exact equality, the oracle for the
    split the CLI declares.  A one-site C is taken as all local, (0, C_00)."""
    entries = cov.entries
    diagonal = float(entries[0, 0])
    collective = float(entries[0, 1]) if cov.n > 1 else 0.0
    off = ~np.eye(cov.n, dtype=bool)
    if not ((np.diag(entries) == diagonal).all() and (entries[off] == collective).all()):
        return None
    local = diagonal - collective
    return (collective, local) if local >= 0.0 else None


_DENSE_PLUS = {}


def dense_plus_qfi(cov: CovarianceMatrix, split: bool = True) -> float:
    """The QFI of dephase(|+>^n, C) from eigh of the whole real dephased
    state (its support is every row), with the rounding floor of fisher and
    no orbit or block split; the oracle for every route the CLI takes for
    product-plus.  Once per distinct C and split.

    The state commutes with the spin flip J (m -> dim - 1 - m) and its
    derivative anticommutes with it, so only pairs across the J-even and
    J-odd halves carry information.  split takes one eigh of each dim/2-row
    half, read off the state by index reversal; split=False takes one eigh
    of the whole state, the full frame that checks the split."""
    key = ((cov.entries + 0.0).tobytes(), split)  # -0.0 and 0.0 entries are one C
    if key not in _DENSE_PLUS:
        gen = GeneratorSpec.qubits(cov.n)
        rho = dephase(product_plus_state(cov.n), gen, cov).entries
        drho = np.subtract.outer(gen.energies, gen.energies) * rho
        if split:
            half = rho.shape[0] // 2
            # rows m < dim/2 against columns m and dim - 1 - m
            same, flipped = rho[:half, :half], rho[:half, ::-1][:, :half]
            lam_even, vec_even = np.linalg.eigh(same + flipped)
            lam_odd, vec_odd = np.linalg.eigh(same - flipped)
            across = drho[:half, :half] - drho[:half, ::-1][:, :half]
            mixed = vec_even.T @ across @ vec_odd
            denom = lam_even[:, None] + lam_odd[None, :]
            top, pairs = max(lam_even[-1], lam_odd[-1]), 4.0  # (even, odd) and (odd, even)
        else:
            lam, vec = np.linalg.eigh(rho)
            mixed = vec.T @ drho @ vec
            denom = lam[:, None] + lam[None, :]
            top, pairs = lam[-1], 2.0
        keep = denom > _rounding_floor(rho.shape[0], top)
        _DENSE_PLUS[key] = float(pairs * np.sum(mixed[keep] ** 2 / denom[keep]))
    return _DENSE_PLUS[key]


def dense_effects(povm: Povm) -> list[np.ndarray]:
    """Dense effects Pi_x rebuilt from the POVM's columns and its unit
    outcomes, one per outcome."""
    blocks = [povm.vectors[:, povm.labels == x] for x in range(povm.outcomes)]
    effects = [b @ b.conj().T for b in blocks]
    for j, x in zip(povm.unit_rows, povm.unit_labels):
        effects[x][j, j] += 1.0
    return effects


def dense_basis(povm: Povm) -> np.ndarray:
    """The (dim, outcomes) basis of a projective POVM, column x the vector
    of outcome x: its own column or its unit vector e_j."""
    assert povm.labels.size + povm.unit_rows.size == povm.outcomes
    basis = np.zeros((povm.dim, povm.outcomes), dtype=np.complex128)
    basis[:, povm.labels] = povm.vectors
    basis[povm.unit_rows, povm.unit_labels] = 1.0
    return basis


def dephase_monte_carlo(
    rho: DensityMatrix, gen: GeneratorSpec, cov: CovarianceMatrix, shots: int, seed: int
) -> DensityMatrix:
    """Average exp(-i phi . H) rho exp(+i phi . H) over `shots` Gaussian
    draws in the chunks of chunk_rngs: rho times the empirical characteristic
    function, a Gram matrix of the phase weights; oracle for dephase."""
    root, table = covariance_sqrt(cov), gen.site_energy_table
    gram = np.zeros((gen.dim, gen.dim), dtype=np.complex128)
    for r, size in chunk_rngs(seed, shots):
        w = np.exp(-1j * (r.standard_normal((size, cov.n)) @ root @ table))
        gram += w.T @ w.conj()
    out = rho.entries * gram / shots
    return DensityMatrix((out + out.conj().T) / 2)


def dephase_factor_loops(cov: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Entrywise attenuation exp(-0.5 delta^T C delta) by explicit loops;
    oracle for the vectorized channel."""
    nsites, dim = table.shape
    out = np.empty((dim, dim))
    for m in range(dim):
        for n_ in range(dim):
            delta = table[:, m] - table[:, n_]
            out[m, n_] = np.exp(-0.5 * float(delta @ cov @ delta))
    return out


def pair_quadratic(table: np.ndarray, cov: CovarianceMatrix) -> np.ndarray:
    """The full matrix of delta^T C delta over pairs of the basis states
    whose columns of the site energy table are given, from one Gram matrix
    of the whole table: the arithmetic dephase applies a block of rows at a
    time, kept whole as its bitwise oracle.  Overflow is refused as dephase
    refuses it."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = table.T @ (cov.entries @ table)
        diag = np.diag(gram).copy()  # d_m = g_mm, the GEMM's own bits
        gram = (gram + gram.T) / 2
        quad = diag[:, None] + diag[None, :] - 2.0 * gram
    if not np.isfinite(quad).all():
        raise ValueError("delta^T C delta overflows for this covariance and generator")
    np.fill_diagonal(quad, 0.0)
    return quad


def dense_traces(a: np.ndarray, effects) -> np.ndarray:
    """Re Tr(A Pi_x) per dense effect; reference for the factored Povm."""
    return np.array([np.trace(a @ e).real for e in effects])


def dense_shot_probabilities(w: np.ndarray, rho: np.ndarray, effects) -> np.ndarray:
    """(shots, outcomes) Tr((w_s w_s^dagger * rho) Pi_x) through the dense
    per-shot states; reference for the factored simulation kernel."""
    weighted = (w[:, :, None] * w.conj()[:, None, :]) * rho[None, :, :]
    stack = np.stack([e.T.ravel() for e in effects], axis=1)
    return (weighted.reshape(w.shape[0], -1) @ stack).real


def grouped_povm_effects(r: np.random.Generator, dim: int, groups) -> list[np.ndarray]:
    """Dense effects summing to the identity: the columns of a random
    (dim, 2 dim) frame split into the given index groups; an empty group
    gives a zero effect."""
    g = ginibre(r, dim, 2 * dim)
    lam, vec = np.linalg.eigh(g @ g.conj().T)
    frame = (vec / np.sqrt(lam)) @ vec.conj().T @ g
    return [frame[:, list(k)] @ frame[:, list(k)].conj().T for k in groups]


def measurement_case(case: str, n: int, seed: int = 0):
    """(state, POVM, the POVM's dense effects) for the factored-vs-dense
    checks: "pure" and "mixed" states under a random projective POVM, and
    "grouped", a mixed state under a non-projective POVM with a zero effect."""
    r = rng(seed)
    dim = 2**n
    if case == "pure":
        rho = random_pure_density(r, dim)
    else:
        rho = random_density(r, dim)
    if case == "grouped":
        cut = max(1, dim // 2)
        groups = [range(cut), range(cut, cut + 1), range(0), range(cut + 1, 2 * dim)]
        effects = grouped_povm_effects(r, dim, groups)
        return rho, Povm(effects), effects
    q, _ = np.linalg.qr(ginibre(r, dim, dim))
    effects = [np.outer(q[:, k], q[:, k].conj()) for k in range(dim)]
    return rho, Povm.projective(q), effects


def embedded_case(case: str, n: int, seed: int = 0, mixing: bool = False):
    """(state, POVM, dense effects) on n + 1 qubits for the support checks.
    The state of measurement_case(case, n) sits on a random half of the
    basis states; the other rows are zero.  With mixing=False the POVM is
    measurement_case(case, n)'s on that half, plus a rank-one outcome
    e_j e_j^dagger for each other basis state j, inserted after outcome 0,
    so some outcomes can never fire.  With mixing=True it is
    measurement_case(case, n + 1)'s, whose columns touch every row."""
    rho, _, effects = measurement_case(case, n, seed)
    dim = 2 ** (n + 1)
    live = np.sort(rng(seed + 1).choice(dim, size=dim // 2, replace=False))
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[np.ix_(live, live)] = rho.entries
    state = DensityMatrix(entries)
    if mixing:
        _, povm, effects = measurement_case(case, n + 1, seed)
        return state, povm, effects
    big = []
    for e in effects:
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[np.ix_(live, live)] = e
        big.append(out)
    singles = []
    for j in np.setdiff1d(np.arange(dim), live):
        out = np.zeros((dim, dim), dtype=np.complex128)
        out[j, j] = 1.0
        singles.append(out)
    effects = big[:1] + singles + big[1:]
    return state, Povm(effects), effects


def traced_peak_mb(fn, *args, **kwargs) -> float:
    """Peak memory traced by tracemalloc while fn runs, above the level at
    its start, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


# The LAPACK-backed np.linalg functions the package calls (its other
# np.linalg names, norm and LinAlgError, run no LAPACK routine).
LAPACK_CALLS = ("cholesky", "eigh", "eigvalsh", "lstsq", "solve")


def lapack_kinds(fn, *args):
    """(fn(*args), the dtype names of the arrays it passes to the np.linalg
    functions of LAPACK_CALLS)."""
    kinds = set()

    def spy(solve):
        def call(*arrays, **kwargs):
            kinds.update(a.dtype.name for a in arrays if isinstance(a, np.ndarray))
            return solve(*arrays, **kwargs)
        return call

    with contextlib.ExitStack() as stack:
        for name in LAPACK_CALLS:
            stack.enter_context(mock.patch.object(np.linalg, name, spy(getattr(np.linalg, name))))
        return fn(*args), kinds


def tie_breaks_past_test(fn, *args):
    """(fn(*args), the size of each H restriction that optimal_povm's
    tie-break (fisher._hermitian_eigh) diagonalises past its one-level
    test)."""
    past = []
    tie_break = fisher._hermitian_eigh

    def spy(h, tol):
        levels, rot = tie_break(h, tol)
        if rot is not None:
            past.append(h.shape[0])
        return levels, rot

    with mock.patch.object(fisher, "_hermitian_eigh", spy):
        return fn(*args), past


class Shots(NamedTuple):
    """A simulate run and its per-shot arrays, gathered by collect_shots."""

    result: SimulationResult
    phases: np.ndarray
    outcomes: np.ndarray
    estimates_best: np.ndarray


def collect_shots(cfg, shots: int, seed: int) -> Shots:
    """simulate(cfg, shots, seed) with every shot's phases, outcome and
    est_best copied out of the per-chunk callback and joined in shot order."""
    chunks = []

    def keep(phases, outcomes, estimates_best):
        chunks.append((phases.copy(), outcomes.copy(), estimates_best.copy()))

    result = simulate(cfg, shots, seed, keep)
    return Shots(result, *(np.concatenate(parts) for parts in zip(*chunks)))


def _dense_frame(rho: DensityMatrix, gen: GeneratorSpec):
    lam, vec = np.linalg.eigh(rho.entries)
    drho = derivative_state(rho, gen).entries
    mixed = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    keep = denom > _rounding_floor(lam.size, lam[-1])
    return vec, mixed, denom, keep


def dense_sld(rho: DensityMatrix, gen: GeneratorSpec) -> np.ndarray:
    """SLD from a complex eigendecomposition of the whole matrix;
    reference for the support frame of fisher.sld."""
    vec, mixed, denom, keep = _dense_frame(rho, gen)
    safe = np.where(keep, denom, 1.0)
    frame = np.where(keep, 2.0 * mixed / safe, 0.0)
    out = vec @ frame @ vec.conj().T
    return (out + out.conj().T) / 2


def dense_qfi(rho: DensityMatrix, gen: GeneratorSpec) -> float:
    """QFI from a complex eigendecomposition of the whole matrix;
    reference for the support frame of fisher.qfi."""
    _, mixed, denom, keep = _dense_frame(rho, gen)
    safe = np.where(keep, denom, 1.0)
    terms = np.where(keep, np.abs(mixed) ** 2 / safe, 0.0)
    return float(2.0 * terms.sum())


def dense_optimal_basis(rho: DensityMatrix, gen: GeneratorSpec) -> np.ndarray:
    """Eigenbasis of the dense SLD with degenerate eigenspaces resolved by
    H, as columns; reference for the support path of fisher.optimal_povm."""
    ell, vec = np.linalg.eigh(dense_sld(rho, gen))
    scale = float(np.abs(ell).max())
    start = 0
    for stop in range(1, len(ell) + 1):
        if stop < len(ell) and ell[stop] - ell[stop - 1] <= 1e-8 * scale:
            continue
        block = vec[:, start:stop]
        restricted = block.conj().T @ (gen.energies[:, None] * block)
        _, rot = np.linalg.eigh((restricted + restricted.conj().T) / 2)
        vec[:, start:stop] = block @ rot
        start = stop
    return vec


def frame_case(case: str, n: int, seed: int = 0) -> DensityMatrix:
    """States for the support-frame checks on n qubits: "complex" and
    "real" full-rank states; "subset", a complex state on a random half of
    the basis states (the other rows are zero); "deficient", a state on
    such a subset with half its size as rank, so rank-deficient inside its
    support; "ghz" and
    "plus", the dephased probes rotated by phi = 0.3 (complex)."""
    r = rng(seed)
    dim = 2**n
    gen = GeneratorSpec.qubits(n)
    if case in ("ghz", "plus"):
        probe = ghz_state(n) if case == "ghz" else product_plus_state(n)
        return encode_phase(dephase(probe, gen, build_c2(n, 0.5, 0.5)), gen, 0.3)
    if case == "real":
        g = r.normal(size=(dim, 2 * dim))
        rho = g @ g.T
        return DensityMatrix(rho / np.trace(rho))
    if case == "complex":
        return random_density(r, dim)
    support = np.sort(r.choice(dim, size=max(2, dim // 2), replace=False))
    rank = support.size // 2 if case == "deficient" else 2 * support.size
    g = ginibre(r, support.size, rank)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[np.ix_(support, support)] = g @ g.conj().T
    return DensityMatrix(rho / np.trace(rho).real)
