"""Bayesian phase estimation with Gaussian priors over correlated site phases.

The site phases are jointly Gaussian with mean phi0 (the informed guess)
and covariance C.  Gaussian integration by parts collapses the posterior
mean of each site phase to commutator traces on the averaged state:

    est_j(x) = phi0 + sum_k C_jk Tr(-i [H_k, rho_bar] Pi_x) / p(x),

and the optimally weighted combination est = sum_j gamma_j est_j obeys
    est(x) - phi0 = delta2_c * d/dphi log p_phi(x) at phi0.
Two exact consequences drive the tests here: the local second moment of
est equals delta2_c^2 times the classical Fisher information, and the
Bayesian mean square error splits as delta2_c - local_error.  Rescaling by
the local slope gives the locally unbiased estimator est_best whose local
error saturates the classical Cramer-Rao bound 1/F for the chosen POVM.

simulate draws phases, samples an outcome from the exactly encoded state,
and applies est_best, using the fixed chunk partition of dephasing.chunk_rngs
so runs are a deterministic function of (seed, shots).  It samples on the
support of the probe only, over the outcomes whose columns touch it; the
others have probability 0 at every phase (see the fisher module).
"""
from __future__ import annotations

import dataclasses
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .core import DensityMatrix, GeneratorSpec, _grid, _support, encode_phase
from .covariance import CovarianceMatrix, delta2_c, weights
from .dephasing import chunk_rngs, covariance_sqrt, dephase
from .errors import (
    DegenerateMeasurementError,
    NumericalConsistencyError,
    UninformativeMeasurementError,
)
from .fisher import PROB_FLOOR, RANK_TOL_FACTOR, Povm, qfi

_PROB_SUM_TOL = 1e-10
_NEGATIVE_PROB_TOL = -1e-12


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One estimation scenario: probe state, generator, phase covariance,
    measurement, informed guess phi0, and a shift delta_phi of the true
    phase mean away from the guess (zero for a well-informed experiment).

    A caller that already built the averaged state (to choose the POVM from
    it) passes it as rho_bar; it is kept as averaged_state, not rebuilt."""

    rho: DensityMatrix
    gen: GeneratorSpec
    cov: CovarianceMatrix
    povm: Povm
    phi0: float = 0.0
    delta_phi: float = 0.0
    rho_bar: InitVar[Optional[DensityMatrix]] = None

    def __post_init__(self, rho_bar):
        if self.rho.dim != self.gen.dim:
            raise ValueError("state and generator dimensions differ")
        if self.povm.dim != self.rho.dim:
            raise ValueError("POVM and state dimensions differ")
        if self.cov.n != self.gen.nsites:
            raise ValueError("covariance size does not match the site count")
        if rho_bar is not None:
            if rho_bar.dim != self.rho.dim:
                raise ValueError("averaged state and state dimensions differ")
            self.__dict__["averaged_state"] = rho_bar

    @cached_property
    def delta2(self) -> float:
        return delta2_c(self.cov)

    @cached_property
    def gamma(self) -> np.ndarray:
        return weights(self.cov).gamma

    @cached_property
    def averaged_state(self) -> DensityMatrix:
        """rho_bar at the informed guess: dephased, then rotated by phi0."""
        return encode_phase(dephase(self.rho, self.gen, self.cov), self.gen, self.phi0)


@dataclass(frozen=True, eq=False)
class EstimatorTable:
    """Per-outcome averaged probabilities and posterior-mean estimates.

    site_estimates has shape (outcomes, nsites); estimates is the gamma
    weighted combination; best is filled by best_estimator.  Outcomes whose
    averaged probability is at or below the floor are listed in excluded
    and pinned to the informed guess.
    """

    probs: np.ndarray
    site_estimates: np.ndarray
    estimates: np.ndarray
    phi0: float
    delta2: float
    gamma: np.ndarray
    excluded: tuple[int, ...]
    best: Optional[np.ndarray] = None

    def __post_init__(self):
        total = self.probs.sum()
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise NumericalConsistencyError(f"averaged probabilities sum to {total!r}")
        combo = self.phi0 + (self.site_estimates - self.phi0) @ self.gamma
        if np.abs(combo - self.estimates).max() > 1e-12:
            raise NumericalConsistencyError("estimates drifted from the weighted combination")

    @property
    def outcomes(self) -> int:
        return self.probs.size


@dataclass(frozen=True, eq=False)
class QbcrReport:
    """Bayesian mean square error against its quantum lower bound."""

    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A sampled run.  predicted_mse is the local error of est_best,
    delta2_c^2 / local_error of the estimator table, which equals
    1 / classical_fi of the measurement exactly (see the module docstring)."""

    shots: int
    seed: int
    phi0: float
    delta_phi: float
    empirical_mse_best: float
    mse_stderr: Optional[float]
    empirical_mean: float
    mean_stderr: Optional[float]
    phases: np.ndarray
    phi_c: np.ndarray
    outcomes: np.ndarray
    estimates: np.ndarray
    estimates_best: np.ndarray
    predicted_mse: float

    def per_shot_rows(self):
        """Yield per-shot log rows: index, sampled phases, outcome, estimate."""
        for i in range(self.shots):
            yield (i, *self.phases[i], int(self.outcomes[i]), float(self.estimates_best[i]))


def _state_factor(rho: DensityMatrix) -> np.ndarray:
    """(len(live), r) factor A with rho[live, live] = A A^dagger on the
    support `live` of rho (core._support; every other row of rho is zero),
    keeping the eigenvalues above RANK_TOL_FACTOR * lam_max (the rank rule
    of the SLD)."""
    lam, vec = np.linalg.eigh(rho.entries[_grid(_support(rho.entries))])
    keep = lam > RANK_TOL_FACTOR * lam[-1]
    return vec[:, keep] * np.sqrt(lam[keep])


def _shot_probabilities(povm: Povm, factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(shots, outcomes) probabilities of diag(w_s) A A^dagger diag(w_s)^dagger
    per row w_s of w: sum over columns of |(w_s * A)^T conj(V)|^2."""
    size, dim = w.shape
    rank = factor.shape[1]
    rotated = (w[:, :, None] * factor[None, :, :]).transpose(0, 2, 1).reshape(size * rank, dim)
    amplitudes = rotated @ povm.vectors.conj()
    column_probs = (amplitudes.real**2 + amplitudes.imag**2).reshape(size, rank, -1).sum(axis=1)
    return povm.collect(column_probs)


def averaged_probabilities(cfg: ExperimentConfig, phi: float) -> np.ndarray:
    """Outcome distribution of the dephased state rotated to phi."""
    state = encode_phase(dephase(cfg.rho, cfg.gen, cfg.cov), cfg.gen, phi)
    return cfg.povm.probabilities(state)


def bayes_estimators(cfg: ExperimentConfig, prob_floor: float = PROB_FLOOR) -> EstimatorTable:
    """Posterior-mean site estimators via the commutator-trace reduction."""
    # Per column v: p = v^dagger rho_bar v and, for each site,
    # v^dagger (-i [S_j, rho_bar]) v = 2 Im(v^dagger S_j rho_bar v).
    # Only the columns touching the support of rho_bar contribute.
    entries = cfg.averaged_state.entries
    live = _support(entries)
    sub, reached = cfg.povm.restrict(live)
    v = sub.vectors
    terms = v.conj() * (entries[_grid(live)] @ v)
    probs = cfg.povm.spread(sub.collect(terms.sum(axis=0).real), reached)
    included = probs > prob_floor
    if not included.any():
        raise DegenerateMeasurementError("every outcome fell below the probability floor")
    site_traces = 2.0 * (cfg.gen.site_energy_table[:, live] @ terms).imag
    traces = cfg.povm.spread(sub.collect(site_traces), reached)

    ratios = np.zeros_like(traces)
    ratios[:, included] = traces[:, included] / probs[included]
    site_estimates = cfg.phi0 + (cfg.cov.entries @ ratios).T
    estimates = cfg.phi0 + (site_estimates - cfg.phi0) @ cfg.gamma
    return EstimatorTable(
        probs=probs,
        site_estimates=site_estimates,
        estimates=estimates,
        phi0=cfg.phi0,
        delta2=cfg.delta2,
        gamma=cfg.gamma,
        excluded=tuple(int(k) for k in np.flatnonzero(~included)),
    )


def local_error(cfg: ExperimentConfig, table: Optional[EstimatorTable] = None) -> float:
    """Second moment of the combined estimator around phi0 under the
    averaged distribution; equals delta2^2 times the classical Fisher
    information of the measurement."""
    if table is None:
        table = bayes_estimators(cfg)
    dev = table.estimates - table.phi0
    return float(np.sum(table.probs * dev * dev))


def best_estimator(cfg: ExperimentConfig) -> EstimatorTable:
    """Locally unbiased rescaling; its local error is 1/classical_fi."""
    table = bayes_estimators(cfg)
    le = local_error(cfg, table)
    if le <= 0.0:
        raise UninformativeMeasurementError("measurement has zero local information")
    best = table.phi0 + (table.estimates - table.phi0) * (table.delta2 / le)
    return dataclasses.replace(table, best=best)


def bayes_mse(cfg: ExperimentConfig) -> float:
    """Bayesian mean square error of the posterior-mean estimator:
    delta2_c minus the local error (an exact identity)."""
    table = bayes_estimators(cfg)
    return cfg.delta2 - local_error(cfg, table)


def qbcr_gap(cfg: ExperimentConfig) -> QbcrReport:
    """Gap of the Bayesian MSE above (1/delta2_c + F_rho)^{-1}; nonnegative
    up to rounding for every measurement."""
    lhs = bayes_mse(cfg)
    rhs = 1.0 / (1.0 / cfg.delta2 + qfi(cfg.rho, cfg.gen))
    return QbcrReport(lhs=lhs, rhs=rhs, gap=lhs - rhs)


def map_ordered(fn: Callable, items: Iterable) -> list:
    """[fn(item) for item in items]; simulate runs its chunks through this
    one module-level name so that a profiler can time each chunk."""
    return [fn(item) for item in items]


def simulate(cfg: ExperimentConfig, shots: int, seed: int) -> SimulationResult:
    """Sample phases ~ N((phi0 + delta_phi) 1, C), draw one outcome per shot
    from the exactly encoded state, and apply the locally unbiased estimator.

    Outcome sampling inverts the per-shot CDF; probabilities are clamped at
    zero and renormalized when the worst negative stays above -1e-12, else a
    NumericalConsistencyError is raised.
    """
    if shots < 1:
        raise ValueError("shots must be at least 1")
    table = best_estimator(cfg)
    root = covariance_sqrt(cfg.cov)
    # Sample on the support of the probe: the other rows of every encoded
    # state are zero, and only the outcomes `reached` there can fire.
    live = _support(cfg.rho.entries)
    energy_table = cfg.gen.site_energy_table[:, live]
    factor = _state_factor(cfg.rho)
    povm, reached = cfg.povm.restrict(live)
    mean = cfg.phi0 + cfg.delta_phi
    jobs = chunk_rngs(seed, shots)
    starts = np.cumsum([0] + [size for _, size in jobs[:-1]])
    phases = np.empty((shots, cfg.cov.n))
    outcomes = np.empty(shots, dtype=np.int_)

    def run_chunk(job):
        (rng, size), start = job
        rows = slice(start, start + size)
        np.matmul(rng.standard_normal((size, cfg.cov.n)), root, out=phases[rows])
        phases[rows] += mean
        w = np.exp(-1j * (phases[rows] @ energy_table))
        probs = _shot_probabilities(povm, factor, w)
        worst = probs.min()
        if worst < _NEGATIVE_PROB_TOL:
            raise NumericalConsistencyError(
                f"outcome probability {worst:.3e} below the clamping tolerance"
            )
        np.clip(probs, 0.0, None, out=probs)
        cdf = np.cumsum(probs, axis=1)
        cdf /= cdf[:, -1:]
        draws = rng.random(size)
        outcomes[rows] = (draws[:, None] > cdf).sum(axis=1)

    map_ordered(run_chunk, zip(jobs, starts))
    if not isinstance(reached, slice):
        outcomes = reached[outcomes]

    estimates_best = table.best[outcomes]
    estimates = table.estimates[outcomes]
    squares = (estimates_best - cfg.phi0) ** 2
    if shots > 1:
        mse_stderr = float(squares.std(ddof=1) / np.sqrt(shots))
        mean_stderr = float(estimates_best.std(ddof=1) / np.sqrt(shots))
    else:
        mse_stderr = None
        mean_stderr = None
    return SimulationResult(
        shots=shots,
        seed=seed,
        phi0=cfg.phi0,
        delta_phi=cfg.delta_phi,
        empirical_mse_best=float(squares.mean()),
        mse_stderr=mse_stderr,
        empirical_mean=float(estimates_best.mean()),
        mean_stderr=mean_stderr,
        phases=phases,
        phi_c=phases @ cfg.gamma,
        outcomes=outcomes,
        estimates=estimates,
        estimates_best=estimates_best,
        predicted_mse=table.delta2**2 / local_error(cfg, table),
    )
