"""Bayesian phase estimation with Gaussian priors over correlated site phases.

The site phases are jointly Gaussian with mean phi0 (the informed guess)
and covariance C.  Gaussian integration by parts collapses the posterior
mean of each site phase to commutator traces on the averaged state:

    est_j(x) = phi0 + sum_k C_jk Tr(-i [H_k, rho_bar] Pi_x) / p(x),

and the optimally weighted combination est = sum_j gamma_j est_j obeys
    est(x) - phi0 = delta2_c * d/dphi log p_phi(x) at phi0.
The estimator table (bayes_estimators) and fisher.classical_fi read p(x)
and these traces from one Povm.statistics pass, over the site energies
and over the total energy H = sum_k H_k.  Two exact consequences drive the
tests here: the local second moment of est equals delta2_c^2 times the
classical Fisher information, and the Bayesian mean square error splits as
delta2_c - local_error.  Rescaling by the local slope gives the locally
unbiased estimator est_best whose local error saturates the classical
Cramer-Rao bound 1/F for the chosen POVM.

simulate draws phases, samples an outcome from the exactly encoded state,
and applies est_best, using the fixed chunk partition of chunk_rngs so
runs are a deterministic function of (seed, shots).  It samples on the
support of the probe only, over the columns that reach it (Povm.restrict),
and a shot counts for the label of its column, its outcome.  Every
number it reports depends only on how often each outcome fired, so a run
keeps one int64 count per outcome and no per-shot array: its memory does
not grow with the shot count.  The empirical mean and MSE of est_best and
their standard errors are count-weighted sums of the per-outcome doubles,
taken exactly and rounded once.  A caller that wants the shots themselves
(the CLI's --per-shot log) passes a callback that sees each chunk's phases,
outcomes and estimates while they are in the work buffers.

The sampling kernel works shots-last.  With the probe factored on its
support as rho = A A^dagger (rank r, s rows) and the m measurement columns
v_c restricted to those rows, the amplitude of shot weights w on column c
is (w * a_k)^T conj(v_c) = w^T (a_k * conj(v_c)), so the probe is folded
into the measurement once per call (_fold), and a batch of b shots is one
(r m, s) x (s, b) product.  The folded matrix is not batched: it holds
r m s complex entries, 16 MiB per rank component at n = 10 (s = m = 1024),
so a full-rank library probe there would need 16 GiB.  A fold over
FOLD_ELEMENTS (2^22 entries, 64 MiB) is refused with a ValueError from the
probe's factor, before the fold and the estimator table are built; both
named probes are pure (r = 1), 2^20 entries at n = 10.
The shot weights take one of two routes, both written into one complex
buffer.  On a full support (product-plus, a random mixed state) they are
exp(-i phi . (h(m) - h(0))), a Kronecker product of per-site factors
built from sum_j (d_j - 1) tangents per shot, n for qubits
(_product_weights); the unit factor exp(i phi . h(0)) they drop cancels in
every probability.  On a partial support (GHZ, s = 2) they
are cos and sin of the phase products phi . h(m), 2 s calls per shot
(_phase_weights).  The CDF is summed down the column axis in place and
inverted with one compare of the draws against all of its rows, the same
comparisons a shots-first kernel makes; the column of a shot is the sum of
its flags, its label the outcome.  Each chunk draws its normals, then its
uniforms, into buffers of the chunk's size, so the streams are those of
standard_normal((size, n)) and random(size).  A chunk runs in batches of
shots (_batch_shots), the fewest that pay for the product repacking the
folded matrix on every batch: BATCH_MIN_ELEMENTS (2^14) elements in the
widest buffer, max(s, r m) rows, and at least BATCH_MIN_SHOTS (512), capped
at BATCH_ELEMENTS (2^19) elements and one chunk.  That is 8192 shots on
GHZ's 2 rows, 2048 on 8 rows and 512 on 256 or 1024 rows.  The work
buffers are allocated once per call: the chunk's phases, uniforms and
columns, and two float64 pools that every other temporary of a chunk or a
batch is a view of, sized for the route the weights take.  Batches draw
nothing, so the seeded streams do not depend on the batch size.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .core import DensityMatrix, GeneratorSpec, dephase, encode_phase
from .covariance import CovarianceMatrix, delta2_c, weights
from .errors import (
    DegenerateMeasurementError,
    NumericalConsistencyError,
    UninformativeMeasurementError,
)
from .fisher import PROB_FLOOR, Povm, _psd_factor, _support_block, qfi

_PROB_SUM_TOL = 1e-10
CHUNK_SHOTS = 8192
# The one Monte Carlo sampler, simulate, weighs a chunk in batches of shots
# (_batch_shots).  Each batch repacks the folded measurement in its matrix
# product, so a batch is the smallest that pays for that: BATCH_MIN_ELEMENTS
# elements in the rows of the widest shots-last buffer, and BATCH_MIN_SHOTS
# shots.  BATCH_ELEMENTS and CHUNK_SHOTS cap it.  The batches consume no
# random numbers, so the seeded streams do not depend on these.
BATCH_ELEMENTS = 1 << 19
BATCH_MIN_ELEMENTS = 1 << 14
BATCH_MIN_SHOTS = 512
# Most shots of one run: the outcome counts are int64.
MAX_SHOTS = int(np.iinfo(np.int64).max)
# Most complex entries of simulate's folded measurement (_fold), r m s for a
# rank-r probe on s support rows and m measurement columns: 64 MiB, four
# times what a pure probe needs at n = 10 (s = m = 1024).  A larger fold is
# refused before it is allocated.
FOLD_ELEMENTS = 1 << 22
# simulate's per-chunk callback: (phases, outcomes, estimates_best).
ChunkCallback = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


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
        for name in ("phi0", "delta_phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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


@dataclass(frozen=True, eq=False)
class QbcrReport:
    """Bayesian mean square error against its quantum lower bound."""

    lhs: float
    rhs: float
    gap: float


@dataclass(frozen=True, eq=False)
class SimulationResult:
    """A sampled run.  counts[x] is how often outcome x of the measurement
    fired; the empirical moments follow from it exactly.  chunks is the
    number of chunks of chunk_rngs, and excluded the number of outcomes the
    estimator table pins to phi0 (EstimatorTable.excluded).  predicted_mse
    is the local error of est_best, delta2_c^2 / local_error of the
    estimator table, which equals 1 / classical_fi of the measurement
    exactly (see the module docstring)."""

    shots: int
    seed: int
    phi0: float
    delta_phi: float
    empirical_mse_best: float
    mse_stderr: Optional[float]
    empirical_mean: float
    mean_stderr: Optional[float]
    counts: np.ndarray
    chunks: int
    excluded: int
    predicted_mse: float


def _state_factor(block: np.ndarray) -> np.ndarray:
    """(s, r) factor A with block = A A^dagger, for the block of rho on its
    support (fisher._support_block: real when rho is, and every other row of
    rho is zero), keeping the eigenvalues above the rounding floor
    (fisher._psd_factor).  The SLD's rank rule (fisher._kept_pairs) applies
    the same floor to pairs lam_k + lam_l."""
    return _psd_factor(*np.linalg.eigh(block))


def _fold(povm: Povm, factor: np.ndarray) -> np.ndarray:
    """(r * m, s) matrix whose row (k, c) is a_k * conj(v_c), for the r
    columns a_k of the factor and the m columns v_c of the measurement, both
    on the same s rows.  The amplitude of rank component k on column c for
    phase weights w is (w * a_k)^T conj(v_c) = row (k, c) . w."""
    rows, rank = factor.shape
    folded = np.empty((rank, povm.vectors.shape[1], rows), dtype=np.complex128)
    for k in range(rank):
        np.conjugate(povm.vectors.T, out=folded[k])
        folded[k] *= factor[:, k]
    return folded.reshape(-1, rows)


def _shot_probabilities(
    folded: np.ndarray, w: np.ndarray, amplitudes: np.ndarray, squares: np.ndarray
) -> np.ndarray:
    """(m, b) probabilities of diag(w_s) A A^dagger diag(w_s)^dagger per
    measurement column (an outcome sums the rows it labels) and per column
    w_s of the (s, b) phase weights w: the sum over the rank of |folded @
    w|^2, folded = _fold(povm, A), shots along the last axis.  amplitudes
    (r * m, b) complex is overwritten and squares (m, b) real returned."""
    m = squares.shape[0]
    np.matmul(folded, w, out=amplitudes)
    parts = amplitudes.view(np.float64)  # the real and imaginary parts, interleaved
    np.square(parts, out=parts)
    re, im = parts[:, 0::2], parts[:, 1::2]
    np.add(re[:m], im[:m], out=squares)
    for k in range(m, amplitudes.shape[0], m):
        np.add(re[k : k + m], im[k : k + m], out=re[k : k + m])
        squares += re[k : k + m]
    return squares


def averaged_probabilities(cfg: ExperimentConfig, phi: float) -> np.ndarray:
    """Outcome distribution of the dephased state rotated to phi."""
    state = encode_phase(dephase(cfg.rho, cfg.gen, cfg.cov), cfg.gen, phi)
    return cfg.povm.probabilities(state)


def _estimates(cfg: ExperimentConfig) -> tuple[EstimatorTable, np.ndarray]:
    """bayes_estimators' table and est - phi0 per outcome, formed before
    phi0 is added: phi0 + d and back would round d and -d apart."""
    # Per outcome: p and, for each site, Tr(-i [S_j, rho_bar] Pi_x).
    probs, traces = cfg.povm.statistics(cfg.averaged_state, cfg.gen.site_energy_table)
    included = probs > PROB_FLOOR
    if not included.any():
        raise DegenerateMeasurementError("every outcome fell below the probability floor")

    ratios = np.zeros_like(traces)
    ratios[:, included] = traces[:, included] / probs[included]
    site_deviations = (cfg.cov.entries @ ratios).T
    deviations = site_deviations @ cfg.gamma
    return EstimatorTable(
        probs=probs,
        site_estimates=cfg.phi0 + site_deviations,
        estimates=cfg.phi0 + deviations,
        phi0=cfg.phi0,
        delta2=cfg.delta2,
        gamma=cfg.gamma,
        excluded=tuple(int(k) for k in np.flatnonzero(~included)),
    ), deviations


def bayes_estimators(cfg: ExperimentConfig) -> EstimatorTable:
    """Posterior-mean site estimators via the commutator-trace reduction."""
    return _estimates(cfg)[0]


def _scaled_local_error(table: EstimatorTable, deviations: np.ndarray) -> tuple[float, float]:
    """(s, local error times s^2), s = 2^-e for delta2 = f 2^e (frexp):
    est - phi0 = delta2 * score, so the scaled squares keep their digits at
    tiny noise, and scaling by a power of two is exact."""
    s = math.ldexp(1.0, min(-math.frexp(table.delta2)[1], np.finfo(float).maxexp - 1))
    dev = deviations * s
    return s, float(np.sum(table.probs * dev * dev))


def local_error(cfg: ExperimentConfig) -> float:
    """Second moment of the combined estimator around phi0 under the
    averaged distribution; equals delta2^2 times the classical Fisher
    information of the measurement."""
    s, scaled = _scaled_local_error(*_estimates(cfg))
    return scaled / s / s


def _best(cfg: ExperimentConfig) -> tuple[EstimatorTable, float, float]:
    """best_estimator's table and the _scaled_local_error that rescaled it."""
    table, deviations = _estimates(cfg)
    s, scaled = _scaled_local_error(table, deviations)
    if scaled <= 0.0:
        raise UninformativeMeasurementError("measurement has zero local information")
    best = table.phi0 + deviations * (table.delta2 * s * s / scaled)
    return dataclasses.replace(table, best=best), s, scaled


def best_estimator(cfg: ExperimentConfig) -> EstimatorTable:
    """Locally unbiased rescaling; its local error is 1/classical_fi."""
    return _best(cfg)[0]


def bayes_mse(cfg: ExperimentConfig) -> float:
    """Bayesian mean square error of the posterior-mean estimator:
    delta2_c minus the local error (an exact identity)."""
    return cfg.delta2 - local_error(cfg)


def qbcr_gap(cfg: ExperimentConfig) -> QbcrReport:
    """Gap of the Bayesian MSE above (1/delta2_c + F_rho)^{-1}; nonnegative
    up to rounding for every measurement."""
    lhs = bayes_mse(cfg)
    rhs = 1.0 / (1.0 / cfg.delta2 + qfi(cfg.rho, cfg.gen))
    return QbcrReport(lhs=lhs, rhs=rhs, gap=lhs - rhs)


def covariance_sqrt(cov: CovarianceMatrix) -> np.ndarray:
    """Symmetric PSD square root of C, used for Gaussian phase sampling.
    CovarianceMatrix has checked C's positivity; eigenvalues that rounding
    leaves below 0 are taken as 0."""
    lam, vec = np.linalg.eigh(cov.entries)
    root = (vec * np.sqrt(np.clip(lam, 0.0, None))) @ vec.T
    return (root + root.T) / 2


def _batch_shots(rows: int) -> int:
    """Shots per batch of a kernel whose widest buffer has `rows` rows: the
    fewest that fill BATCH_MIN_ELEMENTS elements, and never fewer than
    BATCH_MIN_SHOTS, within the caps BATCH_ELEMENTS and CHUNK_SHOTS."""
    rows = max(rows, 1)
    least = max(BATCH_MIN_SHOTS, -(-BATCH_MIN_ELEMENTS // rows))
    return max(1, min(CHUNK_SHOTS, BATCH_ELEMENTS // rows, least))


def _shaped(pool: np.ndarray, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
    """Contiguous (rows, cols) view, read as dtype, of the front of a flat
    float64 work pool."""
    size = rows * cols * np.dtype(dtype).itemsize
    return pool.view(np.uint8)[:size].view(dtype).reshape(rows, cols)


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


def _check_shots(shots: int) -> None:
    """Every run takes at least one shot and at most MAX_SHOTS."""
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}")


def chunk_rngs(seed: int, shots: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Fixed partition policy: ceil(shots / CHUNK_SHOTS) chunks, chunk i
    seeded with the i-th child of SeedSequence(seed).  The chunks are
    yielded one at a time, each child spawned as its chunk is taken (one
    spawn(1) per chunk gives the children of one spawn(k)).  Sampled results
    depend only on (seed, shots, CHUNK_SHOTS).  The shot count and the seed
    are checked here, before the first chunk is taken."""
    _check_shots(shots)
    seq = np.random.SeedSequence(seed)
    return (
        (np.random.default_rng(seq.spawn(1)[0]), min(CHUNK_SHOTS, shots - start))
        for start in range(0, shots, CHUNK_SHOTS)
    )


def map_ordered(fn: Callable, items: Iterable) -> None:
    """fn(item) for each item in order, keeping nothing; simulate runs its
    chunks through this one module-level name so that a profiler can time each chunk."""
    for item in items:
        fn(item)


def _sampled_probe(cfg: ExperimentConfig):
    """(live, factor, povm): the support of the probe, its factor there
    (_state_factor) and the measurement restricted to it (Povm.restrict).
    Sampling works on that support: the other rows of every encoded state
    are zero, and only the outcomes that label a restricted column can
    fire.  A fold of the factor into the measurement over FOLD_ELEMENTS
    is refused with a ValueError."""
    live, block, _ = _support_block(cfg.rho, cfg.gen)
    factor = _state_factor(block)
    del block
    povm = cfg.povm.restrict(live)
    (support, rank), columns = factor.shape, povm.vectors.shape[1]
    if rank * columns * support > FOLD_ELEMENTS:
        raise ValueError(
            f"the folded measurement needs rank {rank} x {columns} columns x {support} rows "
            f"= {rank * columns * support} complex entries, over the budget of "
            f"FOLD_ELEMENTS = {FOLD_ELEMENTS}"
        )
    return live, factor, povm


def _sample_counts(
    cfg: ExperimentConfig, probe, shots: int, jobs: Iterator, best: np.ndarray,
    on_chunk: Optional[ChunkCallback],
) -> np.ndarray:
    """How often each outcome of cfg.povm fired over the chunks `jobs` of
    chunk_rngs(seed, shots), for the probe as _sampled_probe gives it; see
    simulate.  Every work buffer is sized for one chunk or one batch and
    allocated here, once, and freed on return."""
    nsites = cfg.cov.n
    root = covariance_sqrt(cfg.cov)
    live, factor, povm = probe
    support, columns = factor.shape[0], povm.vectors.shape[1]
    folded = _fold(povm, factor)
    terms = folded.shape[0]
    mean = cfg.phi0 + cfg.delta_phi

    chunk = min(CHUNK_SHOTS, shots)
    batch = min(chunk, _batch_shots(max(support, terms)))
    # The phases, uniforms and columns of a chunk live through all of its
    # batches, and on_chunk reads the phases and their outcomes.  Every other
    # temporary is a view of one of two float64 pools, and the uses of a
    # pool never overlap.  Pool a holds the chunk's normals until the
    # phases are made, then in each batch the weights' scratch, the
    # amplitudes and the CDF's flags.  Pool b holds the weights, then the
    # squares, summed into the CDF in place, then the flags' tally.
    phases = np.empty((chunk, nsites))
    draws = np.empty(chunk)
    found = np.empty(chunk, dtype=np.int_)
    # Each route sizes pool a for its own scratch.
    if isinstance(live, slice):
        dims, steps = cfg.gen.dims, _site_steps(cfg.gen)
        scratch_rows = 2 * steps.shape[0]

        def weigh(drawn, scratch, w):
            return _product_weights(dims, steps, drawn, scratch, w)
    else:
        energy_table = cfg.gen.site_energy_table[:, live]
        scratch_rows = support

        def weigh(drawn, scratch, w):
            return _phase_weights(energy_table, drawn, scratch.reshape(-1, support), w)

    pool_a = np.empty(max(chunk * nsites, scratch_rows * batch, 2 * terms * batch))
    pool_b = np.empty(max(2 * support * batch, columns * batch))
    tally_type = np.min_scalar_type(columns)

    def views(b):
        """The pool views of a batch of b shots: the weights' scratch, the
        weights, the amplitudes, the squares, the flags and their tally."""
        return (
            _shaped(pool_a, scratch_rows, b), _shaped(pool_b, support, b, np.complex128),
            _shaped(pool_a, terms, b, np.complex128), _shaped(pool_b, columns, b),
            _shaped(pool_a, columns - 1, b, np.uint8), _shaped(pool_b, 1, b, tally_type)[0],
        )

    full = views(batch)
    counts = np.zeros(povm.outcomes, dtype=np.int64)

    def run_chunk(job):
        rng, size = job
        z = _shaped(pool_a, size, nsites)
        rng.standard_normal(out=z)
        np.matmul(z, root, out=phases[:size])
        phases[:size] += mean
        rng.random(out=draws[:size])
        for lo in range(0, size, batch):
            b = min(batch, size - lo)
            scratch, w, amplitudes, squares, flags, tally = full if b == batch else views(b)
            probs = _shot_probabilities(
                folded, weigh(phases[lo : lo + b], scratch, w), amplitudes, squares
            )
            # The CDF down axis 0 in place, one row at a time: the same
            # additions as np.cumsum, which is ten times slower on this axis.
            cdf = probs
            for k in range(1, columns):
                np.add(cdf[k - 1], cdf[k], out=cdf[k])
            # The column, whose label is the outcome, is the number of normalised
            # CDF rows below the draw, tallied in the smallest unsigned type that
            # holds the column count.  The last row is left out: it normalises to
            # 1 (x / x), or to nan, and no draw in [0, 1) passes either.
            cdf = cdf[:-1]
            np.divide(cdf, probs[-1], out=cdf)
            np.greater(draws[lo : lo + b], cdf, out=flags.view(np.bool_))
            np.add.reduce(flags, axis=0, dtype=tally_type, out=tally)
            np.copyto(found[lo : lo + b], tally)
        fired = povm.labels[found[:size]]
        np.add(counts, np.bincount(fired, minlength=counts.size), out=counts)
        if on_chunk is not None:
            on_chunk(phases[:size], fired, best[fired])

    map_ordered(run_chunk, jobs)
    return counts


def _weighted_moments(counts: np.ndarray, values: np.ndarray) -> tuple[float, Optional[float]]:
    """(mean, stderr) over the shots of `values`, where outcome x fired
    counts[x] times and each of its shots has values[x].  The count-weighted
    sums are exact: each double is an integer over a power of two, so over
    the largest of those powers, `scale`, every sum is a Python integer.
    The mean and the sample variance (ddof 1) are each one quotient of
    integers, which Python rounds correctly, once; the stderr is then
    sqrt(variance) / sqrt(shots), None for one shot.  Past the float range
    the moments are inf, or nan where a value already is, as float sums
    give them."""
    fired = np.flatnonzero(counts)
    weights, picked = counts[fired].tolist(), values[fired]
    shots = sum(weights)
    if not np.isfinite(picked).all():
        return float(counts[fired] @ picked), None if shots == 1 else math.nan
    ratios = [value.as_integer_ratio() for value in picked.tolist()]
    scale = max(denominator for _, denominator in ratios)
    scaled = [numerator * (scale // denominator) for numerator, denominator in ratios]
    first = sum(w * x for w, x in zip(weights, scaled))
    second = sum(w * x * x for w, x in zip(weights, scaled))
    mean = _quotient(first, shots * scale)
    if shots == 1:
        return mean, None
    variance = _quotient(shots * second - first * first, shots * (shots - 1) * scale * scale)
    return mean, math.sqrt(variance) / math.sqrt(shots)


def _quotient(numerator: int, denominator: int) -> float:
    """numerator / denominator for a positive denominator, rounded once;
    inf with the numerator's sign past the float range."""
    try:
        return numerator / denominator
    except OverflowError:
        return math.inf if numerator > 0 else -math.inf


def simulate(
    cfg: ExperimentConfig, shots: int, seed: int, on_chunk: Optional[ChunkCallback] = None
) -> SimulationResult:
    """Sample phases ~ N((phi0 + delta_phi) 1, C), draw one outcome per shot
    from the exactly encoded state, and apply the locally unbiased estimator.

    Outcome sampling inverts the per-shot CDF, normalised by its last entry.
    Each probability is a sum of squares (_shot_probabilities), so none is
    negative and none needs clamping.  The run keeps only how often each
    outcome fired; the summary is computed from those counts exactly (see
    _weighted_moments).  on_chunk, when given, is called after each chunk
    with (phases, outcomes, estimates_best): the chunk's (size, nsites)
    phases, the outcome of each shot and its est_best.  They are views of
    work buffers, valid only during the call.
    """
    jobs = chunk_rngs(seed, shots)
    probe = _sampled_probe(cfg)  # refuses an oversized fold before the table
    table, s, scaled = _best(cfg)
    loose = np.flatnonzero(~np.isfinite(table.best))
    if loose.size:
        raise ValueError(f"est_best[{loose[0]}] = {table.best[loose[0]]} is past the float range")
    counts = _sample_counts(cfg, probe, shots, jobs, table.best, on_chunk)
    empirical_mean, mean_stderr = _weighted_moments(counts, table.best)
    squares = np.subtract(table.best, cfg.phi0)
    with np.errstate(over="ignore"):  # an inf square makes the MSE inf
        np.square(squares, out=squares)
    empirical_mse_best, mse_stderr = _weighted_moments(counts, squares)
    square, le = table.delta2**2, scaled / s / s
    # Out of the normal range the plain quotient loses its digits.
    normal = min(square, le) >= np.finfo(float).tiny
    return SimulationResult(
        shots=shots,
        seed=seed,
        phi0=cfg.phi0,
        delta_phi=cfg.delta_phi,
        empirical_mse_best=empirical_mse_best,
        mse_stderr=mse_stderr,
        empirical_mean=empirical_mean,
        mean_stderr=mean_stderr,
        counts=counts,
        chunks=-(-shots // CHUNK_SHOTS),
        excluded=len(table.excluded),
        predicted_mse=square / le if normal else (table.delta2 * s) ** 2 / scaled,
    )
