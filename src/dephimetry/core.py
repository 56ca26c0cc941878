"""Dense states and diagonal phase generators for N-subsystem interferometry.

Every local generator is diagonal in the fixed computational product basis,
so the total generator H = sum_j H_j is diagonal too and unitary phase
encoding acts entrywise: entry (m, n) picks up exp(-i phi (E_m - E_n)) with
E_m the sum of per-site eigenvalues.  Keeping that structure explicit is
what makes the dephasing channel and all derived quantities exact.

States and operators are plain numpy arrays wrapped in small frozen
dataclasses that are treated as immutable values.  Public constructors
check every invariant at every dimension; outputs of the package's own
channels are not checked again, and the tests of each producer pin them.
The public constructors store complex128 entries.  The named probes are
real and stored as float64: GHZ as one real copy, product-plus as one
read-only broadcast value (every entry is 2^-n, so no 2^n x 2^n array is
held).  Dephasing keeps the dtype of its input; phase encoding, the SLD
and -i [H, rho] are complex.  The dephasing channel (dephase) and the
generator -i [H, rho] of the encoded family (derivative_state) live here
with the other entrywise maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10
# Most entries of one block of rows that the channel and the row scans hold
# at a time (512 KiB of floats; 64 rows at n = 10).
ROW_BLOCK_ELEMENTS = 1 << 16


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _hermitian_part(entries, what: str) -> np.ndarray:
    """A complex copy of a finite square matrix within HERMITICITY_TOL of
    Hermitian, symmetrized."""
    a = np.array(entries, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has non-finite entries")
    dev = np.abs(a - a.conj().T).max() if a.size else 0.0
    if dev > HERMITICITY_TOL:
        raise ValueError(f"{what} deviates from Hermiticity by {dev:.3e}")
    return (a + a.conj().T) / 2


def _row_blocks(rows: int, cols: int) -> list[slice]:
    """Consecutive slices over `rows` rows of `cols` entries each, each
    block at most ROW_BLOCK_ELEMENTS entries (and at least one row)."""
    step = max(1, ROW_BLOCK_ELEMENTS // max(cols, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def _support(entries: np.ndarray):
    """Indices of the rows of `entries` that are not identically zero, or
    slice(None) when that is every row, so that indexing by it takes a view;
    scanned a block of rows at a time."""
    rows = np.concatenate([entries[block].any(axis=1) for block in _row_blocks(*entries.shape)])
    return slice(None) if rows.all() else np.flatnonzero(rows)


def _grid(live):
    """Index of the block on rows and columns `live` (see _support)."""
    return (live, live) if isinstance(live, slice) else np.ix_(live, live)


def _embed(block: np.ndarray, live, dim: int) -> np.ndarray:
    """The dim x dim matrix that is `block` on rows and columns `live` (see
    _support) and +0 elsewhere; `block` itself when live is every row."""
    if isinstance(live, slice):
        return block
    out = np.zeros((dim, dim), dtype=block.dtype)
    out[_grid(live)] = block
    return out


def _trusted(cls, entries: np.ndarray):
    """Wrap a matrix the package built to be Hermitian (and, for a state,
    unit-trace and PSD) in `cls` without checking it again.  `entries`
    must be a fresh array; it is made read-only."""
    out = object.__new__(cls)
    object.__setattr__(out, "entries", _readonly(entries))
    return out


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix, symmetrized on input after a deviation gate."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _readonly(_hermitian_part(self.entries, "operator")))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A density matrix: Hermitian, unit trace, positive semidefinite.

    Inputs within HERMITICITY_TOL of Hermitian are symmetrized; the trace
    must be 1 within TRACE_TOL and no eigenvalue may fall below PSD_TOL,
    at every dimension.
    """

    entries: np.ndarray

    def __post_init__(self):
        a = _hermitian_part(self.entries, "state")
        trace = a.trace().real
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValueError(f"state trace {trace!r} is not 1")
        smallest = np.linalg.eigvalsh(a)[0]
        if smallest < PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {smallest:.3e}")
        object.__setattr__(self, "entries", _readonly(a))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Per-site real eigenvalues of local generators, all diagonal in the
    computational product basis.  Site j contributes h_j(m_j) to the total
    energy of basis state m = (m_1, ..., m_N)."""

    sites: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        sites = tuple(tuple(float(v) for v in h) for h in self.sites)
        if not sites:
            raise ValueError("at least one site is required")
        for j, h in enumerate(sites):
            if len(h) < 2:
                raise ValueError(f"site {j} must have local dimension >= 2")
            if not all(math.isfinite(v) for v in h):
                raise ValueError(f"site {j} has non-finite eigenvalues")
        object.__setattr__(self, "sites", sites)

    @classmethod
    def qubits(cls, n: int) -> "GeneratorSpec":
        """n qubit sites with H_j = sigma_z / 2, eigenvalues (+1/2, -1/2)."""
        if n < 1:
            raise ValueError("need at least one qubit")
        return cls(((0.5, -0.5),) * n)

    @property
    def nsites(self) -> int:
        return len(self.sites)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(h) for h in self.sites)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    @cached_property
    def site_energy_table(self) -> np.ndarray:
        """(nsites, dim) array: row j holds h_j(m_j) over the product basis,
        first site varying slowest (kron ordering)."""
        dim = self.dim
        table = np.empty((self.nsites, dim))
        after = dim
        before = 1
        for j, h in enumerate(self.sites):
            d = len(h)
            after //= d
            table[j] = np.tile(np.repeat(np.array(h), after), before)
            before *= d
        return _readonly(table)

    @property
    def energies(self) -> np.ndarray:
        """Total energies E_m = sum_j h_j(m_j) over the product basis."""
        return _readonly(self.site_energy_table.sum(axis=0))

    def hamiltonian(self) -> HermitianOperator:
        return HermitianOperator(np.diag(self.energies.astype(np.complex128)))


def _check_pairing(rho: DensityMatrix, gen: GeneratorSpec, cov=None) -> None:
    """Refuse a state, generator and (optional) covariance of different sizes."""
    if rho.dim != gen.dim:
        raise ValueError(f"state dimension {rho.dim} does not match generator dimension {gen.dim}")
    if cov is not None and cov.n != gen.nsites:
        raise ValueError(f"covariance is {cov.n}-site but generator has {gen.nsites} sites")


def _channel_factor(table: np.ndarray, cov: np.ndarray):
    """factor(rows, cols): the factor exp(-1/2 delta^T C delta) of the
    dephasing channel on rows x cols (slices or index arrays) of the basis
    states whose site energy columns are `table`, for the covariance
    entries `cov`.  With g = T^T (C T) and d_m = g_mm (each from the GEMM
    of its own block of rows), delta^T C delta = d_r + d_c - (g_rc + g_cr),
    a sum that reads the same in either order, so factor(c, r) is
    factor(r, c)^T bit for bit; where r = c it is set to 0 (factor 1,
    so the channel preserves the diagonal exactly).  An overflow is
    refused (ValueError; no accepted covariance overflows with energy gaps
    of at most 1, as qubits have, see covariance)."""
    weighted = cov @ table
    index = np.arange(table.shape[1])
    diag = np.empty(index.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(index.size, index.size):
            diag[rows] = (table[:, rows].T @ weighted[:, rows]).diagonal()

    def factor(rows, cols) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            pair = table[:, rows].T @ weighted[:, cols]
            pair += (table[:, cols].T @ weighted[:, rows]).T
            quad = np.add.outer(diag[rows], diag[cols])
            quad -= pair
        del pair
        if not np.isfinite(quad).all():
            raise ValueError("delta^T C delta overflows for this covariance and generator")
        quad[np.equal.outer(index[rows], index[cols])] = 0.0
        quad *= -0.5
        return np.exp(quad, out=quad)

    return factor


def ghz_state(n: int) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 2**n
    rho = np.zeros((dim, dim))
    rho[0, 0] = rho[0, -1] = rho[-1, 0] = rho[-1, -1] = 0.5
    return _trusted(DensityMatrix, rho)


def product_plus_state(n: int) -> DensityMatrix:
    """|+>^n on n qubits; every matrix entry equals 2**-n, held as one
    read-only value broadcast to (2**n, 2**n)."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 2**n
    return _trusted(DensityMatrix, np.broadcast_to(np.float64(1.0 / dim), (dim, dim)))


def encode_phase(rho: DensityMatrix, gen: GeneratorSpec, phi: float) -> DensityMatrix:
    """Unitary phase encoding exp(-i phi H) rho exp(+i phi H), entrywise.

    Only the support of rho (_support) is computed; every other entry of
    the result is +0."""
    _check_pairing(rho, gen)
    if not math.isfinite(phi):
        raise ValueError("phi must be finite")
    live = _support(rho.entries)
    energy = gen.energies[live]
    w = np.exp(-1j * phi * (energy[:, None] - energy[None, :]))
    out = rho.entries[_grid(live)] * w
    # The product is Hermitian, but a conjugate pair of zeros can carry
    # opposite signs, which the CLI prints as "0" and "-0"; averaging the
    # pair settles one sign.
    return _trusted(DensityMatrix, _embed((out + out.conj().T) / 2, live, rho.dim))


def derivative_state(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """-i [H, rho], the generator of the encoded family; traceless Hermitian."""
    _check_pairing(rho, gen)
    energy = gen.energies
    d = -1j * (energy[:, None] - energy[None, :]) * rho.entries
    return _trusted(HermitianOperator, (d + d.conj().T) / 2)


def dephase(rho: DensityMatrix, gen: GeneratorSpec, cov) -> DensityMatrix:
    """Apply the exact channel of the covariance `cov` (a
    covariance.CovarianceMatrix): entry (m, n) times exp(-1/2 delta^T C
    delta).

    Only the support of rho (_support) is computed; every other entry of
    rho, and so of the result, is zero.  The result keeps the dtype of rho.
    The factor (_channel_factor) is computed a block of rows up to the
    diagonal at a time and written to those rows and, transposed, to the
    columns above them, so the result is exactly Hermitian; an overflowing
    delta^T C delta is refused (ValueError)."""
    _check_pairing(rho, gen, cov)
    live = _support(rho.entries)
    block = rho.entries[_grid(live)]
    factor = _channel_factor(gen.site_energy_table[:, live], cov.entries)
    out = np.empty(block.shape, dtype=block.dtype)
    for rows in _row_blocks(*block.shape):
        lo, hi = rows.start, rows.stop
        part = factor(rows, slice(0, hi))
        np.multiply(block[rows, :hi], part, out=out[rows, :hi])
        np.multiply(block[:lo, rows], part[:, :lo].T, out=out[:lo, rows])
    return _trusted(DensityMatrix, _embed(out, live, rho.dim))


def variance(op: HermitianOperator, rho: DensityMatrix) -> float:
    """Tr(rho op^2) - Tr(rho op)^2."""
    if op.dim != rho.dim:
        raise ValueError("operator and state dimensions differ")
    a = op.entries
    first = np.trace(rho.entries @ a).real
    second = np.trace(rho.entries @ a @ a).real
    return float(second - first * first)
