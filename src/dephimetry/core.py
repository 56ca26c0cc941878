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
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = -1e-10


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

    def purity(self) -> float:
        return float(np.vdot(self.entries, self.entries).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


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


def _check_pairing(rho: DensityMatrix, gen: GeneratorSpec) -> None:
    if rho.dim != gen.dim:
        raise ValueError(f"state dimension {rho.dim} does not match generator dimension {gen.dim}")


def ghz_state(n: int) -> DensityMatrix:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 2**n
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[0, 0] = rho[0, -1] = rho[-1, 0] = rho[-1, -1] = 0.5
    return _trusted(DensityMatrix, rho)


def product_plus_state(n: int) -> DensityMatrix:
    """|+>^n on n qubits; every matrix entry equals 2**-n."""
    if n < 1:
        raise ValueError("need at least one qubit")
    dim = 2**n
    return _trusted(DensityMatrix, np.full((dim, dim), 1.0 / dim, dtype=np.complex128))


def encode_phase(rho: DensityMatrix, gen: GeneratorSpec, phi: float) -> DensityMatrix:
    """Unitary phase encoding exp(-i phi H) rho exp(+i phi H), entrywise."""
    _check_pairing(rho, gen)
    energy = gen.energies
    w = np.exp(-1j * phi * (energy[:, None] - energy[None, :]))
    out = rho.entries * w
    # The product is Hermitian, but a conjugate pair of zeros can carry
    # opposite signs, which the CLI prints as "0" and "-0"; averaging the
    # pair settles one sign.
    return _trusted(DensityMatrix, (out + out.conj().T) / 2)


def variance(op: HermitianOperator, rho: DensityMatrix) -> float:
    """Tr(rho op^2) - Tr(rho op)^2."""
    if op.dim != rho.dim:
        raise ValueError("operator and state dimensions differ")
    a = op.entries
    first = np.trace(rho.entries @ a).real
    second = np.trace(rho.entries @ a @ a).real
    return float(second - first * first)
