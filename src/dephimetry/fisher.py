"""Quantum and classical Fisher information for diagonal-generator families.

Conventions: the symmetric logarithmic derivative L solves
L rho + rho L = -2i [H, rho], so for a pure state L = 2 drho.  In the
eigenbasis of rho, L_mn = 2 (drho)_mn / (lam_m + lam_n) on mode pairs whose
eigenvalue sum exceeds rank_tol = 1e-10 * lam_max; excluded pairs carry no
information and are set to zero.  The quantum Fisher information is
F = 2 sum |(drho)_mn|^2 / (lam_m + lam_n) over the same pairs, and a
projective measurement in any eigenbasis of L attains it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, GeneratorSpec, HermitianOperator, _readonly, _trusted
from .dephasing import derivative_state

RANK_TOL_FACTOR = 1e-10
PROB_FLOOR = 1e-12

_EFFECT_PSD_TOL = -1e-10
_COMPLETENESS_TOL = 1e-10
_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """A finite measurement: PSD effects summing to the identity.

    Stored factored as a (dim, m) column matrix `vectors` and an outcome
    label per column, Pi_x = sum over columns k with labels[k] == x of
    v_k v_k^dagger, so no dense effect is kept.  `Povm(effects)` validates
    dense effects and factors each one by its eigendecomposition, keeping
    eigenvalues above rounding level; `Povm.projective(basis)` keeps the
    basis itself as the columns.
    """

    vectors: np.ndarray
    labels: np.ndarray
    outcomes: int

    def __init__(self, effects):
        if len(effects) == 0:
            raise ValueError("POVM needs at least one effect")
        cleaned = []
        columns = []
        labels = []
        dim = None
        for k, effect in enumerate(effects):
            a = np.array(effect, dtype=np.complex128)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"effect {k} is not a square matrix")
            if dim is None:
                dim = a.shape[0]
            elif a.shape[0] != dim:
                raise ValueError("effects have mismatched dimensions")
            if not np.isfinite(a).all():
                raise ValueError(f"effect {k} has non-finite entries")
            dev = np.abs(a - a.conj().T).max()
            if dev > 1e-10:
                raise ValueError(f"effect {k} deviates from Hermiticity by {dev:.3e}")
            a = (a + a.conj().T) / 2
            lam, vec = np.linalg.eigh(a)
            if lam[0] < _EFFECT_PSD_TOL:
                raise ValueError(f"effect {k} has a negative eigenvalue beyond tolerance")
            keep = lam > dim * np.finfo(float).eps * lam[-1]
            columns.append(vec[:, keep] * np.sqrt(lam[keep]))
            labels.extend([k] * int(keep.sum()))
            cleaned.append(a)
        total = sum(cleaned)
        if np.abs(total - np.eye(dim)).max() > _COMPLETENESS_TOL:
            raise ValueError("effects do not sum to the identity within tolerance")
        self._store(np.concatenate(columns, axis=1), np.array(labels, dtype=np.intp), len(cleaned))

    @classmethod
    def projective(cls, basis: np.ndarray) -> "Povm":
        """Rank-one effects onto the columns of `basis`, one outcome per
        column; the columns must resolve the identity, B B^dagger = I."""
        b = np.array(basis, dtype=np.complex128)
        if b.ndim != 2 or b.shape[1] == 0:
            raise ValueError("basis must be a nonempty (dim, outcomes) matrix")
        if not np.isfinite(b).all():
            raise ValueError("basis has non-finite entries")
        if np.abs(b @ b.conj().T - np.eye(b.shape[0])).max() > _COMPLETENESS_TOL:
            raise ValueError("effects do not sum to the identity within tolerance")
        povm = cls.__new__(cls)
        povm._store(b, np.arange(b.shape[1]), b.shape[1])
        return povm

    def _store(self, vectors: np.ndarray, labels: np.ndarray, outcomes: int) -> None:
        membership = None
        if not np.array_equal(labels, np.arange(outcomes)):
            membership = np.zeros((labels.size, outcomes))
            membership[np.arange(labels.size), labels] = 1.0
            membership = _readonly(membership)
        object.__setattr__(self, "vectors", _readonly(vectors))
        object.__setattr__(self, "labels", _readonly(labels))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_membership", membership)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def effects(self) -> tuple[np.ndarray, ...]:
        """Dense effects rebuilt from the columns; for inspection only."""
        blocks = [self.vectors[:, self.labels == x] for x in range(self.outcomes)]
        return tuple(_readonly(b @ b.conj().T) for b in blocks)

    def collect(self, terms: np.ndarray) -> np.ndarray:
        """Sum per-column terms (last axis, m columns) into per-outcome totals."""
        if self._membership is None:
            return terms
        return terms @ self._membership

    def traces(self, a: np.ndarray) -> np.ndarray:
        """Re Tr(A Pi_x) per outcome for a (dim, dim) matrix A."""
        v = self.vectors
        return self.collect((v.conj() * (a @ v)).sum(axis=0).real)

    def probabilities(self, rho: DensityMatrix) -> np.ndarray:
        return self.traces(rho.entries)


def _eig_frame(rho: DensityMatrix, gen: GeneratorSpec):
    lam, vec = np.linalg.eigh(rho.entries)
    drho = derivative_state(rho, gen).entries
    mixed = vec.conj().T @ drho @ vec
    denom = lam[:, None] + lam[None, :]
    keep = denom > RANK_TOL_FACTOR * lam[-1]
    return lam, vec, mixed, denom, keep


def sld(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """Symmetric logarithmic derivative of the encoded family at rho."""
    _, vec, mixed, denom, keep = _eig_frame(rho, gen)
    safe = np.where(keep, denom, 1.0)
    frame = np.where(keep, 2.0 * mixed / safe, 0.0)
    out = vec @ frame @ vec.conj().T
    return _trusted(HermitianOperator, (out + out.conj().T) / 2)


def qfi(rho: DensityMatrix, gen: GeneratorSpec) -> float:
    """Quantum Fisher information of the encoded family at rho."""
    _, _, mixed, denom, keep = _eig_frame(rho, gen)
    safe = np.where(keep, denom, 1.0)
    terms = np.where(keep, np.abs(mixed) ** 2 / safe, 0.0)
    return float(2.0 * terms.sum())


def classical_fi(
    rho: DensityMatrix,
    gen: GeneratorSpec,
    povm: Povm,
    prob_floor: float = PROB_FLOOR,
) -> float:
    """Fisher information of the outcome distribution of `povm` on the
    encoded family at rho; outcomes at or below prob_floor are skipped."""
    if povm.dim != rho.dim:
        raise ValueError("POVM and state dimensions differ")
    p = povm.probabilities(rho)
    dp = povm.traces(derivative_state(rho, gen).entries)
    live = p > prob_floor
    return float(np.sum(dp[live] ** 2 / p[live]))


def optimal_povm(rho: DensityMatrix, gen: GeneratorSpec) -> Povm:
    """Projective measurement in an eigenbasis of the SLD.

    Degenerate SLD eigenspaces are resolved by diagonalizing H restricted to
    the eigenspace; any remaining ties keep the ascending index order of the
    eigensolver, making the construction deterministic.
    """
    ell, vec = np.linalg.eigh(sld(rho, gen).entries)
    vec = vec.copy()
    scale = max(1.0, float(np.abs(ell).max()))
    energy = gen.energies
    start = 0
    for stop in range(1, len(ell) + 1):
        if stop < len(ell) and ell[stop] - ell[stop - 1] <= _DEGENERACY_TOL * scale:
            continue
        if stop - start > 1:
            block = vec[:, start:stop]
            restricted = block.conj().T @ (energy[:, None] * block)
            restricted = (restricted + restricted.conj().T) / 2
            _, rot = np.linalg.eigh(restricted)
            vec[:, start:stop] = block @ rot
        start = stop
    return Povm.projective(vec)
