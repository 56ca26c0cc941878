"""Quantum and classical Fisher information for diagonal-generator families.

Conventions: the symmetric logarithmic derivative L solves
L rho + rho L = -2i [H, rho], so for a pure state L = 2 drho.  In the
eigenbasis of rho, L_mn = 2 (drho)_mn / (lam_m + lam_n) on mode pairs whose
eigenvalue sum exceeds rank_tol = 1e-10 * lam_max; excluded pairs carry no
information and are set to zero.  The quantum Fisher information is
F = 2 sum |(drho)_mn|^2 / (lam_m + lam_n) over the same pairs, and a
projective measurement in any eigenbasis of L attains it.

The eigen-frame is taken on the support of rho only: the indices whose row
of rho is not identically zero.  This is exact, not a cutoff: a PSD state
with a zero row has that basis vector as an eigenvector of eigenvalue 0,
and -i [H, rho] is entrywise in rho, so its row is zero too and adds no
term.  When rho is real (every imaginary part zero) the frame is computed
in real arithmetic.

qfi splits that frame by parity when the state allows it.  Let J reverse
the order of the support rows, p -> s - 1 - p on a block of s = 2h rows.
When h >= 2, the block equals its own reversal entry for entry (J B J = B),
and the energies of its rows pair up from both ends to one constant
(E_p + E_{s-1-p} = c), the block commutes with J and g anticommutes with
it.  On a support closed under index reversal m -> dim - 1 - m, J is the
global spin flip X^N (every site's level flipped), and the energy rule
holds for sigma_z / 2 and any site spectrum symmetric about its centre;
both probes and every Gaussian dephasing channel keep that symmetry.  With
a = block[:h, :h] and b = block[:h, ::-1][:, :h], the J-even half of the
block is a + b, the J-odd half is a - b, and g only couples the two,
through G_ik = (E_i - E_k) a_ik - (E_i - E_{s-1-k}) b_ik.  So two h x h
eigh calls replace one 2h x 2h call, and F = 4 sum |M|^2 / (lam_e + lam_o)
with M = V_e^dagger G V_o, under the same rank rule, lam_max over both
halves.  This is a change of basis, and every test is exact equality, so
the split is exact too; any other state (phase-rotated, random, an
asymmetric generator, an odd support) takes the full frame.  A two-row
support (a dephased GHZ state) keeps the 2 x 2 frame: the split would save
nothing there and would move the last bits of its QFI.  sld and
optimal_povm always use the full frame.

Everything after the frame stays on the support too.  The SLD is zero in
every row and column off the support, so each standard basis vector e_j
with j off the support is an eigenvector of the SLD with eigenvalue 0, and
of the diagonal H with eigenvalue E_j.  An SLD eigenbasis is therefore the
eigenbasis of the live block of the SLD, completed by those e_j, and the
tie-break by H inside the zero eigenspace never has to mix the two parts:
H maps the live subspace to itself.  Dephasing and phase encoding act
entrywise, so the support of rho is the support of every state derived
from it, and a measurement column that is zero on the support has
probability 0 at every phase.  Probabilities, the classical Fisher
information, the estimator table and sampling are taken over the columns
that touch the support only (Povm.restrict).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    _check_pairing,
    _grid,
    _readonly,
    _support,
    _trusted,
)
from .dephasing import _derivative_block

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
        return cls._from_columns(b, np.arange(b.shape[1]), b.shape[1])

    @classmethod
    def _from_columns(cls, vectors: np.ndarray, labels: np.ndarray, outcomes: int) -> "Povm":
        """Wrap columns the package built to resolve the identity without
        checking them again; `vectors` must be a fresh array."""
        povm = cls.__new__(cls)
        povm._store(vectors, labels, outcomes)
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

    def restrict(self, live) -> tuple["Povm", "np.ndarray | slice"]:
        """The measurement seen by states supported on the rows `live` (see
        core._support): the rows `live` of the columns that are not zero
        there, as a POVM on that subspace (it resolves the identity there),
        and the ascending outcome indices those columns belong to.  Every
        other outcome has probability 0 on such a state.  A full support
        returns this POVM and slice(None), with no copy."""
        if isinstance(live, slice):
            return self, live
        rows = self.vectors[live]
        touched = np.flatnonzero((rows != 0).any(axis=0))
        reached, labels = np.unique(self.labels[touched], return_inverse=True)
        return Povm._from_columns(rows[:, touched], labels, reached.size), reached

    def spread(self, values: np.ndarray, reached) -> np.ndarray:
        """Per-outcome values over the outcomes `reached` by a restriction
        (last axis), placed among all outcomes with 0 elsewhere."""
        if isinstance(reached, slice):
            return values
        out = np.zeros(values.shape[:-1] + (self.outcomes,))
        out[..., reached] = values
        return out

    def probabilities(self, rho: DensityMatrix) -> np.ndarray:
        if rho.dim != self.dim:
            raise ValueError("POVM and state dimensions differ")
        live = _support(rho.entries)
        sub, reached = self.restrict(live)
        return self.spread(sub.traces(rho.entries[_grid(live)]), reached)


def _support_block(rho: DensityMatrix, gen: GeneratorSpec):
    """(live, block, energy): the support `live` of rho (core._support), the
    block of rho on it, real when rho is, and the energies of its rows."""
    _check_pairing(rho, gen)
    entries = rho.entries
    live = _support(entries)
    # Rows outside `live` are zero, so the block is real when rho is.
    if not entries.imag.any():
        entries = entries.real
    return live, entries[_grid(live)], gen.energies[live]


def _eig_frame(block: np.ndarray, energy: np.ndarray):
    """The frame of a support block: eigenpairs (lam, vec) of the block and
    mixed = vec^dagger g vec, where drho = -i g with g_mn = (E_m - E_n)
    rho_mn, so a real block stays real throughout."""
    lam, vec = np.linalg.eigh(block)
    g = np.multiply(block, np.subtract.outer(energy, energy))
    # g is released before the second product, which then holds only vec,
    # the half product and its result.
    mixed = vec.conj().T @ g
    del g
    mixed = mixed @ vec
    denom = lam[:, None] + lam[None, :]
    keep = denom > RANK_TOL_FACTOR * lam[-1]
    return vec, mixed, denom, keep


def _parity_halves(block: np.ndarray, energy: np.ndarray):
    """The even block a + b, the odd block a - b and the cross block G of a
    support block that equals its own reversal (see the module docstring),
    or None when the block is not one.  Every test is exact."""
    size = block.shape[0]
    half = size // 2
    if size % 2 or half < 2:
        return None
    level = energy + energy[::-1]
    if not (level == level[0]).all() or not np.array_equal(block, block[::-1, ::-1]):
        return None
    a = block[:half, :half]
    b = block[:half, ::-1][:, :half]
    upper = energy[:half]
    cross = np.subtract.outer(upper, upper) * a
    cross -= np.subtract.outer(upper, energy[::-1][:half]) * b
    return a + b, a - b, cross


def _sld_block(vec, mixed, denom, keep) -> np.ndarray:
    """The SLD on the support block of a frame, Hermitian-symmetrized."""
    safe = np.where(keep, denom, 1.0)
    frame = np.where(keep, mixed / safe, 0.0)
    block = -2j * (vec @ frame @ vec.conj().T)
    return (block + block.conj().T) / 2


def _sld_frame(rho: DensityMatrix, gen: GeneratorSpec):
    """(live, SLD block): the SLD of rho on its support, from the full frame."""
    live, block, energy = _support_block(rho, gen)
    return live, _sld_block(*_eig_frame(block, energy))


def sld(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """Symmetric logarithmic derivative of the encoded family at rho."""
    live, block = _sld_frame(rho, gen)
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    out[_grid(live)] = block
    return _trusted(HermitianOperator, out)


def _kept_sum(mixed, denom, keep) -> float:
    """sum |mixed|^2 / denom over the kept pairs, squared and divided in
    place so that no further temporaries of mixed's size are held."""
    terms = np.abs(mixed, out=mixed if mixed.dtype.kind == "f" else None)
    del mixed
    np.square(terms, out=terms)
    np.divide(terms, denom, out=terms, where=keep)
    terms[~keep] = 0.0
    return float(terms.sum())


def qfi(rho: DensityMatrix, gen: GeneratorSpec) -> float:
    """Quantum Fisher information of the encoded family at rho."""
    _, block, energy = _support_block(rho, gen)
    halves = _parity_halves(block, energy)
    if halves is None:
        return 2.0 * _kept_sum(*_eig_frame(block, energy)[1:])
    # Each half is released once diagonalized, and G before the second
    # product, as in _eig_frame.
    even, odd, cross = halves
    del block, halves
    lam_e, vec_e = np.linalg.eigh(even)
    del even
    lam_o, vec_o = np.linalg.eigh(odd)
    del odd
    mixed = vec_e.conj().T @ cross
    del cross
    mixed = mixed @ vec_o
    denom = lam_e[:, None] + lam_o[None, :]
    keep = denom > RANK_TOL_FACTOR * max(lam_e[-1], lam_o[-1])
    return 4.0 * _kept_sum(mixed, denom, keep)


def classical_fi(rho: DensityMatrix, gen: GeneratorSpec, povm: Povm) -> float:
    """Fisher information of the outcome distribution of `povm` on the
    encoded family at rho; outcomes at or below PROB_FLOOR are skipped."""
    if povm.dim != rho.dim:
        raise ValueError("POVM and state dimensions differ")
    _check_pairing(rho, gen)
    live = _support(rho.entries)
    sub, _ = povm.restrict(live)
    block = rho.entries[_grid(live)]
    p = sub.traces(block)
    dp = sub.traces(_derivative_block(block, gen.energies[live]))
    fired = p > PROB_FLOOR
    return float(np.sum(dp[fired] ** 2 / p[fired]))


def optimal_povm(rho: DensityMatrix, gen: GeneratorSpec) -> Povm:
    """Projective measurement in an eigenbasis of the SLD.

    The SLD is diagonalized on the support block and completed by the basis
    vectors e_j off the support (see the module docstring).  Outcomes come
    in ascending SLD eigenvalue order: block eigenvectors below zero, the
    zero eigenspace, then those above.  Degenerate SLD eigenspaces are
    resolved by diagonalizing H restricted to the eigenspace, which inside
    the zero eigenspace sorts the block vectors and the e_j together by
    energy; any remaining ties keep the order of the eigensolver, block
    before e_j, and the e_j in ascending index, making the construction
    deterministic.
    """
    live, block = _sld_frame(rho, gen)
    ell, basis = np.linalg.eigh(block)
    dim = rho.dim
    energy = gen.energies
    inside = energy[live]
    outside = np.ones(dim, dtype=bool)
    outside[live] = False
    off = np.flatnonzero(outside)
    size = ell.size
    cut = int(np.searchsorted(ell, 0.0))
    # Slot k < size is block column k; slot size + i is e_{off[i]}.
    slots = np.concatenate([np.arange(cut), size + np.arange(off.size), np.arange(cut, size)])
    values = np.concatenate([ell[:cut], np.zeros(off.size), ell[cut:]])
    scale = max(1.0, float(np.abs(ell).max()))
    start = 0
    for stop in range(1, dim + 1):
        if stop < dim and values[stop] - values[stop - 1] <= _DEGENERACY_TOL * scale:
            continue
        if stop - start > 1:
            group = slots[start:stop]
            inner = group[group < size]
            outer = group[group >= size]
            levels = energy[off[outer - size]]
            if inner.size:
                # The block columns of one group are consecutive.
                cols = slice(inner[0], inner[-1] + 1)
                block = basis[:, cols]
                restricted = block.conj().T @ (inside[:, None] * block)
                restricted = (restricted + restricted.conj().T) / 2
                h, rot = np.linalg.eigh(restricted)
                basis[:, cols] = block @ rot
                levels = np.concatenate([h, levels])
                group = np.concatenate([inner, outer])
            slots[start:stop] = group[np.argsort(levels, kind="stable")]
        start = stop
    if not off.size:
        return Povm._from_columns(basis, np.arange(dim), dim)
    vectors = np.zeros((dim, dim), dtype=np.complex128)
    from_block = np.flatnonzero(slots < size)
    vectors[np.ix_(live, from_block)] = basis[:, slots[from_block]]
    from_off = np.flatnonzero(slots >= size)
    vectors[off[slots[from_off] - size], from_off] = 1.0
    return Povm._from_columns(vectors, np.arange(dim), dim)
