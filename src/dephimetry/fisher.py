"""Quantum and classical Fisher information for diagonal-generator families.

Conventions: the symmetric logarithmic derivative L solves
L rho + rho L = -2i [H, rho], so for a pure state L = 2 drho.  Every QFI is
one kept-pair sum over frames (copies, lam, lam', M), F = 2 sum over frames
of copies * sum |M_kl|^2 / (lam_k + lam'_l).  The rank rule lives in
_kept_pairs alone: a pair is kept when lam_k + lam'_l exceeds the rounding
floor _rounding_floor(size, top) = size * eps * top, with top the largest
eigenvalue over all frames of the state and size = sum of copies * len(lam),
the rows of the support the frames tile (s for the full frame, 2^n for the
orbit sectors of qubits and the Schur-Weyl blocks); a
frame with an empty spectrum (an empty sector) adds nothing to top.  An
eigensolver on such a support resolves eigenvalues to about that level, so
the floor drops only pairs it cannot tell from zero.  A dropped pair costs at most 2 (lam_k +
lam'_l) |H~_kl|^2 with H~ = V^dagger H V, since M_kl = (lam'_l - lam_k)
H~_kl.  The same floor sets the rank of every PSD factor (_psd_factor):
the probe factor that bayes samples and each effect of a Povm.

The full frame is (1, lam, lam, V^dagger g V), with rho = V diag(lam)
V^dagger and drho = -i g.  It also gives the SLD, L_kl = 2 (V^dagger drho
V)_kl / (lam_k + lam_l) on the kept pairs and 0 on the rest, and a
projective measurement in any eigenbasis of L attains F.  It is taken on
the support of rho only: the indices whose row of rho is not identically
zero.  This is exact, not a cutoff: a PSD state with a zero row has that
basis vector as an eigenvector of eigenvalue 0, and -i [H, rho] is
entrywise in rho, so its row is zero too and adds no term.  When rho is
real (every imaginary part zero) the frame is computed in real arithmetic.

qfi(rho, gen, cov) is the QFI of rho-bar = dephase(rho, gen, cov), and
qfi(rho, gen) that of rho-bar = rho.  It never builds a dephased state, and
diagonalises only sectors of about a quarter of the basis, when the inputs
are invariant under the Klein group G = {1, J, R, JR}: J the spin flip (m
-> dim - 1 - m on the whole basis) and R the site reversal (site j to site
N + 1 - j).  The gate is exact and reads the inputs only: a full support,
site spectra that read the same reversed (R commutes with H), E + E[::-1]
constant (E_{Jq} = c - E_q, as for sigma_z / 2 or any site spectrum
symmetric about its centre), given a covariance C equal to C[::-1, ::-1]
(every c1, c2 and identity covariance, at any noise), and rho equal to J
rho J and R rho R entry for entry, compared a block of rows at a time.  Then
rho-bar[g p, g q] = rho-bar[p, q].  Take a character chi of G, P_chi = 1/4
sum_g chi(g) g, and for each orbit O whose stabiliser chi is 1 on, its
representative p (its least index) and the unit vector sqrt(|O|) P_chi e_p.
In that basis the sector block is X_chi[O, O'] = 1/4 sqrt(|O| |O'|) sum_g
chi(g) rho-bar[p, g p'].  [H, rho-bar] maps each J-even sector to the J-odd
one of the same R parity (E_{Rq} = E_q) through Y[O, O'] = 1/4 sqrt(|O|
|O'|) sum_g chi'(g) (E_p - E_{g p'}) rho-bar[p, g p'], chi' = chi times the
J sign of g, the character of that J-odd sector.  Both sums read only the
rows of rho-bar at the representatives, about 2^n / 4 of them, so only
those are computed, a block of rows at a time from the channel formula
(core._channel_factor), or read off rho without a covariance; each term is
weighed before the sum over g, taken in the order 1, J, R, JR.  The R
parities are built one after the other, and neither holds the other's
blocks.  For each, one pass over the representative rows fills its three
blocks; X_e is diagonalised and reduces Y to V_e^dagger Y, then X_o is
diagonalised, each block and V_e freed once used, and the parity gives one
frame (2, lam_e, lam_o, V_e^dagger Y V_o) under the global rank rule.  The
second parity computes the rows again: one pass per sector block would hold
still less (one block beside the first parity's frame), but computes every
row six times.  At n = 10 the 272 orbits (240 of size 4, 16 + 16 of size 2)
give sectors of 272, 256, 240 and 256 rows.  Inputs that fail the gate
(GHZ's two-row support, a phase-rotated or random state, a random
covariance) take the full frame of rho-bar, built by core.dephase given a
covariance.  A dephased state passes the gate only where its rounded entries
still equal their R images, which core.dephase's rounding of the channel
exponent does not keep at every noise level, so qfi(dephase(rho, gen, cov),
gen) may take the full frame; it agrees with qfi(rho, gen, cov) to
rounding, not bit for bit.

Everything after the frame stays on the support too.  The SLD is zero in
every row and column off the support, so each standard basis vector e_j
with j off the support is an eigenvector of the SLD with eigenvalue 0, and
of the diagonal H with eigenvalue E_j.  An SLD eigenbasis is therefore the
eigenbasis of the live block of the SLD, completed by those e_j.  H maps
the live subspace to itself, so the tie-break by H rotates block columns
only, and one stable sort orders both parts (optimal_povm).  The
measurement keeps the block columns alone, on the rows of the support, and
each e_j off it as a unit outcome by index, (row j, outcome), so a basis
for a state on s rows holds s columns, not dim.  Dephasing and phase
encoding act entrywise, so the support of rho is the support of every state
derived from it, and a measurement column that is zero on the support has
probability 0 at every phase, as has a unit outcome off it.
Probabilities, the classical Fisher information and the estimator table
(each one Povm.statistics pass), and sampling too, use only the columns
that touch the support, and the units on it as unit columns
(Povm.restrict), so they serve a state of any support.  A column's label
is its outcome: restrict keeps the labels and the outcome count, and the
columns of one outcome are summed by label.

The block SLD's eigenpairs are taken in real arithmetic when the block
passes an exact spin-flip gate: it is real, of even size s, equal to its
reversal block[::-1, ::-1] entry for entry, on a support closed under J (so
J reverses the sorted support rows), with E + E[::-1] constant there.  Then
rho commutes with J and g anticommutes with it.  With h = s/2, the J-even
and J-odd sectors, on (e_k +- e_{s-1-k}) / sqrt 2 for k < h, hold rho as
top +- cross, top = rho[:h, :h] and cross = rho[:h, ::-1][:, :h], each
diagonalised by one real eigh (lam_e, V_e and lam_o, V_o), and g maps
even to odd through G_eo = g[:h, :h] - g[:h, ::-1][:, :h].  In that frame
the SLD is -i [[0, F], [-F^T, 0]], F = 2 V_e^T G_eo V_o / (lam_e + lam_o)
on the pairs _kept_pairs keeps (one floor over both spectra, size s).
Conjugated by diag(1, -i) it is the real Jordan-Wielandt matrix [[0, -F],
[-F^T, 0]], so one real eigh of s rows gives its eigenvalues, and an
eigenvector (y_e, y_o) gives the SLD eigenvector e^{i pi/4} (Q_e u_e - i
Q_o u_o), u_e = V_e y_e and u_o = V_o y_o: ((u_e + u_o) + i (u_e - u_o)) /
2 on row k < h and ((u_e - u_o) + i (u_e + u_o)) / 2 on row s - 1 - k.
On GHZ's two rows u_e = +-u_o, so with that phase every entry is purely
real or imaginary, as a complex eigensolver returns it, and the
probabilities round the same.  Any other block (complex, phase-rotated,
of odd size) diagonalises the SLD of its full frame in complex arithmetic.

_product_plus_qfi gives the same QFI for one probe and one noise form with
no 2^n-dim matrix: |+>^n on n qubits (H = J_z) under C = a 11^T + b I,
which is identity noise, every c1, and c2 at alpha in {0, 1} or n <= 2
(the split cli._family_point declares).  The channel factor of entry (x, y)
is exp(-a (m_x - m_y)^2 / 2) c^{d(x, y)}, with m the J_z levels, d the
Hamming distance and c = e^{-b/2}.  The local part maps |+>^n to
rho_1^{(x)n}, rho_1 = [[1, c], [c, 1]] / 2, and by Schur-Weyl duality
rho_1^{(x)n} = (+)_j det(rho_1)^{n/2-j} Sym^{2j}(rho_1) (x) I_{d_j}, with
d_j = C(n, n/2-j) - C(n, n/2-j-1) copies of each spin j.  In the Dicke
basis i = 0..s (s = 2j, J_z = s/2 - i), Sym^s(rho_1) is 2^-s
sqrt(C(s, i') / C(s, i)) times the y^i coefficient of
(1 + c y)^{s-i'} (c + y)^{i'}, a sum of positive terms, so every entry
keeps full relative precision at any noise strength.  The collective part
acts inside each block as the factor exp(-a (m - m')^2 / 2), and -i[H, rho]
stays block diagonal, so each block feeds its own full frame with copies
d_j, top spanning all blocks.  It agrees with dense qfi to rounding
(1.2e-14 relative over n <= 10 and 2 beta^2 from 1e-6 to 50), and the
identity-noise value n e^{-2 beta^2} to 1.1e-12 at n = 10 and 2 beta^2 =
0.1.  The floor is global and grows like 2^n eps, while ever more of the
state's weight sits in small blocks whose pairs fall under it: at 2 beta^2
= 0.5 the loss is 3.7e-13 at n = 14, 9.8e-7 at n = 20 and 1.1e-2 at n =
30.  So the CLI takes this path only for n <= 10, the sizes the dense path
also serves, and leaves product-plus f_rho_bar empty past them until the
rule is taken per sector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    _channel_factor,
    _check_pairing,
    _grid,
    _readonly,
    _row_blocks,
    _support,
    _trusted,
    dephase,
)

PROB_FLOOR = 1e-12

_EFFECT_PSD_TOL = -1e-10
_COMPLETENESS_TOL = 1e-10
_DEGENERACY_TOL = 1e-8


@dataclass(frozen=True, eq=False, init=False)
class Povm:
    """A finite measurement: PSD effects summing to the identity.

    Stored factored as a (dim, m) column matrix `vectors` in outcome order,
    each column's label its outcome, and unit outcomes, one
    per basis row `unit_rows[i]` with outcome `unit_labels[i]`: Pi_x = sum
    over columns k with labels[k] == x of v_k v_k^dagger, plus e_j
    e_j^dagger for each unit (j, x).  No dense effect is kept, and no unit
    vector either: optimal_povm keeps the basis vectors off the support of
    its state as units, so its measurement of a state on s rows holds s
    columns, not dim.  `Povm(effects)` validates dense effects and factors
    each one by its eigendecomposition, keeping eigenvalues above rounding
    level; `Povm.projective(basis)` keeps the basis itself as the columns.
    Neither has units.  restrict turns the units on a state's support into
    unit columns and drops the others, so every measurement it returns, the
    one statistics and the sampler read, is all columns, labels kept.
    """

    vectors: np.ndarray
    labels: np.ndarray
    outcomes: int
    unit_rows: np.ndarray
    unit_labels: np.ndarray

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
            columns.append(_psd_factor(lam, vec))
            labels.extend([k] * columns[-1].shape[1])
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
    def _from_columns(
        cls, vectors: np.ndarray, labels: np.ndarray, outcomes: int,
        unit_rows: Optional[np.ndarray] = None, unit_labels: Optional[np.ndarray] = None,
    ) -> "Povm":
        """Wrap columns (and units) the package built to resolve the
        identity without checking them again; the arrays must be fresh."""
        povm = cls.__new__(cls)
        povm._store(vectors, labels, outcomes, unit_rows, unit_labels)
        return povm

    def _store(self, vectors, labels, outcomes, unit_rows=None, unit_labels=None) -> None:
        if unit_rows is None:
            unit_rows = unit_labels = np.empty(0, dtype=np.intp)
        for name, value in (("vectors", vectors), ("labels", labels),
                            ("unit_rows", unit_rows), ("unit_labels", unit_labels)):
            object.__setattr__(self, name, _readonly(value))
        object.__setattr__(self, "outcomes", outcomes)

    def __reduce__(self):
        # Rebuilt through _store, so a copy's arrays are read-only too.
        return Povm._from_columns, (
            self.vectors, self.labels, self.outcomes, self.unit_rows, self.unit_labels
        )

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def restrict(self, live) -> "Povm":
        """The measurement seen by states supported on the rows `live` (see
        core._support): the rows `live` of the columns that are not zero
        there, and a unit column for each unit whose row is in `live`, in
        outcome order, as a POVM on that subspace with no units (it resolves
        the identity there).  Each column keeps its label, its outcome, and
        the POVM keeps the outcome count; an outcome with no column left has
        probability 0 on such a state.  A full support returns this POVM,
        with no copy, when it has no units."""
        if isinstance(live, slice):
            if not self.unit_rows.size:
                return self
            live = np.arange(self.dim)
        rows = self.vectors[live]
        touched = np.flatnonzero((rows != 0).any(axis=0))
        columns, labels = rows[:, touched], self.labels[touched]
        # The position in `live` of each unit's row, or -1 off it.
        where = np.full(self.dim, -1)
        where[live] = np.arange(live.size)
        at = where[self.unit_rows]
        hit = np.flatnonzero(at >= 0)
        if hit.size:
            units = np.zeros((live.size, hit.size), dtype=np.complex128)
            units[at[hit], np.arange(hit.size)] = 1.0
            labels = np.concatenate([labels, self.unit_labels[hit]])
            order = np.argsort(labels, kind="stable")
            columns, labels = np.concatenate([columns, units], axis=1)[:, order], labels[order]
        return Povm._from_columns(columns, labels, self.outcomes)

    def statistics(self, rho: DensityMatrix, h: Optional[np.ndarray] = None):
        """(p, dp) per outcome from one product on the support of rho, terms
        = conj(v) * (rho v) over its rows and the columns v that reach it
        (restrict).  p(x) = Tr(rho Pi_x) sums terms over both, for the
        columns labelled x.  For rows h over the basis, (dim,) or (k, dim),
        dp(x) = 2 Im(h @ terms) over the same columns, Tr(-i [diag(h), rho]
        Pi_x) per row.  One bincount over (row, label) sums the columns, so
        an outcome with no column there gets 0; dp is None without h."""
        if rho.dim != self.dim:
            raise ValueError("POVM and state dimensions differ")
        live = _support(rho.entries)
        sub = self.restrict(live)
        v = sub.vectors
        terms = v.conj() * (rho.entries[_grid(live)] @ v)

        def by_outcome(values):
            rows = values.shape[:-1]
            index = np.arange(math.prod(rows))[:, None] * self.outcomes + sub.labels
            total = np.bincount(index.ravel(), weights=values.ravel(),
                                minlength=index.shape[0] * self.outcomes)
            return total.reshape(rows + (self.outcomes,))

        p = by_outcome(terms.sum(axis=0).real)
        return p, None if h is None else by_outcome(2.0 * (h[..., live] @ terms).imag)

    def probabilities(self, rho: DensityMatrix) -> np.ndarray:
        return self.statistics(rho)[0]


def _support_block(rho: DensityMatrix, gen: GeneratorSpec):
    """(live, block, energy): the support `live` of rho (core._support), the
    block of rho on it, real when rho is, and the energies of its rows."""
    _check_pairing(rho, gen)
    entries = rho.entries
    live = _support(entries)
    # Rows outside `live` are zero, so the block is real when rho is.
    if np.iscomplexobj(entries) and not entries.imag.any():
        entries = entries.real
    return live, entries[_grid(live)], gen.energies[live]


def _eig_frame(block: np.ndarray, energy: np.ndarray):
    """(lam, vec, mixed) of a support block: its eigenpairs and mixed =
    vec^dagger g vec, where drho = -i g with g_mn = (E_m - E_n) rho_mn, so a
    real block stays real throughout."""
    lam, vec = np.linalg.eigh(block)
    g = np.multiply(block, np.subtract.outer(energy, energy))
    # g is released before the second product, which then holds only vec,
    # the half product and its result.
    mixed = vec.conj().T @ g
    del g
    return lam, vec, mixed @ vec


def _flip_symmetric(a: np.ndarray, energy: np.ndarray, rev=None) -> bool:
    """Whether energy + energy[::-1] is constant and `a` equals its reversal
    a[::-1, ::-1], and its image a[rev][:, rev] under the permutation `rev`
    when given, entry for entry, compared a block of rows at a time.  An
    array whose strides are all 0, one broadcast value, equals every
    permutation of itself."""
    level = energy + energy[::-1]
    if not (level == level[0]).all():
        return False
    if not any(a.strides):
        return True
    for rows in _row_blocks(*a.shape):
        head = a[rows]
        if not (np.array_equal(head, a[::-1, ::-1][rows])
                and (rev is None or np.array_equal(head, a[np.ix_(rev[rows], rev)]))):
            return False
    return True


def _orbit_frames(rho: DensityMatrix, gen: GeneratorSpec, cov):
    """The frames of rho, or of dephase(rho, gen, cov) given a covariance,
    from its rows at one representative per orbit of G = {1, J, R, JR} (see
    the module docstring): (2, lam_e, lam_o, V_e^dagger Y V_o) between the
    J-even and J-odd sectors of each R parity, one parity at a time; or None
    when the gate fails."""
    dim, energy, entries = gen.dim, gen.energies, rho.entries
    index = np.arange(dim)
    flip, rev = index[::-1], index.reshape(gen.dims).transpose().ravel()
    if (gen.sites != gen.sites[::-1]
            or (cov is not None and not np.array_equal(cov.entries, cov.entries[::-1, ::-1]))
            or not isinstance(_support(entries), slice)
            or not _flip_symmetric(entries, energy, rev)):
        return None
    if np.iscomplexobj(entries) and not entries.imag.any():
        entries = entries.real
    # Row g of `moved` holds g p for g = 1, J, R, JR and each representative
    # p, the least index of its orbit; weight = sqrt(|O|) / 2.
    images = np.stack([index, flip, rev, flip[rev]])
    reps = np.flatnonzero(images.min(axis=0) == index)
    moved = images[:, reps]
    fixed = moved == reps
    weight = 1.0 / np.sqrt(fixed.sum(axis=0))
    factor = None if cov is None else _channel_factor(gen.site_energy_table, cov.entries)

    def sectors(*specs):
        """Per spec (rows, cols, chi, coupling), the block sum_g chi(g) rho-bar[p,
        g p'] on the orbits rows x cols (masks over reps), weighed, and by E_p
        - E_{g p'} when `coupling`, in the order g = 1, J, R, JR; one pass over
        the representative rows, each batch row holding about 4 dim entries.
        Without a covariance rho-bar is rho, its rows read as they are."""
        outs = [np.empty((rows.sum(), cols.sum()), dtype=entries.dtype) for rows, cols, *_ in specs]
        for batch in _row_blocks(reps.size, 4 * dim):
            p = reps[batch]
            bar = entries[p] if factor is None else factor(p, slice(None)) * entries[p]
            parts = np.take(bar, moved, axis=1)  # C order
            del bar
            parts *= np.outer(weight[batch], weight)[:, None, :]
            for out, (rows, cols, chi, coupling) in zip(outs, specs):
                terms = parts * (energy[p][:, None, None] - energy[moved]) if coupling else parts
                total = np.zeros((p.size, reps.size), dtype=entries.dtype)
                for g, sign in enumerate(chi):
                    (np.add if sign > 0 else np.subtract)(total, terms[:, g], out=total)
                lo = np.count_nonzero(rows[:batch.start])
                out[lo:lo + np.count_nonzero(rows[batch])] = total[rows[batch]][:, cols]
            del parts, terms  # before the next batch's factor
        return outs

    def parity(r):
        even, odd = np.array([1.0, 1.0, r, r]), np.array([1.0, -1.0, r, -r])
        keep_e, keep_o = ((~fixed | (chi[:, None] == 1.0)).all(axis=0) for chi in (even, odd))
        # X_e, Y and X_o, each popped and so freed once used.
        blocks = sectors((keep_e, keep_e, even, False), (keep_e, keep_o, odd, True),
                         (keep_o, keep_o, odd, False))
        lam_e, vec_e = np.linalg.eigh(blocks.pop(0))
        mixed = vec_e.conj().T @ blocks.pop(0)
        del vec_e
        lam_o, vec_o = np.linalg.eigh(blocks.pop(0))
        return 2, lam_e, lam_o, mixed @ vec_o

    return [parity(1.0), parity(-1.0)]


def _rounding_floor(size: int, top: float) -> float:
    """size * eps * top: the level below which an eigenvalue (or a sum of
    two) of a size-row Hermitian matrix with largest eigenvalue top is
    rounding, the only eigenvalue floor of fisher and bayes."""
    return size * np.finfo(float).eps * top


def _psd_factor(lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """(s, r) factor A with A A^dagger = vec diag(lam) vec^dagger, from an
    ascending eigendecomposition of an s-row PSD matrix: the columns of vec
    whose eigenvalue exceeds _rounding_floor(s, lam[-1]), each scaled by
    sqrt(lam).  vec is scaled in place when every column is kept."""
    keep = lam > _rounding_floor(lam.size, lam[-1])
    if not keep.all():
        vec = vec[:, keep]
    vec *= np.sqrt(lam[keep])
    return vec


def _kept_pairs(spectra):
    """The rank rule: for each (copies, lam, lam2) of `spectra`, both
    spectra ascending, the pair sums denom = lam_k + lam2_l and the mask of
    the kept pairs, denom > _rounding_floor(size, top), with size = sum of
    copies * len(lam) and top the largest eigenvalue over all of them (a
    spectrum may be empty, as an orbit sector of a small support can be)."""
    top = max(side[-1] for _, lam, lam2 in spectra for side in (lam, lam2) if side.size)
    floor = _rounding_floor(sum(copies * lam.size for copies, lam, _ in spectra), top)
    for _, lam, lam2 in spectra:
        denom = lam[:, None] + lam2[None, :]
        yield denom, denom > floor


def _frame_qfi(frames) -> float:
    """2 sum over frames (copies, lam, lam2, mixed) of copies times sum
    |mixed|^2 / denom over the kept pairs of _kept_pairs; each mixed is
    squared and divided in place, so no further temporaries of its size are
    held."""
    total = 0.0
    pairs = _kept_pairs([(copies, lam, lam2) for copies, lam, lam2, _ in frames])
    for (copies, _, _, mixed), (denom, keep) in zip(frames, pairs):
        terms = np.abs(mixed, out=mixed if mixed.dtype.kind == "f" else None)
        np.square(terms, out=terms)
        np.divide(terms, denom, out=terms, where=keep)
        terms[~keep] = 0.0
        total += copies * float(terms.sum())
    return 2.0 * total


def _sld_block(lam, vec, mixed) -> np.ndarray:
    """The SLD on the support block of a full frame, Hermitian-symmetrized."""
    ((denom, keep),) = _kept_pairs([(1, lam, lam)])
    safe = np.where(keep, denom, 1.0)
    frame = np.where(keep, mixed / safe, 0.0)
    block = -2j * (vec @ frame @ vec.conj().T)
    return (block + block.conj().T) / 2


def _flip_sld_eigh(block: np.ndarray, energy: np.ndarray):
    """(ell, basis): the eigenpairs of the SLD on a real support block of
    even size that equals its reversal, with energy + energy[::-1]
    constant, from its spin-flip sectors in real arithmetic (see the
    module docstring)."""
    h = block.shape[0] // 2
    top, cross = block[:h, :h], block[:h, ::-1][:, :h]
    lam_e, vec_e = np.linalg.eigh(top + cross)
    lam_o, vec_o = np.linalg.eigh(top - cross)
    g = block[:h] * np.subtract.outer(energy[:h], energy)
    mixed = vec_e.T @ (g[:, :h] - g[:, ::-1][:, :h]) @ vec_o
    ((denom, keep),) = _kept_pairs([(2, lam_e, lam_o)])
    flux = np.where(keep, 2.0 * mixed / np.where(keep, denom, 1.0), 0.0)
    zero = np.zeros((h, h))
    ell, pairs = np.linalg.eigh(np.block([[zero, -flux], [-flux.T, zero]]))
    u_e, u_o = vec_e @ pairs[:h], vec_o @ pairs[h:]
    plus, minus = (u_e + u_o) / 2, (u_e - u_o) / 2
    basis = np.empty(pairs.shape, dtype=np.complex128)
    basis[:h].real, basis[:h].imag = plus, minus
    basis[::-1][:h].real, basis[::-1][:h].imag = minus, plus
    return ell, basis


def sld(rho: DensityMatrix, gen: GeneratorSpec) -> HermitianOperator:
    """Symmetric logarithmic derivative of the encoded family at rho."""
    live, block, energy = _support_block(rho, gen)
    out = np.zeros((rho.dim, rho.dim), dtype=np.complex128)
    out[_grid(live)] = _sld_block(*_eig_frame(block, energy))
    return _trusted(HermitianOperator, out)


def qfi(rho: DensityMatrix, gen: GeneratorSpec, cov=None) -> float:
    """Quantum Fisher information of the encoded family at rho or, given a
    covariance, at dephase(rho, gen, cov): from its orbit rows when the
    inputs pass the gate of _orbit_frames, else from the full frame of the
    support block of that state."""
    _check_pairing(rho, gen, cov)
    frames = _orbit_frames(rho, gen, cov)
    if frames is None:
        state = rho if cov is None else dephase(rho, gen, cov)
        _, block, energy = _support_block(state, gen)
        lam, _, mixed = _eig_frame(block, energy)
        frames = [(1, lam, lam, mixed)]
    return _frame_qfi(frames)


def _product_plus_qfi(n: int, collective: float, local: float) -> float:
    """QFI of |+>^n on n qubits (H = J_z) dephased by C = collective 11^T +
    local I, from its Schur-Weyl blocks (see the module docstring); equal
    to qfi(dephase(product_plus_state(n), gen, C), gen) up to rounding."""
    c = math.exp(-0.5 * local)
    det = -math.expm1(-local)  # 4 det(rho_1) = 1 - c^2
    frames = []
    for k in range(n // 2 + 1):
        # Spin j = n/2 - k: Dicke levels i = 0..s, J_z = s/2 - i, d_j copies.
        weight = det**k / 2.0**n
        if weight == 0.0:  # no local noise (b = 0) leaves only j = n/2
            continue
        s = n - 2 * k
        binom = [float(math.comb(s, i)) for i in range(s + 1)]
        block = np.empty((s + 1, s + 1))
        for col in range(s + 1):
            # y^i coefficients of (1 + c y)^(s - col) (c + y)^col: all positive.
            rise = [math.comb(s - col, a) * c**a for a in range(s - col + 1)]
            fall = [math.comb(col, b) * c ** (col - b) for b in range(col + 1)]
            block[:, col] = np.convolve(rise, fall)
        root = np.sqrt(binom)
        m = s / 2 - np.arange(s + 1)
        noise = np.exp(-0.5 * collective * np.subtract.outer(m, m) ** 2)
        block *= weight * np.outer(1.0 / root, root) * noise
        lam, _, mixed = _eig_frame(block, m)
        copies = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
        frames.append((copies, lam, lam, mixed))
    return _frame_qfi(frames)


def classical_fi(rho: DensityMatrix, gen: GeneratorSpec, povm: Povm) -> float:
    """Fisher information of the outcome distribution of `povm` on the
    encoded family at rho, sum dp^2 / p with dp = Tr(-i [H, rho] Pi_x) from
    Povm.statistics over the total energies; outcomes at or below
    PROB_FLOOR are skipped."""
    _check_pairing(rho, gen)
    p, dp = povm.statistics(rho, gen.energies)
    fired = p > PROB_FLOOR
    return float(np.sum(dp[fired] ** 2 / p[fired]))


def optimal_povm(rho: DensityMatrix, gen: GeneratorSpec) -> Povm:
    """Projective measurement in an eigenbasis of the SLD.

    The SLD is diagonalized on the support block and completed by the basis
    vectors e_j off the support (see the module docstring): the block
    eigenvectors, then the e_j in ascending j, at eigenvalue 0.  The
    degenerate groups are the runs of the stably sorted eigenvalues with
    gaps at most _DEGENERACY_TOL * max |ell|, relative to the SLD's own
    scale, so a small SLD (strong dephasing) keeps its eigenvalues apart and
    an all-zero one groups by exact equality; in each group of two or more,
    the block vectors are rotated to diagonalize H on their span (a complex
    eigh on either route; see the module docstring for the two routes to
    the block eigenpairs).  The
    outcomes follow one stable sort, by group and then by energy (that H
    eigenvalue, or E_j), so ties keep the order above: deterministic.  On
    a partial support the POVM holds the block vectors as columns and the
    e_j as unit outcomes (Povm), with no dim x dim array.
    """
    live, block, energy = _support_block(rho, gen)
    dim, size = rho.dim, block.shape[0]
    if (block.dtype.kind == "f" and size % 2 == 0
            and (isinstance(live, slice) or np.array_equal(live[::-1], dim - 1 - live))
            and _flip_symmetric(block, energy)):
        ell, basis = _flip_sld_eigh(block, energy)
    else:
        ell, basis = np.linalg.eigh(_sld_block(*_eig_frame(block, energy)))
    outside = np.ones(dim, dtype=bool)
    outside[live] = False
    off = np.flatnonzero(outside)
    # Column k < size is block column k; column size + i is e_{off[i]}.
    values = np.concatenate([ell, np.zeros(off.size)])
    levels = np.concatenate([np.zeros(size), gen.energies[off]])
    ranked = np.argsort(values, kind="stable")
    steps = np.diff(values[ranked], prepend=values[ranked[0]])
    group = np.empty(dim, dtype=np.intp)
    group[ranked] = np.cumsum(steps > _DEGENERACY_TOL * float(np.abs(ell).max()))
    members = np.bincount(group)
    blocks = np.bincount(group[:size], minlength=members.size)  # consecutive, as ell ascends
    ends = np.cumsum(blocks)
    for g in np.flatnonzero((blocks > 0) & (members > 1)):
        cols = slice(ends[g] - blocks[g], ends[g])
        span = basis[:, cols]
        restricted = span.conj().T @ (energy[:, None] * span)
        restricted = (restricted + restricted.conj().T) / 2
        levels[cols], rot = np.linalg.eigh(restricted)
        basis[:, cols] = span @ rot
    if not off.size:
        # Only block columns, each group at ascending levels: the sort keeps them in place.
        return Povm._from_columns(basis, np.arange(dim), dim)
    place = np.argsort(np.lexsort((levels, group)))  # the outcome of each column
    # The block columns on the rows `live`, in outcome order; each e_j off
    # the support is a unit outcome.
    order = np.argsort(place[:size])
    vectors = np.zeros((dim, size), dtype=np.complex128)
    vectors[live] = basis[:, order]
    return Povm._from_columns(vectors, place[:size][order], dim, off, place[size:])
