import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    CovarianceMatrix,
    DensityMatrix,
    GeneratorSpec,
    Povm,
    build_c1,
    build_c2,
    classical_fi,
    dephase,
    encode_phase,
    ghz_state,
    optimal_povm,
    product_plus_state,
    qfi,
    sld,
    variance,
)
import dephimetry.fisher
from dephimetry.core import _support
from dephimetry.dephasing import derivative_state

from helpers import (
    SIGMA_Y,
    dense_optimal_basis,
    dense_qfi,
    dense_sld,
    dense_traces,
    embedded_case,
    frame_case,
    ginibre,
    measurement_case,
    random_density,
    random_projective_povm,
    random_pure_density,
    rng,
    traced_peak_mb,
)

FOUR_OVER_E = 1.4715177646857693


class TestPovm:
    def test_projective_complete(self):
        povm = Povm.projective(np.eye(3))
        assert povm.outcomes == 3
        assert povm.dim == 3

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError, match="identity"):
            Povm((np.diag([1.0, 0.0]).astype(complex),))

    def test_rejects_nonhermitian_effect(self):
        bad = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermiticity"):
            Povm((bad, np.eye(2) - bad))

    def test_rejects_negative_effect(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            Povm((bad, np.eye(2) - bad))

    @pytest.mark.parametrize("build", [Povm.projective, lambda a: Povm([a])],
                             ids=["projective", "effects"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, build, bad):
        with pytest.raises(ValueError, match="non-finite"):
            build(np.full((2, 2), bad))

    def test_accepts_stacked_effects(self):
        povm = Povm(np.stack([np.eye(2) / 2, np.eye(2) / 2]))
        assert povm.outcomes == 2

    def test_probabilities_sum_to_one(self):
        rho = random_density(rng(0), 4)
        povm = random_projective_povm(rng(1), 4)
        p = povm.probabilities(rho)
        assert np.all(p >= -1e-12)
        assert math.isclose(p.sum(), 1.0, abs_tol=1e-10)

    def test_nonprojective_allowed(self):
        third = np.eye(2) / 3
        povm = Povm((third, third, third))
        assert povm.outcomes == 3

    def test_rank_one_effects_keep_one_column_each(self):
        # rounding-level eigenvalues of a dense rank-one effect add no column
        q, _ = np.linalg.qr(rng(3).normal(size=(64, 64)) + 1j * rng(4).normal(size=(64, 64)))
        povm = Povm([np.outer(q[:, k], q[:, k].conj()) for k in range(64)])
        assert povm.vectors.shape == (64, 64)
        np.testing.assert_array_equal(povm.labels, np.arange(64))

    @pytest.mark.parametrize("case", ["pure", "grouped"])
    def test_pickle_and_copy_round_trip(self, case):
        rho, povm, _ = measurement_case(case, 2, seed=5)
        for clone in (pickle.loads(pickle.dumps(povm)), copy.copy(povm), copy.deepcopy(povm)):
            np.testing.assert_array_equal(clone.vectors, povm.vectors)
            np.testing.assert_array_equal(clone.labels, povm.labels)
            np.testing.assert_array_equal(clone.probabilities(rho), povm.probabilities(rho))

    def test_immutable(self):
        povm = Povm.projective(np.eye(2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.outcomes = 3
        with pytest.raises(ValueError, match="read-only"):
            povm.vectors[0, 0] = 2.0

    def test_projective_rejects_incomplete_basis(self):
        with pytest.raises(ValueError, match="identity"):
            Povm.projective(np.array([[1.0, 0.0], [0.0, 0.5]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_factored_traces_match_dense(self, case, n):
        gen = GeneratorSpec.qubits(n)
        rho, povm, effects = measurement_case(case, n, seed=10 * n)
        assert povm.outcomes == len(effects)
        np.testing.assert_allclose(
            povm.probabilities(rho), dense_traces(rho.entries, effects), rtol=0, atol=1e-13
        )
        drho = derivative_state(rho, gen).entries
        np.testing.assert_allclose(
            povm.traces(drho), dense_traces(drho, effects), rtol=0, atol=1e-13
        )
        for built, given_effect in zip(povm.effects, effects):
            np.testing.assert_allclose(built, given_effect, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("mixing", [False, True], ids=["blocked", "mixing"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_restricted_traces_match_dense(self, case, n, mixing):
        gen = GeneratorSpec.qubits(n + 1)
        rho, povm, effects = embedded_case(case, n, seed=10 * n, mixing=mixing)
        live = _support(rho.entries)
        assert live.size == rho.dim // 2
        sub, reached = povm.restrict(live)
        np.testing.assert_allclose(sum(sub.effects), np.eye(live.size), rtol=0, atol=1e-12)
        if not mixing:
            assert len(reached) < povm.outcomes
        p = dense_traces(rho.entries, effects)
        np.testing.assert_allclose(povm.probabilities(rho), p, rtol=0, atol=1e-13)
        dp = dense_traces(derivative_state(rho, gen).entries, effects)
        fired = p > 1e-12
        expected = float(np.sum(dp[fired] ** 2 / p[fired]))
        assert math.isclose(classical_fi(rho, gen, povm), expected, rel_tol=1e-10, abs_tol=1e-12)

    def test_probabilities_dimension_mismatch(self):
        # a dim-8 state on rows 0 and 1 would otherwise be read through
        # the first rows of a dim-4 POVM without an error
        povm = random_projective_povm(rng(2), 4)
        low = DensityMatrix(np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex))
        for rho in (low, ghz_state(3), product_plus_state(1)):
            with pytest.raises(ValueError, match="dimensions"):
                povm.probabilities(rho)

    def test_restrict_full_support_keeps_povm(self):
        povm = random_projective_povm(rng(3), 4)
        sub, reached = povm.restrict(slice(None))
        assert sub is povm
        assert reached == slice(None)


class TestSld:
    def test_pure_state_is_twice_derivative(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_pure_density(rng(2), 4)
        expected = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(sld(rho, gen).entries, expected, atol=1e-10)

    @given(seed=st.integers(0, 60))
    def test_defining_equation_full_rank(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        ell = sld(rho, gen).entries
        lhs = ell @ rho.entries + rho.entries @ ell
        rhs = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_qfi_is_second_moment_of_sld(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(3), 4)
        ell = sld(rho, gen).entries
        assert math.isclose(
            qfi(rho, gen), np.trace(rho.entries @ ell @ ell).real, rel_tol=1e-10
        )

    def test_zero_for_diagonal_state(self):
        gen = GeneratorSpec.qubits(2)
        rho_diag = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        from dephimetry import DensityMatrix

        ell = sld(DensityMatrix(rho_diag), gen)
        np.testing.assert_allclose(ell.entries, 0.0, atol=1e-14)


class TestQfi:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ghz_quadratic(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(qfi(ghz_state(n), gen), n**2, rel_tol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_linear(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(qfi(product_plus_state(n), gen), n, rel_tol=1e-12)

    @given(seed=st.integers(0, 80))
    def test_pure_equals_four_variance(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_pure_density(rng(seed), 4)
        assert math.isclose(
            qfi(rho, gen), 4.0 * variance(gen.hamiltonian(), rho), abs_tol=1e-9
        )

    def test_dephased_ghz_frozen_value(self):
        # 2 beta^2 = 0.5, independent noise on 2 qubits: F = 4 e^{-1}
        gen = GeneratorSpec.qubits(2)
        rb = dephase(ghz_state(2), gen, build_c1(2, 0.5, 0.0))
        assert math.isclose(qfi(rb, gen), FOUR_OVER_E, rel_tol=1e-12)

    @given(phi=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 40))
    def test_invariant_under_encoding(self, phi, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        assert math.isclose(
            qfi(encode_phase(rho, gen, phi), gen), qfi(rho, gen), rel_tol=1e-8
        )

    def test_maximally_mixed_is_zero(self):
        from dephimetry import DensityMatrix

        gen = GeneratorSpec.qubits(2)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        assert qfi(rho, gen) == 0.0


FRAME_CASES = ["complex", "real", "subset", "deficient", "ghz", "plus"]


class TestSupportFrame:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", FRAME_CASES)
    def test_matches_dense_frame(self, case, n):
        gen = GeneratorSpec.qubits(n)
        rho = frame_case(case, n, seed=7 * n)
        assert math.isclose(qfi(rho, gen), dense_qfi(rho, gen), rel_tol=1e-12)
        np.testing.assert_allclose(sld(rho, gen).entries, dense_sld(rho, gen), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("case", ["subset", "deficient"])
    def test_defining_equation_with_zero_rows(self, case):
        gen = GeneratorSpec.qubits(3)
        rho = frame_case(case, 3, seed=11)
        assert (np.abs(rho.entries).sum(axis=1) == 0).any()
        ell = sld(rho, gen).entries
        lhs = ell @ rho.entries + rho.entries @ ell
        rhs = 2.0 * derivative_state(rho, gen).entries
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("build", [build_c1, build_c2], ids=["c1", "c2"])
    def test_dephased_ghz_closed_form_n10(self, build):
        gen = GeneratorSpec.qubits(10)
        cov = build(10, 0.5, 0.5)
        expected = 100.0 * math.exp(-cov.entries.sum())
        assert math.isclose(qfi(dephase(ghz_state(10), gen, cov), gen), expected, rel_tol=1e-12)

    def test_dephased_plus_closed_form_n10(self):
        gen = GeneratorSpec.qubits(10)
        rb = dephase(product_plus_state(10), gen, CovarianceMatrix(0.5 * np.eye(10)))
        assert math.isclose(qfi(rb, gen), 10.0 * math.exp(-0.5), rel_tol=1e-12)

    def test_memory_budget_dephased_ghz_n10(self):
        # a dense complex frame at dim 1024 peaks at 65 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(ghz_state(10), gen, build_c2(10, 0.5, 0.5))
        assert traced_peak_mb(qfi, rho, gen) <= 16.0

    def test_memory_budget_dephased_plus_n10(self):
        # full real support: the 1024 x 1024 block alone is 8 MiB, and
        # holding every frame temporary at once peaked at 49 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(product_plus_state(10), gen, build_c1(10, 0.5, 0.5))
        assert traced_peak_mb(qfi, rho, gen) <= 16.0


def frame_calls(rho, gen):
    """(qfi, the number of full support frames it diagonalized): 0 when the
    parity split was taken, 1 when it fell back to the full frame."""
    frame = dephimetry.fisher._eig_frame
    with mock.patch.object(dephimetry.fisher, "_eig_frame", wraps=frame) as spy:
        value = qfi(rho, gen)
    return value, spy.call_count


SPECTRA = {"qubit": (0.5, -0.5), "qutrit": (1.0, 0.0, -1.0)}


def flip_symmetric_state(seed, gen, kind, real):
    """A state equal to its index reversal entry for entry, on a random
    support closed under reversal with at least two pairs of rows: "pure"
    (a flip-even or flip-odd vector), "mixed" (full rank on its support)
    or "deficient" (rank at most 2 on a support of at least 4 rows)."""
    r = rng(seed)
    dim = gen.dim
    first = np.arange(dim // 2)
    picked = np.sort(r.choice(first, size=int(r.integers(2, first.size + 1)), replace=False))
    live = np.concatenate([picked, dim - 1 - picked[::-1]])
    size = live.size

    def draw(cols):
        x = r.normal(size=(size, cols))
        return x if real else x + 1j * r.normal(size=(size, cols))

    if kind == "pure":
        x = draw(1)[:, 0]
        psi = x + (1 if r.integers(2) else -1) * x[::-1]
        block = np.outer(psi, psi.conj())
    else:
        x = draw(1 if kind == "deficient" else 2 * size)
        block = x @ x.conj().T
        block = (block + block[::-1, ::-1]) / 2
    entries = np.zeros((dim, dim), dtype=np.complex128)
    entries[np.ix_(live, live)] = block / np.trace(block).real
    return DensityMatrix(entries)


class TestParitySplit:
    @given(
        seed=st.integers(0, 10_000),
        sites=st.sampled_from([("qubit", 2), ("qubit", 3), ("qubit", 4),
                               ("qutrit", 2), ("qutrit", 3)]),
        kind=st.sampled_from(["pure", "mixed", "deficient"]),
        real=st.booleans(),
    )
    def test_matches_dense_frame(self, seed, sites, kind, real):
        spectrum, nsites = sites
        gen = GeneratorSpec((SPECTRA[spectrum],) * nsites)
        rho = flip_symmetric_state(seed, gen, kind, real)
        value, calls = frame_calls(rho, gen)
        assert calls == 0
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)

    def test_support_need_not_be_closed(self):
        # rows 0, 1, 4, 5 of 3 qubits: reversed in block order they pair
        # energies 3/2 + -1/2 and 1/2 + 1/2, though the global flip would
        # map them to rows 7, 6, 3, 2
        gen = GeneratorSpec.qubits(3)
        live = np.array([0, 1, 4, 5])
        g = ginibre(rng(12), 4, 8)
        block = g @ g.conj().T
        block = (block + block[::-1, ::-1]) / 2
        entries = np.zeros((8, 8), dtype=np.complex128)
        entries[np.ix_(live, live)] = block / np.trace(block).real
        rho = DensityMatrix(entries)
        value, calls = frame_calls(rho, gen)
        assert calls == 0
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)

    @pytest.mark.parametrize("heavy", ["odd", "even"])
    def test_rank_rule_spans_both_halves(self, heavy):
        # nearly all weight on one vector of one half and 3e-11 on a vector
        # of the other: the pairs of the light vector with the empty modes
        # of the heavy half sum to 3e-11, below 1e-10 times the largest
        # eigenvalue, so they are dropped as in the full frame; they would
        # add about 1e-10 if the light half's own maximum set the rule
        gen = GeneratorSpec.qubits(3)
        r = rng(13)
        x, y = ginibre(r, 8, 1)[:, 0], ginibre(r, 8, 1)[:, 0]
        odd, even = x - x[::-1], y + y[::-1]
        big, small = (odd, even) if heavy == "odd" else (even, odd)
        eps = 3e-11
        entries = (1 - eps) * np.outer(big, big.conj()) / np.vdot(big, big).real
        entries += eps * np.outer(small, small.conj()) / np.vdot(small, small).real
        rho = DensityMatrix(entries)
        value, calls = frame_calls(rho, gen)
        assert calls == 0
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-13)

    def fallback(self, rho, gen):
        value, calls = frame_calls(rho, gen)
        assert calls == 1
        assert math.isclose(value, dense_qfi(rho, gen), rel_tol=1e-12)

    def test_phase_rotated_state_falls_back(self):
        gen = GeneratorSpec.qubits(4)
        rho = dephase(product_plus_state(4), gen, build_c2(4, 0.5, 0.5))
        assert frame_calls(rho, gen)[1] == 0
        self.fallback(encode_phase(rho, gen, 0.3), gen)

    def test_random_state_falls_back(self):
        self.fallback(random_density(rng(8), 16), GeneratorSpec.qubits(4))

    def test_asymmetric_spectrum_falls_back(self):
        # reversal swaps levels 0 and 3, whose energies do not pair up
        gen = GeneratorSpec(((0.0, 1.0, 3.0),) * 2)
        self.fallback(flip_symmetric_state(3, gen, "mixed", real=False), gen)

    def test_odd_support_falls_back(self):
        # qutrits with a full support keep the middle row, its own reversal
        gen = GeneratorSpec((SPECTRA["qutrit"],) * 2)
        g = rng(4).normal(size=(9, 18))
        block = g @ g.T
        block = (block + block[::-1, ::-1]) / 2
        self.fallback(DensityMatrix(block / np.trace(block)), gen)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("family", [
        lambda n: CovarianceMatrix(0.5 * np.eye(n)),
        lambda n: build_c1(n, 0.5, 0.5),
        lambda n: build_c2(n, 0.5, 0.5),
    ], ids=["identity", "c1", "c2"])
    def test_dephased_probes_take_split(self, family, n):
        # product-plus splits from n = 2; a two-row support (GHZ at every
        # n, product-plus at n = 1) keeps the 2 x 2 frame, so its outputs
        # keep their last bits
        gen = GeneratorSpec.qubits(n)
        cov = family(n)
        assert frame_calls(dephase(product_plus_state(n), gen, cov), gen)[1] == (n == 1)
        assert frame_calls(dephase(ghz_state(n), gen, cov), gen)[1] == 1


class TestClassicalFi:
    @given(seed=st.integers(0, 60))
    def test_never_exceeds_qfi(self, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        povm = random_projective_povm(rng(seed + 1000), 4)
        assert classical_fi(rho, gen, povm) <= qfi(rho, gen) + 1e-9

    def test_optimal_povm_attains_qfi_mixed(self):
        gen = GeneratorSpec.qubits(2)
        for seed in range(10):
            rho = random_density(rng(seed), 4)
            povm = optimal_povm(rho, gen)
            assert math.isclose(
                classical_fi(rho, gen, povm), qfi(rho, gen), rel_tol=1e-8, abs_tol=1e-10
            )

    def test_optimal_povm_attains_qfi_dephased_ghz(self):
        gen = GeneratorSpec.qubits(3)
        rb = dephase(ghz_state(3), gen, build_c1(3, 0.5, 0.4))
        povm = optimal_povm(rb, gen)
        assert math.isclose(classical_fi(rb, gen, povm), qfi(rb, gen), rel_tol=1e-9)

    def test_blind_basis_gives_zero(self):
        # computational basis never sees the phase
        gen = GeneratorSpec.qubits(2)
        rho = encode_phase(ghz_state(2), gen, 0.3)
        povm = Povm.projective(np.eye(4))
        assert classical_fi(rho, gen, povm) == 0.0

    def test_prob_floor_skips_dead_outcomes(self):
        gen = GeneratorSpec.qubits(1)
        rho = product_plus_state(1)
        povm = Povm((np.eye(2, dtype=complex), np.zeros((2, 2), dtype=complex)))
        assert classical_fi(rho, gen, povm) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            classical_fi(ghz_state(2), GeneratorSpec.qubits(2), Povm.projective(np.eye(2)))


def degenerate_on_support():
    """(state, support): rank 2 on 8 random basis states of 4 qubits."""
    r = rng(21)
    live = np.sort(r.choice(16, size=8, replace=False))
    g = r.normal(size=(8, 2)) + 1j * r.normal(size=(8, 2))
    entries = np.zeros((16, 16), dtype=complex)
    entries[np.ix_(live, live)] = g @ g.conj().T
    return DensityMatrix(entries / np.trace(entries).real), live


def assert_dense_order(rho, gen):
    """Per outcome, the SLD eigenvalue and the H level inside its degenerate
    eigenspace are basis-independent, so the support path must list them in
    the order of the dense path."""
    ell = dense_sld(rho, gen)
    h = np.diag(gen.energies)
    built = optimal_povm(rho, gen).vectors
    dense = dense_optimal_basis(rho, gen)
    for op in (ell, h):
        np.testing.assert_allclose(
            np.einsum("ik,ij,jk->k", built.conj(), op, built).real,
            np.einsum("ik,ij,jk->k", dense.conj(), op, dense).real,
            rtol=0, atol=1e-9,
        )


class TestOptimalPovm:
    def test_projective_rank_one(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(5), 4)
        povm = optimal_povm(rho, gen)
        assert povm.outcomes == 4
        for e in povm.effects:
            lam = np.linalg.eigvalsh(e)
            assert abs(lam[-1] - 1.0) < 1e-10
            assert abs(lam[:-1]).max() < 1e-10

    def test_effects_commute_with_sld(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(6), 4)
        ell = sld(rho, gen).entries
        for e in optimal_povm(rho, gen).effects:
            comm = e @ ell - ell @ e
            assert np.abs(comm).max() < 1e-8

    def test_deterministic(self):
        gen = GeneratorSpec.qubits(2)
        rho = dephase(ghz_state(2), gen, build_c1(2, 0.5, 0.3))
        a = optimal_povm(rho, gen)
        b = optimal_povm(rho, gen)
        for ea, eb in zip(a.effects, b.effects):
            np.testing.assert_array_equal(ea, eb)

    def test_degenerate_sld_resolved_by_energy(self):
        # maximally mixed state: SLD = 0, fully degenerate; the tie-break
        # diagonalizes H on the whole space, giving the computational basis
        from dephimetry import DensityMatrix

        gen = GeneratorSpec.qubits(2)
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4)
        povm = optimal_povm(rho, gen)
        h = np.diag(gen.energies)
        for e in povm.effects:
            assert np.abs(e @ h - h @ e).max() < 1e-12

    def test_single_qubit_plus_state_basis(self):
        # SLD of |+> under sigma_z/2 encoding is proportional to sigma_y
        gen = GeneratorSpec.qubits(1)
        povm = optimal_povm(product_plus_state(1), gen)
        ell = sld(product_plus_state(1), gen).entries
        np.testing.assert_allclose(ell, SIGMA_Y, atol=1e-12)
        for e in povm.effects:
            assert np.abs(e @ SIGMA_Y - SIGMA_Y @ e).max() < 1e-12

    def test_memory_budget_ghz_n8(self):
        # 256 outcomes at dim 256: dense projectors alone would take 256 MiB
        gen = GeneratorSpec.qubits(8)
        rho = dephase(ghz_state(8), gen, build_c2(8, 0.5, 0.5))
        assert traced_peak_mb(optimal_povm, rho, gen) <= 32.0

    def test_memory_budget_ghz_n10(self):
        # the returned (1024, 1024) complex basis alone is 16 MiB; a dense
        # SLD eigendecomposition peaked at 96 MiB
        gen = GeneratorSpec.qubits(10)
        rho = dephase(ghz_state(10), gen, build_c2(10, 0.5, 0.5))
        assert traced_peak_mb(optimal_povm, rho, gen) <= 40.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", FRAME_CASES)
    def test_outcome_order_matches_dense(self, case, n):
        assert_dense_order(frame_case(case, n, seed=7 * n), GeneratorSpec.qubits(n))

    def test_outcome_order_matches_dense_degenerate_block(self):
        assert_dense_order(degenerate_on_support()[0], GeneratorSpec.qubits(4))

    def test_degenerate_block_on_strict_support(self):
        # the block SLD has at least four zero eigenvalues, resolved by H
        # together with the eight e_j off the support
        gen = GeneratorSpec.qubits(4)
        rho, live = degenerate_on_support()
        ell = sld(rho, gen).entries
        assert (np.abs(np.linalg.eigvalsh(ell[np.ix_(live, live)])) < 1e-8).sum() >= 4
        basis = optimal_povm(rho, gen).vectors
        np.testing.assert_allclose(basis @ basis.conj().T, np.eye(16), rtol=0, atol=1e-12)
        for e in optimal_povm(rho, gen).effects:
            assert np.abs(e @ ell - ell @ e).max() < 1e-8
        assert math.isclose(
            classical_fi(rho, gen, optimal_povm(rho, gen)), qfi(rho, gen), rel_tol=1e-9
        )
        off = np.setdiff1d(np.arange(16), live)
        standard = basis[:, (np.abs(basis[live]) == 0).all(axis=0)]
        np.testing.assert_array_equal(np.sort(np.abs(standard).argmax(axis=0)), off)
        np.testing.assert_array_equal(np.abs(standard).max(axis=0), 1.0)

    def test_attains_qfi_for_pure_states(self):
        gen = GeneratorSpec.qubits(2)
        for seed in range(5):
            rho = random_pure_density(rng(seed + 40), 4)
            povm = optimal_povm(rho, gen)
            f = qfi(rho, gen)
            assert math.isclose(
                classical_fi(rho, gen, povm), f, rel_tol=1e-7, abs_tol=1e-9
            )
