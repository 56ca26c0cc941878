import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
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
from dephimetry.dephasing import derivative_state

from helpers import (
    SIGMA_Y,
    dense_traces,
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

    def test_attains_qfi_for_pure_states(self):
        gen = GeneratorSpec.qubits(2)
        for seed in range(5):
            rho = random_pure_density(rng(seed + 40), 4)
            povm = optimal_povm(rho, gen)
            f = qfi(rho, gen)
            assert math.isclose(
                classical_fi(rho, gen, povm), f, rel_tol=1e-7, abs_tol=1e-9
            )
