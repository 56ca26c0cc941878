import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    encode_phase,
    ghz_state,
    product_plus_state,
    variance,
)

from helpers import random_density, rng


class TestHermitianOperator:
    def test_symmetrizes_small_deviation(self):
        a = np.array([[1.0, 0.5 + 1e-14j], [0.5, 2.0]])
        op = HermitianOperator(a)
        assert np.abs(op.entries - op.entries.conj().T).max() == 0.0

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HermitianOperator(np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, bad):
        a = np.eye(2, dtype=complex)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            HermitianOperator(a)

    def test_entries_readonly(self):
        op = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            op.entries[0, 0] = 5.0


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2.0 * np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_negative_eigenvalue_at_dim_2049(self):
        # the spectrum is checked at every dimension, large ones included
        dim = 2049
        diag = np.full(dim, (1.0 + 1e-6) / (dim - 1))
        diag[-1] = -1e-6
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.diag(diag).astype(complex))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.full((2, 3), 0.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(np.full((2, 2), bad))

    def test_rejects_large_deviation(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            DensityMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_accepts_tiny_negative_eigenvalue(self):
        rho = DensityMatrix(np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
        assert rho.dim == 2

    def test_purity_and_eigenvalues(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert math.isclose(rho.purity(), 0.75**2 + 0.25**2, rel_tol=1e-14)
        np.testing.assert_allclose(rho.eigenvalues(), [0.25, 0.75], atol=1e-14)

    def test_random_density_valid(self):
        rho = random_density(rng(0), 5)
        assert math.isclose(np.trace(rho.entries).real, 1.0, abs_tol=1e-12)
        assert rho.eigenvalues()[0] >= -1e-12


class TestGeneratorSpec:
    def test_qubits_table(self):
        gen = GeneratorSpec.qubits(2)
        # kron ordering: first site slowest
        expected = np.array(
            [
                [0.5, 0.5, -0.5, -0.5],
                [0.5, -0.5, 0.5, -0.5],
            ]
        )
        np.testing.assert_array_equal(gen.site_energy_table, expected)
        np.testing.assert_array_equal(gen.energies, [1.0, 0.0, 0.0, -1.0])

    def test_mixed_local_dimensions(self):
        gen = GeneratorSpec(((1.0, 0.0, -1.0), (0.5, -0.5)))
        assert gen.dims == (3, 2)
        assert gen.dim == 6
        expected_row0 = np.array([1.0, 1.0, 0.0, 0.0, -1.0, -1.0])
        expected_row1 = np.array([0.5, -0.5, 0.5, -0.5, 0.5, -0.5])
        np.testing.assert_array_equal(gen.site_energy_table[0], expected_row0)
        np.testing.assert_array_equal(gen.site_energy_table[1], expected_row1)

    def test_hamiltonian_is_diagonal_energy(self):
        gen = GeneratorSpec.qubits(2)
        h = gen.hamiltonian().entries
        np.testing.assert_array_equal(np.diag(h).real, gen.energies)
        assert np.abs(h - np.diag(np.diag(h))).max() == 0.0

    def test_rejects_single_level_site(self):
        with pytest.raises(ValueError, match="local dimension"):
            GeneratorSpec(((1.0,),))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            GeneratorSpec(((np.inf, 0.0),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one site"):
            GeneratorSpec(())


class TestNamedStates:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ghz_entries(self, n):
        rho = ghz_state(n).entries
        dim = 2**n
        assert rho.shape == (dim, dim)
        corners = {(0, 0), (0, dim - 1), (dim - 1, 0), (dim - 1, dim - 1)}
        for i in range(dim):
            for j in range(dim):
                expected = 0.5 if (i, j) in corners else 0.0
                assert rho[i, j] == expected

    @pytest.mark.parametrize("n", [1, 3])
    def test_product_plus_entries(self, n):
        rho = product_plus_state(n)
        assert np.all(rho.entries == 1.0 / 2**n)
        assert math.isclose(rho.purity(), 1.0, abs_tol=1e-12)

    def test_ghz_pure(self):
        assert math.isclose(ghz_state(3).purity(), 1.0, abs_tol=1e-14)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            ghz_state(0)
        with pytest.raises(ValueError):
            product_plus_state(0)


class TestEncodePhase:
    def test_single_qubit_oracle(self):
        gen = GeneratorSpec.qubits(1)
        rho = product_plus_state(1)
        out = encode_phase(rho, gen, 0.7).entries
        # off-diagonal picks up exp(-i phi (E_0 - E_1)) = exp(-i 0.7)
        assert abs(out[0, 1] - 0.5 * np.exp(-1j * 0.7)) < 1e-15
        assert abs(out[1, 0] - 0.5 * np.exp(+1j * 0.7)) < 1e-15

    def test_diagonal_invariant(self):
        r = rng(1)
        rho = random_density(r, 8)
        out = encode_phase(rho, GeneratorSpec.qubits(3), 1.3)
        np.testing.assert_allclose(
            np.diag(out.entries), np.diag(rho.entries), atol=1e-15
        )

    @given(
        phi1=st.floats(-5, 5, allow_nan=False),
        phi2=st.floats(-5, 5, allow_nan=False),
        seed=st.integers(0, 50),
    )
    def test_group_action(self, phi1, phi2, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        a = encode_phase(encode_phase(rho, gen, phi1), gen, phi2)
        b = encode_phase(rho, gen, phi1 + phi2)
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-12)

    @given(phi=st.floats(-10, 10, allow_nan=False), seed=st.integers(0, 50))
    def test_unitary_preserves_spectrum(self, phi, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        out = encode_phase(rho, gen, phi)
        np.testing.assert_allclose(out.eigenvalues(), rho.eigenvalues(), atol=1e-10)
        assert math.isclose(out.purity(), rho.purity(), abs_tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            encode_phase(ghz_state(2), GeneratorSpec.qubits(3), 0.1)


class TestVariance:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_ghz_generator_variance(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(
            variance(gen.hamiltonian(), ghz_state(n)), n**2 / 4.0, rel_tol=1e-13
        )

    @pytest.mark.parametrize("n", [1, 3])
    def test_plus_generator_variance(self, n):
        gen = GeneratorSpec.qubits(n)
        assert math.isclose(
            variance(gen.hamiltonian(), product_plus_state(n)), n / 4.0, rel_tol=1e-13
        )

    def test_matches_manual(self):
        r = rng(2)
        rho = random_density(r, 4)
        gen = GeneratorSpec.qubits(2)
        h = np.diag(gen.energies)
        manual = np.trace(rho.entries @ h @ h).real - np.trace(rho.entries @ h).real ** 2
        assert math.isclose(variance(gen.hamiltonian(), rho), manual, rel_tol=1e-12)
