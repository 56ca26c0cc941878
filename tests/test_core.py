import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    DensityMatrix,
    GeneratorSpec,
    HermitianOperator,
    build_c2,
    dephase,
    encode_phase,
    ghz_state,
    optimal_povm,
    product_plus_state,
    qfi,
    variance,
)
from dephimetry.core import ROW_BLOCK_ELEMENTS, _support, _trusted

from helpers import random_density, rng, traced_peak_mb


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


class TestSupport:
    def test_full_state_scanned_in_row_blocks(self):
        # a whole-matrix boolean mask would be 1 MiB at 1024 x 1024
        entries = np.full((1024, 1024), 1.0 / 1024)
        assert _support(entries) == slice(None)
        assert traced_peak_mb(_support, entries) < 1.0

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_whole_mask(self, dtype):
        # zero rows in several blocks of rows, and rows whose only entries
        # are -0.0 (zero) or tiny (not zero)
        r = rng(3)
        dim = 3 * ROW_BLOCK_ELEMENTS // 256
        entries = np.zeros((dim, 256), dtype=dtype)
        live = np.sort(r.choice(dim, size=dim // 3, replace=False))
        entries[live, r.integers(0, 256, size=live.size)] = 1e-300
        entries[np.setdiff1d(np.arange(dim), live)[0]] = -0.0
        expected = np.flatnonzero((entries != 0).any(axis=1))
        np.testing.assert_array_equal(_support(entries), expected)


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
        purity = np.vdot(rho.entries, rho.entries).real
        assert math.isclose(purity, 0.75**2 + 0.25**2, rel_tol=1e-14)
        np.testing.assert_allclose(np.linalg.eigvalsh(rho.entries), [0.25, 0.75], atol=1e-14)

    def test_random_density_valid(self):
        rho = random_density(rng(0), 5)
        assert math.isclose(np.trace(rho.entries).real, 1.0, abs_tol=1e-12)
        assert np.linalg.eigvalsh(rho.entries)[0] >= -1e-12


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
        assert math.isclose(np.vdot(rho.entries, rho.entries).real, 1.0, abs_tol=1e-12)

    def test_ghz_pure(self):
        a = ghz_state(3).entries
        assert math.isclose(np.vdot(a, a).real, 1.0, abs_tol=1e-14)

    def test_rejects_zero_qubits(self):
        with pytest.raises(ValueError):
            ghz_state(0)
        with pytest.raises(ValueError):
            product_plus_state(0)


def full_plus_state(n):
    """|+>^n as a full float64 array: the reference for the broadcast probe."""
    return _trusted(DensityMatrix, np.full((2**n, 2**n), 1.0 / 2**n))


def assert_same(a, b):
    """Same dtype, shape and bytes (so +0 and -0 differ)."""
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestProductPlusValue:
    def test_one_read_only_value(self):
        entries = product_plus_state(10).entries
        assert entries.shape == (1024, 1024) and entries.strides == (0, 0)
        assert not entries.flags.writeable
        with pytest.raises(ValueError):
            entries[0, 0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_outputs_are_those_of_the_full_array(self, n):
        gen = GeneratorSpec.qubits(n)
        cov = build_c2(n, 0.6, 0.4)
        one, full = product_plus_state(n), full_plus_state(n)
        assert_same(dephase(one, gen, cov).entries, dephase(full, gen, cov).entries)
        assert_same(encode_phase(one, gen, 0.3).entries, encode_phase(full, gen, 0.3).entries)
        assert qfi(one, gen) == qfi(full, gen)
        assert_same(DensityMatrix(one.entries).entries, DensityMatrix(full.entries).entries)
        povm = optimal_povm(encode_phase(dephase(full, gen, cov), gen, 0.2), gen)
        for got, want in zip(povm.statistics(one, gen.energies),
                             povm.statistics(full, gen.energies)):
            assert_same(got, want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_pickle_and_copy_round_trip(self, n):
        gen = GeneratorSpec.qubits(n)
        cov = build_c2(n, 0.6, 0.4)
        full = full_plus_state(n)
        one = product_plus_state(n)
        for clone in (pickle.loads(pickle.dumps(one)), copy.copy(one), copy.deepcopy(one)):
            assert_same(clone.entries, full.entries)
            assert_same(dephase(clone, gen, cov).entries, dephase(full, gen, cov).entries)
            assert qfi(clone, gen) == qfi(full, gen)


class TestEncodePhase:
    def test_single_qubit_oracle(self):
        gen = GeneratorSpec.qubits(1)
        rho = product_plus_state(1)
        out = encode_phase(rho, gen, 0.7).entries
        # off-diagonal picks up exp(-i phi (E_0 - E_1)) = exp(-i 0.7)
        assert abs(out[0, 1] - 0.5 * np.exp(-1j * 0.7)) < 1e-15
        assert abs(out[1, 0] - 0.5 * np.exp(+1j * 0.7)) < 1e-15

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phi(self, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            encode_phase(ghz_state(2), GeneratorSpec.qubits(2), phi)

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
        a, b = out.entries, rho.entries
        np.testing.assert_allclose(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b), atol=1e-10)
        assert math.isclose(np.vdot(a, a).real, np.vdot(b, b).real, abs_tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            encode_phase(ghz_state(2), GeneratorSpec.qubits(3), 0.1)

    @pytest.mark.parametrize("phi", [-1.1, 0.0, 0.4])
    @pytest.mark.parametrize("case", ["ghz", "subset", "full"])
    def test_support_only(self, case, phi):
        # on the support the entries are the dense formula's, bit for bit;
        # off it every entry is +0, where the dense product left some -0.0
        # (6 of the 60 imaginary parts for GHZ n = 3 at phi = -1.1)
        gen = GeneratorSpec.qubits(3)
        if case == "ghz":
            rho = ghz_state(3)
        else:
            rho = random_density(rng(4), 8 if case == "full" else 4)
            if case == "subset":
                entries = np.zeros((8, 8), dtype=np.complex128)
                entries[np.ix_([1, 2, 4, 7], [1, 2, 4, 7])] = rho.entries
                rho = DensityMatrix(entries)
        energy = gen.energies
        dense = rho.entries * np.exp(-1j * phi * (energy[:, None] - energy[None, :]))
        dense = (dense + dense.conj().T) / 2
        out = encode_phase(rho, gen, phi).entries
        on = rho.entries != 0
        np.testing.assert_array_equal(out[on].view(float), dense[on].view(float))
        assert not np.signbit(out[~on].view(float)).any()
        assert not (out[~on] != 0).any()


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
