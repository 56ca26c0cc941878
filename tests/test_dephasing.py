import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    CovarianceMatrix,
    DensityMatrix,
    GeneratorSpec,
    NumericalConsistencyError,
    build_c1,
    build_c2,
    conditional_covariance,
    conditional_dephased_state,
    delta2_c,
    dephase,
    derivative_state,
    encode_phase,
    ghz_state,
    product_plus_state,
    qfi,
    weights,
)
from dephimetry.bayes import (
    CHUNK_SHOTS,
    MAX_SHOTS,
    _phase_weights,
    _product_weights,
    _site_steps,
    chunk_rngs,
    covariance_sqrt,
)
from dephimetry.core import ROW_BLOCK_ELEMENTS
from dephimetry.fisher import _support_block

from helpers import (
    dephase_factor_loops,
    dephase_monte_carlo,
    pair_quadratic,
    random_density,
    random_psd_cov,
    rng,
    traced_peak_mb,
)

# Every public producer of a DensityMatrix, as (rng, rho, gen, cov) -> state.
PRODUCERS = {
    "dephase": lambda r, rho, gen, cov: dephase(rho, gen, cov),
    "encode_phase": lambda r, rho, gen, cov: encode_phase(rho, gen, r.uniform(-3, 3)),
    "conditional_dephased_state": lambda r, rho, gen, cov: conditional_dephased_state(
        rho, gen, cov, r.uniform(-3, 3)
    ),
    "ghz_state": lambda r, rho, gen, cov: ghz_state(gen.nsites),
    "product_plus_state": lambda r, rho, gen, cov: product_plus_state(gen.nsites),
}


class TestDephase:
    def test_single_qubit_oracle(self):
        # off-diagonal delta = +-1, so the factor is exp(-2 beta^2 / 2)
        cov = CovarianceMatrix(np.array([[0.5]]))
        out = dephase(product_plus_state(1), GeneratorSpec.qubits(1), cov)
        assert math.isclose(out.entries[0, 1].real, 0.5 * 0.7788007830714049, rel_tol=1e-14)

    def test_refuses_overflowing_quadratic(self):
        # a unit covariance with an energy gap of 1e154 on the first site:
        # d_m + d_n overflows once both rows have the high level, which no
        # qubit generator can make it do.  Those rows start halfway down, so
        # the first block of rows is finite and a later one is refused.
        gen = GeneratorSpec(((0.0, 1e154),) + ((0.5, -0.5),) * 8)
        cov = CovarianceMatrix(np.eye(gen.nsites))
        step = ROW_BLOCK_ELEMENTS // gen.dim
        assert step < gen.dim // 2
        assert np.isfinite(pair_quadratic(gen.site_energy_table[:, :step], cov)).all()
        with pytest.raises(ValueError, match="delta\\^T C delta overflows"):
            dephase(product_plus_state(gen.nsites), gen, cov)

    def test_ghz_coherence_uses_total_mass(self):
        # extreme entries differ by delta = (1,...,1): factor exp(-1^T C 1 / 2)
        cov = build_c1(3, 0.5, 0.4)
        mass = float(cov.entries.sum())
        out = dephase(ghz_state(3), GeneratorSpec.qubits(3), cov)
        assert math.isclose(out.entries[0, -1].real, 0.5 * math.exp(-mass / 2), rel_tol=1e-13)

    def test_matches_loop_oracle(self):
        gen = GeneratorSpec.qubits(3)
        for seed in range(5):
            cov = random_psd_cov(rng(seed), 3)
            rho = random_density(rng(seed + 100), 8)
            factor = dephase_factor_loops(cov.entries, gen.site_energy_table)
            np.testing.assert_allclose(
                dephase(rho, gen, cov).entries, rho.entries * factor, atol=1e-13
            )

    def test_diagonal_unchanged(self):
        rho = random_density(rng(0), 8)
        out = dephase(rho, GeneratorSpec.qubits(3), build_c2(3, 0.8, 0.3))
        np.testing.assert_array_equal(np.diag(out.entries), np.diag(rho.entries))

    def test_zero_covariance_is_identity_channel(self):
        rho = random_density(rng(1), 4)
        out = dephase(rho, GeneratorSpec.qubits(2), CovarianceMatrix(np.zeros((2, 2))))
        np.testing.assert_array_equal(out.entries, rho.entries)

    @pytest.mark.parametrize("producer", PRODUCERS.values(), ids=PRODUCERS)
    @given(seed=st.integers(0, 60))
    def test_preserves_positivity_random(self, producer, seed):
        # producer outputs skip the DensityMatrix checks, so pin them here
        r = rng(seed)
        n = int(r.integers(1, 5))
        inputs = (random_density(r, 2**n), ghz_state(n), product_plus_state(n))
        rho = inputs[int(r.integers(len(inputs)))]
        out = producer(r, rho, GeneratorSpec.qubits(n), random_psd_cov(r, n))
        a = out.entries
        np.testing.assert_array_equal(a, a.conj().T)
        assert abs(a.trace().real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(a)[0] >= -1e-12
        np.testing.assert_array_equal(DensityMatrix(a).entries, a)

    @given(phi=st.floats(-3, 3, allow_nan=False), seed=st.integers(0, 40))
    def test_commutes_with_encoding(self, phi, seed):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(seed), 4)
        cov = random_psd_cov(rng(seed + 500), 2)
        a = dephase(encode_phase(rho, gen, phi), gen, cov)
        b = encode_phase(dephase(rho, gen, cov), gen, phi)
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-14)

    def test_composition_adds_covariances(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(3), 4)
        c1 = random_psd_cov(rng(10), 2)
        c2 = random_psd_cov(rng(11), 2)
        twice = dephase(dephase(rho, gen, c1), gen, c2)
        once = dephase(rho, gen, CovarianceMatrix(c1.entries + c2.entries))
        np.testing.assert_allclose(twice.entries, once.entries, atol=1e-14)

    def test_multilevel_sites(self):
        # a qutrit+qubit generator exercises the nonuniform energy table
        gen = GeneratorSpec(((1.0, 0.0, -1.0), (0.5, -0.5)))
        rho = random_density(rng(4), 6)
        cov = random_psd_cov(rng(5), 2)
        factor = dephase_factor_loops(cov.entries, gen.site_energy_table)
        np.testing.assert_allclose(
            dephase(rho, gen, cov).entries, rho.entries * factor, atol=1e-13
        )

    def test_site_count_mismatch(self):
        with pytest.raises(ValueError, match="sites"):
            dephase(ghz_state(2), GeneratorSpec.qubits(2), build_c1(3, 0.5, 0.1))

    @pytest.mark.parametrize("n", [3, 6, 8, 10])
    @pytest.mark.parametrize("cov", [
        lambda n: CovarianceMatrix(0.5 * np.eye(n)),
        lambda n: build_c1(n, 0.5, 0.0),
        lambda n: build_c1(n, 0.5, 0.3),
        lambda n: build_c1(n, 0.5, 0.5),
        lambda n: build_c2(n, 0.5, 0.5),
        lambda n: build_c2(n, 0.5, 0.9),
    ], ids=["identity", "c1-0", "c1-0.3", "c1", "c2", "c2-0.9"])
    def test_support_matches_full_factor_bitwise(self, cov, n):
        # the channel computes the support block only, a block of rows at a
        # time; it must equal the full-table factor bit for bit, and leave
        # every other entry zero.  T^T (C T) is not bitwise symmetric for
        # c1-0.3 and c2-0.9, so a lost symmetrization shows there.
        gen = GeneratorSpec.qubits(n)
        c = cov(n)
        factor = np.exp(-0.5 * pair_quadratic(gen.site_energy_table, c))
        for rho in (ghz_state(n), product_plus_state(n)):
            np.testing.assert_array_equal(dephase(rho, gen, c).entries, rho.entries * factor)

    @pytest.mark.parametrize("case", ["multilevel", "partial-support"])
    def test_blocks_match_full_factor_bitwise(self, case):
        # more than one block of rows, on a mixed-level generator and on a
        # random state whose support is not a power of two
        r = rng(8)
        if case == "multilevel":
            gen = GeneratorSpec(((1.0, 0.0, -1.0), (0.5, -0.5), (0.3, 0.1, -0.2, -0.7),
                                 (1.0, 0.0, -1.0), (0.5, -0.5), (2.0, -1.0)))
            live = np.arange(gen.dim)
        else:
            gen = GeneratorSpec.qubits(9)
            live = np.sort(r.choice(gen.dim, size=300, replace=False))
        assert live.size > ROW_BLOCK_ELEMENTS // live.size
        entries = np.zeros((gen.dim, gen.dim), dtype=complex)
        entries[np.ix_(live, live)] = random_density(r, live.size).entries
        rho = DensityMatrix(entries)
        cov = random_psd_cov(r, gen.nsites)
        factor = np.exp(-0.5 * pair_quadratic(gen.site_energy_table, cov))
        out = dephase(rho, gen, cov).entries
        np.testing.assert_array_equal(out, rho.entries * factor)
        np.testing.assert_array_equal(out, out.conj().T)

    def test_support_of_random_state(self):
        gen = GeneratorSpec.qubits(3)
        cov = random_psd_cov(rng(6), 3)
        live = np.array([1, 2, 5, 6])
        entries = np.zeros((8, 8), dtype=complex)
        entries[np.ix_(live, live)] = random_density(rng(7), 4).entries
        rho = DensityMatrix(entries)
        factor = dephase_factor_loops(cov.entries, gen.site_energy_table)
        out = dephase(rho, gen, cov).entries
        np.testing.assert_allclose(out, rho.entries * factor, rtol=0, atol=1e-13)
        off = np.setdiff1d(np.arange(8), live)
        assert not out[off].any() and not out[:, off].any()


class TestRealDenseRoute:
    def test_dtypes(self):
        # the named probes and their dephased states are real; phase
        # encoding and the public constructor are complex
        gen, cov = GeneratorSpec.qubits(3), build_c2(3, 0.5, 0.5)
        for probe in (ghz_state(3), product_plus_state(3)):
            assert probe.entries.dtype == np.float64
            assert dephase(probe, gen, cov).entries.dtype == np.float64
            assert encode_phase(probe, gen, 0.0).entries.dtype == np.complex128
            assert DensityMatrix(probe.entries).entries.dtype == np.complex128
        assert dephase(random_density(rng(2), 8), gen, cov).entries.dtype == np.complex128

    def test_memory_at_ten_qubits(self):
        # product-plus is one broadcast value (0.7 KiB traced; 8 MiB as a
        # full array), so dephase holds its 8 MiB result and three blocks of
        # rows: 9.8 MiB traced (the complex, whole-factor channel peaked at
        # 40 MiB, the full probe at 18 MiB).  qfi takes the real block as it
        # is and scans it a block of rows at a time (13 KiB; 1 MiB through a
        # whole-block mask); on the dephased state (2.5 MiB), and from the
        # probe and the covariance, the CLI's dense route (2.6 MiB), it holds
        # the orbit sectors of one R parity at a time.  Each budget is the
        # measured peak plus 25%.
        gen, cov = GeneratorSpec.qubits(10), build_c2(10, 0.5, 0.5)
        assert traced_peak_mb(product_plus_state, 10) < 1 / 16
        assert traced_peak_mb(lambda: dephase(product_plus_state(10), gen, cov)) < 12.2
        rho = dephase(product_plus_state(10), gen, cov)
        assert traced_peak_mb(_support_block, rho, gen) < 1 / 16
        assert traced_peak_mb(qfi, rho, gen) < 3.4
        assert traced_peak_mb(qfi, product_plus_state(10), gen, cov) < 3.4


class TestCovarianceSqrt:
    @given(seed=st.integers(0, 60))
    def test_square_recovers_matrix(self, seed):
        cov = random_psd_cov(rng(seed), 4)
        root = covariance_sqrt(cov)
        np.testing.assert_allclose(root @ root, cov.entries, atol=1e-12)
        np.testing.assert_array_equal(root, root.T)

    def test_singular_ok(self):
        root = covariance_sqrt(CovarianceMatrix(np.ones((2, 2))))
        np.testing.assert_allclose(root @ root, np.ones((2, 2)), atol=1e-12)


class TestDephaseMonteCarlo:
    # The sampled channel is a test oracle (helpers.dephase_monte_carlo) on
    # the chunk partition and phase draws of simulate; these pin both.
    def test_converges_to_exact(self):
        gen = GeneratorSpec.qubits(2)
        rho = ghz_state(2)
        cov = build_c1(2, 0.5, 0.3)
        exact = dephase(rho, gen, cov)
        approx = dephase_monte_carlo(rho, gen, cov, shots=200_000, seed=5)
        # coherences are averages of unit-modulus terms: stderr <= 1/sqrt(shots)
        assert np.abs(approx.entries - exact.entries).max() < 3.5 / math.sqrt(200_000)

    def test_deterministic_in_seed_and_chunked(self):
        gen = GeneratorSpec.qubits(2)
        rho = product_plus_state(2)
        cov = build_c2(2, 0.4, 0.5)
        a = dephase_monte_carlo(rho, gen, cov, shots=10_000, seed=9)
        b = dephase_monte_carlo(rho, gen, cov, shots=10_000, seed=9)
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_two_chunk_entries_pinned(self):
        # golden values of the fixed chunk partition: a change here changes
        # every seeded run
        out = dephase_monte_carlo(product_plus_state(2), GeneratorSpec.qubits(2),
                                  build_c1(2, 0.5, 0.2), shots=10_000, seed=12)
        a, b, c, d = 0.25, 0.19430316186341298, 0.19604512775546964, 0.13839094531147686
        e = 0.167513039238493
        ib, ic, id_, ie = (0.0012091283855487375, -0.0005316062003700176,
                           -0.00010452936114120983, -0.0011898674542542495)
        expected = np.array([
            [a, b + 1j * ib, c + 1j * ic, d + 1j * id_],
            [b - 1j * ib, a, e + 1j * ie, c + 1j * ic],
            [c - 1j * ic, e - 1j * ie, a, b + 1j * ib],
            [d - 1j * id_, c - 1j * ic, b - 1j * ib, a],
        ])
        np.testing.assert_allclose(out.entries, expected, rtol=1e-12, atol=0)

    def test_single_shot_valid_state(self):
        out = dephase_monte_carlo(ghz_state(1), GeneratorSpec.qubits(1),
                                  CovarianceMatrix(np.array([[0.5]])), shots=1, seed=0)
        assert math.isclose(np.trace(out.entries).real, 1.0, abs_tol=1e-12)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            dephase_monte_carlo(ghz_state(1), GeneratorSpec.qubits(1),
                                CovarianceMatrix(np.array([[0.5]])), shots=0, seed=0)


class TestPhaseWeights:
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_bitwise_equal_to_complex_exp(self, n):
        table = GeneratorSpec.qubits(n).site_energy_table
        phases = rng(n).normal(scale=3.0, size=(257, n))
        arg = np.empty((257, table.shape[1]))
        out = np.empty((table.shape[1], 257), dtype=np.complex128)
        weights = _phase_weights(table, phases, arg, out)
        assert weights is out
        np.testing.assert_array_equal(weights, np.exp(-1j * (phases @ table)).T)


MIXED_SITES = ((0.3, -1.2, 2.0), (0.5, -0.5), (1.0, 0.0, -1.0, 2.5))


class TestProductWeights:
    @staticmethod
    def weights(gen, phases):
        steps = _site_steps(gen)
        levels, shots = steps.shape[0], phases.shape[0]
        scratch = np.empty((2 * levels, shots))
        out = np.empty((gen.dim, shots), dtype=np.complex128)
        assert _product_weights(gen.dims, steps, phases, scratch, out) is out
        return out

    @pytest.mark.parametrize("scale", [0.7, 3.0, 30.0])
    @pytest.mark.parametrize("sites", [((0.5, -0.5),) * n for n in range(1, 11)] + [MIXED_SITES],
                             ids=lambda sites: f"{len(sites)}x{len(sites[0])}")
    def test_matches_complex_exp_relative_to_the_ground_row(self, sites, scale):
        gen = GeneratorSpec(sites)
        table = gen.site_energy_table
        phases = rng(len(sites)).normal(scale=scale, size=(257, gen.nsites))
        steps = table - table[:, :1]
        expected = np.exp(-1j * (phases @ steps)).T
        # The reference rounds its angle phi . (h(m) - h(0)) once per site
        # term; each tangent factor and row product adds a few ulp.
        eps = np.finfo(float).eps
        tol = 4 * eps * (gen.nsites + np.abs(phases) @ np.abs(steps).max(axis=1))
        err = np.abs(self.weights(gen, phases) - expected).max(axis=0)
        assert np.all(err <= tol)

    def test_ground_row_is_one_and_rows_are_unit(self):
        gen = GeneratorSpec(MIXED_SITES)
        w = self.weights(gen, rng(5).normal(scale=2.0, size=(64, 3)))
        np.testing.assert_array_equal(w[0], 1.0)
        np.testing.assert_allclose(np.abs(w), 1.0, rtol=0, atol=1e-15)

    def test_differs_from_phase_weights_by_one_unit_factor_per_shot(self):
        # the factor exp(i phi . h(0)) cancels in every |folded @ w|^2
        gen = GeneratorSpec(MIXED_SITES)
        table = gen.site_energy_table
        phases = rng(6).normal(size=(33, 3))
        direct = _phase_weights(table, phases, np.empty((33, gen.dim)),
                                np.empty((gen.dim, 33), dtype=np.complex128))
        unit = np.exp(1j * (phases @ table[:, 0]))
        np.testing.assert_allclose(self.weights(gen, phases), direct * unit, rtol=0, atol=1e-14)

    def test_site_steps(self):
        steps = _site_steps(GeneratorSpec(MIXED_SITES))
        expected = np.zeros((6, 3))
        expected[[0, 1], 0] = [0.75, -0.85]
        expected[2, 1] = 0.5
        expected[[3, 4, 5], 2] = [0.5, 1.0, -0.75]
        np.testing.assert_array_equal(steps, expected)


class TestChunkRngs:
    def test_partition_sizes(self):
        jobs = chunk_rngs(0, 3 * CHUNK_SHOTS + 17)
        assert [size for _, size in jobs] == [CHUNK_SHOTS] * 3 + [17]

    def test_exact_multiple(self):
        jobs = chunk_rngs(0, 2 * CHUNK_SHOTS)
        assert [size for _, size in jobs] == [CHUNK_SHOTS] * 2

    def test_small_run_single_chunk(self):
        jobs = list(chunk_rngs(5, 100))
        assert len(jobs) == 1
        assert jobs[0][1] == 100

    def test_streams_reproducible(self):
        a = chunk_rngs(42, CHUNK_SHOTS + 1)
        b = chunk_rngs(42, CHUNK_SHOTS + 1)
        for (ra, _), (rb, _) in zip(a, b):
            np.testing.assert_array_equal(ra.random(8), rb.random(8))

    def test_streams_differ_across_chunks(self):
        jobs = list(chunk_rngs(42, 2 * CHUNK_SHOTS))
        x = jobs[0][0].random(8)
        y = jobs[1][0].random(8)
        assert not np.array_equal(x, y)

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            chunk_rngs(0, 0)

    def test_children_spawned_one_at_a_time(self):
        # one spawn(1) per chunk gives the children of one spawn(k)
        children = np.random.SeedSequence(42).spawn(3)
        for (r, _), child in zip(chunk_rngs(42, 3 * CHUNK_SHOTS), children, strict=True):
            np.testing.assert_array_equal(r.random(8), np.random.default_rng(child).random(8))

    def test_int64_shot_range(self):
        # the chunks are yielded lazily, so the largest run costs nothing
        # until its chunks are taken; one shot more is refused up front
        jobs = chunk_rngs(0, MAX_SHOTS)
        assert next(jobs)[1] == CHUNK_SHOTS
        with pytest.raises(ValueError, match=f"shots must be between 1 and {MAX_SHOTS}"):
            chunk_rngs(0, MAX_SHOTS + 1)


class TestDerivativeState:
    def test_matches_commutator(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(6), 4)
        h = np.diag(gen.energies)
        expected = -1j * (h @ rho.entries - rho.entries @ h)
        np.testing.assert_allclose(derivative_state(rho, gen).entries, expected, atol=1e-14)

    def test_traceless(self):
        d = derivative_state(random_density(rng(7), 8), GeneratorSpec.qubits(3))
        assert abs(np.trace(d.entries)) < 1e-14

    def test_finite_difference_of_encoding(self):
        gen = GeneratorSpec.qubits(2)
        rho = random_density(rng(8), 4)
        h = 1e-6
        fd = (encode_phase(rho, gen, h).entries - encode_phase(rho, gen, -h).entries) / (2 * h)
        np.testing.assert_allclose(derivative_state(rho, gen).entries, fd, atol=1e-7)


class TestConditional:
    @given(seed=st.integers(0, 60))
    def test_conditional_covariance_psd_and_value(self, seed):
        cov = random_psd_cov(rng(seed), 4)
        cc = conditional_covariance(cov)
        np.testing.assert_allclose(
            cc.entries, cov.entries - delta2_c(cov), atol=1e-13
        )
        assert np.linalg.eigvalsh(cc.entries)[0] >= -1e-9

    def test_weighted_average_has_zero_conditional_variance(self):
        cov = build_c2(3, 0.5, 0.5)
        g = weights(cov).gamma
        cc = conditional_covariance(cov)
        assert abs(float(g @ cc.entries @ g)) < 1e-13

    def test_identity_family_explicit(self):
        cov = CovarianceMatrix(0.5 * np.eye(2))
        cc = conditional_covariance(cov).entries
        np.testing.assert_allclose(cc, np.array([[0.25, -0.25], [-0.25, 0.25]]), atol=1e-14)

    def test_factorizes_through_conditional_covariance(self):
        gen = GeneratorSpec.qubits(2)
        rho = ghz_state(2)
        cov = build_c2(2, 0.5, 0.4)
        expected = encode_phase(dephase(rho, gen, conditional_covariance(cov)), gen, 0.7)
        out = conditional_dephased_state(rho, gen, cov, 0.7)
        np.testing.assert_array_equal(out.entries, expected.entries)

    def test_derivative_is_exact_commutator(self):
        # d/dphi of the conditional family is -i[H, rho'] with no extra terms
        gen = GeneratorSpec.qubits(2)
        rho = ghz_state(2)
        cov = build_c1(2, 0.5, 0.3)
        phi = 0.3
        h = 1e-6
        plus = conditional_dephased_state(rho, gen, cov, phi + h).entries
        minus = conditional_dephased_state(rho, gen, cov, phi - h).entries
        fd = (plus - minus) / (2 * h)
        state = conditional_dephased_state(rho, gen, cov, phi)
        np.testing.assert_allclose(derivative_state(state, gen).entries, fd, atol=1e-7)

    def test_collective_conditional_is_deterministic(self):
        # fully correlated noise: conditioning on the average fixes every site
        cov = CovarianceMatrix(0.4 * np.ones((3, 3)))
        cc = conditional_covariance(cov)
        np.testing.assert_allclose(cc.entries, 0.0, atol=1e-14)
        gen = GeneratorSpec.qubits(3)
        out = conditional_dephased_state(ghz_state(3), gen, cov, 0.5)
        np.testing.assert_allclose(
            out.entries, encode_phase(ghz_state(3), gen, 0.5).entries, atol=1e-14
        )

    def test_variance_drop_matches_delta2(self):
        # 1^T C' 1 = 1^T C 1 - n^2 delta2, read off the GHZ extreme coherence
        cov = build_c1(3, 0.5, 0.4)
        mass = float(cov.entries.sum())
        d2 = delta2_c(cov)
        out = dephase(ghz_state(3), GeneratorSpec.qubits(3), conditional_covariance(cov))
        assert math.isclose(
            out.entries[0, -1].real, 0.5 * math.exp(-(mass - 9 * d2) / 2), rel_tol=1e-12
        )
