import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    CovarianceMatrix,
    DegenerateMeasurementError,
    DensityMatrix,
    EstimatorTable,
    ExperimentConfig,
    GeneratorSpec,
    NumericalConsistencyError,
    Povm,
    UninformativeMeasurementError,
    averaged_probabilities,
    bayes_estimators,
    bayes_mse,
    best_estimator,
    build_c1,
    build_c2,
    classical_fi,
    dephase,
    encode_phase,
    ghz_state,
    local_error,
    optimal_povm,
    product_plus_state,
    qbcr_gap,
    qfi,
    simulate,
)
import dephimetry.bayes
from dephimetry.bayes import _shot_probabilities, _state_factor, map_ordered
from dephimetry.core import _support
from dephimetry.dephasing import CHUNK_SHOTS, derivative_state

from helpers import (
    dense_shot_probabilities,
    dense_traces,
    embedded_case,
    gh_bayes_mse,
    gh_site_estimates,
    measurement_case,
    random_density,
    random_projective_povm,
    random_psd_cov,
    rng,
    tilted_qubit_basis,
    traced_peak_mb,
)


def make_cfg(seed: int, n: int = 2, phi0: float = 0.0, delta_phi: float = 0.0,
             pure: bool = False) -> ExperimentConfig:
    r = rng(seed)
    rho = random_density(r, 2**n)
    cov = random_psd_cov(r, n)
    povm = random_projective_povm(r, 2**n)
    return ExperimentConfig(rho=rho, gen=GeneratorSpec.qubits(n), cov=cov,
                            povm=povm, phi0=phi0, delta_phi=delta_phi)


class TestExperimentConfig:
    def test_dimension_checks(self):
        gen = GeneratorSpec.qubits(2)
        cov = build_c1(2, 0.5, 0.0)
        povm = Povm.projective(np.eye(4))
        with pytest.raises(ValueError, match="state and generator"):
            ExperimentConfig(rho=ghz_state(3), gen=gen, cov=cov, povm=povm)
        with pytest.raises(ValueError, match="POVM"):
            ExperimentConfig(rho=ghz_state(2), gen=gen, cov=cov,
                             povm=Povm.projective(np.eye(8)))
        with pytest.raises(ValueError, match="covariance"):
            ExperimentConfig(rho=ghz_state(2), gen=gen, cov=build_c1(3, 0.5, 0.0),
                             povm=povm)

    def test_rho_bar_kept_not_rebuilt(self, monkeypatch):
        gen = GeneratorSpec.qubits(2)
        cov = build_c1(2, 0.5, 0.3)
        rho = ghz_state(2)
        averaged = encode_phase(dephase(rho, gen, cov), gen, 0.4)
        calls = []
        monkeypatch.setattr(dephimetry.bayes, "dephase",
                            lambda *a: calls.append(a) or dephase(*a))
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=optimal_povm(averaged, gen),
                               phi0=0.4, delta_phi=0.1, rho_bar=averaged)
        assert cfg.averaged_state is averaged
        assert calls == []
        rebuilt = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=cfg.povm, phi0=0.4)
        np.testing.assert_array_equal(rebuilt.averaged_state.entries, averaged.entries)
        assert len(calls) == 1

    def test_rho_bar_dimension_checked(self):
        gen = GeneratorSpec.qubits(2)
        with pytest.raises(ValueError, match="averaged state"):
            ExperimentConfig(rho=ghz_state(2), gen=gen, cov=build_c1(2, 0.5, 0.0),
                             povm=Povm.projective(np.eye(4)), rho_bar=ghz_state(1))

    def test_averaged_state(self):
        cfg = make_cfg(0, phi0=0.4)
        expected = encode_phase(dephase(cfg.rho, cfg.gen, cfg.cov), cfg.gen, 0.4)
        np.testing.assert_allclose(cfg.averaged_state.entries, expected.entries, atol=1e-14)

    def test_delta2_gamma(self):
        cfg = make_cfg(1)
        assert math.isclose(cfg.delta2, cfg.cov.delta2, rel_tol=1e-15)
        np.testing.assert_array_equal(cfg.gamma, cfg.cov.gamma)


class TestEstimatorTable:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(NumericalConsistencyError, match="sum"):
            EstimatorTable(
                probs=np.array([0.5, 0.4]),
                site_estimates=np.zeros((2, 1)),
                estimates=np.zeros(2),
                phi0=0.0,
                delta2=0.1,
                gamma=np.array([1.0]),
                excluded=(),
            )

    def test_rejects_inconsistent_combination(self):
        with pytest.raises(NumericalConsistencyError, match="combination"):
            EstimatorTable(
                probs=np.array([0.5, 0.5]),
                site_estimates=np.array([[0.2], [0.4]]),
                estimates=np.array([0.0, 0.0]),
                phi0=0.0,
                delta2=0.1,
                gamma=np.array([1.0]),
                excluded=(),
            )


class TestBayesEstimators:
    @given(seed=st.integers(0, 40))
    def test_score_identity(self, seed):
        # est(x) - phi0 = delta2 * dp(x)/p(x), computed via direct traces
        cfg = make_cfg(seed, phi0=0.3)
        table = bayes_estimators(cfg)
        drho = derivative_state(cfg.averaged_state, cfg.gen).entries
        for x, effect in enumerate(cfg.povm.effects):
            p = np.trace(cfg.averaged_state.entries @ effect).real
            dp = np.trace(drho @ effect).real
            expected = cfg.phi0 + cfg.delta2 * dp / p
            assert math.isclose(table.estimates[x], expected, rel_tol=1e-9, abs_tol=1e-12)

    @given(seed=st.integers(0, 40))
    def test_site_estimator_formula(self, seed):
        cfg = make_cfg(seed)
        table = bayes_estimators(cfg)
        rb = cfg.averaged_state.entries
        energy_table = cfg.gen.site_energy_table
        for x, effect in enumerate(cfg.povm.effects):
            p = np.trace(rb @ effect).real
            tr = np.array([
                np.trace(-1j * ((sj[:, None] - sj[None, :]) * rb) @ effect).real
                for sj in energy_table
            ])
            expected = cfg.phi0 + cfg.cov.entries @ (tr / p)
            np.testing.assert_allclose(table.site_estimates[x], expected, atol=1e-10)

    def test_two_by_two_arithmetic_oracle(self):
        # rho = (I + c sigma_x)/2, scalar variance v, sigma_y readout:
        # p(+-) = 1/2, est(+-) = +-v c e^{-v/2}, all by hand
        c, v = 0.6, 0.5
        rho = DensityMatrix((np.eye(2) + c * np.array([[0, 1], [1, 0]])) / 2)
        basis = tilted_qubit_basis(0.0)  # sigma_y eigenbasis
        cfg = ExperimentConfig(
            rho=rho, gen=GeneratorSpec.qubits(1),
            cov=CovarianceMatrix(np.array([[v]])), povm=Povm.projective(basis),
        )
        table = bayes_estimators(cfg)
        attenuated = c * math.exp(-v / 2)
        np.testing.assert_allclose(table.probs, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(
            np.sort(table.estimates), [-v * attenuated, v * attenuated], atol=1e-14
        )
        assert math.isclose(local_error(cfg), v**2 * attenuated**2, rel_tol=1e-12)
        cfi = classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        assert math.isclose(cfi, attenuated**2, rel_tol=1e-10)
        best = best_estimator(cfg)
        np.testing.assert_allclose(
            np.sort(best.best), [-1 / attenuated, 1 / attenuated], atol=1e-10
        )

    def test_diagonal_averaged_state_pins_all_to_guess(self):
        # no coherence, no phase information: every estimate is the prior mean
        cfg = ExperimentConfig(
            rho=DensityMatrix(np.diag([0.3, 0.7])), gen=GeneratorSpec.qubits(1),
            cov=CovarianceMatrix(np.array([[0.8]])),
            povm=Povm.projective(tilted_qubit_basis(0.4)), phi0=1.3,
        )
        table = bayes_estimators(cfg)
        assert table.excluded == ()
        np.testing.assert_array_equal(table.estimates, 1.3)

    @pytest.mark.parametrize("seed", range(4))
    def test_posterior_mean_quadrature_oracle(self, seed):
        # site estimates are conditional means; recompute them by direct
        # 7-point tensor quadrature of the defining integrals
        r = rng(seed)
        cfg = ExperimentConfig(
            rho=random_density(r, 4), gen=GeneratorSpec.qubits(2),
            cov=random_psd_cov(r, 2, scale=0.3),
            povm=random_projective_povm(r, 4), phi0=0.25,
        )
        table = bayes_estimators(cfg)
        oracle = gh_site_estimates(
            cfg.rho, cfg.gen, cfg.cov, cfg.povm, cfg.phi0, nodes=7
        )
        np.testing.assert_allclose(table.site_estimates, oracle, atol=1e-6)

    def test_excluded_outcomes_pinned_to_guess(self):
        gen = GeneratorSpec.qubits(1)
        dead = np.zeros((2, 2), dtype=complex)
        basis = tilted_qubit_basis(0.6)
        live = [np.outer(basis[:, k], basis[:, k].conj()) for k in range(2)]
        cfg = ExperimentConfig(
            rho=product_plus_state(1), gen=gen,
            cov=CovarianceMatrix(np.array([[0.5]])),
            povm=Povm((live[0], live[1], dead)), phi0=0.7,
        )
        table = bayes_estimators(cfg)
        assert table.excluded == (2,)
        assert table.estimates[2] == 0.7

    @pytest.mark.parametrize("mixing", [False, True], ids=["blocked", "mixing"])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_support_table_matches_dense(self, case, mixing):
        # the table over the columns touching the support, against dense
        # traces over every effect; unreached outcomes are excluded
        rho, povm, effects = embedded_case(case, 2, seed=5, mixing=mixing)
        gen = GeneratorSpec.qubits(3)
        cov = random_psd_cov(rng(6), 3)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=povm, phi0=0.2)
        table = bayes_estimators(cfg)
        rb = cfg.averaged_state.entries
        probs = dense_traces(rb, effects)
        np.testing.assert_allclose(table.probs, probs, rtol=0, atol=1e-13)
        included = probs > 1e-12
        assert table.excluded == tuple(np.flatnonzero(~included))
        assert mixing or table.excluded
        safe = np.where(included, probs, 1.0)
        ratios = np.array([
            np.where(included, dense_traces(-1j * (s @ rb - rb @ s), effects) / safe, 0.0)
            for s in map(np.diag, gen.site_energy_table)
        ])
        np.testing.assert_allclose(
            table.site_estimates, 0.2 + (cov.entries @ ratios).T, rtol=0, atol=1e-11
        )

    def test_all_dead_raises(self):
        cfg = make_cfg(3)
        with pytest.raises(DegenerateMeasurementError):
            bayes_estimators(cfg, prob_floor=2.0)

    def test_collective_reduction_to_single_site(self):
        # two qubits under fully correlated noise behave as one four-level
        # site with energies (1, 0, 0, -1) and a scalar phase variance
        c = 0.4
        povm = random_projective_povm(rng(9), 4)
        two_site = ExperimentConfig(
            rho=ghz_state(2), gen=GeneratorSpec.qubits(2),
            cov=CovarianceMatrix(c * np.ones((2, 2))), povm=povm, phi0=0.2,
        )
        one_site = ExperimentConfig(
            rho=ghz_state(2), gen=GeneratorSpec(((1.0, 0.0, 0.0, -1.0),)),
            cov=CovarianceMatrix(np.array([[c]])), povm=povm, phi0=0.2,
        )
        a = bayes_estimators(two_site)
        b = bayes_estimators(one_site)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-14)
        np.testing.assert_allclose(a.estimates, b.estimates, atol=1e-12)


class TestLocalError:
    @given(seed=st.integers(0, 40))
    def test_equals_delta4_times_cfi(self, seed):
        cfg = make_cfg(seed)
        le = local_error(cfg)
        cfi = classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        assert math.isclose(le, cfg.delta2**2 * cfi, rel_tol=1e-9, abs_tol=1e-13)

    def test_bounded_by_prior_variance(self):
        for seed in range(10):
            cfg = make_cfg(seed)
            assert 0.0 <= local_error(cfg) <= cfg.delta2 + 1e-12


class TestBestEstimator:
    @given(seed=st.integers(0, 40))
    def test_local_error_saturates_crb(self, seed):
        cfg = make_cfg(seed, phi0=0.1)
        table = best_estimator(cfg)
        cfi = classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        second = float(np.sum(table.probs * (table.best - cfg.phi0) ** 2))
        assert math.isclose(second, 1.0 / cfi, rel_tol=1e-8)

    @given(seed=st.integers(0, 40))
    def test_locally_unbiased_slope(self, seed):
        # d/dphi E_phi[best] = 1 at phi0, by finite differences of the
        # averaged distribution
        cfg = make_cfg(seed, phi0=0.2)
        table = best_estimator(cfg)
        h = 1e-5
        up = float(averaged_probabilities(cfg, cfg.phi0 + h) @ table.best)
        down = float(averaged_probabilities(cfg, cfg.phi0 - h) @ table.best)
        assert math.isclose((up - down) / (2 * h), 1.0, rel_tol=1e-5)

    def test_prior_weights_minimize_locally_unbiased_error(self):
        # combining site estimates with any other unit-sum weight vector,
        # then rescaling to unit slope, can only increase the error
        cfg = make_cfg(11, n=3, phi0=0.1)
        table = bayes_estimators(cfg)
        drho = derivative_state(cfg.averaged_state, cfg.gen).entries
        dp = np.array([np.trace(drho @ e).real for e in cfg.povm.effects])
        floor = 1.0 / classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        r = rng(40)
        trials = 0
        while trials < 50:
            raw = r.normal(size=3)
            if abs(raw.sum()) < 0.2:
                continue
            trials += 1
            gamma_alt = raw / raw.sum()
            centered = (table.site_estimates - cfg.phi0) @ gamma_alt
            slope = float(dp @ centered)
            if slope**2 < 1e-30:
                continue
            err = float(table.probs @ centered**2) / slope**2
            assert err >= floor * (1.0 - 1e-9)

    def test_blind_measurement_raises(self):
        gen = GeneratorSpec.qubits(2)
        cfg = ExperimentConfig(
            rho=ghz_state(2), gen=gen, cov=build_c1(2, 0.5, 0.2),
            povm=Povm.projective(np.eye(4)),
        )
        with pytest.raises(UninformativeMeasurementError):
            best_estimator(cfg)


class TestBayesMse:
    @given(seed=st.integers(0, 40))
    def test_split_identity(self, seed):
        cfg = make_cfg(seed)
        assert math.isclose(
            bayes_mse(cfg), cfg.delta2 - local_error(cfg), rel_tol=1e-12
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_quadrature_oracle(self, seed):
        # true Bayesian MSE of the tabled estimator by tensor quadrature
        cfg = make_cfg(seed, phi0=0.25)
        table = bayes_estimators(cfg)
        oracle = gh_bayes_mse(
            cfg.rho, cfg.gen, cfg.cov, cfg.povm, table.estimates, cfg.phi0, nodes=16
        )
        assert math.isclose(bayes_mse(cfg), oracle, rel_tol=1e-7, abs_tol=1e-9)

    def test_posterior_mean_beats_constant_guess(self):
        # any informative measurement improves on reporting phi0 blindly
        cfg = make_cfg(7)
        assert bayes_mse(cfg) < cfg.delta2


class TestQbcrGap:
    @given(seed=st.integers(0, 60))
    def test_nonnegative(self, seed):
        cfg = make_cfg(seed)
        report = qbcr_gap(cfg)
        assert report.gap >= -1e-10
        assert math.isclose(report.gap, report.lhs - report.rhs, abs_tol=1e-15)

    def test_saturates_at_weak_noise_with_optimal_povm(self):
        # 2 beta^2 = 1e-8: the optimal measurement closes the gap to O(noise)
        gen = GeneratorSpec.qubits(2)
        rho = ghz_state(2)
        cov = build_c1(2, 1e-8, 0.0)
        rb = dephase(rho, gen, cov)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=optimal_povm(rb, gen))
        report = qbcr_gap(cfg)
        assert abs(report.lhs / report.rhs - 1.0) < 1e-5


class TestSimulate:
    def test_deterministic_in_seed(self):
        cfg = make_cfg(11, n=1)
        a = simulate(cfg, 3000, 21)
        b = simulate(cfg, 3000, 21)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_four_chunk_stream_pinned(self):
        # golden values of the fixed chunk partition: a change here changes
        # every seeded run
        res = simulate(make_cfg(18, n=2), 3 * CHUNK_SHOTS + 5, 8)
        digest = hashlib.sha256(res.outcomes.astype(np.int64).tobytes()).hexdigest()
        assert digest == "69b9758f69ef32f6370c9380282874cfb15dedb0aee2326df9214ada094c0f36"
        np.testing.assert_array_equal(np.bincount(res.outcomes), [7205, 8244, 3608, 5524])
        pinned = {
            0: [-0.3143988090925381, 0.22890257518551588],
            CHUNK_SHOTS - 1: [0.09368014870696663, 0.03341801554837339],
            CHUNK_SHOTS: [0.0028622867907873925, -0.1041951398296282],
            2 * CHUNK_SHOTS + 7: [0.19139935824069682, 0.02334524259960503],
            3 * CHUNK_SHOTS + 4: [1.1475604264603856, -0.547933232809919],
        }
        for shot, phases in pinned.items():
            np.testing.assert_allclose(res.phases[shot], phases, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_shot_probabilities_match_dense(self, case, n):
        rho, povm, effects = measurement_case(case, n, seed=10 * n + 1)
        phases = rng(n).normal(size=(64, n))
        w = np.exp(-1j * (phases @ GeneratorSpec.qubits(n).site_energy_table))
        factor = _state_factor(rho)
        if case == "pure":
            assert factor.shape[1] == 1
        else:
            assert factor.shape[1] > 1
        np.testing.assert_allclose(
            _shot_probabilities(povm, factor, w),
            dense_shot_probabilities(w, rho.entries, effects),
            rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("mixing", [False, True], ids=["blocked", "mixing"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_support_shot_probabilities_match_dense(self, case, n, mixing):
        rho, povm, effects = embedded_case(case, n, seed=10 * n + 1, mixing=mixing)
        live = _support(rho.entries)
        factor = _state_factor(rho)
        assert factor.shape[0] == live.size == rho.dim // 2
        sub, reached = povm.restrict(live)
        phases = rng(n).normal(size=(64, n + 1))
        w = np.exp(-1j * (phases @ GeneratorSpec.qubits(n + 1).site_energy_table))
        np.testing.assert_allclose(
            povm.spread(_shot_probabilities(sub, factor, w[:, live]), reached),
            dense_shot_probabilities(w, rho.entries, effects),
            rtol=0, atol=1e-13,
        )

    # Seeded GHZ runs at c2(0.5, 0.5), pinned from the dense sampler: the
    # support sampler must draw the same outcomes under the same labels.
    GHZ_PINS = {
        3: ("0b178fc094c7cb843b8a36b95e9a3bc5a9d7a08b8e96f956d7fbc60c217fa7f6",
            "494944b05a403b46777ccf799add6377687bb8cc268deaeeb8bb39c37d9e5f81",
            {0: 1466, 7: 1534}, 1.3183589076401927),
        6: ("adf40f06a7300821a50916d3e9c87fd6665f9071fb858aefc06c82be9a1429ae",
            "243daf3514459fe870036d0aa055dc38eb7a2b69fef12d581e0dc89d0269bb81",
            {0: 1472, 63: 1528}, 5.606157407642366),
        8: ("e5afcd9c53b94374de6f50d191f7509ab71400adcd5b98769bdb843e893d9f56",
            "d3c44bad41145637e85af18d04fe774c5f1603728161efa9f9db06b6db51064b",
            {0: 1452, 255: 1548}, 18.62425397295733),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("make_state", [ghz_state, product_plus_state])
    def test_predicted_mse_is_inverse_cfi(self, make_state, n):
        # delta2_c^2 / local_error of the table is 1 / classical_fi exactly
        gen = GeneratorSpec.qubits(n)
        cov = build_c2(n, 0.5, 0.5)
        rb = encode_phase(dephase(make_state(n), gen, cov), gen, 0.2)
        povm = optimal_povm(rb, gen)
        cfg = ExperimentConfig(rho=make_state(n), gen=gen, cov=cov, povm=povm, phi0=0.2,
                               rho_bar=rb)
        predicted = simulate(cfg, 16, 5).predicted_mse
        assert math.isclose(predicted, 1.0 / classical_fi(rb, gen, povm), rel_tol=1e-12)

    @pytest.mark.parametrize("n", sorted(GHZ_PINS))
    def test_seeded_ghz_pinned(self, n):
        outcome_digest, phase_digest, counts, estimate = self.GHZ_PINS[n]
        gen = GeneratorSpec.qubits(n)
        cov = build_c2(n, 0.5, 0.5)
        rb = encode_phase(dephase(ghz_state(n), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=ghz_state(n), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        res = simulate(cfg, 3000, 100001)
        digest = hashlib.sha256(res.outcomes.astype(np.int64).tobytes()).hexdigest()
        assert digest == outcome_digest
        assert hashlib.sha256(res.phases.tobytes()).hexdigest() == phase_digest
        assert dict(zip(*np.unique(res.outcomes, return_counts=True))) == counts
        np.testing.assert_array_equal(
            res.estimates_best, np.where(res.outcomes == 0, -estimate, estimate)
        )

    def test_memory_budget_ghz_n10(self):
        # one full chunk on the 2-row support of GHZ; sampling over all
        # 1024 outcomes peaked at 513 MiB
        gen = GeneratorSpec.qubits(10)
        cov = build_c2(10, 0.5, 0.5)
        rb = encode_phase(dephase(ghz_state(10), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=ghz_state(10), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        assert traced_peak_mb(simulate, cfg, CHUNK_SHOTS, 4) <= 16.0

    @pytest.mark.parametrize("make_state", [ghz_state, product_plus_state])
    def test_memory_budget_n6(self, make_state):
        # one full chunk at dim 64: a dense per-shot state stack is 512 MiB
        gen = GeneratorSpec.qubits(6)
        rho = make_state(6)
        cov = build_c2(6, 0.5, 0.5)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov,
                               povm=optimal_povm(dephase(rho, gen, cov), gen))
        assert traced_peak_mb(simulate, cfg, CHUNK_SHOTS, 4) <= 64.0

    def test_chunk_boundary_shapes(self):
        cfg = make_cfg(12, n=1)
        res = simulate(cfg, 8192 + 5, 3)
        assert res.phases.shape == (8197, 1)
        assert res.outcomes.shape == (8197,)
        assert res.estimates_best.shape == (8197,)

    def test_single_shot_has_no_stderr(self):
        cfg = make_cfg(13, n=1)
        res = simulate(cfg, 1, 5)
        assert res.mse_stderr is None
        assert res.mean_stderr is None
        assert res.shots == 1

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match="shots"):
            simulate(make_cfg(14, n=1), 0, 0)

    def test_mse_matches_crb_statistically(self):
        # tilted basis: outcome-dependent estimates, genuine sample variance
        gen = GeneratorSpec.qubits(1)
        cov = CovarianceMatrix(np.array([[0.5]]))
        povm = Povm.projective(tilted_qubit_basis(0.6))
        cfg = ExperimentConfig(rho=product_plus_state(1), gen=gen, cov=cov, povm=povm)
        res = simulate(cfg, 40_000, 17)
        pred = 1.0 / classical_fi(cfg.averaged_state, gen, povm)
        assert res.mse_stderr > 0
        assert abs(res.empirical_mse_best - pred) < 3.0 * res.mse_stderr
        assert abs(res.empirical_mean - cfg.phi0) < 3.0 * res.mean_stderr

    def test_posterior_mean_mse_against_sampled_truth(self):
        # mean over shots of (estimate - gamma . theta)^2 estimates the
        # Bayesian MSE identity delta2 - local_error
        gen = GeneratorSpec.qubits(2)
        cov = build_c2(2, 0.5, 0.4)
        povm = random_projective_povm(rng(20), 4)
        cfg = ExperimentConfig(rho=ghz_state(2), gen=gen, cov=cov, povm=povm)
        res = simulate(cfg, 60_000, 23)
        errors = (res.estimates - res.phi_c) ** 2
        se = errors.std(ddof=1) / math.sqrt(res.shots)
        assert abs(errors.mean() - bayes_mse(cfg)) < 3.5 * se

    def test_shifted_prior_mean_tracked(self):
        # delta_phi shifts the sampled phases but not the estimator table
        gen = GeneratorSpec.qubits(1)
        cov = CovarianceMatrix(np.array([[0.3]]))
        povm = Povm.projective(tilted_qubit_basis(0.5))
        delta = 0.05
        cfg = ExperimentConfig(rho=product_plus_state(1), gen=gen, cov=cov,
                               povm=povm, phi0=0.0, delta_phi=delta)
        res = simulate(cfg, 80_000, 29)
        # locally unbiased: E[best] = phi0 + delta + O(delta^2)
        assert abs(res.empirical_mean - delta) < 4.0 * res.mean_stderr + 2e-3

    def test_per_shot_rows(self):
        cfg = make_cfg(15, n=2)
        res = simulate(cfg, 50, 1)
        rows = list(res.per_shot_rows())
        assert len(rows) == 50
        idx, p1, p2, outcome, estimate = rows[7]
        assert idx == 7
        assert (p1, p2) == tuple(res.phases[7])
        assert outcome == res.outcomes[7]
        assert estimate == res.estimates_best[7]


class TestMapOrdered:
    def test_preserves_order_sequential(self):
        assert map_ordered(lambda x: x * x, range(10)) == [x * x for x in range(10)]

    def test_empty(self):
        assert map_ordered(lambda x: x, []) == []


class TestAveragedProbabilities:
    def test_matches_direct_construction(self):
        cfg = make_cfg(16)
        p = averaged_probabilities(cfg, 0.9)
        state = encode_phase(dephase(cfg.rho, cfg.gen, cfg.cov), cfg.gen, 0.9)
        np.testing.assert_allclose(p, cfg.povm.probabilities(state), atol=1e-14)

    def test_normalized_for_any_phi(self):
        cfg = make_cfg(17)
        for phi in (-2.0, 0.0, 0.4, 3.1):
            assert math.isclose(averaged_probabilities(cfg, phi).sum(), 1.0, abs_tol=1e-10)

    def test_single_qubit_frozen_values(self):
        # |+> under scalar variance 0.5, sigma_x readout at phi = 0:
        # p = (1 +- e^{-1/4}) / 2
        cfg = ExperimentConfig(
            rho=product_plus_state(1), gen=GeneratorSpec.qubits(1),
            cov=CovarianceMatrix(np.array([[0.5]])),
            povm=Povm.projective(tilted_qubit_basis(math.pi / 2)),
        )
        p = averaged_probabilities(cfg, 0.0)
        hi = (1.0 + 0.7788007830714049) / 2
        np.testing.assert_allclose(np.sort(p), [1.0 - hi, hi], atol=1e-14)

    def test_matches_simulated_frequencies(self):
        cfg = ExperimentConfig(
            rho=product_plus_state(1), gen=GeneratorSpec.qubits(1),
            cov=CovarianceMatrix(np.array([[0.4]])),
            povm=Povm.projective(tilted_qubit_basis(0.7)), phi0=0.2,
        )
        shots = 100_000
        result = simulate(cfg, shots=shots, seed=31)
        p = averaged_probabilities(cfg, cfg.phi0)
        for k in range(2):
            freq = np.mean(result.outcomes == k)
            se = math.sqrt(p[k] * (1 - p[k]) / shots)
            assert abs(freq - p[k]) <= 3.5 * se
