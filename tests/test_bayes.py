import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

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
    delta2_c,
    dephase,
    encode_phase,
    ghz_state,
    local_error,
    optimal_povm,
    product_plus_state,
    qbcr_gap,
    qfi,
    simulate,
    weights,
)
import dephimetry.bayes
from dephimetry.bayes import (
    CHUNK_SHOTS,
    FOLD_ELEMENTS,
    _batch_shots,
    _fold,
    chunk_rngs,
    _shot_probabilities,
    _state_factor,
    _weighted_moments,
    map_ordered,
)
from dephimetry.core import _trusted, derivative_state
from dephimetry.fisher import _support_block

from helpers import (
    collect_shots,
    dense_effects,
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


def plus_or_ghz_cfg(make_state, n: int = 3, **phases) -> ExperimentConfig:
    """A named probe at n sites under c2(0.5, 0.5), measured by the optimal
    POVM at phi0, as the CLI sets up simulate."""
    gen, cov, rho = GeneratorSpec.qubits(n), build_c2(n, 0.5, 0.5), make_state(n)
    averaged = encode_phase(dephase(rho, gen, cov), gen, phases.get("phi0", 0.0))
    return ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=optimal_povm(averaged, gen),
                            rho_bar=averaged, **phases)


def shot_probabilities(povm: Povm, factor: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(shots, outcomes) from the shots-last kernel, for shots-first weights
    w: its per-column rows summed by label, 0 for an outcome with no column."""
    folded = _fold(povm, factor)
    amplitudes = np.empty((folded.shape[0], w.shape[0]), dtype=np.complex128)
    squares = np.empty((povm.vectors.shape[1], w.shape[0]))
    columns = _shot_probabilities(folded, np.ascontiguousarray(w.T), amplitudes, squares)
    return np.stack([columns[povm.labels == x].sum(axis=0) for x in range(povm.outcomes)], axis=1)


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

    @pytest.mark.parametrize("name", ["phi0", "delta_phi"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_phases(self, name, value):
        gen = GeneratorSpec.qubits(2)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            ExperimentConfig(rho=ghz_state(2), gen=gen, cov=build_c1(2, 0.5, 0.0),
                             povm=Povm.projective(np.eye(4)), **{name: value})

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
        assert math.isclose(cfg.delta2, delta2_c(cfg.cov), rel_tol=1e-15)
        np.testing.assert_array_equal(cfg.gamma, weights(cfg.cov).gamma)


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
        for x, effect in enumerate(dense_effects(cfg.povm)):
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
        for x, effect in enumerate(dense_effects(cfg.povm)):
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

    def test_all_dead_raises(self, monkeypatch):
        cfg = make_cfg(3)
        monkeypatch.setattr(dephimetry.bayes, "PROB_FLOOR", 2.0)
        with pytest.raises(DegenerateMeasurementError):
            bayes_estimators(cfg)

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
        dp = np.array([np.trace(drho @ e).real for e in dense_effects(cfg.povm)])
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
        a = collect_shots(cfg, 3000, 21)
        b = collect_shots(cfg, 3000, 21)
        np.testing.assert_array_equal(a.outcomes, b.outcomes)
        np.testing.assert_array_equal(a.phases, b.phases)

    def test_phase_moments(self):
        # the drawn phases have mean phi0 + delta_phi and covariance C
        gen, cov, rho = GeneratorSpec.qubits(3), build_c2(3, 0.5, 0.5), ghz_state(3)
        averaged = encode_phase(dephase(rho, gen, cov), gen, 0.3)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=optimal_povm(averaged, gen),
                               phi0=0.3, delta_phi=0.4, rho_bar=averaged)
        phases = collect_shots(cfg, 200_000, 8).phases
        assert phases.shape == (200_000, 3)
        np.testing.assert_allclose(phases.mean(axis=0), 0.7, atol=0.01)
        np.testing.assert_allclose(np.cov(phases.T), cov.entries, atol=0.01)

    def test_four_chunk_stream_pinned(self):
        # golden values of the fixed chunk partition: a change here changes
        # every seeded run
        res = collect_shots(make_cfg(18, n=2), 3 * CHUNK_SHOTS + 5, 8)
        digest = hashlib.sha256(res.outcomes.astype(np.int64).tobytes()).hexdigest()
        assert digest == "69b9758f69ef32f6370c9380282874cfb15dedb0aee2326df9214ada094c0f36"
        np.testing.assert_array_equal(np.bincount(res.outcomes), [7205, 8244, 3608, 5524])
        np.testing.assert_array_equal(res.result.counts, [7205, 8244, 3608, 5524])
        pinned = {
            0: [-0.3143988090925381, 0.22890257518551588],
            CHUNK_SHOTS - 1: [0.09368014870696663, 0.03341801554837339],
            CHUNK_SHOTS: [0.0028622867907873925, -0.1041951398296282],
            2 * CHUNK_SHOTS + 7: [0.19139935824069682, 0.02334524259960503],
            3 * CHUNK_SHOTS + 4: [1.1475604264603856, -0.547933232809919],
        }
        for shot, phases in pinned.items():
            np.testing.assert_allclose(res.phases[shot], phases, rtol=1e-12, atol=0)

    def test_four_chunk_stream_pinned_in_batches(self, monkeypatch):
        # a chunk whose buffers would pass BATCH_ELEMENTS runs in batches;
        # batches draw no random numbers, so 1000-shot batches of the
        # rank-4, 4-column kernel keep every golden value
        monkeypatch.setattr(dephimetry.bayes, "BATCH_ELEMENTS", 16 * 1000)
        assert dephimetry.bayes._batch_shots(16) == 1000
        cfg = make_cfg(18, n=2)
        assert _state_factor(_support_block(cfg.rho, cfg.gen)[1]).shape == (4, 4)
        self.test_four_chunk_stream_pinned()

    @pytest.mark.parametrize("n", [3, 9])
    def test_outcomes_invert_each_shots_cdf(self, n):
        # one compare of each batch's draws against its whole CDF, tallied
        # in the smallest type that holds the outcome count, against a loop
        # over the shots: the outcome is the number of normalised CDF sums
        # below the draw.  n = 9 has 512 outcomes, past an 8-bit tally.
        cfg, shots, seed = plus_or_ghz_cfg(product_plus_state, n=n), 700, 3
        res = collect_shots(cfg, shots, seed)
        (rng_, size), = chunk_rngs(seed, shots)
        rng_.standard_normal((size, n))
        draws = rng_.random(size)
        w = np.exp(-1j * (res.phases @ cfg.gen.site_energy_table))
        factor = _state_factor(_support_block(cfg.rho, cfg.gen)[1])
        probs = shot_probabilities(cfg.povm, factor, w)
        assert probs.shape == (shots, 2**n)
        cdfs = np.cumsum(probs, axis=1)
        expected = [np.count_nonzero(draw > cdf / cdf[-1]) for draw, cdf in zip(draws, cdfs)]
        np.testing.assert_array_equal(res.outcomes, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_shot_probabilities_match_dense(self, case, n):
        rho, povm, effects = measurement_case(case, n, seed=10 * n + 1)
        phases = rng(n).normal(size=(64, n))
        gen = GeneratorSpec.qubits(n)
        w = np.exp(-1j * (phases @ gen.site_energy_table))
        factor = _state_factor(_support_block(rho, gen)[1])
        if case == "pure":
            assert factor.shape[1] == 1
        else:
            assert factor.shape[1] > 1
        probs = shot_probabilities(povm, factor, w)
        # sums of squares, per column and summed by label: the sampler
        # needs no clamp
        assert probs.min() >= 0.0
        np.testing.assert_allclose(
            probs, dense_shot_probabilities(w, rho.entries, effects), rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("mixing", [False, True], ids=["blocked", "mixing"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("case", ["pure", "mixed", "grouped"])
    def test_support_shot_probabilities_match_dense(self, case, n, mixing):
        rho, povm, effects = embedded_case(case, n, seed=10 * n + 1, mixing=mixing)
        live, block, _ = _support_block(rho, GeneratorSpec.qubits(n + 1))
        factor = _state_factor(block)
        assert factor.shape[0] == live.size == rho.dim // 2
        sub = povm.restrict(live)
        phases = rng(n).normal(size=(64, n + 1))
        w = np.exp(-1j * (phases @ GeneratorSpec.qubits(n + 1).site_energy_table))
        # the kernel on the support gives every outcome by its label; one
        # with no column there is 0, as is its dense probability
        dense = dense_shot_probabilities(w, rho.entries, effects)
        np.testing.assert_allclose(
            shot_probabilities(sub, factor, w[:, live]), dense, rtol=0, atol=1e-13
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
        res = collect_shots(cfg, 3000, 100001)
        digest = hashlib.sha256(res.outcomes.astype(np.int64).tobytes()).hexdigest()
        assert digest == outcome_digest
        assert hashlib.sha256(res.phases.tobytes()).hexdigest() == phase_digest
        assert dict(zip(*np.unique(res.outcomes, return_counts=True))) == counts
        assert {x: int(c) for x, c in enumerate(res.result.counts) if c} == counts
        np.testing.assert_array_equal(
            res.estimates_best, np.where(res.outcomes == 0, -estimate, estimate)
        )

    # One _product_weights call per batch over 2^17 shots: 2048-shot batches
    # on the 8 rows of plus-3, 512-shot batches on the 64 rows of plus-6 and
    # the 64 rank-8 terms of mixed-3.
    PRODUCT_BATCHES = {"plus-3": 64, "plus-6": 256, "mixed-3": 256}

    @pytest.mark.parametrize("case", ["plus-3", "plus-6", "mixed-3"])
    def test_product_route_draws_the_direct_outcomes(self, case, monkeypatch):
        # A full support takes bayes._product_weights.  Handing the
        # sampler that support as an index array forces the direct route
        # instead; the weights then differ by a unit factor per shot and by
        # rounding, and 2^17 seeded shots must land on the same outcomes.
        n = int(case[-1])
        if case.startswith("mixed"):
            cfg = make_cfg(21, n=n)
            assert _state_factor(_support_block(cfg.rho, cfg.gen)[1]).shape[1] > 1
        else:
            gen, cov = GeneratorSpec.qubits(n), build_c2(n, 0.5, 0.5)
            rb = encode_phase(dephase(product_plus_state(n), gen, cov), gen, 0.0)
            cfg = ExperimentConfig(rho=product_plus_state(n), gen=gen, cov=cov,
                                   povm=optimal_povm(rb, gen), rho_bar=rb)
        shots, calls = 1 << 17, []
        product = dephimetry.bayes._product_weights
        monkeypatch.setattr(dephimetry.bayes, "_product_weights",
                            lambda *args: calls.append(1) or product(*args))
        fast = collect_shots(cfg, shots, 4)
        assert len(calls) == self.PRODUCT_BATCHES[case]

        def indexed(rho, gen):
            live, block, energy = _support_block(rho, gen)
            assert isinstance(live, slice)
            return np.arange(rho.dim), block, energy

        monkeypatch.setattr(dephimetry.bayes, "_support_block", indexed)
        direct = collect_shots(cfg, shots, 4)
        assert len(calls) == self.PRODUCT_BATCHES[case]
        assert np.unique(fast.outcomes).size > 1
        np.testing.assert_array_equal(fast.outcomes, direct.outcomes)
        np.testing.assert_array_equal(fast.phases, direct.phases)

    @pytest.mark.parametrize("n", [6, 10])
    def test_sparse_support_never_takes_the_product_route(self, n, monkeypatch):
        def never(*args):
            raise AssertionError("a partial support took the product route")

        monkeypatch.setattr(dephimetry.bayes, "_product_weights", never)
        if n in self.GHZ_PINS:
            self.test_seeded_ghz_pinned(n)
            return
        gen, cov = GeneratorSpec.qubits(n), build_c2(n, 0.5, 0.5)
        rb = encode_phase(dephase(ghz_state(n), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=ghz_state(n), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        counts = simulate(cfg, 3000, 100001).counts
        assert set(np.flatnonzero(counts)) == {0, 2**n - 1}

    def test_memory_budget_ghz_n10(self):
        # one full chunk on the 2-row support of GHZ; sampling over all
        # 1024 outcomes peaked at 513 MiB
        gen = GeneratorSpec.qubits(10)
        cov = build_c2(10, 0.5, 0.5)
        rb = encode_phase(dephase(ghz_state(10), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=ghz_state(10), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        assert traced_peak_mb(simulate, cfg, CHUNK_SHOTS, 4) <= 16.0

    def test_memory_budget_product_plus_n10(self):
        # one full chunk on the full 1024-row support: the 16 MiB folded
        # measurement and two 8 MiB pools of 512-shot batches, 33.0 MiB
        # traced.  Separate weights, amplitudes and squares peaked at 37.7
        # MiB, and holding them for all 8192 shots at once at 513 MiB.
        gen = GeneratorSpec.qubits(10)
        cov = build_c2(10, 0.5, 0.5)
        rb = encode_phase(dephase(product_plus_state(10), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=product_plus_state(10), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        assert traced_peak_mb(simulate, cfg, CHUNK_SHOTS, 4) <= 35.0

    def test_memory_budget_product_plus_n3(self):
        # one chunk of the benchmark's many-chunk run (product-plus n = 3,
        # c1): two pools of 2048-shot batches beside the chunk's phases,
        # uniforms and outcomes, 0.92 MiB traced.  A buffer per temporary,
        # each for the whole chunk, peaked at 3.52 MiB.
        gen = GeneratorSpec.qubits(3)
        cov = build_c1(3, 0.3, 0.5)
        rb = encode_phase(dephase(product_plus_state(3), gen, cov), gen, 0.0)
        cfg = ExperimentConfig(rho=product_plus_state(3), gen=gen, cov=cov,
                               povm=optimal_povm(rb, gen), rho_bar=rb)
        assert traced_peak_mb(simulate, cfg, CHUNK_SHOTS, 4) <= 1.5

    def test_oversized_fold_is_refused(self):
        # a random full-rank probe at n = 10 would fold 1024^3 complex
        # entries (16 GiB); simulate refuses it from the probe's factor,
        # before the fold and before the estimator table (whose
        # computational-basis measurement has no local information and
        # would raise first): 8.2 MiB traced, the factor's real eigenvectors
        # scaled in place (budget: plus 25%)
        x = rng(5).normal(size=(1024, 1024))
        rho = x @ x.T
        rho /= np.trace(rho)
        cfg = ExperimentConfig(rho=_trusted(DensityMatrix, rho), gen=GeneratorSpec.qubits(10),
                               cov=build_c2(10, 0.5, 0.5), povm=Povm.projective(np.eye(1024)))

        def refused():
            with pytest.raises(ValueError, match=f"FOLD_ELEMENTS = {FOLD_ELEMENTS}"):
                simulate(cfg, 8, 1)

        with mock.patch.object(dephimetry.bayes, "best_estimator") as table:
            assert traced_peak_mb(refused) < 10.3
        table.assert_not_called()

    def test_rank_two_probe_simulates(self):
        # a mixed probe folds its rank components side by side: well inside
        # the budget at n = 3, and every shot is counted
        r = rng(6)
        q = np.linalg.qr(r.normal(size=(8, 2)) + 1j * r.normal(size=(8, 2)))[0]
        rho = DensityMatrix(q @ np.diag([0.7, 0.3]) @ q.conj().T)
        gen, cov = GeneratorSpec.qubits(3), build_c2(3, 0.5, 0.5)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov,
                               povm=optimal_povm(dephase(rho, gen, cov), gen))
        assert _state_factor(_support_block(rho, gen)[1]).shape[1] == 2
        assert simulate(cfg, 1000, 3).counts.sum() == 1000

    def test_batch_shots_pinned(self):
        # the fewest shots that fill 2^14 elements of the widest buffer, and
        # at least 512: a whole chunk on GHZ's 2 rows, 2048 shots on the 8
        # rows of product-plus n = 3, and 512 on 256 and 1024 rows, where
        # the 2^19-element cap is 2048 and 512
        assert [_batch_shots(rows) for rows in (2, 8, 256, 1024)] == [8192, 2048, 512, 512]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads Linux's minor page fault count")
    def test_chunks_reuse_their_buffers(self, tmp_path):
        # Temporaries allocated and freed per chunk are trimmed from the heap
        # and faulted in again by the next chunk: about 1100 minor faults per
        # chunk.
        src = os.path.dirname(os.path.dirname(dephimetry.bayes.__file__))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")

        def faults(chunks):
            argv = ["simulate", "--state", "product-plus", "--n", "3", "--family", "c1",
                    "--alpha", "0.3", "--two-beta2", "0.5", "--shots",
                    str(chunks * CHUNK_SHOTS), "--seed", "3", "--out", str(tmp_path / "s.json")]
            code = ("import resource\n"
                    "from dephimetry.cli import main\n"
                    f"assert main({argv!r}) == 0\n"
                    "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)\n")
            done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True, timeout=120)
            return int(done.stdout)

        assert (faults(32) - faults(2)) / 30 < 256

    @pytest.mark.parametrize("make_state", [ghz_state, product_plus_state])
    def test_memory_does_not_grow_with_shots(self, make_state):
        # the run keeps one count per outcome: 64 chunks peak within 1 MiB
        # of 2, where keeping every shot grew by 7 MiB per 16 chunks
        cfg = plus_or_ghz_cfg(make_state, phi0=0.2, delta_phi=0.1)
        few = traced_peak_mb(simulate, cfg, 2 * CHUNK_SHOTS, 9)
        many = traced_peak_mb(simulate, cfg, 64 * CHUNK_SHOTS, 9)
        assert many <= few + 1.0

    @pytest.mark.parametrize("make_state", [ghz_state, product_plus_state])
    def test_summary_is_exact_from_the_shots(self, make_state):
        # the summary from the counts equals the exact moments of the
        # per-shot values, and the numpy reductions over them within 1e-12
        cfg = plus_or_ghz_cfg(make_state, phi0=0.2, delta_phi=0.1)
        shots = 2 * CHUNK_SHOTS + 100
        res, _, _, best = collect_shots(cfg, shots, 12)
        squares = np.square(best - cfg.phi0)
        summary = [(res.empirical_mean, res.mean_stderr),
                   (res.empirical_mse_best, res.mse_stderr)]
        for (mean, stderr), values in zip(summary, (best, squares)):
            exact = [Fraction(v) for v in values.tolist()]
            exact_mean = sum(exact) / shots
            variance = sum((v - exact_mean) ** 2 for v in exact) / (shots - 1)
            assert mean == float(exact_mean)
            expected = math.sqrt(float(variance)) / math.sqrt(shots)
            assert abs(stderr - expected) <= 4 * math.ulp(expected)
            assert math.isclose(mean, values.mean(), rel_tol=1e-12)
            # GHZ's squares are one constant: its stderr is 0.0 exactly,
            # and numpy's is rounding of the mean
            assert math.isclose(stderr, values.std(ddof=1) / math.sqrt(shots),
                                rel_tol=1e-12, abs_tol=1e-12 * res.predicted_mse)
        if make_state is ghz_state:
            assert res.mse_stderr == 0.0

    def test_moments_past_the_float_range(self):
        # a sum past the float range saturates to inf; a value there leaves
        # the variance undefined, as float sums do
        assert _weighted_moments(np.array([1, 1]), np.array([1.3e154, -1.3e154])) == (
            0.0, math.inf)
        mean, stderr = _weighted_moments(np.array([3, 0, 1]), np.array([np.inf, 5.0, 1.0]))
        assert mean == math.inf and math.isnan(stderr)
        assert _weighted_moments(np.array([0, 1]), np.array([np.inf, 2.0])) == (2.0, None)

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
        res = collect_shots(cfg, 8192 + 5, 3)
        assert res.phases.shape == (8197, 1)
        assert res.outcomes.shape == (8197,)
        assert res.estimates_best.shape == (8197,)
        assert res.result.chunks == 2
        assert res.result.counts.sum() == 8197

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
        res = collect_shots(cfg, 60_000, 23)
        estimates = bayes_estimators(cfg).estimates[res.outcomes]
        errors = (estimates - res.phases @ cfg.gamma) ** 2
        se = errors.std(ddof=1) / math.sqrt(res.result.shots)
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

    def test_callback_sees_each_chunk(self):
        # one call per chunk, in shot order, with the chunk's rows; the
        # estimates are est_best of the outcomes, which the counts tally
        cfg = make_cfg(15, n=2)
        calls = []
        res = simulate(cfg, 2 * CHUNK_SHOTS + 50, 1,
                       lambda *views: calls.append([v.copy() for v in views]))
        assert [len(o) for _, o, _ in calls] == [CHUNK_SHOTS, CHUNK_SHOTS, 50]
        assert all(p.shape == (len(o), 2) for p, o, _ in calls)
        best = best_estimator(cfg).best
        for _, outcomes, estimates in calls:
            np.testing.assert_array_equal(estimates, best[outcomes])
        outcomes = np.concatenate([o for _, o, _ in calls])
        np.testing.assert_array_equal(res.counts, np.bincount(outcomes, minlength=4))


class TestMapOrdered:
    def test_preserves_order_sequential(self):
        seen = []
        assert map_ordered(lambda x: seen.append(x * x), iter(range(10))) is None
        assert seen == [x * x for x in range(10)]

    def test_empty(self):
        seen = []
        map_ordered(seen.append, [])
        assert seen == []


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

    @pytest.mark.parametrize("case", ["tilted", "grouped", "embedded"])
    def test_matches_simulated_frequencies(self, case):
        # the sampler draws a column and counts its label: an outcome that
        # owns several columns (grouped, also on a partial support when
        # embedded) fires at its averaged probability too
        if case == "tilted":
            rho, povm = product_plus_state(1), Povm.projective(tilted_qubit_basis(0.7))
        else:
            rho, povm, _ = (measurement_case if case == "grouped" else embedded_case)("grouped", 2)
            assert np.bincount(povm.labels).max() > 1
        sites = rho.dim.bit_length() - 1
        cfg = ExperimentConfig(
            rho=rho, gen=GeneratorSpec.qubits(sites),
            cov=CovarianceMatrix(0.2 * (np.eye(sites) + np.ones((sites, sites)))),
            povm=povm, phi0=0.2,
        )
        shots = 100_000
        result = simulate(cfg, shots=shots, seed=31)
        p = averaged_probabilities(cfg, cfg.phi0)
        for k in range(povm.outcomes):
            freq = result.counts[k] / shots
            se = math.sqrt(p[k] * (1 - p[k]) / shots)
            assert abs(freq - p[k]) <= 3.5 * se
