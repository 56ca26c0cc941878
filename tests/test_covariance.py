import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    CovarianceMatrix,
    SingularCovarianceError,
    WeightVector,
    build_c1,
    build_c2,
    delta2_c,
    delta2_c1_closed,
    delta2_c2_closed,
    weights,
)

from helpers import delta2_brute, random_psd_cov, rng


class TestCovarianceMatrix:
    def test_symmetrizes_small_deviation(self):
        a = np.array([[1.0, 0.3 + 1e-14], [0.3, 1.0]])
        cov = CovarianceMatrix(a)
        assert np.abs(cov.entries - cov.entries.T).max() == 0.0

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetry"):
            CovarianceMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            CovarianceMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(2)
        a[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(a)

    def test_zero_matrix_is_singular_and_collective(self):
        cov = CovarianceMatrix(np.zeros((3, 3)))
        assert cov.is_singular
        assert cov.is_collective
        assert delta2_c(cov) == 0.0

    def test_collective_detection(self):
        assert CovarianceMatrix(0.4 * np.ones((3, 3))).is_collective
        assert not build_c1(3, 0.5, 0.5).is_collective

    def test_add(self):
        a = build_c1(3, 0.5, 0.2)
        b = build_c2(3, 0.3, 0.4)
        np.testing.assert_allclose((a + b).entries, a.entries + b.entries)

    def test_delta2_gamma_properties(self):
        cov = build_c1(3, 0.5, 0.2)
        assert math.isclose(cov.delta2, delta2_c(cov), rel_tol=1e-15)
        np.testing.assert_allclose(cov.gamma, weights(cov).gamma)


class TestWeightVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            WeightVector(np.array([0.5, 0.4]))

    def test_negative_entries_allowed(self):
        # anticorrelated noise can push optimal weights outside [0, 1]
        w = WeightVector(np.array([1.5, -0.5]))
        assert w.n == 2


class TestFamilies:
    def test_c1_entries(self):
        cov = build_c1(3, 0.5, 0.4).entries
        assert np.all(np.diag(cov) == 0.5)
        off = cov[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.2)

    def test_c2_entries(self):
        cov = build_c2(3, 0.5, 0.5).entries
        np.testing.assert_allclose(
            cov,
            0.5 * np.array([[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]]),
            atol=1e-15,
        )

    def test_alpha_one_is_collective(self):
        assert build_c1(4, 0.5, 1.0).is_collective
        assert build_c2(4, 0.5, 1.0).is_collective

    def test_alpha_zero_is_diagonal(self):
        np.testing.assert_array_equal(build_c2(3, 0.4, 0.0).entries, 0.4 * np.eye(3))

    @pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan])
    def test_rejects_alpha_outside_range(self, bad):
        with pytest.raises(ValueError, match="alpha"):
            build_c1(3, 0.5, bad)

    def test_rejects_nonpositive_noise(self):
        with pytest.raises(ValueError, match="two_beta2"):
            build_c2(3, 0.0, 0.5)

    @pytest.mark.parametrize("family", [build_c1, build_c2, delta2_c1_closed, delta2_c2_closed])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_noise(self, family, bad):
        with pytest.raises(ValueError, match="two_beta2"):
            family(3, bad, 0.5)


class TestDelta2:
    def test_identity_family(self):
        cov = CovarianceMatrix(0.5 * np.eye(4))
        assert math.isclose(delta2_c(cov), 0.125, rel_tol=1e-14)

    def test_matches_brute_inverse(self):
        for seed in range(20):
            cov = random_psd_cov(rng(seed), 2 + seed % 4)
            assert math.isclose(delta2_c(cov), delta2_brute(cov), rel_tol=1e-9)

    def test_collective_limit_value(self):
        cov = CovarianceMatrix(0.37 * np.ones((5, 5)))
        assert delta2_c(cov) == 0.37

    def test_singular_noncollective_raises(self):
        # rank-1 but not constant: outer(v, v) with nonuniform v
        v = np.array([1.0, 2.0, 3.0])
        cov = CovarianceMatrix(np.outer(v, v))
        with pytest.raises(SingularCovarianceError):
            delta2_c(cov)
        with pytest.raises(SingularCovarianceError):
            weights(cov)

    @given(
        n=st.integers(1, 8),
        two_beta2=st.floats(0.01, 3.0),
        alpha=st.floats(0.0, 0.99),
    )
    def test_c1_closed_form(self, n, two_beta2, alpha):
        closed = delta2_c1_closed(n, two_beta2, alpha)
        assert math.isclose(closed, delta2_c(build_c1(n, two_beta2, alpha)), rel_tol=1e-10)

    @given(
        n=st.integers(1, 8),
        two_beta2=st.floats(0.01, 3.0),
        alpha=st.floats(0.0, 0.95),
    )
    def test_c2_closed_form(self, n, two_beta2, alpha):
        closed = delta2_c2_closed(n, two_beta2, alpha)
        assert math.isclose(closed, delta2_c(build_c2(n, two_beta2, alpha)), rel_tol=1e-10)

    def test_c1_alpha_one_closed_equals_collective(self):
        assert math.isclose(delta2_c1_closed(5, 0.5, 1.0), 0.5, rel_tol=1e-15)
        assert math.isclose(delta2_c(build_c1(5, 0.5, 1.0)), 0.5, rel_tol=1e-15)

    def test_c2_closed_rejects_alpha_one(self):
        with pytest.raises(ValueError, match="alpha"):
            delta2_c2_closed(5, 0.5, 1.0)

    def test_monotone_in_alpha(self):
        # stronger positive correlation leaves less to average away
        values = [delta2_c(build_c1(6, 0.5, a)) for a in (0.0, 0.3, 0.6, 0.9)]
        assert values == sorted(values)

    def test_decreasing_in_n(self):
        values = [delta2_c(build_c2(n, 0.5, 0.5)) for n in (1, 2, 4, 8, 16)]
        assert values == sorted(values, reverse=True)


class TestWeights:
    def test_uniform_for_c1(self):
        # exchangeable noise: every site counts the same
        w = weights(build_c1(5, 0.5, 0.3))
        np.testing.assert_allclose(w.gamma, 0.2, atol=1e-12)

    def test_c2_edge_heavy_oracle(self):
        # n=3, alpha=1/2: hand inversion of the tridiagonal inverse gives
        # gamma = (0.4, 0.2, 0.4)
        w = weights(build_c2(3, 0.5, 0.5))
        np.testing.assert_allclose(w.gamma, [0.4, 0.2, 0.4], atol=1e-12)

    def test_collective_uniform(self):
        w = weights(CovarianceMatrix(0.3 * np.ones((4, 4))))
        np.testing.assert_array_equal(w.gamma, 0.25)

    @given(seed=st.integers(0, 100))
    def test_weighted_variance_equals_delta2(self, seed):
        # gamma^T C gamma = delta2_c, the defining optimality property
        cov = random_psd_cov(rng(seed), 4)
        g = weights(cov).gamma
        assert math.isclose(
            float(g @ cov.entries @ g), delta2_c(cov), rel_tol=1e-9
        )

    @given(seed=st.integers(0, 100))
    def test_optimality_against_perturbations(self, seed):
        cov = random_psd_cov(rng(seed), 4)
        g = weights(cov).gamma
        base = float(g @ cov.entries @ g)
        r = rng(seed + 1000)
        for _ in range(5):
            d = r.normal(size=4)
            d -= d.mean()  # stay on the sum-1 affine slice
            other = g + 0.1 * d
            assert float(other @ cov.entries @ other) >= base - 1e-12
