import math
from unittest import mock

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
    conditional_covariance,
    delta2_c,
    delta2_c1_closed,
    delta2_c2_closed,
    weights,
)

from helpers import collective_and_local, delta2_brute, random_psd_cov, rng


def rebuilt_from_eigh(cov: CovarianceMatrix) -> np.ndarray:
    """(v * lam) @ v.T from the matrix's own eigh: C again, asymmetric at
    the rounding level of its scale."""
    lam, vec = np.linalg.eigh(cov.entries)
    return (vec * lam) @ vec.T


# Both invariants are relative to the scale s: these stay refused at every s.
SCALES = [1.0, 1e4, 1e8]


class TestCovarianceMatrix:
    @pytest.mark.parametrize("a", [
        pytest.param(np.array([[1.0, 0.3 + 1e-14], [0.3, 1.0]]), id="unit"),
        # asymmetric by 7.3e-12, smallest eigenvalue 8967
        pytest.param(rebuilt_from_eigh(build_c2(12, 5e4, 0.7)), id="c2-eigh-rebuilt-5e4"),
    ])
    def test_symmetrizes_small_deviation(self, a):
        cov = CovarianceMatrix(a)
        assert np.abs(cov.entries - cov.entries.T).max() == 0.0

    @pytest.mark.parametrize("scale", SCALES)
    def test_rejects_asymmetry(self, scale):
        with pytest.raises(ValueError, match="symmetry"):
            CovarianceMatrix(scale * np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("scale", SCALES)
    def test_rejects_negative_definite(self, scale):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            CovarianceMatrix(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            CovarianceMatrix(np.zeros((0, 0)))

    @pytest.mark.parametrize("family, n, two_beta2, alpha", [
        (build_c1, 200, 1e4, 0.5), (build_c2, 10, 1e6, 0.5), (build_c1, 500, 1e6, 0.9),
    ], ids=["c1-n200-1e4", "c2-n10-1e6", "c1-n500-1e6"])
    def test_conditional_covariance_accepted_at_scale(self, family, n, two_beta2, alpha):
        # C - delta2_c 11^T keeps C's rounding, of order eps |C|, in its
        # smallest eigenvalue; c1 takes the closed form b (I - 11^T / n)
        cov = family(n, two_beta2, alpha)
        residual = conditional_covariance(cov)
        subtracted = cov.entries - delta2_c(cov)
        if family is build_c2:
            np.testing.assert_array_equal(residual.entries, subtracted)
        else:
            local = two_beta2 * (1.0 - alpha)
            np.testing.assert_allclose(residual.entries, subtracted,
                                       rtol=0, atol=1e-12 * max(1.0, local))

    def test_conditional_covariance_accepted_past_cancellation(self):
        # the largest eigenvalue of C is 1e6, that of C' only 0.1: the
        # subtraction's rounding left a smallest eigenvalue of -2.0e-10,
        # which the scale of C' refused
        cov = build_c1(100, 1e4, 0.99999)
        residual = conditional_covariance(cov).entries
        local = cov.entries[0, 0] - cov.entries[0, 1]  # 0.1, as C's entries round it
        np.testing.assert_allclose(residual, local * (np.eye(100) - 1.0 / 100),
                                   rtol=0, atol=1e-15 * local)
        assert abs(residual.sum()) <= 1e-15 * local * 100**2

    @pytest.mark.parametrize("two_beta2", [1e-6, 0.5, 40.0, 1e4])
    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    @pytest.mark.parametrize("alpha", [None, 0.0, 0.3, 0.99, 1.0])
    def test_closed_form_matches_subtraction(self, alpha, n, two_beta2):
        # identity noise (alpha None) and c1: C' = b (I - 11^T / n) within
        # 1e-12 max(1, b) of C - delta2_c 11^T
        cov = (CovarianceMatrix(two_beta2 * np.eye(n)) if alpha is None
               else build_c1(n, two_beta2, alpha))
        local = two_beta2 * (1.0 - (alpha or 0.0))
        np.testing.assert_allclose(conditional_covariance(cov).entries,
                                   cov.entries - delta2_c(cov),
                                   rtol=0, atol=1e-12 * max(1.0, local))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(2)
        a[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            CovarianceMatrix(a)

    @pytest.mark.parametrize("entries", [
        pytest.param(np.full((2, 2), 1e308), id="symmetric-part-overflows"),
        pytest.param(1e308 * np.eye(2), id="diagonal"),
        pytest.param(np.where(np.eye(10) > 0, 1e307, 5e306), id="c1-n10-1e307"),
    ])
    def test_rejects_entries_summing_past_float_range(self, entries):
        # their sum bounds 1^T C 1 and every qubit delta^T C delta
        with pytest.raises(ValueError, match="covariance entries sum past the float range"):
            CovarianceMatrix(entries)

    def test_keeps_largest_finite_entry(self):
        # symmetrizing must not overflow where the entries themselves do not
        assert CovarianceMatrix(np.array([[1e308]])).entries[0, 0] == 1e308

    def test_zero_matrix_is_singular_and_collective(self):
        cov = CovarianceMatrix(np.zeros((3, 3)))
        assert cov.is_singular
        assert cov.is_collective
        assert delta2_c(cov) == 0.0

    def test_collective_detection(self):
        assert CovarianceMatrix(0.4 * np.ones((3, 3))).is_collective
        assert not build_c1(3, 0.5, 0.5).is_collective


class TestWeightVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            WeightVector(np.array([0.5, 0.4]))

    def test_rejects_nan_sum(self):
        with pytest.raises(ValueError, match="sum"):
            WeightVector(np.array([np.nan, 0.5]))

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

    @pytest.mark.parametrize("n, two_beta2", [(4, 0.5), (1000, 709.0)])
    def test_alpha_one_is_collective(self, n, two_beta2):
        # rank one: at n = 1000 the computed smallest eigenvalue is about
        # -eps times the largest, n * two_beta2
        for family in (build_c1, build_c2):
            cov = family(n, two_beta2, 1.0)
            assert cov.is_collective
            assert delta2_c(cov) == two_beta2

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

    def test_inverse_mass_past_float_range_raises(self):
        # 1^T C^{-1} 1 = 2e320 overflows: no delta2_c of 0 and NaN weights
        cov = CovarianceMatrix(1e-320 * np.eye(2))
        with pytest.raises(SingularCovarianceError, match="not in"):
            delta2_c(cov)
        with pytest.raises(SingularCovarianceError):
            weights(cov)

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

    def test_c2_closed_alpha_one_equals_collective(self):
        # 2 beta^2 (1 + 1) / (0 + 2): the collective matrix's exact value
        assert delta2_c2_closed(5, 0.5, 1.0) == delta2_c1_closed(5, 0.5, 1.0) == 0.5
        assert math.isclose(delta2_c(build_c2(5, 0.5, 1.0)), 0.5, rel_tol=1e-15)

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

    def test_one_solve_feeds_delta2_and_weights(self):
        # 1 / sum x and x / sum x of the same x = C^{-1} 1, bit for bit
        cov = build_c2(5, 0.5, 0.3)
        with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as spy:
            d2, gamma = delta2_c(cov), weights(cov).gamma
        assert spy.call_count == 1
        chol = np.linalg.cholesky(cov.entries)
        x = np.linalg.solve(chol.T, np.linalg.solve(chol, np.ones(5)))
        assert d2 == 1.0 / x.sum()
        np.testing.assert_array_equal(gamma, x / x.sum())

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


class TestCollectiveAndLocal:
    """The exact-equality oracle that cli._family_point's declared split is
    tested against."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_families_of_that_form(self, n):
        assert collective_and_local(CovarianceMatrix(0.5 * np.eye(n))) == (0.0, 0.5)
        assert collective_and_local(build_c2(n, 0.5, 0.0)) == (0.0, 0.5)
        for alpha in (0.0, 0.3, 1.0):
            collective, local = collective_and_local(build_c1(n, 0.5, alpha))
            if n > 1:
                assert collective == 0.5 * alpha
            assert collective + local == 0.5

    def test_one_site_is_all_local(self):
        assert collective_and_local(CovarianceMatrix([[0.7]])) == (0.0, 0.7)

    @pytest.mark.parametrize("entries", [
        build_c2(4, 0.5, 0.5).entries,
        random_psd_cov(rng(2), 4).entries,
        np.diag([0.5, 0.5, 0.5, 0.6]),
    ], ids=["c2", "random", "uneven-diagonal"])
    def test_other_matrices_refused(self, entries):
        assert collective_and_local(CovarianceMatrix(entries)) is None

    def test_one_ulp_off_refused(self):
        entries = build_c1(4, 0.5, 0.3).entries.copy()
        entries[1, 2] = entries[2, 1] = np.nextafter(entries[1, 2], 1.0)
        assert collective_and_local(CovarianceMatrix(entries)) is None

    def test_negative_local_part_refused(self):
        # PSD within CovarianceMatrix's tolerance, but b < 0 is no channel
        cov = CovarianceMatrix(np.ones((3, 3)) - 1e-11 * np.eye(3))
        assert collective_and_local(cov) is None
