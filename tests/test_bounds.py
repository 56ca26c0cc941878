import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dephimetry import (
    BoundReport,
    BoundViolationError,
    CovarianceMatrix,
    GeneratorSpec,
    asymptotics,
    build_c1,
    check_violation,
    crossover,
    crossover_boundary,
    delta2_c,
    dephase,
    error_bound,
    ghz_state,
    main_bound,
    product_plus_state,
    qfi,
    reference_bound_g,
    verify_bound,
)
import dephimetry.cli as cli
from dephimetry.bounds import CSV_FIELDS, bound_report

from helpers import random_density, random_psd_cov, rng

# (e^{0.5} - 1) / 10
REFERENCE_G_N10 = 0.06487212707001282

# crossover boundary over (2 n)^{-1/2} at n = 100, 1000, 10000
CROSSOVER_RATIOS = {
    100: 1.9539498991587843,
    1000: 1.9852033305949295,
    10_000: 1.9952970449704586,
}


class TestPointwiseBounds:
    def test_hand_values(self):
        assert main_bound(0.25, 4.0) == 2.0
        assert error_bound(0.25, 4.0) == 0.5
        assert main_bound(0.0, 9.0) == 9.0

    @given(
        delta2=st.floats(0.0, 5.0),
        f_rho=st.floats(0.01, 1e6),
    )
    def test_reciprocal_pair(self, delta2, f_rho):
        assert math.isclose(
            main_bound(delta2, f_rho) * error_bound(delta2, f_rho), 1.0, rel_tol=1e-12
        )

    def test_zero_information_limit(self):
        assert main_bound(0.3, 0.0) == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            main_bound(-0.1, 1.0)
        with pytest.raises(ValueError):
            main_bound(0.1, -1.0)
        with pytest.raises(ValueError):
            main_bound(0.0, 0.0)
        with pytest.raises(ValueError):
            error_bound(0.1, 0.0)

    @given(delta2=st.floats(0.001, 5.0), f_rho=st.floats(0.01, 1e4))
    def test_tighter_than_both_ingredients(self, delta2, f_rho):
        b = main_bound(delta2, f_rho)
        assert b <= f_rho + 1e-12
        assert b <= 1.0 / delta2 + 1e-12


class TestReferenceBound:
    def test_frozen_value(self):
        assert math.isclose(reference_bound_g(10, 0.5), REFERENCE_G_N10, rel_tol=1e-15)

    def test_small_noise_expansion(self):
        # expm1 keeps precision where exp(x) - 1 would cancel
        g = reference_bound_g(4, 1e-12)
        assert math.isclose(g, 1e-12 / 4, rel_tol=1e-6)

    def test_rejections(self):
        with pytest.raises(ValueError):
            reference_bound_g(0, 0.5)
        with pytest.raises(ValueError):
            reference_bound_g(3, -0.1)


class TestCrossover:
    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_boundary_solves_equation(self, n):
        x = crossover_boundary(n)
        assert abs((x + 1.0 / n) - math.expm1(x)) < 1e-6 * x

    @pytest.mark.parametrize("n,ratio", sorted(CROSSOVER_RATIOS.items()))
    def test_frozen_ratios(self, n, ratio):
        x = crossover_boundary(n)
        assert math.isclose(x / (2.0 * n) ** -0.5, ratio, rel_tol=1e-5)

    def test_boundary_decreasing_in_n(self):
        values = [crossover_boundary(n) for n in (2, 5, 10, 50, 200, 1000)]
        assert values == sorted(values, reverse=True)

    def test_grid_flips_at_boundary(self):
        n = 100
        x = crossover_boundary(n)
        report = crossover([n], [0.5 * x, 2.0 * x])
        assert report.independent_tighter[0, 0]
        assert not report.independent_tighter[0, 1]
        assert math.isclose(report.approx_boundary[0], (2 * n) ** -0.5, rel_tol=1e-15)

    def test_grid_matches_pointwise(self):
        ns = [10, 100]
        b2s = [0.05, 0.2, 0.8]
        report = crossover(ns, b2s)
        for i, n in enumerate(ns):
            for j, b2 in enumerate(b2s):
                ours = error_bound(b2 / n, float(n) ** 2)
                theirs = reference_bound_g(n, b2)
                assert report.independent_tighter[i, j] == (ours > theirs)


class TestAsymptotics:
    def test_c1_plateau(self):
        ns = np.unique(np.round(np.logspace(2, 4, 9)).astype(int))
        rep = asymptotics("c1", 0.9, 0.5, ns)
        assert math.isclose(rep.fitted_limit, 0.45, rel_tol=1e-3)
        assert rep.fit_residual < 1e-3

    def test_c2_linear_coefficient(self):
        ns = np.unique(np.round(np.logspace(2, 4, 9)).astype(int))
        rep = asymptotics("c2", 0.2, 0.5, ns)
        # N * bound -> 2 beta^2 (1 + alpha)/(1 - alpha) = 0.75
        assert math.isclose(rep.fitted_limit, 0.75, rel_tol=1e-3)

    def test_rejections(self):
        with pytest.raises(ValueError, match="family"):
            asymptotics("identity", 0.5, 0.5, [10, 100])
        with pytest.raises(ValueError, match="two grid points"):
            asymptotics("c1", 0.5, 0.5, [10])
        with pytest.raises(ValueError, match="alpha"):
            asymptotics("c2", 1.0, 0.5, [10, 100])


class TestBoundReport:
    def _report(self, **overrides):
        fields = dict(
            family="c1", n=2, alpha=0.0, two_beta2=0.5, delta2_c=0.25,
            f_rho=4.0, f_rho_bar=1.4715177646857693, main_bound_value=2.0,
            error_bound_value=0.5, reference_g_value=0.3243606353500641,
        )
        fields.update(overrides)
        return BoundReport(**fields)

    def test_reciprocal_gate(self):
        with pytest.raises(ValueError, match="reciprocal"):
            self._report(main_bound_value=2.1)

    @staticmethod
    def _csv(report):
        """(header, row) of one report, as the CLI writes them."""
        return cli._csv_text([CSV_FIELDS, report.to_dict().values()]).splitlines()

    def test_csv_row_fixed_layout(self):
        header, row = self._csv(self._report())
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[0] == "c1"
        assert cells[1] == "2"
        assert float(cells[7]) == 2.0

    def test_none_fields_serialize_empty(self):
        _, row = self._csv(self._report(alpha=None, two_beta2=None, reference_g_value=None))
        cells = row.split(",")
        assert cells[2] == "" and cells[3] == "" and cells[-1] == ""

    @given(value=st.floats(1e-300, 1e300))
    def test_floats_round_trip(self, value):
        report = self._report(
            delta2_c=value, f_rho=4.0, main_bound_value=1.0 / (value + 0.25),
            error_bound_value=value + 0.25,
        )
        cells = self._csv(report)[1].split(",")
        assert float(cells[4]) == value

    def test_header(self):
        assert self._csv(self._report())[0] == (
            "family,n,alpha,two_beta2,delta2_c,f_rho,f_rho_bar,"
            "main_bound,error_bound,reference_g"
        )

    def test_to_dict_keys_match_header(self):
        assert list(self._report().to_dict()) == list(CSV_FIELDS)


class TestCheckViolation:
    def test_passes_within_tolerance(self):
        report = BoundReport(
            family="custom", n=2, alpha=None, two_beta2=None, delta2_c=0.25,
            f_rho=4.0, f_rho_bar=2.0 + 1e-9, main_bound_value=2.0,
            error_bound_value=0.5, reference_g_value=None,
        )
        assert check_violation(report) is report

    def test_raises_beyond_tolerance(self):
        report = BoundReport(
            family="custom", n=2, alpha=None, two_beta2=None, delta2_c=0.25,
            f_rho=4.0, f_rho_bar=2.1, main_bound_value=2.0,
            error_bound_value=0.5, reference_g_value=None,
        )
        with pytest.raises(BoundViolationError) as err:
            check_violation(report)
        assert err.value.report is report

    @staticmethod
    def report_at(main_bound, f_rho_bar):
        return BoundReport(
            family="custom", n=2, alpha=None, two_beta2=None, delta2_c=0.0,
            f_rho=main_bound, f_rho_bar=f_rho_bar, main_bound_value=main_bound,
            error_bound_value=1.0 / main_bound, reference_g_value=None,
        )

    @pytest.mark.parametrize("main_bound, excess", [(1e18, 2e-8 * 1e18), (0.5, 2e-8)])
    def test_margin_scales_past_one(self, main_bound, excess):
        # absolute 1e-8 up to a bound of 1, relative past it
        with pytest.raises(BoundViolationError):
            check_violation(self.report_at(main_bound, main_bound + excess))

    @pytest.mark.parametrize("main_bound", [1.9e8, 1e18, 1e24])
    def test_rounding_past_one_ulp_passes(self, main_bound):
        # 1e-8 absolute is under one ulp past about 6.7e7
        report = self.report_at(main_bound, main_bound * (1 + 4 * sys.float_info.epsilon))
        assert check_violation(report) is report

    def test_none_information_skipped(self):
        report = BoundReport(
            family="custom", n=2, alpha=None, two_beta2=None, delta2_c=0.25,
            f_rho=4.0, f_rho_bar=None, main_bound_value=2.0,
            error_bound_value=0.5, reference_g_value=None,
        )
        assert check_violation(report) is report


class TestVerifyBound:
    def test_ghz_independent_example(self):
        report = verify_bound(
            ghz_state(2), GeneratorSpec.qubits(2), build_c1(2, 0.5, 0.0)
        )
        assert math.isclose(report.f_rho, 4.0, rel_tol=1e-12)
        assert math.isclose(report.main_bound_value, 2.0, rel_tol=1e-12)
        assert math.isclose(report.f_rho_bar, 1.4715177646857693, rel_tol=1e-12)
        assert report.family == "custom"
        assert report.alpha is None

    def test_random_state_keeps_its_report(self):
        # no orbit symmetry, so f_rho_bar is qfi of the dephased state, with
        # the bits it had when verify_bound built that state itself
        r = rng(21)
        rho, gen, cov = random_density(r, 16), GeneratorSpec.qubits(4), random_psd_cov(r, 4)
        report = verify_bound(rho, gen, cov)
        assert report.f_rho_bar == qfi(dephase(rho, gen, cov), gen) == 0.3429286475558189
        assert report.to_dict() == bound_report(
            delta2_c(cov), qfi(rho, gen), family="custom", n=4, alpha=None, two_beta2=None,
            f_rho_bar=report.f_rho_bar, reference_g_value=None,
        ).to_dict()
        assert report.f_rho == 0.8671028612432072

    @pytest.mark.parametrize("seed", range(12))
    def test_random_states_never_violate(self, seed):
        r = rng(seed)
        n = int(r.integers(1, 4))
        report = verify_bound(
            random_density(r, 2**n), GeneratorSpec.qubits(n), random_psd_cov(r, n)
        )
        assert report.f_rho_bar <= report.main_bound_value + 1e-8

    def test_product_state_tighter_than_linear(self):
        report = verify_bound(
            product_plus_state(3), GeneratorSpec.qubits(3), build_c1(3, 0.5, 0.0)
        )
        assert math.isclose(report.f_rho, 3.0, rel_tol=1e-12)
        assert report.f_rho_bar < report.main_bound_value

    def test_zero_information_state(self):
        from dephimetry import DensityMatrix

        rho = DensityMatrix(np.diag([0.6, 0.4]).astype(complex))
        report = verify_bound(rho, GeneratorSpec.qubits(1), build_c1(1, 0.5, 0.0))
        assert report.f_rho == 0.0
        assert report.main_bound_value == 0.0
        assert math.isinf(report.error_bound_value)

    def test_collective_covariance_path(self):
        report = verify_bound(
            ghz_state(2), GeneratorSpec.qubits(2), CovarianceMatrix(0.4 * np.ones((2, 2)))
        )
        assert math.isclose(report.delta2_c, 0.4, rel_tol=1e-15)
        assert report.f_rho_bar <= report.main_bound_value + 1e-8
