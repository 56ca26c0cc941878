"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single
``[acceptance] criterion N: PASS/FAIL`` line with the measured margins,
written straight to the original stdout so the lines survive pytest's
capture. Tolerances are pinned here on purpose; loosening them is a
behavior change, not a cleanup.
"""
import math
import time

import numpy as np

from dephimetry import (
    BoundViolationError,
    CovarianceMatrix,
    ExperimentConfig,
    GeneratorSpec,
    Povm,
    averaged_probabilities,
    bayes_estimators,
    bayes_mse,
    best_estimator,
    build_c1,
    build_c2,
    classical_fi,
    crossover_boundary,
    delta2_c,
    delta2_c1_closed,
    delta2_c2_closed,
    dephase,
    error_bound,
    ghz_state,
    local_error,
    main_bound,
    optimal_povm,
    product_plus_state,
    qbcr_gap,
    qfi,
    simulate,
    variance,
    verify_bound,
)
from dephimetry.core import derivative_state
from dephimetry.covariance import conditional_dephased_state

from helpers import (
    random_density,
    random_projective_povm,
    random_psd_cov,
    random_pure_density,
    rng,
    tilted_qubit_basis,
)


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_single_qubit_attenuation(capsys):
    gen = GeneratorSpec.qubits(1)
    plus = product_plus_state(1)
    b2_values = (0.1, 0.25, 1.0)
    covs = [CovarianceMatrix(np.array([[2.0 * b2]])) for b2 in b2_values]
    dephase(plus, gen, covs[0])  # warm the site-table cache before timing
    best_time = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        mults = [dephase(plus, gen, cov).entries[0, 1].real / 0.5 for cov in covs]
        best_time = min(best_time, time.perf_counter() - t0)
    worst = max(
        abs(m - math.exp(-b2)) / math.exp(-b2) for m, b2 in zip(mults, b2_values)
    )
    ok = worst <= 1e-14 and best_time < 1e-3
    _report(capsys, 1, ok, f"multiplier rel dev {worst:.2e} (<=1e-14), runtime {best_time * 1e3:.3f} ms (<1 ms)")


def test_criterion_2_closed_forms_match_inversion(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(2, 13):
        for alpha in (0.0, 0.2, 0.5, 0.9, 0.99):
            for build, closed in (
                (build_c1, delta2_c1_closed),
                (build_c2, delta2_c2_closed),
            ):
                direct = delta2_c(build(n, 0.5, alpha))
                worst = max(worst, abs(closed(n, 0.5, alpha) - direct) / direct)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(capsys, 2, ok, f"closed vs inversion rel dev {worst:.2e} (<=1e-10), runtime {elapsed:.3f} s (<1 s)")


def test_criterion_3_fisher_information_values(capsys):
    worst_ghz = max(
        abs(qfi(ghz_state(n), GeneratorSpec.qubits(n)) - n * n) / (n * n)
        for n in range(1, 7)
    )
    r = rng(301)
    worst_pure = 0.0
    for k in range(100):
        n = 1 + k % 3
        gen = GeneratorSpec.qubits(n)
        rho = random_pure_density(r, 2**n)
        target = 4.0 * variance(gen.hamiltonian(), rho)
        worst_pure = max(worst_pure, abs(qfi(rho, gen) - target) / max(1.0, target))
    worst_opt = 0.0
    for k in range(100):
        n = 1 + k % 3
        gen = GeneratorSpec.qubits(n)
        rho = random_density(r, 2**n)
        f = qfi(rho, gen)
        c = classical_fi(rho, gen, optimal_povm(rho, gen))
        worst_opt = max(worst_opt, abs(c - f) / max(1.0, f))
    ok = worst_ghz <= 1e-9 and worst_pure <= 1e-9 and worst_opt <= 1e-8
    _report(
        capsys,
        3,
        ok,
        f"extreme-state dev {worst_ghz:.2e} (<=1e-9), pure 4Var dev {worst_pure:.2e} "
        f"(<=1e-9), optimal-readout dev {worst_opt:.2e} (<=1e-8)",
    )


def test_criterion_4_bound_holds_with_spot_value(capsys):
    r = rng(401)
    violations = 0
    for k in range(200):
        n = 1 + k % 4
        rho = random_density(r, 2**n)
        cov = random_psd_cov(r, n)
        try:
            verify_bound(rho, GeneratorSpec.qubits(n), cov)
        except BoundViolationError:
            violations += 1
    # independent oracle for the spot value: the two extreme coherences give
    # a rank-2 family with information n^2 exp(-1^T C 1)
    worst_oracle = 0.0
    for k in range(40):
        n = 1 + k % 4
        gen = GeneratorSpec.qubits(n)
        cov = random_psd_cov(r, n)
        target = n * n * math.exp(-float(cov.entries.sum()))
        got = qfi(dephase(ghz_state(n), gen, cov), gen)
        worst_oracle = max(worst_oracle, abs(got - target) / max(target, 1e-300))
    spot = verify_bound(ghz_state(2), GeneratorSpec.qubits(2), build_c1(2, 0.5, 0.0))
    dev_f = abs(spot.f_rho_bar - 4.0 / math.e)
    dev_b = abs(spot.main_bound_value - 2.0)
    ok = (
        violations == 0
        and worst_oracle <= 1e-9
        and dev_f <= 1e-6
        and dev_b <= 1e-6
        and spot.f_rho_bar <= 2.0
    )
    _report(
        capsys,
        4,
        ok,
        f"{violations}/200 violations, rank-2 oracle dev {worst_oracle:.2e} (<=1e-9), "
        f"spot devs {dev_f:.2e}/{dev_b:.2e} (<=1e-6)",
    )


def test_criterion_5_weak_noise_tightness(capsys):
    ratios = []
    for n in (2, 3, 4):
        f = qfi(ghz_state(n), GeneratorSpec.qubits(n))
        ratios.append(main_bound(delta2_c1_closed(n, 1e-8, 0.0), f) / f)
    ok = all(1.0 - 1e-6 <= ratio <= 1.0 for ratio in ratios)
    _report(capsys, 5, ok, "bound/information ratios " + ", ".join(f"{x:.9f}" for x in ratios) + " in [1-1e-6, 1]")


def test_criterion_6_estimator_identities(capsys):
    t0 = time.perf_counter()
    h = 1e-5
    worst_score = worst_info = worst_split = worst_slope = 0.0
    for k in range(100):
        n = 1 + k % 3
        r = rng(600 + k)
        cfg = ExperimentConfig(
            rho=random_density(r, 2**n),
            gen=GeneratorSpec.qubits(n),
            cov=random_psd_cov(r, n),
            povm=random_projective_povm(r, 2**n),
            phi0=0.15,
        )
        table = bayes_estimators(cfg)
        up = averaged_probabilities(cfg, cfg.phi0 + h)
        dn = averaged_probabilities(cfg, cfg.phi0 - h)
        fd_score = cfg.delta2 * (np.log(up) - np.log(dn)) / (2 * h)
        worst_score = max(
            worst_score, float(np.abs(table.estimates - cfg.phi0 - fd_score).max())
        )
        cfi = classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        worst_info = max(worst_info, abs(local_error(cfg) / cfg.delta2**2 - cfi))
        worst_split = max(
            worst_split, abs(bayes_mse(cfg) + local_error(cfg) - cfg.delta2)
        )
        best = best_estimator(cfg)
        slope = float((up - dn) @ best.best) / (2 * h)
        worst_slope = max(worst_slope, abs(slope - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (
        worst_score <= 1e-6
        and worst_info <= 1e-8
        and worst_split <= 1e-10
        and worst_slope <= 1e-5
        and elapsed < 30.0
    )
    _report(
        capsys,
        6,
        ok,
        f"score FD dev {worst_score:.2e} (<=1e-6), info dev {worst_info:.2e} (<=1e-8), "
        f"variance split dev {worst_split:.2e} (<=1e-10), slope dev {worst_slope:.2e} "
        f"(<=1e-5), runtime {elapsed:.1f} s (<30 s)",
    )


def test_criterion_7_monte_carlo_saturation(capsys):
    t0 = time.perf_counter()
    cfg_one = ExperimentConfig(
        rho=product_plus_state(1),
        gen=GeneratorSpec.qubits(1),
        cov=CovarianceMatrix(np.array([[0.5]])),
        povm=Povm.projective(tilted_qubit_basis(0.6)),
        phi0=0.3,
    )
    cfg_two = ExperimentConfig(
        rho=ghz_state(2),
        gen=GeneratorSpec.qubits(2),
        cov=build_c1(2, 0.5, 0.3),
        povm=random_projective_povm(rng(702), 4),
        phi0=0.2,
    )
    ok = True
    parts = []
    for label, cfg, seed in (("one-site", cfg_one, 101), ("two-site", cfg_two, 202)):
        result = simulate(cfg, shots=100_000, seed=seed)
        target = 1.0 / classical_fi(cfg.averaged_state, cfg.gen, cfg.povm)
        z_mse = (result.empirical_mse_best - target) / result.mse_stderr
        z_mean = (result.empirical_mean - cfg.phi0) / result.mean_stderr
        ok = ok and abs(z_mse) <= 3.0 and abs(z_mean) <= 3.0
        parts.append(f"{label} z_mse={z_mse:+.2f} z_mean={z_mean:+.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(capsys, 7, ok, ", ".join(parts) + f" (|z|<=3), runtime {elapsed:.1f} s (<60 s)")


def test_criterion_8_prior_information_bound_and_conditional_family(capsys):
    min_gap = math.inf
    for k in range(100):
        n = 1 + k % 3
        r = rng(800 + k)
        cfg = ExperimentConfig(
            rho=random_density(r, 2**n),
            gen=GeneratorSpec.qubits(n),
            cov=random_psd_cov(r, n),
            povm=random_projective_povm(r, 2**n),
            phi0=0.05,
        )
        min_gap = min(min_gap, qbcr_gap(cfg).gap)
    h = 1e-5
    worst_comm = 0.0
    for k in range(20):
        n = 1 + k % 3
        r = rng(880 + k)
        gen = GeneratorSpec.qubits(n)
        rho = random_density(r, 2**n)
        cov = random_psd_cov(r, n)
        up = conditional_dephased_state(rho, gen, cov, 0.3 + h).entries
        dn = conditional_dephased_state(rho, gen, cov, 0.3 - h).entries
        mid = conditional_dephased_state(rho, gen, cov, 0.3)
        residual = (up - dn) / (2 * h) - derivative_state(mid, gen).entries
        worst_comm = max(worst_comm, float(np.abs(residual).max()))
    ok = min_gap >= -1e-8 and worst_comm <= 1e-6
    _report(
        capsys,
        8,
        ok,
        f"min gap {min_gap:.2e} (>=-1e-8), conditional-family commutator residual "
        f"{worst_comm:.2e} (<=1e-6)",
    )


def test_criterion_9_large_n_asymptotics(capsys):
    n = 10_000
    b2 = 0.5
    f = float(qfi(ghz_state(1), GeneratorSpec.qubits(1))) * n * n  # n^2 reference
    worst_const = max(
        abs(error_bound(delta2_c1_closed(n, b2, a), f) - b2 * a) / (b2 * a)
        for a in (0.2, 0.9)
    )
    worst_exp = max(
        abs(n * error_bound(delta2_c2_closed(n, b2, a), f) - b2 * (1 + a) / (1 - a))
        / (b2 * (1 + a) / (1 - a))
        for a in (0.2, 0.9)
    )
    ratios = [crossover_boundary(m) * math.sqrt(2 * m) for m in (100, 1000, 10_000)]
    ordering = (
        error_bound(delta2_c1_closed(n, b2, 0.0), f),
        error_bound(delta2_c2_closed(n, b2, 0.2), f),
        error_bound(delta2_c1_closed(n, b2, 0.9), f),
        error_bound(b2, f),
    )
    ok = (
        worst_const <= 0.01
        and worst_exp <= 0.01
        and all(0.5 < ratio < 2.0 for ratio in ratios)
        and ordering[0] < ordering[1] < ordering[2] < ordering[3]
    )
    _report(
        capsys,
        9,
        ok,
        f"plateau dev {worst_const:.2e} (<=1e-2), 1/n-law dev {worst_exp:.2e} (<=1e-2), "
        "boundary ratios " + ", ".join(f"{x:.3f}" for x in ratios) + " in (0.5, 2), "
        "curve ordering independent < exp < const < collective holds",
    )
