"""Check that sampled estimation runs hit the classical Fisher floor.

For a few small configurations, draw shots with the locally unbiased
estimator attached to the optimal measurement of the averaged state, and
compare the empirical MSE of phi_best against 1/F_classical and the
empirical mean against phi0.  A |z| beyond 3 in the table marks a
statistically significant miss.

Usage: python scripts/saturation_experiment.py [--shots K] [--seed S]
"""
from __future__ import annotations

import argparse
import sys

from dephimetry import (
    ExperimentConfig,
    GeneratorSpec,
    build_c1,
    build_c2,
    classical_fi,
    dephase,
    encode_phase,
    ghz_state,
    optimal_povm,
    product_plus_state,
    simulate,
)

CASES = [
    # label, state factory, n, covariance factory
    ("ghz n=1 identity", ghz_state, 1, lambda n: build_c1(n, 0.5, 0.0)),
    ("ghz n=2 c1(0.3)", ghz_state, 2, lambda n: build_c1(n, 0.4, 0.3)),
    ("ghz n=3 c2(0.5)", ghz_state, 3, lambda n: build_c2(n, 0.5, 0.5)),
    ("plus n=2 c1(0.6)", product_plus_state, 2, lambda n: build_c1(n, 0.5, 0.6)),
]


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shots", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--phi0", type=float, default=0.0)
    args = ap.parse_args(argv)

    print(f"{'case':<20} {'pred 1/F':>12} {'emp mse':>12} {'stderr':>10} {'z':>8}")
    worst = 0.0
    for i, (label, make_state, n, make_cov) in enumerate(CASES):
        gen = GeneratorSpec.qubits(n)
        rho = make_state(n)
        cov = make_cov(n)
        averaged = encode_phase(dephase(rho, gen, cov), gen, args.phi0)
        povm = optimal_povm(averaged, gen)
        cfg = ExperimentConfig(rho=rho, gen=gen, cov=cov, povm=povm, phi0=args.phi0,
                               rho_bar=averaged)
        res = simulate(cfg, args.shots, args.seed + i)
        pred = 1.0 / classical_fi(averaged, gen, povm)
        se = max(res.mse_stderr, 1e-12 * max(1.0, pred))
        z = (res.empirical_mse_best - pred) / se
        worst = max(worst, abs(z))
        print(
            f"{label:<20} {pred:>12.6g} {res.empirical_mse_best:>12.6g} "
            f"{res.mse_stderr:>10.3g} {z:>8.3f}"
        )
    print(f"worst |z| = {worst:.3f}")
    return 0 if worst <= 3.0 else 1


if __name__ == "__main__":
    sys.exit(run())
