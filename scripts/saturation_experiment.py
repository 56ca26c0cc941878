"""Check that sampled estimation runs hit the classical Fisher floor.

For a few small configurations, run `dephimetry simulate` (the locally
unbiased estimator attached to the optimal measurement of the averaged
state) and compare the empirical MSE of phi_best against 1/F_classical and
the empirical mean against phi0.  A |z| beyond 3 in the table marks a
statistically significant miss.

Usage: python scripts/saturation_experiment.py [--shots K] [--seed S]
"""
from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from dephimetry.cli import main as cli_main

CASES = [
    # label, simulate flags
    ("ghz n=1 identity", "--state ghz --n 1 --family identity --two-beta2 0.5"),
    ("ghz n=2 c1(0.3)", "--state ghz --n 2 --family c1 --two-beta2 0.4 --alpha 0.3"),
    ("ghz n=3 c2(0.5)", "--state ghz --n 3 --family c2 --two-beta2 0.5 --alpha 0.5"),
    ("plus n=2 c1(0.6)", "--state product-plus --n 2 --family c1 --two-beta2 0.5 --alpha 0.6"),
]


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--shots", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--phi0", type=float, default=0.0)
    args = ap.parse_args(argv)

    print(f"{'case':<20} {'pred 1/F':>12} {'emp mse':>12} {'stderr':>10} {'z':>8}")
    worst = 0.0
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "simulate.json"
        for i, (label, flags) in enumerate(CASES):
            rc = cli_main(["simulate", *flags.split(), "--phi0", str(args.phi0),
                           "--shots", str(args.shots), "--seed", str(args.seed + i),
                           "--out", str(out)])
            if rc != 0:
                return rc
            res = json.loads(out.read_text())
            if res["undefined_variance"]:
                print(f"{label}: no z-score from {args.shots} shot(s); need at least 2",
                      file=sys.stderr)
                return 1
            worst = max(worst, abs(res["z_score"]))
            print(
                f"{label:<20} {res['predicted_mse']:>12.6g} {res['empirical_mse_best']:>12.6g} "
                f"{res['mse_stderr']:>10.3g} {res['z_score']:>8.3f}"
            )
    print(f"worst |z| = {worst:.3f}")
    return 0 if worst <= 3.0 else 1


if __name__ == "__main__":
    sys.exit(run())
