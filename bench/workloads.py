"""The benchmark's workloads: CLI argument lists built from a run's seed.

Each workload repeats one kind of `dephimetry` invocation.  The seed only
changes inputs that leave the work the same: the value order inside each
sweep grid key, and the `--seed` of each `simulate` run.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path

import check

SWEEP_KEYS = ("state", "family", "n", "alpha", "two_beta2")


@dataclass(frozen=True)
class SweepGrid:
    """A `sweep` config; the CLI nests keys in SWEEP_KEYS order, state outermost."""

    state: tuple[str, ...]
    family: tuple[str, ...]
    n: tuple[int, ...]
    alpha: tuple[float, ...]
    two_beta2: tuple[float, ...]

    def points(self) -> list[tuple[str, str, int, float, float]]:
        return [
            (state, family, n, alpha, two_beta2)
            for state in self.state
            for family in self.family
            for n in self.n
            for alpha in self.alpha
            for two_beta2 in self.two_beta2
        ]

    def config_text(self) -> str:
        return "".join(
            f"{key} = {', '.join(str(v) for v in getattr(self, key))}\n" for key in SWEEP_KEYS
        )

    def shuffled(self, rng: random.Random) -> "SweepGrid":
        return SweepGrid(**{key: tuple(rng.sample(getattr(self, key), len(getattr(self, key))))
                            for key in SWEEP_KEYS})


@dataclass(frozen=True)
class SimulateSpec:
    """One `simulate` configuration; only the CLI seed varies between runs."""

    state: str
    n: int
    family: str
    alpha: float
    two_beta2: float
    shots: int


@dataclass(frozen=True)
class SweepPlan:
    grid: SweepGrid
    config: Path

    items_name = "grid points"

    @classmethod
    def make(cls, grid: SweepGrid, seed: int, workdir: Path) -> "SweepPlan":
        grid = grid.shuffled(random.Random(seed))
        config = workdir / "sweep.cfg"
        config.write_text(grid.config_text())
        return cls(grid, config)

    @property
    def items(self) -> int:
        return len(self.grid.points())

    def argv(self, index: int, out: Path) -> list[str]:
        return ["sweep", "--config", str(self.config), "--out", str(out)]

    def check(self, index: int, out: Path) -> list[str]:
        try:
            text = out.read_text()
        except OSError as exc:
            return [f"no sweep output: {exc}"]
        return check.check_sweep(text, self.grid.points())


@dataclass(frozen=True)
class SimulatePlan:
    spec: SimulateSpec
    seed: int

    items_name = "shots"

    @classmethod
    def make(cls, spec: SimulateSpec, seed: int, workdir: Path) -> "SimulatePlan":
        return cls(spec, seed)

    @property
    def items(self) -> int:
        return self.spec.shots

    def cli_seed(self, index: int) -> int:
        return self.seed * 100_000 + index

    def argv(self, index: int, out: Path) -> list[str]:
        s = self.spec
        return [
            "simulate",
            "--state", s.state,
            "--n", str(s.n),
            "--family", s.family,
            "--alpha", str(s.alpha),
            "--two-beta2", str(s.two_beta2),
            "--shots", str(s.shots),
            "--seed", str(self.cli_seed(index)),
            "--out", str(out),
        ]

    @cached_property
    def predicted(self) -> float:
        return check.predicted_mse(self.spec)

    def check(self, index: int, out: Path) -> list[str]:
        try:
            payload = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return [f"no simulate output: {exc}"]
        try:
            predicted = self.predicted
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            return [f"cannot recompute the predicted MSE: {exc!r}"]
        return check.check_simulate(payload, self.spec, self.cli_seed(index), predicted)


# Workload name -> plan maker, called with (seed, workdir).  bench/README.md
# gives the reason for each workload at length.
WORKLOADS = {
    # Dense eigendecompositions (state validation, dephase, qfi) up to n=10;
    # no POVM, no sampling.  c1 and c2 coincide at alpha=0, so 25% of the
    # points repeat a covariance: the only place sweep memoisation shows.
    "sweep-dense": partial(SweepPlan.make, SweepGrid(
        state=("ghz", "product-plus"),
        family=("c1", "c2"),
        n=(6, 8, 10),
        alpha=(0.0, 0.5),
        two_beta2=(0.5,),
    )),
    # 4 chunks at dim 64: the chunk kernel's dim^2-per-shot tensor sets both
    # time and peak memory.
    "simulate-wide": partial(SimulatePlan.make, SimulateSpec("ghz", 6, "c2", 0.5, 0.5, 32768)),
    # 128 chunks at dim 8: per-chunk overhead, RNG draws and CDF inversion.
    # A batching change that wins on simulate-wide must not lose here.
    "simulate-many": partial(
        SimulatePlan.make, SimulateSpec("product-plus", 3, "c1", 0.3, 0.5, 1_048_576)
    ),
    # 256 dense projectors, the estimator table and classical_fi dominate;
    # the only workload where the measurement layer costs more than 30 ms.
    "measure-n8": partial(SimulatePlan.make, SimulateSpec("ghz", 8, "c2", 0.5, 0.5, 256)),
}
