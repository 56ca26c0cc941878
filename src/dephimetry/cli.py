"""Command line front end.

Subcommands
-----------
bound     evaluate the precision ceiling for a named probe state and family
qfi       quantum Fisher information of a named probe state, optionally dephased
dephase   emit the dephased (optionally rotated) state matrix
simulate  sampled estimation run with the locally unbiased estimator
sweep     grid of bound reports driven by a key = value config file
figure    data files for the scaling and comparison panels

Exit codes: 0 success, 1 usage error, 2 bound violation, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bounds
from .bounds import _fmt
from .bayes import ExperimentConfig, simulate
from .core import DensityMatrix, GeneratorSpec, encode_phase, ghz_state, product_plus_state
from .covariance import (
    CovarianceMatrix,
    build_c1,
    build_c2,
    delta2_c1_closed,
    delta2_c2_closed,
)
from .dephasing import dephase
from .errors import BoundViolationError, NumericalConsistencyError
from .fisher import optimal_povm, qfi

# Not called here since simulate reports its own predicted_mse; the name
# stays because bench/tracing.py rebinds it for a per-layer metric.
from .fisher import classical_fi  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3

STATES = ("ghz", "product-plus")
FAMILIES = ("c1", "c2", "identity")

# Dense 2^n x 2^n states are only built up to this many qubit sites; past it
# `bound` and `sweep` fall back to exact closed forms where known.
NUMERIC_SITE_LIMIT = 10

_SWEEP_KEYS = ("state", "family", "n", "alpha", "two_beta2")

# Scaling panel curves: fixed families and correlation strengths.  The
# constant-correlation curve (alpha 0.9) plateaus at two_beta2 * alpha; the
# exponential-decay curve (alpha 0.2) keeps the 1/N scaling.
SCALING_C1_ALPHA = 0.9
SCALING_C2_ALPHA = 0.2
# (family, alpha) per panel column: independent, collective, c1, c2.
SCALING_CURVES = (("identity", 0.0), ("c1", 1.0), ("c1", SCALING_C1_ALPHA), ("c2", SCALING_C2_ALPHA))


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _write_text(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _make_state(state: str, n: int) -> DensityMatrix:
    if state == "ghz":
        return ghz_state(n)
    if state == "product-plus":
        return product_plus_state(n)
    raise ValueError(f"unknown state {state!r}")


def _state_qfi_exact(state: str, n: int) -> float:
    # Exact noiseless information for the named probes.
    return float(n) ** 2 if state == "ghz" else float(n)


def _check_noise_args(n: int, alpha: float, two_beta2: float) -> None:
    """The CLI's gate on family arguments, run before any work.  Zero noise
    is the noiseless point of every family; c1 and c2 then also pass
    covariance._check_family_args when their matrix or closed form is built."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= two_beta2 < math.inf:
        raise ValueError("two_beta2 must be nonnegative and finite")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")


def _family_delta2(family: str, n: int, alpha: float, two_beta2: float) -> float:
    """Closed-form delta2_c of a family behind the noise gate; 0 at zero noise."""
    _check_noise_args(n, alpha, two_beta2)
    if two_beta2 == 0:
        return 0.0
    if family == "identity":
        return two_beta2 / n
    if family == "c1":
        return delta2_c1_closed(n, two_beta2, alpha)
    if family == "c2":
        return delta2_c2_closed(n, two_beta2, alpha)
    raise ValueError(f"unknown family {family!r}")


def _family_matrix(family: str, n: int, alpha: float, two_beta2: float) -> CovarianceMatrix:
    _check_noise_args(n, alpha, two_beta2)
    if family == "identity":
        return CovarianceMatrix(two_beta2 * np.eye(n))
    if family == "c1":
        return build_c1(n, two_beta2, alpha)
    if family == "c2":
        return build_c2(n, two_beta2, alpha)
    raise ValueError(f"unknown family {family!r}")


def _family_mass(family: str, n: int, alpha: float, two_beta2: float) -> float:
    """Sum of all covariance entries, 1^T C 1."""
    if family == "identity":
        return two_beta2 * n
    if family == "c1":
        return two_beta2 * (n + n * (n - 1) * alpha)
    if family == "c2":
        lags = np.arange(1, n)
        return two_beta2 * (n + 2.0 * float(((n - lags) * alpha**lags).sum()))
    raise ValueError(f"unknown family {family!r}")


def _dense_setup(
    state: str, n: int, family: Optional[str] = None, alpha: float = 0.0, two_beta2: float = 0.0
):
    """(generator, dense probe, covariance or None when no family is named);
    the CLI's one refusal of sizes past NUMERIC_SITE_LIMIT."""
    if n > NUMERIC_SITE_LIMIT:
        raise ValueError(f"dense states are limited to n <= {NUMERIC_SITE_LIMIT}")
    cov = None if family is None else _family_matrix(family, n, alpha, two_beta2)
    return GeneratorSpec.qubits(n), _make_state(state, n), cov


def grid_report(
    state: str,
    family: str,
    n: int,
    alpha: float,
    two_beta2: float,
    *,
    dephased_qfi: Optional[dict] = None,
) -> bounds.BoundReport:
    """Assemble one BoundReport for a named probe and covariance family.

    `dephased_qfi` maps (state, n, covariance entry bytes) to the dephased
    QFI; a caller that passes one dict to several reports computes each
    distinct dephased state once."""
    d2 = _family_delta2(family, n, alpha, two_beta2)
    reference_g = bounds.reference_bound_g(n, two_beta2)
    f_rho = _state_qfi_exact(state, n)
    f_rho_bar = None
    if two_beta2 == 0:
        f_rho_bar = f_rho
    elif n <= NUMERIC_SITE_LIMIT:
        cov = _family_matrix(family, n, alpha, two_beta2)
        known = {} if dephased_qfi is None else dephased_qfi
        key = (state, n, cov.entries.tobytes())
        if key not in known:
            gen, rho, _ = _dense_setup(state, n)
            rho = dephase(rho, gen, cov)  # the probe is freed before qfi's peak
            known[key] = qfi(rho, gen)
        f_rho_bar = known[key]
    elif state == "ghz":
        f_rho_bar = f_rho * math.exp(-_family_mass(family, n, alpha, two_beta2))

    err = bounds.error_bound(d2, f_rho)
    report = bounds.BoundReport(
        family=family,
        n=n,
        alpha=alpha,
        two_beta2=two_beta2,
        delta2_c=d2,
        f_rho=f_rho,
        f_rho_bar=f_rho_bar,
        main_bound_value=1.0 / err,
        error_bound_value=err,
        reference_g_value=reference_g,
    )
    return bounds.check_violation(report)


def _emit_reports(reports: list[bounds.BoundReport], fmt: str, out: Optional[str]) -> None:
    """CSV rows for any number of reports; JSON for the one report of `bound`."""
    if fmt == "csv":
        lines = [bounds.csv_header()] + [r.csv_row() for r in reports]
        _write_text("\n".join(lines) + "\n", out)
    else:
        (report,) = reports
        _write_text(_json_text(report.to_dict()), out)


def cmd_bound(args) -> int:
    report = grid_report(args.state, args.family, args.n, args.alpha, args.two_beta2)
    _emit_reports([report], args.format, args.out)
    return EXIT_OK


def cmd_qfi(args) -> int:
    gen, rho, cov = _dense_setup(args.state, args.n, args.family, args.alpha, args.two_beta2)
    payload = {"state": args.state, "n": args.n, "f_rho": qfi(rho, gen)}
    if cov is not None:
        payload.update(
            family=args.family,
            alpha=args.alpha,
            two_beta2=args.two_beta2,
            f_rho_bar=qfi(dephase(rho, gen, cov), gen),
        )
    if args.format == "csv":
        keys = list(payload)
        lines = [",".join(keys)]
        lines.append(",".join(_fmt(payload[k]) for k in keys))
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        _write_text(_json_text(payload), args.out)
    return EXIT_OK


def cmd_dephase(args) -> int:
    gen, state, cov = _dense_setup(args.state, args.n, args.family, args.alpha, args.two_beta2)
    state = dephase(state, gen, cov)
    if args.phi != 0.0:
        state = encode_phase(state, gen, args.phi)
    a = state.entries
    if args.format == "csv":
        lines = ["row,col,real,imag"]
        for i in range(state.dim):
            for j in range(state.dim):
                lines.append(f"{i},{j},{_fmt(a[i, j].real)},{_fmt(a[i, j].imag)}")
        _write_text("\n".join(lines) + "\n", args.out)
    else:
        payload = {
            "dim": state.dim,
            "real": a.real.tolist(),
            "imag": a.imag.tolist(),
        }
        _write_text(_json_text(payload), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.two_beta2 == 0:
        # No noise leaves delta2_c = 0: no estimator has local information.
        raise ValueError("simulate needs two_beta2 > 0")
    gen, rho, cov = _dense_setup(args.state, args.n, args.family, args.alpha, args.two_beta2)
    seed = args.seed
    if seed is None:
        seed = int.from_bytes(os.urandom(8), "big")
        print(f"drawn seed: {seed}", file=sys.stderr)
    averaged = encode_phase(dephase(rho, gen, cov), gen, args.phi0)
    povm = optimal_povm(averaged, gen)
    cfg = ExperimentConfig(
        rho=rho, gen=gen, cov=cov, povm=povm, phi0=args.phi0, delta_phi=args.delta_phi,
        rho_bar=averaged,
    )
    result = simulate(cfg, args.shots, seed)
    predicted = result.predicted_mse

    undefined = result.mse_stderr is None
    if undefined:
        z_score = None
    else:
        # Floor the denominator at numerical resolution: measurements whose
        # squared estimate is constant give stderr at rounding level, and the
        # exact agreement should read as z ~ 0, not 0/0 noise.
        slack = max(result.mse_stderr, 1e-12 * max(1.0, abs(predicted)))
        z_score = (result.empirical_mse_best - predicted) / slack
    payload = {
        "state": args.state,
        "n": args.n,
        "family": args.family,
        "alpha": args.alpha,
        "two_beta2": args.two_beta2,
        "phi0": args.phi0,
        "delta_phi": args.delta_phi,
        "shots": args.shots,
        "seed": seed,
        "predicted_mse": predicted,
        "empirical_mse_best": result.empirical_mse_best,
        "mse_stderr": result.mse_stderr,
        "empirical_mean": result.empirical_mean,
        "mean_stderr": result.mean_stderr,
        "z_score": z_score,
        "undefined_variance": undefined,
    }
    _write_text(_json_text(payload), args.out)
    if args.per_shot is not None:
        header = ["shot"] + [f"phi_{j + 1}" for j in range(args.n)] + ["outcome", "estimate"]
        lines = [",".join(header)]
        for row in result.per_shot_rows():
            shot, *phases, outcome, estimate = row
            lines.append(
                ",".join([str(shot)] + [_fmt(p) for p in phases] + [str(outcome), _fmt(estimate)])
            )
        Path(args.per_shot).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def parse_sweep_config(text: str) -> dict[str, list]:
    """Flat key = value grids; '#' starts a comment, commas separate values."""
    grids: dict[str, list] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in grids:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
        try:
            if key == "n":
                grids[key] = [int(tok) for tok in tokens]
            elif key in ("alpha", "two_beta2"):
                grids[key] = [float(tok) for tok in tokens]
            else:
                for tok in tokens:
                    allowed = STATES if key == "state" else FAMILIES
                    if tok not in allowed:
                        raise ConfigError(
                            f"line {lineno}: {key} value {tok!r} not in {allowed}"
                        )
                grids[key] = tokens
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad {key} value ({exc})") from exc
    missing = [key for key in _SWEEP_KEYS if key not in grids]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return grids


def cmd_sweep(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    grids = parse_sweep_config(text)
    points = [
        (state, family, n, alpha, two_beta2)
        for state in grids["state"]
        for family in grids["family"]
        for n in grids["n"]
        for alpha in grids["alpha"]
        for two_beta2 in grids["two_beta2"]
    ]
    dephased_qfi: dict = {}
    reports = [grid_report(*pt, dephased_qfi=dephased_qfi) for pt in points]
    _emit_reports(reports, "csv", args.out)
    return EXIT_OK


def _log_int_grid(maximum: int, points: int) -> np.ndarray:
    grid = np.unique(np.round(np.logspace(0.0, math.log10(maximum), points)).astype(int))
    return grid[grid >= 1]


def cmd_figure(args) -> int:
    # Every flag is gated before the output directory is made.
    for flag, value in (
        ("--n-max", args.n_max), ("--n-points", args.n_points), ("--b2-points", args.b2_points)
    ):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if args.panel == "scaling":
        # the noise gate of `bound`, which the panel's curves share
        _check_noise_args(1, 0.0, args.two_beta2)
        bounds.reference_bound_g(1, args.two_beta2)
    else:
        for flag, value in (("--b2-min", args.b2_min), ("--b2-max", args.b2_max)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{flag} must be positive and finite")
            try:
                bounds.reference_bound_g(1, value)
            except ValueError as exc:
                raise ValueError(f"{flag}: {exc}") from None
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    ns = _log_int_grid(args.n_max, args.n_points)
    if args.panel == "scaling":
        lines = ["n,independent,collective,c1,c2"]
        for n in ns:
            n = int(n)
            cells = [
                bounds.error_bound(_family_delta2(family, n, alpha, args.two_beta2), float(n) ** 2)
                for family, alpha in SCALING_CURVES
            ]
            lines.append(",".join([str(n)] + [_fmt(c) for c in cells]))
        (outdir / "scaling-panel.csv").write_text("\n".join(lines) + "\n")
        return EXIT_OK

    b2s = np.logspace(math.log10(args.b2_min), math.log10(args.b2_max), args.b2_points)
    report = bounds.crossover([int(n) for n in ns], list(b2s))
    grid_lines = ["n,two_beta2,independent_error_bound,reference_g,independent_tighter"]
    for i, n in enumerate(report.n_values):
        for j, b2 in enumerate(report.two_beta2_values):
            ours = bounds.error_bound(b2 / n, float(n) ** 2)
            theirs = bounds.reference_bound_g(int(n), float(b2))
            grid_lines.append(
                f"{int(n)},{_fmt(b2)},{_fmt(ours)},{_fmt(theirs)},"
                f"{int(report.independent_tighter[i, j])}"
            )
    boundary_lines = ["n,boundary_two_beta2,approx_two_beta2"]
    for i, n in enumerate(report.n_values):
        boundary_lines.append(
            f"{int(n)},{_fmt(report.boundary[i])},{_fmt(report.approx_boundary[i])}"
        )
    (outdir / "comparison-panel-grid.csv").write_text("\n".join(grid_lines) + "\n")
    (outdir / "comparison-panel-boundary.csv").write_text("\n".join(boundary_lines) + "\n")
    return EXIT_OK


def _add_family_flags(parser, alpha_default=0.0, two_beta2_default=0.5, family_default="c1"):
    parser.add_argument("--family", choices=FAMILIES, default=family_default)
    parser.add_argument("--alpha", type=float, default=alpha_default)
    parser.add_argument("--two-beta2", dest="two_beta2", type=float, default=two_beta2_default)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dephimetry", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bound = sub.add_parser("bound", help="evaluate the precision ceiling")
    p_bound.add_argument("--state", choices=STATES, default="ghz")
    p_bound.add_argument("--n", type=int, required=True)
    _add_family_flags(p_bound)
    p_bound.add_argument("--out", default=None)
    p_bound.add_argument("--format", choices=("csv", "json"), default="json")
    p_bound.set_defaults(handler=cmd_bound)

    p_qfi = sub.add_parser("qfi", help="quantum Fisher information of a named probe")
    p_qfi.add_argument("--state", choices=STATES, default="ghz")
    p_qfi.add_argument("--n", type=int, required=True)
    p_qfi.add_argument("--family", choices=FAMILIES, default=None)
    p_qfi.add_argument("--alpha", type=float, default=0.0)
    p_qfi.add_argument("--two-beta2", dest="two_beta2", type=float, default=0.5)
    p_qfi.add_argument("--out", default=None)
    p_qfi.add_argument("--format", choices=("csv", "json"), default="json")
    p_qfi.set_defaults(handler=cmd_qfi)

    p_dep = sub.add_parser("dephase", help="emit the dephased state matrix")
    p_dep.add_argument("--state", choices=STATES, default="ghz")
    p_dep.add_argument("--n", type=int, required=True)
    _add_family_flags(p_dep, family_default="identity")
    p_dep.add_argument("--phi", type=float, default=0.0)
    p_dep.add_argument("--out", default=None)
    p_dep.add_argument("--format", choices=("csv", "json"), default="json")
    p_dep.set_defaults(handler=cmd_dephase)

    p_sim = sub.add_parser("simulate", help="sampled estimation run")
    p_sim.add_argument("--state", choices=STATES, default="ghz")
    p_sim.add_argument("--n", type=int, required=True)
    _add_family_flags(p_sim, family_default="identity")
    p_sim.add_argument("--phi0", type=float, default=0.0)
    p_sim.add_argument("--delta-phi", dest="delta_phi", type=float, default=0.0)
    p_sim.add_argument("--shots", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--per-shot", dest="per_shot", default=None)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(handler=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="grid of bound reports from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit panel data files")
    p_fig.add_argument("panel", choices=("scaling", "comparison"))
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--two-beta2", dest="two_beta2", type=float, default=0.5)
    p_fig.add_argument("--n-max", dest="n_max", type=int, default=10_000)
    p_fig.add_argument("--n-points", dest="n_points", type=int, default=33)
    p_fig.add_argument("--b2-min", dest="b2_min", type=float, default=0.01)
    p_fig.add_argument("--b2-max", dest="b2_max", type=float, default=2.0)
    p_fig.add_argument("--b2-points", dest="b2_points", type=int, default=25)
    p_fig.set_defaults(handler=cmd_figure)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (NumericalConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
