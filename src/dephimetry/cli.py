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
import contextlib
import ctypes
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from . import bounds
from .bounds import _fmt
from .bayes import ExperimentConfig, _check_shots, simulate
from .core import GeneratorSpec, encode_phase, ghz_state, product_plus_state
from .covariance import (
    CovarianceMatrix,
    build_c1,
    build_c2,
    delta2_c1_closed,
    delta2_c2_closed,
    mass_c2_closed,
)
from .dephasing import dephase
from .errors import BoundViolationError, NumericalConsistencyError
from .fisher import _product_plus_qfi, classical_fi, optimal_povm, qfi  # noqa: F401

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_NUMERICAL = 3

# Named probe states: the dense state and its exact noiseless information.
PROBES = {
    "ghz": (ghz_state, lambda n: float(n) ** 2),
    "product-plus": (product_plus_state, float),
}
STATES = tuple(PROBES)
FAMILIES = ("c1", "c2", "identity")

# Dense 2^n x 2^n states are only built up to this many qubit sites; past it
# `bound`, `sweep` and `qfi` report f_rho_bar only where a closed form is known.
NUMERIC_SITE_LIMIT = 10

# `figure` grid sizes: at most this many points per axis, so the comparison
# panel has at most FIGURE_POINTS^2 rows.
FIGURE_POINTS = 500
# Most sites any command accepts: `bound`, `sweep` and `qfi` refuse n past it
# (the closed forms square n as a float), and `figure --n-max` stays inside it
# (its grid is cast to int64).
N_MAX = 10**18

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


@contextlib.contextmanager
def _output(path: Optional[str | Path], default: Optional[TextIO] = None):
    """The text file at `path`, opened for writing before the work that
    fills it, so that a path that cannot be written costs no work; `default`
    when path is None.  If anything fails once the file is open, the file is
    closed and removed (a regular file only, never a link or a device), so
    a failed command leaves no partial output behind."""
    if path is None:
        yield default
        return
    out = open(path, "w")
    try:
        with out:
            yield out
    except BaseException:
        path = Path(path)
        if path.is_file() and not path.is_symlink():
            with contextlib.suppress(OSError):
                path.unlink()
        raise


def _same_file(a: Optional[str], b: Optional[str]) -> bool:
    """Whether two output paths name one file: samefile when both exist,
    else the same resolved path; never when either is None."""
    if a is None or b is None:
        return False
    a, b = Path(a), Path(b)
    if a.exists() and b.exists():
        return a.samefile(b)
    return a.resolve() == b.resolve()


def _write_text(text: str, out: TextIO) -> None:
    """Every output but --per-shot goes through this one module-level name,
    so that a profiler can time the output layer."""
    out.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _csv_text(rows: Iterable[Iterable]) -> str:
    """CSV lines of rows, the header among them; every cell through _fmt."""
    return "".join(",".join(map(_fmt, row)) + "\n" for row in rows)


class Route(NamedTuple):
    """A family point as _route fixes it: _family_point's closed forms, the
    method of f_rho_bar, and the dense covariance or None."""

    delta2: float
    mass: float
    split: Optional[tuple[float, float]]
    method: str
    cov: Optional[CovarianceMatrix]


def _family_point(family: str, n: int, alpha: float, two_beta2: float):
    """The CLI's gate on family arguments, run before any work, and
    (delta2_c, 1^T C 1, split) of the point from closed forms.  Zero noise is
    every family's zero covariance, for any finite alpha; at positive noise
    c1 and c2 also pass covariance._check_family_args.  split is (a, b) with
    C = a 11^T + b I, declared from the arguments: (0, 2 beta^2) for identity
    noise or one site; (2 beta^2 alpha, 2 beta^2 - 2 beta^2 alpha) for every
    c1, and for c2 at alpha in {0, 1} or n = 2; None for any other c2."""
    if not 1 <= n <= N_MAX:
        raise ValueError(f"n must be between 1 and {N_MAX}")
    if not 0.0 <= two_beta2 < math.inf:
        raise ValueError("two_beta2 must be nonnegative and finite")
    if not math.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if two_beta2 == 0:
        return 0.0, 0.0, (0.0, 0.0)
    if family == "identity":
        return two_beta2 / n, two_beta2 * n, (0.0, two_beta2)
    collective = two_beta2 * alpha
    split = (collective, two_beta2 - collective) if n > 1 else (0.0, two_beta2)
    if family == "c1":
        delta2 = delta2_c1_closed(n, two_beta2, alpha)
        return delta2, two_beta2 * (n + n * (n - 1) * alpha), split
    if family == "c2":
        delta2 = delta2_c2_closed(n, two_beta2, alpha)
        blocks = alpha in (0.0, 1.0) or n <= 2
        return delta2, mass_c2_closed(n, two_beta2, alpha), split if blocks else None
    raise ValueError(f"unknown family {family!r}")


def _family_matrix(family: str, n: int, alpha: float, two_beta2: float) -> CovarianceMatrix:
    """The dense n x n covariance of a point that has passed the noise gate; zeros at zero noise."""
    if family == "identity" or two_beta2 == 0:
        return CovarianceMatrix(two_beta2 * np.eye(n))
    if family == "c1":
        return build_c1(n, two_beta2, alpha)
    if family == "c2":
        return build_c2(n, two_beta2, alpha)
    raise ValueError(f"unknown family {family!r}")


def _route(state: str, family: str, n: int, alpha: float, two_beta2: float,
           dense_state: bool = False, **phases: float) -> Route:
    """The gate of every command on one family point, run before any output
    opens, and the one choice of method: closed-form (N^2 e^{-1^T C 1} for
    GHZ; at zero noise the mass is 0, so f_rho), then none past
    NUMERIC_SITE_LIMIT, then schur-weyl under a declared split, else dense.
    A command that builds the dense state (dephase, simulate) meets the
    CLI's one refusal of sizes past NUMERIC_SITE_LIMIT first, and its phases
    must be finite.  The covariance is built, with its own checks, for the
    dense method or a dense-state command."""
    if dense_state and n > NUMERIC_SITE_LIMIT:
        raise ValueError(f"dense states are limited to n <= {NUMERIC_SITE_LIMIT}")
    delta2, mass, split = _family_point(family, n, alpha, two_beta2)
    for name, value in phases.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if state == "ghz" or two_beta2 == 0:
        method = "closed-form"
    elif n > NUMERIC_SITE_LIMIT:
        method = "none"
    elif split is not None:
        method = "schur-weyl"
    else:
        method = "dense"
    build = dense_state or method == "dense"
    cov = _family_matrix(family, n, alpha, two_beta2) if build else None
    return Route(delta2, mass, split, method, cov)


def _f_rho_bar(state: str, n: int, route: Route) -> Optional[float]:
    """f_rho_bar of a named probe at n sites by the route's method."""
    if route.method == "closed-form":
        return PROBES[state][1](n) * math.exp(-route.mass)
    if route.method == "schur-weyl":
        return _product_plus_qfi(n, *route.split)
    if route.method == "dense":
        return qfi(PROBES[state][0](n), GeneratorSpec.qubits(n), route.cov)
    return None


def grid_report(
    state: str, family: str, n: int, alpha: float, two_beta2: float,
    *, route: Optional[Route] = None,
) -> bounds.BoundReport:
    """Assemble one BoundReport for a named probe and covariance family, by
    `route` when the caller's gate has fixed it (so its covariance is built
    once), else by _route."""
    if route is None:
        route = _route(state, family, n, alpha, two_beta2)
    return bounds.bound_report(
        route.delta2, PROBES[state][1](n), family=family, n=n, alpha=alpha, two_beta2=two_beta2,
        reference_g_value=bounds.reference_bound_g(n, two_beta2),
        f_rho_bar=_f_rho_bar(state, n, route),
    )


def _emit_record(record: dict, fmt: str, out: TextIO) -> None:
    """One record as JSON, or as a CSV header and row."""
    text = _csv_text([record.keys(), record.values()]) if fmt == "csv" else _json_text(record)
    _write_text(text, out)


def cmd_bound(args) -> int:
    point = (args.state, args.family, args.n, args.alpha, args.two_beta2)
    route = _route(*point)
    bounds.reference_bound_g(args.n, args.two_beta2)
    with _output(args.out, sys.stdout) as out:
        _emit_record(grid_report(*point, route=route).to_dict(), args.format, out)
    return EXIT_OK


def cmd_qfi(args) -> int:
    # Without --family the noise flags go unused: only n meets the gate.
    noise = (args.alpha, args.two_beta2) if args.family else (0.0, 0.0)
    route = _route(args.state, args.family or "identity", args.n, *noise)
    payload = {"state": args.state, "n": args.n, "f_rho": PROBES[args.state][1](args.n)}
    with _output(args.out, sys.stdout) as out:
        if args.family is not None:
            payload.update(
                family=args.family,
                alpha=args.alpha,
                two_beta2=args.two_beta2,
                f_rho_bar=_f_rho_bar(args.state, args.n, route),
            )
        _emit_record(payload, args.format, out)
    return EXIT_OK


def cmd_dephase(args) -> int:
    point = (args.state, args.family, args.n, args.alpha, args.two_beta2)
    cov = _route(*point, dense_state=True, phi=args.phi).cov
    with _output(args.out, sys.stdout) as out:
        gen = GeneratorSpec.qubits(args.n)
        state = dephase(PROBES[args.state][0](args.n), gen, cov)
        if args.phi != 0.0:
            state = encode_phase(state, gen, args.phi)
        a = state.entries
        if args.format == "csv":
            cells = (
                (i, j, z.real, z.imag)
                for i, row in enumerate(a)
                for j, z in enumerate(row.tolist())
            )
            _write_text(_csv_text(itertools.chain([("row", "col", "real", "imag")], cells)), out)
        else:
            payload = {
                "dim": state.dim,
                "real": a.real.tolist(),
                "imag": a.imag.tolist(),
            }
            _write_text(_json_text(payload), out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    point = (args.state, args.family, args.n, args.alpha, args.two_beta2)
    route = _route(*point, dense_state=True, phi0=args.phi0, delta_phi=args.delta_phi)
    if not route.delta2 >= sys.float_info.min:
        # Zero delta2_c leaves no local information; a subnormal one overflows 1 / delta2_c.
        raise ValueError(f"simulate needs two_beta2 with delta2_c >= {sys.float_info.min!r}")
    _check_shots(args.shots)
    if args.seed is not None and args.seed < 0:
        raise ValueError(f"--seed must be a nonnegative integer, not {args.seed}")
    if _same_file(args.out, args.per_shot):
        raise ValueError(f"--out and --per-shot name one file: {args.per_shot}")
    # Both outputs are opened before any seed is drawn.
    with _output(args.out, sys.stdout) as out, _output(args.per_shot) as per_shot:
        gen, rho = GeneratorSpec.qubits(args.n), PROBES[args.state][0](args.n)
        seed = args.seed
        if seed is None:
            seed = int.from_bytes(os.urandom(8), "big")
            print(f"drawn seed: {seed}", file=sys.stderr)
        averaged = encode_phase(dephase(rho, gen, route.cov), gen, args.phi0)
        povm = optimal_povm(averaged, gen)
        cfg = ExperimentConfig(
            rho=rho, gen=gen, cov=route.cov, povm=povm, phi0=args.phi0, delta_phi=args.delta_phi,
            rho_bar=averaged,
        )
        on_chunk = None if per_shot is None else _per_shot_writer(args.n, per_shot)
        result = simulate(cfg, args.shots, seed, on_chunk)
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
        inputs = ("state", "n", "family", "alpha", "two_beta2", "phi0", "delta_phi", "shots")
        payload = {key: getattr(args, key) for key in inputs}
        payload.update(
            seed=seed,
            predicted_mse=predicted,
            empirical_mse_best=result.empirical_mse_best,
            mse_stderr=result.mse_stderr,
            empirical_mean=result.empirical_mean,
            mean_stderr=result.mean_stderr,
            z_score=z_score,
            undefined_variance=undefined,
            chunks=result.chunks,
            clamped=result.clamped,
            excluded=result.excluded,
        )
        _write_text(_json_text(payload), out)
    return EXIT_OK


def _per_shot_writer(n: int, out: TextIO):
    """simulate's per-chunk callback that writes the --per-shot CSV to the
    open text file `out`, in the bytes _csv_text gives the rows (shot index,
    the n phases, outcome, estimate): the header now, then each chunk as one
    %-format of a repeated row template (%.17g is _fmt's float format)."""
    header = ["shot", *(f"phi_{j + 1}" for j in range(n)), "outcome", "estimate"]
    template = "%d," + "%.17g," * n + "%d,%.17g\n"
    out.write(_csv_text([header]))
    shot = 0

    def write(phases: np.ndarray, outcomes: np.ndarray, estimates: np.ndarray) -> None:
        nonlocal shot
        size = len(outcomes)
        columns = (range(shot, shot + size), *phases.T.tolist(), outcomes.tolist(),
                   estimates.tolist())
        out.write(template * size % tuple(itertools.chain.from_iterable(zip(*columns))))
        shot += size

    return write


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
    # state outermost, two_beta2 innermost
    points = list(itertools.product(*(grids[key] for key in _SWEEP_KEYS)))
    routes = []
    for state, family, n, alpha, two_beta2 in points:
        routes.append(_route(state, family, n, alpha, two_beta2))
        bounds.reference_bound_g(n, two_beta2)
    with _output(args.out, sys.stdout) as out:
        rows = (grid_report(*pt, route=route).to_dict().values()
                for pt, route in zip(points, routes))
        _write_text(_csv_text([bounds.CSV_FIELDS, *rows]), out)
    return EXIT_OK


def _log_int_grid(maximum: int, points: int) -> np.ndarray:
    grid = np.unique(np.round(np.logspace(0.0, math.log10(maximum), points)).astype(int))
    return grid[grid >= 1]


def cmd_figure(args) -> int:
    # Every flag is gated before the output directory is made.
    for flag, value, limit in (
        ("--n-max", args.n_max, N_MAX),
        ("--n-points", args.n_points, FIGURE_POINTS),
        ("--b2-points", args.b2_points, FIGURE_POINTS),
    ):
        if not 1 <= value <= limit:
            raise ValueError(f"{flag} must be between 1 and {limit}")
    if args.panel == "scaling":
        if not 0.0 <= args.two_beta2 < math.inf:
            raise ValueError("two_beta2 must be nonnegative and finite")
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

    def save(name: str, rows: Iterable[Iterable]) -> None:
        with _output(outdir / name) as out:
            _write_text(_csv_text(rows), out)

    ns = [int(n) for n in _log_int_grid(args.n_max, args.n_points)]
    if args.panel == "scaling":
        rows = [("n", "independent", "collective", "c1", "c2")]
        for n in ns:
            curves = [_family_point(f, n, a, args.two_beta2)[0] for f, a in SCALING_CURVES]
            rows.append((n, *(bounds.error_bound(d2, float(n) ** 2) for d2 in curves)))
        save("scaling-panel.csv", rows)
        return EXIT_OK

    b2s = np.logspace(math.log10(args.b2_min), math.log10(args.b2_max), args.b2_points)
    report = bounds.crossover(ns, list(b2s))
    grid = (
        (int(n), b2, bounds.error_bound(b2 / n, float(n) ** 2),
         bounds.reference_bound_g(int(n), float(b2)), int(report.independent_tighter[i, j]))
        for i, n in enumerate(report.n_values)
        for j, b2 in enumerate(report.two_beta2_values)
    )
    header = ("n", "two_beta2", "independent_error_bound", "reference_g", "independent_tighter")
    save("comparison-panel-grid.csv", itertools.chain([header], grid))
    boundary = zip(report.n_values.tolist(), report.boundary, report.approx_boundary)
    save("comparison-panel-boundary.csv",
         itertools.chain([("n", "boundary_two_beta2", "approx_two_beta2")], boundary))
    return EXIT_OK


def _one_blas_thread() -> None:
    """Set the OpenBLAS mapped into this process to one thread, through the
    setter named as in numpy's builds, so that output does not depend on the
    thread count: the last bits of LAPACK's eigh follow it, and
    OPENBLAS_NUM_THREADS is read when numpy loads, before main runs.  Where
    there is no such library, or no /proc/self/maps to find it by, nothing
    is set."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
        for lib in map(ctypes.CDLL, sorted(paths)):
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                         "openblas_set_num_threads"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)
                    return
    except OSError:
        pass


def _build_parser() -> _Parser:
    parser = _Parser(prog="dephimetry", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    real = dict(type=float, default=0.0)
    # Subcommands on one named probe: name, help, handler, --family default,
    # the command's own flags, and whether it offers --format.
    for name, summary, handler, family, flags, formats in (
        ("bound", "evaluate the precision ceiling", cmd_bound, "c1", (), True),
        ("qfi", "quantum Fisher information of a named probe", cmd_qfi, None, (), True),
        ("dephase", "emit the dephased state matrix", cmd_dephase, "identity",
         (("--phi", real),), True),
        ("simulate", "sampled estimation run", cmd_simulate, "identity", (
            ("--phi0", real), ("--delta-phi", real), ("--shots", dict(type=int, required=True)),
            ("--seed", dict(type=int)), ("--per-shot", {}),
        ), False),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--state", choices=STATES, default="ghz")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--family", choices=FAMILIES, default=family)
        p.add_argument("--alpha", **real)
        p.add_argument("--two-beta2", type=float, default=0.5)
        for flag, opts in flags:
            p.add_argument(flag, **opts)
        p.add_argument("--out", default=None)
        if formats:
            p.add_argument("--format", choices=("csv", "json"), default="json")
        p.set_defaults(handler=handler)

    p_sweep = sub.add_parser("sweep", help="grid of bound reports from a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(handler=cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit panel data files")
    p_fig.add_argument("panel", choices=("scaling", "comparison"))
    p_fig.add_argument("--out", default=".")
    p_fig.add_argument("--two-beta2", type=float, default=0.5)
    p_fig.add_argument("--n-max", type=int, default=10_000)
    p_fig.add_argument("--n-points", type=int, default=33)
    p_fig.add_argument("--b2-min", type=float, default=0.01)
    p_fig.add_argument("--b2-max", type=float, default=2.0)
    p_fig.add_argument("--b2-points", type=int, default=25)
    p_fig.set_defaults(handler=cmd_figure)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    _one_blas_thread()
    try:
        return args.handler(args)
    except BoundViolationError as exc:
        print(f"bound violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (NumericalConsistencyError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        # OSError: an output that cannot be written.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
