"""Output checks for the benchmark's CLI runs.

Every check returns a list of error strings; an empty list means the output
is correct.  Sweep rows are checked against closed forms written out here,
independently of the package, and against reference values recorded from
the dense path where no closed form exists.  `simulate` output is checked
against an in-process recomputation of the predicted error.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

# Dense eigendecomposition against a closed form or a recorded value.
DENSE_RTOL = 1e-9
# Closed-form arithmetic against closed-form arithmetic.
EXACT_RTOL = 1e-12
# Bound slack used by the CLI's own violation check.
VIOLATION_TOL = 1e-8
# |z| of the empirical MSE against the predicted one.  A correct run has
# z ~ N(0, 1) (GHZ probes give z ~ 0: the squared estimate is constant),
# so a false alarm at 6 sigma is below 1e-8 per run.
Z_BOUND = 6.0

# f_rho_bar of the product-plus probe at alpha > 0, where no closed form
# exists: values of the dense path recorded with numpy 2.4.6.
PRODUCT_PLUS_REFERENCE = {
    ("c1", 6, 0.5, 0.5): 2.1154461363285479,
    ("c1", 8, 0.5, 0.5): 2.4056316563758888,
    ("c1", 10, 0.5, 0.5): 2.61901270144108,
    ("c2", 6, 0.5, 0.5): 2.6375889159949857,
    ("c2", 8, 0.5, 0.5): 3.4055537094608219,
    ("c2", 10, 0.5, 0.5): 4.1730512295068465,
}


def _close(actual: float, expected: float, rtol: float) -> bool:
    return abs(actual - expected) <= rtol * max(abs(expected), 1e-300)


def covariance(family: str, n: int, alpha: float, two_beta2: float) -> np.ndarray:
    """The c1 (constant correlation) or c2 (exponential decay) matrix."""
    if family == "c1":
        cov = np.full((n, n), two_beta2 * alpha)
        np.fill_diagonal(cov, two_beta2)
        return cov
    if family == "c2":
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        return two_beta2 * alpha ** lag.astype(float)
    raise ValueError(f"no oracle for family {family!r}")


def delta2_closed(family: str, n: int, alpha: float, two_beta2: float) -> float:
    """(1^T C^-1 1)^-1 in closed form for the two families."""
    if family == "c1":
        return two_beta2 * (alpha + (1.0 - alpha) / n)
    if family == "c2":
        return two_beta2 * (1.0 + alpha) / (n * (1.0 - alpha) + 2.0 * alpha)
    raise ValueError(f"no oracle for family {family!r}")


def f_rho_bar_expected(state: str, family: str, n: int, alpha: float, two_beta2: float) -> float:
    """Dephased QFI: N^2 e^{-1^T C 1} for GHZ, N e^{-2 beta^2} for product-plus
    under independent noise, a recorded value otherwise."""
    if state == "ghz":
        return n * n * math.exp(-covariance(family, n, alpha, two_beta2).sum())
    if alpha == 0.0:
        return n * math.exp(-two_beta2)
    key = (family, n, alpha, two_beta2)
    if key not in PRODUCT_PLUS_REFERENCE:
        raise ValueError(f"no reference value for product-plus {key}")
    return PRODUCT_PLUS_REFERENCE[key]


def check_sweep_row(row: dict, point: tuple) -> list[str]:
    state, family, n, alpha, two_beta2 = point
    where = f"{state} {family} n={n} alpha={alpha}"
    try:
        got = {key: float(row[key]) for key in (
            "n", "alpha", "two_beta2", "delta2_c", "f_rho", "f_rho_bar",
            "main_bound", "error_bound", "reference_g",
        )}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{where}: unreadable row ({exc!r})"]
    errors = []
    if row.get("family") != family or (got["n"], got["alpha"], got["two_beta2"]) != (n, alpha, two_beta2):
        errors.append(f"{where}: row is for another point: {row}")
    if "state" in row and row["state"] != state:
        errors.append(f"{where}: state column reads {row['state']!r}")

    delta2 = delta2_closed(family, n, alpha, two_beta2)
    f_rho = float(n * n if state == "ghz" else n)
    error_bound = delta2 + 1.0 / f_rho
    expected = {
        "delta2_c": (delta2, EXACT_RTOL),
        "f_rho": (f_rho, 0.0),
        "f_rho_bar": (f_rho_bar_expected(state, family, n, alpha, two_beta2), DENSE_RTOL),
        "error_bound": (error_bound, EXACT_RTOL),
        "main_bound": (1.0 / error_bound, EXACT_RTOL),
        "reference_g": (math.expm1(two_beta2) / n, EXACT_RTOL),
    }
    for key, (value, rtol) in expected.items():
        if not _close(got[key], value, rtol):
            errors.append(f"{where}: {key} = {got[key]!r}, expected {value!r}")
    if got["f_rho_bar"] > got["main_bound"] * (1.0 + VIOLATION_TOL):
        errors.append(f"{where}: f_rho_bar {got['f_rho_bar']!r} exceeds the bound")
    return errors


def check_sweep(text: str, points: list[tuple]) -> list[str]:
    """Rows carry no state column today, so they are matched to grid order."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != len(points):
        return [f"sweep wrote {len(rows)} rows for {len(points)} grid points"]
    return [err for row, point in zip(rows, points) for err in check_sweep_row(row, point)]


def predicted_mse(spec) -> float:
    """1/CFI of the optimal measurement, recomputed through the package API
    the way `simulate` does; raises if it is below the quantum limit 1/QFI."""
    # Imported here: the runner puts src/ on sys.path only once it exists.
    from dephimetry import (
        GeneratorSpec, build_c1, build_c2, classical_fi, dephase, encode_phase,
        ghz_state, optimal_povm, product_plus_state, qfi,
    )

    gen = GeneratorSpec.qubits(spec.n)
    build = {"c1": build_c1, "c2": build_c2}[spec.family]
    cov = build(spec.n, spec.two_beta2, spec.alpha)
    rho = {"ghz": ghz_state, "product-plus": product_plus_state}[spec.state](spec.n)
    averaged = encode_phase(dephase(rho, gen, cov), gen, 0.0)
    predicted = 1.0 / classical_fi(averaged, gen, optimal_povm(averaged, gen))
    limit = 1.0 / qfi(averaged, gen)
    if predicted < limit * (1.0 - DENSE_RTOL):
        raise ValueError(f"predicted MSE {predicted!r} is below the quantum limit {limit!r}")
    return predicted


def check_simulate(payload: dict, spec, cli_seed: int, predicted: float) -> list[str]:
    inputs = {
        "state": spec.state, "n": spec.n, "family": spec.family, "alpha": spec.alpha,
        "two_beta2": spec.two_beta2, "shots": spec.shots, "seed": cli_seed,
    }
    errors = [
        f"{key} = {payload.get(key)!r}, expected {value!r}"
        for key, value in inputs.items()
        if payload.get(key) != value
    ]
    got = payload.get("predicted_mse")
    if not isinstance(got, (int, float)) or not _close(got, predicted, DENSE_RTOL):
        errors.append(f"predicted_mse = {got!r}, recomputed {predicted!r}")
    mse = payload.get("empirical_mse_best")
    if not isinstance(mse, (int, float)) or not math.isfinite(mse) or mse <= 0.0:
        errors.append(f"empirical_mse_best = {mse!r}")
    z = payload.get("z_score")
    if not isinstance(z, (int, float)) or not abs(z) <= Z_BOUND:
        errors.append(f"|z_score| = {z!r} is not within {Z_BOUND}")
    return errors
