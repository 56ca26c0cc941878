"""Precision ceilings for phase estimation under correlated dephasing.

The central inequality caps the dephased quantum Fisher information by the
harmonic combination of the effective phase variance and the noiseless
information:

    F_dephased <= (delta2_c + 1/F)^{-1} = main_bound,

equivalently the error floor error_bound = delta2_c + 1/F.  The fully
correlated and independent specializations follow by plugging in
delta2_c = 2 beta^2 and 2 beta^2 / N.  reference_bound_g is the
independent-noise comparison floor (e^{2 beta^2} - 1)/N; the independent
specialization is the tighter (larger) floor for weak dephasing, with the
swap happening near 2 beta^2 ~ (2N)^{-1/2} (the exact boundary approaches
twice that value for large N).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import DensityMatrix, GeneratorSpec
from .covariance import CovarianceMatrix, delta2_c, delta2_c1_closed, delta2_c2_closed
from .dephasing import dephase
from .errors import BoundViolationError
from .fisher import qfi

VIOLATION_TOL = 1e-8

CSV_FIELDS = (
    "family",
    "n",
    "alpha",
    "two_beta2",
    "delta2_c",
    "f_rho",
    "f_rho_bar",
    "main_bound",
    "error_bound",
    "reference_g",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return format(float(value), ".17g")


@dataclass(frozen=True, eq=False)
class BoundReport:
    """One evaluated bound: inputs, the two equivalent bound values, and the
    optional dephased information and comparison floor."""

    family: str
    n: int
    alpha: Optional[float]
    two_beta2: Optional[float]
    delta2_c: float
    f_rho: float
    f_rho_bar: Optional[float]
    main_bound_value: float
    error_bound_value: float
    reference_g_value: Optional[float]

    def __post_init__(self):
        if self.error_bound_value > 0 and math.isfinite(self.error_bound_value):
            recip = 1.0 / self.error_bound_value
            if abs(self.main_bound_value - recip) > 1e-12 * max(1.0, recip):
                raise ValueError("main bound is not the reciprocal of the error bound")

    def csv_row(self) -> str:
        values = (
            self.family,
            self.n,
            self.alpha,
            self.two_beta2,
            self.delta2_c,
            self.f_rho,
            self.f_rho_bar,
            self.main_bound_value,
            self.error_bound_value,
            self.reference_g_value,
        )
        return ",".join(_fmt(v) for v in values)

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "alpha": self.alpha,
            "two_beta2": self.two_beta2,
            "delta2_c": self.delta2_c,
            "f_rho": self.f_rho,
            "f_rho_bar": self.f_rho_bar,
            "main_bound": self.main_bound_value,
            "error_bound": self.error_bound_value,
            "reference_g": self.reference_g_value,
        }


def csv_header() -> str:
    return ",".join(CSV_FIELDS)


def main_bound(delta2: float, f_rho: float) -> float:
    """(delta2_c + 1/F)^{-1}; accepts F = inf, and returns the F -> 0 limit
    of zero when only the information vanishes."""
    if delta2 < 0:
        raise ValueError("delta2_c must be nonnegative")
    if f_rho < 0:
        raise ValueError("f_rho must be nonnegative")
    if f_rho == 0:
        if delta2 == 0:
            raise ValueError("delta2_c and f_rho cannot both vanish")
        return 0.0
    return 1.0 / (delta2 + 1.0 / f_rho)


def error_bound(delta2: float, f_rho: float) -> float:
    """delta2_c + 1/F, the mean square error floor."""
    if delta2 < 0:
        raise ValueError("delta2_c must be nonnegative")
    if not f_rho > 0:
        raise ValueError("f_rho must be positive")
    return delta2 + 1.0 / f_rho


def reference_bound_g(n: int, two_beta2: float) -> float:
    """Independent-dephasing comparison floor (e^{2 beta^2} - 1) / N."""
    if n < 1:
        raise ValueError("need at least one site")
    if two_beta2 < 0:
        raise ValueError("two_beta2 must be nonnegative")
    try:
        return math.expm1(two_beta2) / n
    except OverflowError:
        raise ValueError("two_beta2 is too large: e^two_beta2 overflows") from None


def crossover_boundary(n: int, rel_tol: float = 1e-6) -> float:
    """Noise strength 2 beta^2 where the independent error floor (with
    F = N^2) stops dominating reference_bound_g; bisection on
    x + 1/N = e^x - 1."""
    if n < 1:
        raise ValueError("need at least one site")

    def excess(x: float) -> float:
        return (x + 1.0 / n) - math.expm1(x)

    lo, hi = 0.0, 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("failed to bracket the crossover")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel_tol * mid:
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True, eq=False)
class CrossoverReport:
    n_values: np.ndarray
    two_beta2_values: np.ndarray
    independent_tighter: np.ndarray  # (len(n), len(two_beta2)) booleans
    boundary: np.ndarray  # per n, crossover noise strength
    approx_boundary: np.ndarray  # per n, (2 n)^{-1/2}


def crossover(n_values: Sequence[int], two_beta2_values: Sequence[float]) -> CrossoverReport:
    """Map out where the independent floor beats the comparison floor."""
    ns = np.array([int(v) for v in n_values])
    b2s = np.array([float(v) for v in two_beta2_values])
    tighter = np.empty((ns.size, b2s.size), dtype=bool)
    for i, n in enumerate(ns):
        ours = (b2s + 1.0 / n) / n
        theirs = np.expm1(b2s) / n
        tighter[i] = ours > theirs
    boundary = np.array([crossover_boundary(int(n)) for n in ns])
    return CrossoverReport(
        n_values=ns,
        two_beta2_values=b2s,
        independent_tighter=tighter,
        boundary=boundary,
        approx_boundary=(2.0 * ns) ** -0.5,
    )


@dataclass(frozen=True, eq=False)
class AsymptoticsReport:
    family: str
    alpha: float
    two_beta2: float
    n_values: np.ndarray
    bound_values: np.ndarray
    fitted_limit: float
    fit_residual: float


def asymptotics(
    family: str, alpha: float, two_beta2: float, n_values: Sequence[int]
) -> AsymptoticsReport:
    """Error floors with F = N^2 along an N grid, plus a fitted large-N
    limit: the plateau value for the constant-correlation family, the limit
    of N * value for the exponential-decay family."""
    if family not in ("c1", "c2"):
        raise ValueError("family must be 'c1' or 'c2'")
    ns = np.array([int(v) for v in n_values])
    if ns.size < 2:
        raise ValueError("need at least two grid points to fit")
    closed = delta2_c1_closed if family == "c1" else delta2_c2_closed
    values = np.array([error_bound(closed(int(n), two_beta2, alpha), float(n) ** 2) for n in ns])
    target = values if family == "c1" else ns * values
    design = np.stack([np.ones(ns.size), 1.0 / ns], axis=1)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.abs(design @ coef - target).max())
    return AsymptoticsReport(
        family=family,
        alpha=alpha,
        two_beta2=two_beta2,
        n_values=ns,
        bound_values=values,
        fitted_limit=float(coef[0]),
        fit_residual=residual,
    )


def check_violation(report: BoundReport, tol: float = VIOLATION_TOL) -> BoundReport:
    """Raise when the dephased information exceeds its ceiling."""
    if report.f_rho_bar is not None and report.f_rho_bar > report.main_bound_value + tol:
        raise BoundViolationError(
            f"dephased information {report.f_rho_bar!r} exceeds the bound "
            f"{report.main_bound_value!r}",
            report=report,
        )
    return report


def verify_bound(rho: DensityMatrix, gen: GeneratorSpec, cov: CovarianceMatrix) -> BoundReport:
    """Evaluate both sides of the ceiling for an arbitrary state and
    covariance; raises BoundViolationError beyond VIOLATION_TOL."""
    f_rho = qfi(rho, gen)
    f_bar = qfi(dephase(rho, gen, cov), gen)
    d2 = delta2_c(cov)
    if f_rho > 0:
        err = error_bound(d2, f_rho)
        main = 1.0 / err
    else:
        err = math.inf
        main = 0.0
    report = BoundReport(
        family="custom",
        n=gen.nsites,
        alpha=None,
        two_beta2=None,
        delta2_c=d2,
        f_rho=f_rho,
        f_rho_bar=f_bar,
        main_bound_value=main,
        error_bound_value=err,
        reference_g_value=None,
    )
    return check_violation(report)
