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
from .errors import BoundViolationError
from .fisher import qfi

VIOLATION_TOL = 1e-8
# Relative bracket width at which crossover_boundary stops bisecting.
CROSSOVER_RTOL = 1e-6

# (CSV column and JSON key, BoundReport attribute) of a report, in order.
COLUMNS = (
    ("family", "family"),
    ("n", "n"),
    ("alpha", "alpha"),
    ("two_beta2", "two_beta2"),
    ("delta2_c", "delta2_c"),
    ("f_rho", "f_rho"),
    ("f_rho_bar", "f_rho_bar"),
    ("main_bound", "main_bound_value"),
    ("error_bound", "error_bound_value"),
    ("reference_g", "reference_g_value"),
)
CSV_FIELDS = tuple(key for key, _ in COLUMNS)


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

    def to_dict(self) -> dict:
        return {key: getattr(self, attr) for key, attr in COLUMNS}


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


def crossover_boundary(n: int) -> float:
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
        if hi - lo <= CROSSOVER_RTOL * mid:
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
    col = ns[:, None]
    tighter = (b2s + 1 / col) / col > np.expm1(b2s) / col
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
    if family == "c2" and alpha == 1.0:  # the collective matrix: no 1/N law
        raise ValueError("alpha must lie in [0, 1) for the c2 limit")
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


def check_violation(report: BoundReport) -> BoundReport:
    """Raise when the dephased information exceeds its ceiling by more than
    VIOLATION_TOL times max(1, ceiling): absolute up to a ceiling of 1,
    relative past it, where an absolute 1e-8 falls below one ulp (from
    about 6.7e7) and rounding alone would read as a violation."""
    bound = report.main_bound_value
    if report.f_rho_bar is not None and report.f_rho_bar > bound + VIOLATION_TOL * max(1.0, bound):
        raise BoundViolationError(
            f"dephased information {report.f_rho_bar!r} exceeds the bound "
            f"{report.main_bound_value!r}",
            report=report,
        )
    return report


def bound_report(delta2: float, f_rho: float, **fields) -> BoundReport:
    """The report of one evaluation, checked by check_violation: the error
    floor delta2 + 1/F (inf at F = 0) and its reciprocal, the main bound.
    `fields` are the report's other inputs, by name."""
    err = error_bound(delta2, f_rho) if f_rho > 0 else math.inf
    return check_violation(BoundReport(
        delta2_c=delta2, f_rho=f_rho, main_bound_value=1.0 / err, error_bound_value=err, **fields
    ))


def verify_bound(rho: DensityMatrix, gen: GeneratorSpec, cov: CovarianceMatrix) -> BoundReport:
    """Evaluate both sides of the ceiling for an arbitrary state and
    covariance; raises BoundViolationError as check_violation does."""
    f_rho = qfi(rho, gen)
    f_bar = qfi(rho, gen, cov)
    return bound_report(
        delta2_c(cov), f_rho, family="custom", n=gen.nsites, alpha=None, two_beta2=None,
        f_rho_bar=f_bar, reference_g_value=None,
    )
