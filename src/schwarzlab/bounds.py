"""Gradient and distance bound checks with per-point reports.

Every check solves (or accepts) a field on the disk, evaluates the left and
right side of one inequality on a grid, and assembles a BoundReport.  A
negative minimum slack beyond the shared tolerance marks the report failed;
near-zero slack is counted separately as an equality case, since the sharp
examples sit exactly on the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Dict, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NonIntegrable, OutsideDisk
from .harmonic import BoundaryData, HarmonicField, solved_field
from .lemmas import check_unimodal
from .lifetime import lifetime_cache
from .metrics import (HTransform, LogConcavityReport, Metric1D,
                      log_concavity_report, transform_table)

FOUR_OVER_PI = 4.0 / math.pi
# slacks within this distance of zero are counted as equality cases
EQUALITY_BAND = 1e-9


def ring_grid(radii: int = DEFAULT.grid_radii, angles: int = DEFAULT.grid_angles,
              radius: float = DEFAULT.grid_radius) -> np.ndarray:
    """Concentric evaluation rings: `radii` circles up to `radius`, `angles` spokes."""
    r = radius * (1.0 + np.arange(radii)) / radii
    t = 2.0 * math.pi * np.arange(angles) / angles
    return (r[:, None] * np.exp(1j * t)[None, :]).ravel()


@dataclass
class BoundReport:
    """Per-point record of one inequality check."""
    bound_name: str
    z: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tolerance: float = DEFAULT.slack_tol
    applicable: bool = True
    warnings: tuple = ()
    extras: Dict[str, object] = dfield(default_factory=dict)

    def __post_init__(self):
        self.z = np.ravel(np.asarray(self.z, complex))
        self.lhs = np.ravel(np.asarray(self.lhs, float))
        self.rhs = np.ravel(np.asarray(self.rhs, float))
        if len(self.z) == 0:
            raise ValueError("a bound report needs at least one point")

    @property
    def slack(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_slack(self) -> float:
        return float(np.min(self.slack))

    @property
    def worst_point(self) -> complex:
        return complex(self.z[int(np.argmin(self.slack))])

    @property
    def passed(self) -> bool:
        return self.min_slack >= -self.tolerance

    @property
    def equality_count(self) -> int:
        return int(np.sum(np.abs(self.slack) <= EQUALITY_BAND))

    def to_json_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "passed": bool(self.passed),
            "applicable": bool(self.applicable),
            "min_slack": self.min_slack,
            "worst_point": [self.worst_point.real, self.worst_point.imag],
            "tolerance": self.tolerance,
            "points": len(self.z),
            "equality_cases": self.equality_count,
            "warnings": list(self.warnings),
            "extras": dict(self.extras),
        }


# ---------------------------------------------------------------------------
# pointwise quantities
# ---------------------------------------------------------------------------

def _one_minus_abs_sq(z, message: str) -> np.ndarray:
    """1 - |z|^2 at points of the open disk (`OutsideDisk(message)` otherwise),
    rounded as the scalar `1 - abs(z) ** 2` (libm hypot and pow); numpy's
    complex abs and array square can differ from those in the last bit."""
    z = np.asarray(z, complex)
    r = np.hypot(z.real, z.imag)
    if np.any(r >= 1.0):
        raise OutsideDisk(message)
    return 1.0 - np.float_power(r, 2)


def schwarz_quotient(field: HarmonicField, z):
    """|grad f(z)| (1 - |z|^2) / (1 - f(z)^2) at a point or an array of points.

    One value-and-gradient pass over the points; returns a float for a
    scalar z.
    """
    one_minus = _one_minus_abs_sq(z, "Schwarz quotient needs |z| < 1")
    f, gx, gy = field.value_and_gradient_many(z)
    q = np.hypot(gx, gy) * one_minus / (1.0 - f * f)
    return float(q) if q.ndim == 0 else q


def chen_rhs(g, z):
    """Euclidean-harmonic gradient bound (4/pi) cos(pi g / 2) / (1 - |z|^2).

    Broadcasts over arrays of g in [-1, 1] and z in the disk; returns a
    float for scalars.
    """
    one_minus = _one_minus_abs_sq(z, "bound evaluated outside the disk")
    g = np.asarray(g, float)
    if not np.all((g >= -1.0) & (g <= 1.0)):
        raise ValueError("g must lie in [-1, 1]")
    rhs = FOUR_OVER_PI * np.cos(0.5 * math.pi * g) / one_minus
    return float(rhs) if rhs.ndim == 0 else rhs


def hyperbolic_distance(z, w):
    """artanh(|z - w| / |1 - z conj(w)|) for points of the open disk.

    Accepts scalars or broadcastable arrays; returns a float for scalars.
    """
    z, w = np.asarray(z, complex), np.asarray(w, complex)
    if np.any(np.abs(z) >= 1.0) or np.any(np.abs(w) >= 1.0):
        raise OutsideDisk("hyperbolic distance needs both points inside the disk")
    d = np.arctanh(np.abs(z - w) / np.abs(1.0 - z * np.conj(w)))
    return float(d) if d.ndim == 0 else d


@lifetime_cache()
def _alias_spectrum(boundary: BoundaryData) -> np.ndarray:
    """|rfft(samples)| / N, once for as long as the boundary lives; read-only,
    since every check shares it."""
    spectrum = np.abs(np.fft.rfft(boundary.samples)) / boundary.sample_count
    spectrum.flags.writeable = False
    return spectrum


def _alias_bound(boundary: BoundaryData, rho: float, gradient: bool) -> float:
    """At most what aliasing adds to the trapezoid Poisson sum (or its
    gradient) at |z| <= rho.  The sum folds every k = +-q + mN, m >= 1, onto
    the DFT bin s_q of the samples over N (q = 0..N/2, counted twice but for
    q = 0 and N/2), which adds |s_q| times the closed-form sums of rho^|k|
    (of |k| rho^(|k|-1) for a gradient) over |k| = N -+ q + mN, m >= 0."""
    n = boundary.sample_count
    coef = _alias_spectrum(boundary)
    q = np.arange(len(coef))
    weight = np.where((q == 0) | (2 * q == n), 1.0, 2.0)
    rest = 1.0 - rho ** n

    def images(k):
        if gradient:
            return rho ** (k - 1) * (k * rest + n * rho ** n) / rest ** 2
        return rho ** k / rest

    return float(np.sum(weight * coef * (images(n - q) + images(n + q))))


def _sampling_warnings(boundary: BoundaryData, z, tols: Tolerances,
                      gradient: bool) -> tuple:
    """A warning when the N boundary samples are too few for the points z:
    their alias bound at rho = max |z| above `tols.slack_tol` can swamp a
    report's slack.  The verdict is unchanged."""
    n = boundary.sample_count
    rho = float(np.max(np.abs(np.asarray(z))))
    bound = _alias_bound(boundary, rho, gradient)
    if not bound > tols.slack_tol:
        return ()
    kind = "gradient" if gradient else "value"
    return (f"{n} boundary samples are too few: trapezoid {kind} alias bound "
            f"{bound:.3g} at |z| <= {rho:.3g} exceeds slack_tol {tols.slack_tol:g}",)


# ---------------------------------------------------------------------------
# bound suites
# ---------------------------------------------------------------------------

def _curvature_scan_grid() -> np.ndarray:
    return np.linspace(-0.999, 0.999, 601)


@lifetime_cache()
def _curvature_scan(metric: Metric1D, tols: Tolerances) -> LogConcavityReport:
    """The curvature scan of the bound checks, once per tolerances for as
    long as the metric lives; its `curvature` array is read-only, since
    every check shares it."""
    report = log_concavity_report(metric, _curvature_scan_grid(), tols=tols)
    report.curvature.flags.writeable = False
    return report


def _table_or_none(metric: Metric1D, tols: Tolerances) -> Optional[HTransform]:
    """The metric's transform table, or None when its density has infinite
    mass."""
    try:
        return transform_table(metric, tols)
    except NonIntegrable:
        return None


def check_gradient_bound(metric: Metric1D, boundary: BoundaryData,
                         grid: Optional[Sequence[complex]] = None,
                         tols: Tolerances = DEFAULT) -> BoundReport:
    """Check |grad f| <= (4/pi)(1 - f^2)/(1 - |z|^2) for the lifted solution.

    Also records the three-link certificate chain behind the bound at every
    grid point (with v = f(z), V = H(v)/r, V' = R(v)/r, all scaled by
    (1 - |z|^2)):

        |grad f| (1-|z|^2)  <=  (4/pi) cos(pi V / 2) / V'      (harmonic link)
                            <=  (4/pi) (1 - V^2) / V'          (cosine majorant)
                            <=  (4/pi) (1 - v^2)               (diffeo link)

    The first link is an instance of the Euclidean gradient bound; the last
    needs the density to be log-concave, so the chain is only gated when the
    curvature scan certifies non-negative curvature.  Non-log-concave
    metrics get a warning and the chain values are recorded either way.
    """
    if grid is None:
        grid = ring_grid(tols.grid_radii, tols.grid_angles, tols.grid_radius)
    z = np.ravel(np.asarray(grid, complex))
    field = solved_field(metric, boundary, tols)

    f, gx, gy = field.value_and_gradient_many(z)
    grad = np.hypot(gx, gy)
    one_minus = _one_minus_abs_sq(z, "bound evaluated outside the disk")

    lhs = grad
    rhs = FOUR_OVER_PI * (1.0 - f * f) / one_minus

    warnings = list(_sampling_warnings(boundary, z, tols, gradient=True))
    curv = _curvature_scan(metric, tols)
    chain_checked = curv.is_nonnegative
    if not curv.is_nonnegative:
        warnings.append(
            f"metric is not certified non-negative curvature "
            f"(min curvature {curv.min_curvature:.3g} at u={curv.worst_u:.3g}); "
            f"bound and chain are reported but the underlying result does not apply")

    extras = {"chain_checked": chain_checked, "min_curvature": curv.min_curvature,
              "negative_atoms": curv.negative_atoms}
    table = _table_or_none(metric, tols)
    if table is None:
        extras["chain_checked"] = False
        extras["mass"] = math.inf
        warnings.append("density has infinite mass; certificate chain unavailable")
    else:
        r = table.r
        psi_v = table.h(f) / r
        psi_prime = np.asarray(metric.density(f), float) / r
        lhs_scaled = grad * one_minus
        chen_scaled = chen_rhs(psi_v, 0.0) / psi_prime
        mid = FOUR_OVER_PI * (1.0 - psi_v ** 2) / psi_prime
        fin = FOUR_OVER_PI * (1.0 - f * f)
        extras.update({
            "chain_harmonic_min_slack": float(np.min(chen_scaled - lhs_scaled)),
            "chain_cosine_min_slack": float(np.min(mid - chen_scaled)),
            "chain_diffeo_min_slack": float(np.min(fin - mid)),
            "mass": float(r),
        })
    return BoundReport("gradient_bound_4_over_pi", z, lhs, rhs,
                       tolerance=tols.slack_tol, warnings=tuple(warnings),
                       extras=extras)


def check_unimodal_bounds(metric: Metric1D, boundary: BoundaryData,
                          grid: Optional[Sequence[complex]] = None,
                          tols: Tolerances = DEFAULT) -> tuple[BoundReport, BoundReport]:
    """The two bounds for unimodal densities.

    Report 1: |grad f| <= 2 (1 - |f|) / (1 - |z|^2) on the ring grid.
    Report 2: |f(z)| <= (4/pi) arctan |z| on radial grids; it additionally
    requires f(0) = 0 and balanced half-masses, otherwise it is marked
    not applicable (not failed).
    """
    if grid is None:
        grid = ring_grid(tols.grid_radii, tols.grid_angles, tols.grid_radius)
    z = np.ravel(np.asarray(grid, complex))
    unimodal = check_unimodal(metric)
    # a unimodal density is bounded by its peak, hence integrable; the table
    # can only fail for metrics that already miss the precondition
    table = _table_or_none(metric, tols)
    field = solved_field(metric, boundary, tols)

    f, gx, gy = field.value_and_gradient_many(z)
    lhs1 = np.hypot(gx, gy)
    one_minus = _one_minus_abs_sq(z, "bound evaluated outside the disk")
    rhs1 = 2.0 * (1.0 - np.abs(f)) / one_minus
    warn1 = () if unimodal else ("density failed the sampled unimodality check",)
    warn1 += _sampling_warnings(boundary, z, tols, gradient=True)
    report1 = BoundReport("gradient_bound_unimodal", z, lhs1, rhs1,
                          tolerance=tols.slack_tol, applicable=unimodal,
                          warnings=warn1,
                          extras={"mass": float(table.r) if table else math.inf})

    rad = ring_grid(25, 8, 0.95)   # 8 radial spokes of 25 points each
    # the spokes and, last, the origin in one value pass: at z = 0 the
    # Poisson sum is c_0 whatever else the pass holds
    values = field.value_many(np.append(rad, 0.0))
    f0, fr = float(values[-1]), values[:-1]
    if table is not None:
        balance = abs(table.h(np.array([0.0]))[0])  # H(0) = (B - A)/2
        balanced = balance <= 1e-9 * table.r
    else:
        balance = math.inf
        balanced = False
    origin_fixed = abs(f0) <= 1e-7
    applicable2 = unimodal and balanced and origin_fixed
    warn2 = []
    if not unimodal:
        warn2.append("density failed the sampled unimodality check")
    if not balanced:
        warn2.append(f"half-masses differ by {2 * balance:.3g}")
    if not origin_fixed:
        warn2.append(f"f(0) = {f0:.3g} is not 0")
    warn2.extend(_sampling_warnings(boundary, rad, tols, gradient=False))
    report2 = BoundReport("arctan_radial_bound", rad, np.abs(fr),
                          FOUR_OVER_PI * np.arctan(np.abs(rad)),
                          tolerance=tols.slack_tol, applicable=applicable2,
                          warnings=tuple(warn2),
                          extras={"f_origin": f0,
                                  "half_mass_imbalance": float(2 * balance)})
    return report1, report2


def check_distance_contraction(metric: Metric1D, boundary: BoundaryData,
                               pairs: Sequence[tuple[complex, complex]],
                               tols: Tolerances = DEFAULT) -> BoundReport:
    """d_h(f(z), f(w)) <= (4/pi) d_h(z, w) over the supplied point pairs."""
    pairs = np.asarray(pairs, complex)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (m, 2)")
    z, w = pairs[:, 0], pairs[:, 1]
    field = solved_field(metric, boundary, tols)
    # one value pass over both ends of every pair
    fz, fw = field.value_many(pairs.ravel()).reshape(-1, 2).T
    lhs = hyperbolic_distance(fz, fw)
    rhs = FOUR_OVER_PI * hyperbolic_distance(z, w)
    curv = _curvature_scan(metric, tols)
    warnings = () if curv.is_nonnegative else (
        "metric is not certified non-negative curvature",)
    warnings += _sampling_warnings(boundary, pairs, tols, gradient=False)
    return BoundReport("distance_contraction_4_over_pi", z, lhs, rhs,
                       tolerance=tols.slack_tol, warnings=warnings,
                       extras={"min_curvature": curv.min_curvature,
                               "negative_atoms": curv.negative_atoms})


def random_disk_pairs(seed: int, count: int, radius: float = 0.95) -> np.ndarray:
    rng = np.random.default_rng(seed)
    z = radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * math.pi * rng.uniform(0, 1, count))
    w = radius * np.sqrt(rng.uniform(0, 1, count)) * np.exp(2j * math.pi * rng.uniform(0, 1, count))
    return np.stack([z, w], axis=1)


def mobius_automorphism(a: complex, phi: float = 0.0):
    """Disk automorphism z -> e^{i phi} (z - a) / (1 - conj(a) z)."""
    a = complex(a)
    if abs(a) >= 1.0:
        raise OutsideDisk("automorphism parameter must lie inside the disk")

    def transform(z):
        z = np.asarray(z, complex)
        return np.exp(1j * phi) * (z - a) / (1.0 - np.conj(a) * z)

    return transform
