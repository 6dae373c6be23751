"""Worked examples with their published reference numbers.

Each runner rebuilds one explicit construction, recomputes every claimed
scalar independently, and returns an ExampleReport pairing claimed and
computed values.  Two strip-example entries (the strip's hyperbolic density
and the origin quotient) depend on a normalization convention, so they are
recorded side by side without a pass/fail gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .bounds import FOUR_OVER_PI, chen_rhs, schwarz_quotient
from .errors import InvalidInput, NumericInversionFailure
from .harmonic import (analytic_field, pde_residual, random_smooth_boundary,
                       solved_field)
from .metrics import (Metric1D, curvature_at, exponential_metric,
                      half_plane_metric, hyperbolic_metric, secant_metric)


@dataclass
class ExampleReport:
    name: str
    claimed: Dict[str, float]
    computed: Dict[str, float]
    gated: tuple = ()              # keys compared against tolerance
    ungated_note: str = ""
    tolerance: float = 1e-3
    notes: Dict[str, str] = field(default_factory=dict)
    bound_violated: bool = False   # True when the example breaks a bound by design

    @property
    def discrepancies(self) -> list[tuple[str, float]]:
        out = []
        for key, claim in self.claimed.items():
            if key in self.computed:
                out.append((key, abs(claim - self.computed[key])))
        return out

    @property
    def passed(self) -> bool:
        return all(abs(self.claimed[k] - self.computed[k]) <= self.tolerance
                   for k in self.gated)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "claimed": self.claimed,
            "computed": self.computed,
            "discrepancies": {k: d for k, d in self.discrepancies},
            "gated": list(self.gated),
            "passed": bool(self.passed),
            "bound_violated": bool(self.bound_violated),
            "tolerance": self.tolerance,
            "notes": self.notes,
            "ungated_note": self.ungated_note,
        }


# ---------------------------------------------------------------------------
# negative curvature: S(f) = n for f = tanh(nx)
# ---------------------------------------------------------------------------

def run_negative_curvature_example(n: int = 3) -> ExampleReport:
    """tanh(n x) under the hyperbolic target density 1/(1-u^2).

    The Schwarz quotient at the origin equals n, so the 4/pi gradient bound
    fails for every n >= 2: no constant works once the target curvature is
    negative.
    """
    if n < 1:
        raise InvalidInput("n must be a positive integer")
    metric = hyperbolic_metric()
    fld = analytic_field(
        lambda x, y: np.tanh(n * np.asarray(x, float)),
        lambda x, y: (n / np.cosh(n * np.asarray(x, float)) ** 2,
                      np.zeros_like(np.asarray(y, float))),
        metric=metric, name=f"tanh({n}x)")
    s0 = schwarz_quotient(metric, fld, 0.0)
    z_probe = 0.2
    grad_probe = float(np.hypot(*fld.gradient_many(z_probe)))
    residual = pde_residual(metric, fld, 0.1 + 0.2j, 1e-3)
    claimed = {
        "schwarz_quotient_origin": float(n),
        "curvature_at_0": -2.0,
        "gradient_at_0.2": n / math.cosh(n * z_probe) ** 2,
    }
    computed = {
        "schwarz_quotient_origin": s0,
        "curvature_at_0": curvature_at(metric, 0.0),
        "gradient_at_0.2": grad_probe,
        "pde_residual": residual,
        "four_over_pi": FOUR_OVER_PI,
    }
    return ExampleReport(
        name="negative-curvature",
        claimed=claimed, computed=computed,
        gated=("schwarz_quotient_origin", "curvature_at_0", "gradient_at_0.2"),
        tolerance=1e-6,
        bound_violated=s0 > FOUR_OVER_PI,
        notes={"pde_residual": "five-point residual of the quasilinear equation"},
    )


# ---------------------------------------------------------------------------
# zero curvature: exponential densities and the explicit majorant
# ---------------------------------------------------------------------------

def _zero_curvature_majorant(c: float, f: np.ndarray, one_minus_zsq) -> np.ndarray:
    f = np.asarray(f, float)
    return (4.0 * np.exp(-c * f)
            * np.sin(math.pi * (math.exp(c) - np.exp(c * f)) / (2.0 * math.sinh(c)))
            * math.sinh(c)) / (c * math.pi * one_minus_zsq)


def run_zero_curvature_example(c: float = 1.0, seed: int = 0) -> ExampleReport:
    """Exponential density e^{cu}: flat target, explicit gradient majorant.

    Checks that the majorant A dominates |grad f| for a solved instance and
    is itself dominated by (4/pi)(1 - f^2)/(1 - |z|^2), and that A collapses
    to the Euclidean-harmonic bound as c -> 0.
    """
    if c == 0.0:
        raise InvalidInput("c must be nonzero")
    metric = exponential_metric(c)
    curv = curvature_at(metric, np.linspace(-0.95, 0.95, 10))

    fgrid = np.linspace(-0.99, 0.99, 1981)
    chain_slacks = []
    for cc in (0.5, 1.0, 2.0):
        a_vals = _zero_curvature_majorant(cc, fgrid, 1.0)
        chain_slacks.append(np.min(FOUR_OVER_PI * (1.0 - fgrid ** 2) - a_vals))
    chain_min = float(min(chain_slacks))

    boundary = random_smooth_boundary(seed)
    fld = solved_field(metric, boundary)
    rng = np.random.default_rng(seed)
    z = 0.9 * np.sqrt(rng.uniform(0, 1, 400)) * np.exp(2j * math.pi * rng.uniform(0, 1, 400))
    fv, gx, gy = fld.value_and_gradient_many(z)
    a_at = _zero_curvature_majorant(c, fv, 1.0 - np.abs(z) ** 2)
    solved_slack = float(np.min(a_at - np.hypot(gx, gy)))

    # the majorant approaches the Euclidean bound linearly in c
    chen_vals = np.array([chen_rhs(v, 0.0) for v in fgrid])
    limit_dev = float(np.max(np.abs(
        _zero_curvature_majorant(1e-5, fgrid, 1.0) - chen_vals)))
    limit_dev_coarse = float(np.max(np.abs(
        _zero_curvature_majorant(1e-4, fgrid, 1.0) - chen_vals)))

    claimed = {"max_abs_curvature": 0.0, "c_to_0_limit_dev": 0.0}
    computed = {
        "max_abs_curvature": float(np.max(np.abs(curv))),
        "c_to_0_limit_dev": limit_dev,
        "c_to_0_limit_dev_at_1e-4": limit_dev_coarse,
        "majorant_chain_min_slack": chain_min,
        "solved_min_slack": solved_slack,
    }
    report = ExampleReport(
        name="zero-curvature",
        claimed=claimed, computed=computed,
        gated=("max_abs_curvature",),
        tolerance=1e-10,
        notes={"majorant_chain_min_slack":
               "min over f in (-0.99, 0.99), c in {0.5, 1, 2} of (4/pi)(1-f^2) - A",
               "solved_min_slack": "min over solved instance of A - |grad f|",
               "c_to_0_limit_dev": "sup |A(c=1e-5) - euclidean bound|; the "
               "approach is linear in c (the 1e-4 value is recorded too)"},
    )
    report.bound_violated = chain_min < -1e-9 or solved_slack < -1e-9
    return report


# ---------------------------------------------------------------------------
# strip automorphism example
# ---------------------------------------------------------------------------

def _strip_phi(z):
    e = np.exp(0.5j * math.pi * np.asarray(z, complex))
    return -2j / math.pi * np.log(-1j + 2.0 / (-1j + e))


def _strip_dphi(z):
    e = np.exp(0.5j * math.pi * np.asarray(z, complex))
    inner = -1j + 2.0 / (-1j + e)
    return -2.0 * e / ((-1j + e) ** 2 * inner)


def _strip_invert(w: complex, starts) -> complex:
    for z0 in starts:
        z = complex(z0)
        ok = True
        for _ in range(80):
            d = complex(_strip_dphi(z))
            if not np.isfinite(d.real) or abs(d) < 1e-14:
                ok = False
                break
            step = (complex(_strip_phi(z)) - w) / d
            if abs(step) > 0.5:
                step *= 0.5 / abs(step)
            z -= step
            if abs(z.real) > 0.999:
                z = complex(np.clip(z.real, -0.999, 0.999), z.imag)
        if ok and abs(complex(_strip_phi(z)) - w) < 1e-12:
            return z
    raise NumericInversionFailure(f"strip map inversion failed at w = {w}")


def run_strip_example(k: float = 1.0) -> ExampleReport:
    """Strip automorphism sending the imaginary axis onto (-1, 1).

    Verifies the image of the axis, the closed-form pullback density
    (squared: 2/(cos pi u + cosh pi v)), its flatness, the negative
    curvature of the restricted density sec(pi u / 2), and records the
    density-normalization comparison for the origin quotient.
    """
    if k <= 0:
        raise InvalidInput("k must be positive")
    ys = np.linspace(-3.0, 3.0, 50)
    w_axis = _strip_phi(1j * ys)
    axis_max_imag = float(np.max(np.abs(w_axis.imag)))
    axis_in_interval = bool(np.all(np.abs(w_axis.real) < 1.0))
    branch_jump = float(np.max(np.abs(np.diff(w_axis.real))))

    # density identity by Newton inversion at scattered points
    rng = np.random.default_rng(1)
    starts = [1j * t for t in np.linspace(-3, 3, 20)]
    ident_err = 0.0
    for _ in range(25):
        u = rng.uniform(-0.8, 0.8)
        v = rng.uniform(-1.5, 1.5)
        zeta = _strip_invert(complex(u, v), starts)
        rho = 1.0 / abs(complex(_strip_dphi(zeta)))
        target = 2.0 / (math.cos(math.pi * u) + math.cosh(math.pi * v))
        ident_err = max(ident_err, abs(rho * rho - target))

    # flatness of the full density via FD Laplacian of log rho
    def log_rho(u, v):
        return 0.5 * (math.log(2.0) - np.log(np.cos(math.pi * u) + np.cosh(math.pi * v)))

    h = 1e-4
    u, v = np.meshgrid(np.linspace(-0.7, 0.7, 5), np.linspace(-1.2, 1.2, 5))
    lap = (log_rho(u + h, v) + log_rho(u - h, v) + log_rho(u, v + h)
           + log_rho(u, v - h) - 4.0 * log_rho(u, v)) / h ** 2
    rho2 = 2.0 / (np.cos(math.pi * u) + np.cosh(math.pi * v))
    flat_max = float(np.max(np.abs(-lap / rho2)))

    sec = secant_metric()
    curv_vals = curvature_at(sec, np.array([0.0, 0.3, 0.6]))

    # origin quotient: f = (phi o (i k Im)) o a with a(z) = (4i/pi) atanh z
    dphi0 = complex(_strip_dphi(0.0))
    da0 = 4.0 / math.pi
    grad_g1_origin = k * abs(dphi0)
    grad_f_origin = grad_g1_origin * da0
    s_origin = grad_f_origin  # f(0) = 0 and |z| = 0

    # pullback hyperbolic density of the strip at sampled iy, disk density 1/(1-|z|^2)
    lam_samples = []
    for y in np.linspace(-1.5, 1.5, 7):
        zi = math.tanh(math.pi * y / 4.0)
        lam_samples.append((1.0 / (1.0 - zi * zi)) / (da0 / (1.0 - zi * zi)))
    lam0 = float(np.mean(lam_samples))

    claimed = {
        "curvature_secant": -math.pi ** 2 / 4.0,
        "flat_density_curvature": 0.0,
        "density_identity_error": 0.0,
        # convention-dependent, recorded without a gate:
        "strip_hyperbolic_density_on_axis": math.pi / 2.0,
        "gradient_g1_origin": 2.0 * k,
        "origin_quotient": 4.0 * k / math.pi,
    }
    computed = {
        "curvature_secant": float(np.mean(curv_vals)),
        "flat_density_curvature": flat_max,
        "density_identity_error": ident_err,
        "axis_max_imag": axis_max_imag,
        "axis_in_interval": float(axis_in_interval),
        "branch_max_jump": branch_jump,
        "strip_hyperbolic_density_on_axis": lam0,
        "gradient_g1_origin": grad_g1_origin,
        "origin_quotient": s_origin,
    }
    return ExampleReport(
        name="strip",
        claimed=claimed, computed=computed,
        gated=("curvature_secant",),
        tolerance=1e-6,
        ungated_note=(
            "strip_hyperbolic_density_on_axis, gradient_g1_origin and "
            "origin_quotient depend on the disk-density normalization; the "
            "pullback here uses 1/(1-|z|^2) (curvature -4), giving a constant "
            "density pi/4 on the axis and |grad g1(0)| = k, while the claimed "
            "values pi/2 and 2k correspond to the curvature -1 convention. "
            "The two factor-2 mismatches cancel in the origin quotient, which "
            "both routes place at 4k/pi. Recorded, not gated."),
        notes={"flat_density_curvature": f"max |K| over 25 samples, FD step {h:g}",
               "density_identity_error": "max |rho^2 - 2/(cos pi u + cosh pi v)|"},
    )


# ---------------------------------------------------------------------------
# half-plane example
# ---------------------------------------------------------------------------

def _halfplane_quotient(t):
    t = np.asarray(t, float)
    at = np.arctan(t)
    return (2.0 / (np.sqrt(1.0 + t * t) * (math.pi - 2.0 * at))
            / np.log(2.0 * math.pi / (math.pi - 2.0 * at)))


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """Golden-section refinement of a unimodal maximum on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, float(fn(x))


def run_halfplane_example() -> ExampleReport:
    """Positive metric-harmonic function on the right half-plane.

    R(x) = 1 - e^{-x} has non-negative curvature (-(log R)'' is a squared
    csch), yet the explicit solution is not a hyperbolic contraction: the
    scaled quotient x |grad f| / f peaks above 1.  The closed form
    f = log(pi / (pi/2 - arctan(y/x))) makes R(f) harmonic, i.e. it solves
    the quasilinear equation for the density R'(u) = e^{-u} (whose primitive
    is R); the residual is checked against that density, and the curvature
    identity of R itself is verified separately.
    """
    metric_R = half_plane_metric()
    # curvature identity for R: -(log R)'' = (1/4) csch(x/2)^2
    xs = np.array([0.5, 1.0, 2.0, 3.5])
    neg_log_second = curvature_at(metric_R, xs) * metric_R.density(xs) ** 2
    ident_err = float(np.max(np.abs(neg_log_second - 0.25 / np.sinh(0.5 * xs) ** 2)))

    # coarse scan then golden-section refinement of the quotient
    ts = np.linspace(-50.0, 50.0, 20001)
    qs = _halfplane_quotient(ts)
    i = int(np.argmax(qs))
    t_star, q_star = golden_section_max(_halfplane_quotient, ts[i - 1], ts[i + 1])
    edge_max = float(max(qs[0], qs[-1]))

    # residual of the closed form under the density whose primitive is R
    def f_closed(x, y):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return np.log(math.pi / (0.5 * math.pi - np.arctan2(y, x)))

    density_exp = Metric1D(0.0, math.inf,
                           lambda u: np.exp(-np.asarray(u, float)),
                           lambda u: -np.exp(-np.asarray(u, float)),
                           lambda u: np.exp(-np.asarray(u, float)),
                           name="exp(-u)")
    h = 1e-4

    def residual(density: Metric1D, x: float, y: float) -> float:
        """Five-point residual of the closed form under `density` at (x, y)."""
        f0 = float(f_closed(x, y))
        fe = float(f_closed(x + h, y))
        fw = float(f_closed(x - h, y))
        fn_ = float(f_closed(x, y + h))
        fs = float(f_closed(x, y - h))
        lap = (fe + fw + fn_ + fs - 4.0 * f0) / h ** 2
        gx = (fe - fw) / (2.0 * h)
        gy = (fn_ - fs) / (2.0 * h)
        q = float(density.d_density(f0)) / float(density.density(f0))
        return abs(lap + q * (gx * gx + gy * gy))

    rng = np.random.default_rng(0)   # each sample draws x, then y
    max_res = max(residual(density_exp, rng.uniform(0.3, 2.5), rng.uniform(-2.0, 2.0))
                  for _ in range(50))

    # the same closed form does NOT satisfy the equation with density R
    res_with_R = residual(metric_R, 1.0, 0.3)

    claimed = {
        "argmax_t": -1.4771,
        "max_quotient": 1.0482,
        "curvature_identity_error": 0.0,
    }
    computed = {
        "argmax_t": float(t_star),
        "max_quotient": float(q_star),
        "curvature_identity_error": ident_err,
        "pde_residual_exp_density": max_res,
        "pde_residual_R_density": res_with_R,
        "bracket_edge_max": edge_max,
    }
    return ExampleReport(
        name="half-plane",
        claimed=claimed, computed=computed,
        gated=("argmax_t", "max_quotient"),
        tolerance=1e-3,
        bound_violated=q_star > 1.0,
        notes={
            "pde_residual_exp_density":
                "closed form satisfies the equation for density exp(-u) "
                "(equivalently: R(f) is harmonic, H being the primitive of "
                "that density equals R up to a constant)",
            "pde_residual_R_density":
                "residual if the density is taken to be R itself: order one, "
                "showing the construction pairs R with its derivative density",
            "curvature_identity_error":
                "max | -(log R)'' - (1/4) csch(x/2)^2 | over samples",
        },
    )
