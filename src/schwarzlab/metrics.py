"""Metric densities R(u) on an open interval and their transforms.

A metric here is a positive density on an open interval, carrying its first
(and optionally second) derivative.  The module computes Gaussian curvature
of the associated strip metric, the mass r = (1/2) * integral of R over
(-1, 1), the centered primitive H and its inverse, log-concavity
diagnostics, and mollification of piecewise densities.  The mass, H, its
inverse and the divergence verdict all come from one table of Gauss cells
(`HTransform`); the scalar adaptive `transform_H` and `inverse_H` are kept
as the test oracle.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT, Tolerances, spec_param, spec_params
from .errors import (DerivativeUnavailable, DomainError, InvalidInput,
                     NonIntegrable, NumericInversionFailure, OutOfRange,
                     ParameterOutOfRange)
from .quadrature import (adaptive_simpson, gauss_legendre,
                         integrate_to_endpoint, segments_gauss)


@dataclass(frozen=True, eq=False)
class Metric1D:
    """Positive density on the open interval (domain_lo, domain_hi).

    density/d_density/d2_density accept floats or numpy arrays.  `knots`
    lists the points where the density is not smooth (a tent's corners, a
    spline's nodes); the transform table splits its cells there.  Instances
    are immutable; expensive derived quantities (transform tables,
    divergence verdicts) are memoized per instance in module-level caches.
    """
    domain_lo: float
    domain_hi: float
    density: Callable
    d_density: Callable
    d2_density: Optional[Callable] = None
    name: str = "metric"
    claims_nonneg_curvature: bool = False
    knots: tuple = ()

    def require_inside(self, u) -> None:
        """Raise DomainError unless every element of u lies in the open domain."""
        u = np.asarray(u, float)
        outside = ~((self.domain_lo < u) & (u < self.domain_hi))
        if np.any(outside):
            raise DomainError(f"{float(u[outside][0])!r} outside the open interval "
                              f"({self.domain_lo}, {self.domain_hi})")


# ---------------------------------------------------------------------------
# metric families
# ---------------------------------------------------------------------------

def constant_metric(value: float = 1.0) -> Metric1D:
    if value <= 0:
        raise ParameterOutOfRange("constant density must be positive")
    return Metric1D(-1.0, 1.0,
                    lambda u: np.full_like(np.asarray(u, float), value),
                    lambda u: np.zeros_like(np.asarray(u, float)),
                    lambda u: np.zeros_like(np.asarray(u, float)),
                    name=f"constant({value:g})",
                    claims_nonneg_curvature=True)


def exponential_metric(c: float) -> Metric1D:
    return Metric1D(-1.0, 1.0,
                    lambda u: np.exp(c * np.asarray(u, float)),
                    lambda u: c * np.exp(c * np.asarray(u, float)),
                    lambda u: c * c * np.exp(c * np.asarray(u, float)),
                    name=f"exponential({c:g})",
                    claims_nonneg_curvature=True)


def cosine_metric() -> Metric1D:
    h = 0.5 * math.pi
    return Metric1D(-1.0, 1.0,
                    lambda u: np.cos(h * np.asarray(u, float)),
                    lambda u: -h * np.sin(h * np.asarray(u, float)),
                    lambda u: -h * h * np.cos(h * np.asarray(u, float)),
                    name="cosine",
                    claims_nonneg_curvature=True)


def hyperbolic_metric() -> Metric1D:
    def rho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return 1.0 / (1.0 - u * u)

    def drho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return 2.0 * u / (1.0 - u * u) ** 2

    def d2rho(u):
        u = np.asarray(u, float)
        with np.errstate(divide="ignore"):
            return (2.0 + 6.0 * u * u) / (1.0 - u * u) ** 3

    return Metric1D(-1.0, 1.0, rho, drho, d2rho, name="hyperbolic")


def secant_metric() -> Metric1D:
    h = 0.5 * math.pi

    def rho(u):
        return 1.0 / np.cos(h * np.asarray(u, float))

    def drho(u):
        x = h * np.asarray(u, float)
        return h * np.sin(x) / np.cos(x) ** 2

    def d2rho(u):
        x = h * np.asarray(u, float)
        sec = 1.0 / np.cos(x)
        tan = np.tan(x)
        return h * h * sec * (tan * tan + sec * sec)

    return Metric1D(-1.0, 1.0, rho, drho, d2rho, name="secant")


def half_plane_metric() -> Metric1D:
    """R(x) = 1 - exp(-x) on (0, inf)."""
    return Metric1D(0.0, math.inf,
                    lambda u: -np.expm1(-np.asarray(u, float)),
                    lambda u: np.exp(-np.asarray(u, float)),
                    lambda u: -np.exp(-np.asarray(u, float)),
                    name="half_plane_one_minus_exp",
                    claims_nonneg_curvature=True)


def tent_metric(a: float, s: float) -> Metric1D:
    """Density psi'(a, s) of the concave tent map: an even tent with flat wings.

    The density has corners at |u| in {0, s}, its knots, so no second
    derivative is attached.
    """
    from .lemmas import ConcaveTentMap   # lemmas imports this module
    psi = ConcaveTentMap(a, s)
    return Metric1D(-1.0, 1.0, psi.deriv, psi.second_deriv, None, name=psi.label,
                    knots=(-psi.s, 0.0, psi.s))


def tabulated_metric(u: Sequence[float], R: Sequence[float]) -> Metric1D:
    """Monotone-cubic interpolant through sampled (u, R) pairs, knotted at u."""
    from scipy.interpolate import PchipInterpolator
    try:
        u, R = np.asarray(u, float), np.asarray(R, float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput("tabulated metric needs numeric u/R arrays") from exc
    if u.ndim != 1 or u.shape != R.shape or len(u) < 3:
        raise InvalidInput("tabulated metric needs matching 1-d u/R arrays, >= 3 samples")
    if np.any(np.diff(u) <= 0):
        raise InvalidInput("tabulated abscissae must be strictly increasing")
    if np.any(R <= 0):
        raise InvalidInput("tabulated density must be positive")
    interp = PchipInterpolator(u, R)
    return Metric1D(float(u[0]), float(u[-1]), interp, interp.derivative(), None,
                    name="tabulated", knots=tuple(u[1:-1]))


def metric_from_json(spec: dict) -> Metric1D:
    """Build a metric from {"kind": ..., "params": {...}} documents."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidInput("metric spec must be an object with a 'kind' field")
    kind = spec["kind"]
    params = spec_params(spec)
    if kind == "constant":
        return constant_metric(spec_param(params, "value", 1.0))
    if kind == "exponential":
        if "c" not in params:
            raise InvalidInput("exponential metric needs params.c")
        return exponential_metric(spec_param(params, "c"))
    if kind == "cosine":
        return cosine_metric()
    if kind == "hyperbolic":
        return hyperbolic_metric()
    if kind == "secant":
        return secant_metric()
    if kind == "half_plane_one_minus_exp":
        return half_plane_metric()
    if kind == "lemma_psi_family":
        if "a" not in params or "s" not in params:
            raise InvalidInput("lemma_psi_family needs params.a and params.s")
        a, s = spec_param(params, "a"), spec_param(params, "s")
        if "epsilon" in params:
            from .lemmas import psi_family
            return mollify(psi_family(a, s), spec_param(params, "epsilon"))
        return tent_metric(a, s)
    if kind == "tabulated":
        u = spec.get("u", params.get("u"))
        R = spec.get("R", params.get("R"))
        if u is None or R is None:
            raise InvalidInput("tabulated metric needs 'u' and 'R' arrays")
        return tabulated_metric(u, R)
    raise InvalidInput(f"unknown metric kind {kind!r}")


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def curvature_at(metric: Metric1D, u, *, force_numeric: bool = False,
                 tols: Tolerances = DEFAULT):
    """Gaussian curvature -(1/R^2) (R'/R)' of the strip metric at u.

    Takes a float or an array and returns the same shape (a float for a
    float).  Every element must lie inside the domain, with room for its
    central-difference step on the numeric path.
    """
    u = np.asarray(u, float)
    metric.require_inside(u)
    R = np.asarray(metric.density(u), float)
    if np.any(R <= 0):
        raise DomainError(f"density must be positive, got {float(R.min())}")
    if metric.d2_density is not None and not force_numeric:
        Rp, Rpp = metric.d_density(u), metric.d2_density(u)
        w_prime = Rpp / R - (Rp / R) ** 2
    else:
        h = np.maximum(tols.diff_step, tols.diff_step * np.abs(u))
        h = np.minimum(h, np.minimum(0.5 * (u - metric.domain_lo),
                                     0.5 * (metric.domain_hi - u)))
        cramped = h < 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(u))
        if np.any(cramped):
            raise DerivativeUnavailable(
                f"cannot difference at {float(u[cramped][0])} without leaving the domain")
        w_hi = metric.d_density(u + h) / metric.density(u + h)
        w_lo = metric.d_density(u - h) / metric.density(u - h)
        w_prime = (w_hi - w_lo) / (2.0 * h)
    curv = -w_prime / (R * R)
    return float(curv) if curv.ndim == 0 else curv


@dataclass(frozen=True)
class LogConcavityReport:
    """Curvature scan of a metric over a grid; `curvature` holds the scanned values."""
    min_curvature: float
    worst_u: float
    is_nonnegative: bool
    exp_majorant_ok: bool
    majorant_min_slack: float
    curvature: np.ndarray = dataclasses.field(repr=False, compare=False)


def log_concavity_report(metric: Metric1D, grid: Sequence[float],
                         tols: Tolerances = DEFAULT) -> LogConcavityReport:
    """Scans curvature and the exponential majorant R(t) <= R(a) e^{(R'(a)/R(a))(t-a)}.

    The majorant is anchored at 0 when 0 is interior (the usual unit-interval
    case), otherwise at the grid midpoint.
    """
    grid = np.asarray(grid, float)
    curv = curvature_at(metric, grid, tols=tols)
    i = int(np.argmin(curv))
    anchor = 0.0 if metric.domain_lo < 0.0 < metric.domain_hi \
        else float(np.median(grid))
    slope = float(metric.d_density(anchor)) / float(metric.density(anchor))
    majorant = float(metric.density(anchor)) * np.exp(slope * (grid - anchor))
    slack = majorant - np.asarray(metric.density(grid), float)
    return LogConcavityReport(
        min_curvature=float(curv[i]),
        worst_u=float(grid[i]),
        is_nonnegative=bool(curv[i] >= -tols.slack_tol),
        exp_majorant_ok=bool(slack.min() >= -tols.slack_tol),
        majorant_min_slack=float(slack.min()),
        curvature=curv,
    )


# ---------------------------------------------------------------------------
# mass and the centered primitive H: one table of Gauss cells
# ---------------------------------------------------------------------------

# uniform cells of an HTransform table
_TABLE_CELLS = 4096
# the end cells of a unit table are graded into dyadic slices [1 - 2d, 1 - d]
# down to d = 2^-_FINEST: the Gauss nodes of the last cell [1 - d, 1] then
# still lie below 1, and a slice still holds 2^7 doubles
_FINEST = 46
# the divergence verdict reads the dyadic slices from d = 2^-_COARSEST on;
# coarse slices keep a power-law tail's ratio clear of the rounding of u
# near the endpoint, which drifts the ratios of fine slices
_COARSEST = 3


def _primitive_matrix(nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(n, n + 1) map from values at the n Gauss nodes of [-1, 1] to the power
    coefficients in s of the primitive, from s = -1, of their interpolant.

    Values -> Legendre coefficients (the discrete transform is exact for the
    degree n - 1 interpolant) -> primitive from -1 -> powers of s.
    """
    leg = np.polynomial.legendre
    n = len(nodes)
    to_legendre = leg.legvander(nodes, n - 1) * (weights[:, None] * (np.arange(n) + 0.5))
    return np.array([leg.leg2poly(leg.legint(row, lbnd=-1.0)) for row in to_legendre])


_GL_NODES, _GL_WEIGHTS = gauss_legendre(12)
_PRIMITIVE = _primitive_matrix(_GL_NODES, _GL_WEIGHTS)


def _gauss_cells(density: Callable, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 12-point Gauss sum of R over each cell [lo, hi] and the (cells, 13)
    power coefficients in s = (u - mid) / half of its primitive from lo.

    The primitive integrates the interpolant of the 12 samples, so at s = 1
    it is the cell's Gauss sum.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    values = np.asarray(density(mid[:, None] + half[:, None] * _GL_NODES), float)
    piece = np.sum(values * _GL_WEIGHTS, axis=-1) * half
    return piece, half[:, None] * (values @ _PRIMITIVE)


def _cumulative(piece: np.ndarray) -> np.ndarray:
    """[0, running sums of piece], each step's rounding error added back.

    Thousands of near-equal cells would otherwise drift by one rounding per
    step (5.6e-14 in the mass of a tent with flat wings).  The error of
    each step of the sequential sum is exact by TwoSum (Knuth).
    """
    cum = np.cumsum(piece)
    prev = np.concatenate([[0.0], cum[:-1]])
    back = cum - prev
    err = (prev - (cum - back)) + (piece - back)
    return np.concatenate([[0.0], cum + np.cumsum(err)])


def _cell_edges(lo: float, hi: float, knots) -> np.ndarray:
    """`_TABLE_CELLS` uniform cells of [lo, hi], split at 0 and at the knots."""
    inner = [float(k) for k in knots if lo < k < hi]
    return np.unique(np.concatenate([np.linspace(lo, hi, _TABLE_CELLS + 1), [0.0], inner]))


def _end_verdict(slices, base: float, tol: float, ceiling: float):
    """Where one end of a unit table stops, from its dyadic slice sums.

    `slices[j]` integrates R over the slice toward the endpoint with outer
    distance 2^-(_COARSEST + j), coarse to fine; `base` over the rest of the
    half-interval.  The rule is that of `integrate_to_endpoint`: a slice
    ratio q < 0.98 models the rest as a geometric tail piece * q / (1 - q).
    Returns (j, tail, steady): the first slice past which the modelled tail
    is below tol / 4 (steady False; tail None when the slice itself is below
    tol / 64, so the last cell's Gauss sum stands), else the first slice
    whose ratio is steady enough to extrapolate the tail within tol / 4 (an
    integrable power-law blow-up; steady True), else the divergence message.
    """
    total = base
    steady = None
    for j, piece in enumerate(slices):
        total += piece
        if abs(total) > ceiling:
            return f"integral estimate exceeded ceiling {ceiling:g}"
        if abs(piece) < tol / 64.0:
            return j, None, False
        if j == 0 or slices[j - 1] == 0:
            continue
        q = abs(piece / slices[j - 1])
        if q >= 0.98:
            continue
        tail = math.copysign(abs(piece) * q / (1.0 - q), piece)
        if abs(tail) < tol / 4.0:
            return j, tail, False
        if steady is None and j >= 2 and slices[j - 2] != 0:
            drift = abs(q - abs(slices[j - 1] / slices[j - 2]))
            if drift < 1e-3 and abs(tail) * drift / max(1.0 - q, 0.02) < tol / 4.0:
                steady = j, tail, True
    return steady or "endpoint slices failed to decay; integral diverges"


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=16)
def _unit_table(metric: Metric1D, quad_tol: float,
                ceiling: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float] | str:
    """Cell edges, cell polynomials, node values of H and the mass r of the
    unit table, or the divergence message.

    The uniform cells, split at the knots, have their two end cells graded
    into dyadic slices, and `_end_verdict` reads each end's slices.  Past
    the slice where it stops, one last cell, sampled anew, carries the
    modelled tail: it replaces the slices beyond, or, for a steady power-law
    tail, only the graded slices, and takes what the tail adds to the
    uniform cells kept beyond the stop.  The cumulative sum of the cells is
    H + r, so H(-1) = -r and H(1) = r.  lru_cache does not cache exceptions,
    so a NonIntegrable verdict is kept as its message for the callers to
    raise anew.
    """
    d = 0.5 ** np.arange(_COARSEST, _FINEST + 1)
    graded = 1.0 - d[d < 2.0 / _TABLE_CELLS]
    edges = np.unique(np.concatenate([_cell_edges(-1.0, 1.0, metric.knots),
                                      graded, -graded]))
    piece, coef = _gauss_cells(metric.density, edges[:-1], edges[1:])
    if not np.all(np.isfinite(piece)):
        return "non-finite quadrature values"
    ends = []
    # each end as the right end of the table seen from 0
    for side, side_piece in ((edges, piece), (-edges[::-1], piece[::-1])):
        marks = np.searchsorted(side, 1.0 - d)
        zero = int(np.searchsorted(side, 0.0))
        verdict = _end_verdict(np.add.reduceat(side_piece, marks)[:-1],
                               side_piece[zero:marks[0]].sum(), quad_tol, ceiling)
        if isinstance(verdict, str):
            return verdict
        j, tail, steady = verdict
        stop = d[j + 1]
        ends.append((stop, min(stop, 2.0 / _TABLE_CELLS) if steady else stop, tail))
    (stop_hi, cut_hi, tail_hi), (stop_lo, cut_lo, tail_lo) = ends
    i_lo = int(np.searchsorted(edges, -1.0 + cut_lo))
    i_hi = int(np.searchsorted(edges, 1.0 - cut_hi))
    edges = np.concatenate([[-1.0], edges[i_lo:i_hi + 1], [1.0]])
    last_piece, last_coef = _gauss_cells(metric.density, edges[[0, -2]], edges[[1, -1]])
    piece = np.concatenate([last_piece[:1], piece[i_lo:i_hi], last_piece[1:]])
    coef = np.concatenate([last_coef[:1], coef[i_lo:i_hi], last_coef[1:]])
    for tail, beyond, last in (
            (tail_lo, slice(0, int(np.searchsorted(edges, -1.0 + stop_lo))), 0),
            (tail_hi, slice(int(np.searchsorted(edges, 1.0 - stop_hi)), None), -1)):
        if tail is not None:
            # the last cell's polynomial keeps its shape
            fixed = tail - (piece[beyond].sum() - piece[last])
            coef[last] *= fixed / piece[last]
            piece[last] = fixed
    cum = _cumulative(piece)
    zero = int(np.searchsorted(edges, 0.0))
    if max(cum[zero], cum[-1] - cum[zero]) > ceiling:
        return f"integral estimate exceeded ceiling {ceiling:g}"
    r = 0.5 * cum[-1]
    return _frozen(edges, coef, cum - r) + (r,)


def require_unit_domain(metric: Metric1D) -> None:
    """Raise InvalidInput unless the metric lives on (-1, 1), as r and H need."""
    if metric.domain_lo != -1.0 or metric.domain_hi != 1.0:
        raise InvalidInput(f"metric {metric.name} has the domain ({metric.domain_lo:g}, "
                           f"{metric.domain_hi:g}); the mass and H need (-1, 1)")


def _unit_cells(metric: Metric1D, tols: Tolerances):
    require_unit_domain(metric)
    built = _unit_table(metric, tols.quad_abs_tol, tols.quad_ceiling)
    if isinstance(built, str):
        # a fresh instance each time: re-raising one would grow its traceback
        raise NonIntegrable(built)
    return built


def mass(metric: Metric1D, tols: Tolerances = DEFAULT) -> float:
    """r = (1/2) * integral of R over (-1, 1): half the sum of the unit
    table's cells, with any modelled endpoint tail."""
    return _unit_cells(metric, tols)[-1]


class HTransform:
    """Per-cell polynomial table of H with vectorized evaluation and inversion.

    Built once per (metric, tolerances) from R at the 12 Gauss nodes of each
    cell.  The unit table's cells are `_unit_table`'s: the uniform cells
    split at the metric's knots, graded toward +-1 as far as the divergence
    verdict needs; their cumulative sum is the mass r and the node values
    H(node).  In each cell, H(u) - H(node) is the primitive of the degree-11
    interpolant of the 12 samples, stored as its 13 power coefficients in
    s = (u - mid) / half.  h() is a cell lookup and a Horner sum; h_inv() is
    bracketed Newton in the point's cell, with the residual and the slope
    from the same polynomial, so neither calls the density after the build.
    Agrees with the scalar oracle transform_H (tested).  h() and h_inv()
    accept numpy arrays.

    For densities of infinite mass the centered H of the unit interval does
    not exist, but the primitive is still strictly increasing, so a table
    restricted to a compact value range (normalized=False, uniform cells of
    [lo, hi] split at 0 and at the knots, H(0) = 0) still lifts boundary data
    whose values stay inside that range.
    """

    def __init__(self, metric: Metric1D, tols: Tolerances = DEFAULT,
                 lo: float = -1.0, hi: float = 1.0, normalized: bool = True):
        require_unit_domain(metric)
        self.metric = metric
        self.tols = tols
        self.normalized = normalized
        if normalized:
            self._nodes, self._coef, self._h_nodes, self.r = _unit_cells(metric, tols)
            return
        if not (-1.0 <= lo < 0.0 < hi <= 1.0):
            raise DomainError("range table needs lo < 0 < hi inside [-1, 1]")
        self.r = math.nan
        self._nodes = _cell_edges(lo, hi, metric.knots)
        piece, self._coef = _gauss_cells(metric.density, self._nodes[:-1], self._nodes[1:])
        cum = _cumulative(piece)
        self._h_nodes = cum - cum[np.searchsorted(self._nodes, 0.0)]

    def _cell_frames(self, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Midpoint and half-width of the given cells."""
        lo, hi = self._nodes[cell], self._nodes[cell + 1]
        return 0.5 * (lo + hi), 0.5 * (hi - lo)

    def _local(self, cell: np.ndarray, u: np.ndarray, slope: bool = False):
        """H(u) - H(node) in each point's cell, and with `slope` also H'(u)."""
        mid, half = self._cell_frames(cell)
        s = (u - mid) / half
        rows = self._coef[cell]
        acc = rows[:, -1].copy()
        d_acc = np.zeros_like(acc) if slope else None
        for j in range(rows.shape[1] - 2, -1, -1):
            if slope:
                d_acc *= s
                d_acc += acc
            acc *= s
            acc += rows[:, j]
        return (acc, d_acc / half) if slope else acc

    def h(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, float)
        flat = np.ravel(u)
        cell = np.clip(np.searchsorted(self._nodes, flat, side="right") - 1,
                       0, len(self._nodes) - 2)
        return (self._h_nodes[cell] + self._local(cell, flat)).reshape(u.shape)

    def h_inv(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, float)
        flat = np.ravel(t)
        if self.normalized:
            if np.any(np.abs(flat) >= self.r):
                raise OutOfRange("target outside (-r, r)")
        elif np.any(flat <= self._h_nodes[0]) or np.any(flat >= self._h_nodes[-1]):
            raise OutOfRange("target outside the tabulated transform range")
        # every Newton iterate stays in the cell of its target
        cell = np.clip(np.searchsorted(self._h_nodes, flat), 1, len(self._nodes) - 1) - 1
        base = self._h_nodes[cell]
        lo = self._nodes[cell]
        hi = self._nodes[cell + 1]
        u = lo + (hi - lo) * np.clip(
            (flat - base) / np.maximum(self._h_nodes[cell + 1] - base, 1e-300),
            0.0, 1.0)
        scale = self.r if self.normalized else float(np.max(np.abs(self._h_nodes)))
        target = self.tols.inverse_rel_tol * scale
        # only points still above target move: a converged point's Newton
        # step rounds back onto its bracket end and would count as a
        # bisection, throwing it half a cell away
        live = np.arange(flat.size)
        for _ in range(80):
            ul = u[live]
            local, dens = self._local(cell[live], ul, slope=True)
            res = (base[live] + local) - flat[live]
            # written so that a NaN residual counts as not converged
            moving = ~(np.abs(res) <= target)
            if not np.any(moving):
                break
            live, ul, res, dens = live[moving], ul[moving], res[moving], dens[moving]
            above = res > 0
            hl = np.where(above, ul, hi[live])
            ll = np.where(above, lo[live], ul)
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = ul - res / dens
            bad = ~np.isfinite(newton) | (newton <= ll) | (newton >= hl)
            u[live] = np.where(bad, 0.5 * (ll + hl), newton)
            lo[live], hi[live] = ll, hl
        else:
            raise NumericInversionFailure(
                f"H inversion did not converge in 80 iterations: max residual "
                f"{np.max(np.abs(res)):.3e} above {target:.3e}")
        return u.reshape(t.shape)


@functools.lru_cache(maxsize=16)
def transform_table(metric: Metric1D, tols: Tolerances = DEFAULT) -> HTransform:
    return HTransform(metric, tols)


# ---------------------------------------------------------------------------
# the scalar oracle: adaptive Simpson one point at a time, for the tests
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _half_masses(metric: Metric1D, quad_tol: float, ceiling: float) -> tuple[float, float]:
    """The oracle's A = integral over (0, 1) and B = over (-1, 0)."""
    A = integrate_to_endpoint(lambda t: float(metric.density(t)), 0.0, 1.0,
                              tol=quad_tol, ceiling=ceiling)
    B = integrate_to_endpoint(lambda t: float(metric.density(-t)), 0.0, 1.0,
                              tol=quad_tol, ceiling=ceiling)
    return A, B


def transform_H(metric: Metric1D, u: float, tols: Tolerances = DEFAULT) -> float:
    """Centered primitive H(u) = -(A - B)/2 + integral of R from 0 to u."""
    require_unit_domain(metric)
    u = float(u)
    metric.require_inside(u)
    A, B = _half_masses(metric, tols.quad_abs_tol, tols.quad_ceiling)
    core = adaptive_simpson(lambda t: float(metric.density(t)), 0.0, u,
                            tol=tols.quad_abs_tol, ceiling=tols.quad_ceiling)
    return -0.5 * (A - B) + core


def inverse_H(metric: Metric1D, t: float, tols: Tolerances = DEFAULT) -> float:
    """The unique u in (-1, 1) with H(u) = t, for t strictly inside (-r, r)."""
    r = 0.5 * sum(_half_masses(metric, tols.quad_abs_tol, tols.quad_ceiling))
    t = float(t)
    if abs(t) >= r:
        raise OutOfRange(f"target {t} outside (-r, r) with r = {r}")
    lo, hi = -1.0 + 1e-14, 1.0 - 1e-14
    u = 0.0
    h_u = transform_H(metric, u, tols=tols)
    target_tol = tols.inverse_rel_tol * r
    for _ in range(120):
        if abs(h_u - t) <= target_tol:
            return u
        if h_u < t:
            lo = u
        else:
            hi = u
        density = float(metric.density(u))
        candidate = u - (h_u - t) / density if density > 0 else math.nan
        u = candidate if (math.isfinite(candidate) and lo < candidate < hi) else 0.5 * (lo + hi)
        h_u = transform_H(metric, u, tols=tols)
    if abs(h_u - t) <= 10 * target_tol:
        return u
    raise OutOfRange(f"inversion stalled at |H(u)-t| = {abs(h_u - t):.3e}")


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def _raw_bump(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, float)
    inside = np.abs(z) < 1.0
    zz = np.where(inside, z, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(inside, np.exp(-1.0 / (1.0 - zz * zz)), 0.0)


_MOLLIFY_GL = gauss_legendre(32)


# extra z-splits so fixed-order Gauss handles the bump's flat endpoints
_BUMP_SPLITS = np.array([-0.9, -0.5, 0.5, 0.9])


@functools.lru_cache(maxsize=1)
def _bump_norm() -> float:
    edges = np.concatenate([[-1.0], _BUMP_SPLITS, [1.0]])
    return float(segments_gauss(_raw_bump, edges[:-1], edges[1:], *_MOLLIFY_GL))


def bump(z: np.ndarray) -> np.ndarray:
    """Smooth even bump supported in (-1, 1) with unit integral."""
    return _raw_bump(z) / _bump_norm()


def _reflected(psi_fn: Callable, x: np.ndarray) -> np.ndarray:
    """Extend an odd map on [-1, 1] to [-2, 2] by point reflection at (+-1, +-1)."""
    x = np.asarray(x, float)
    core = np.clip(x, -1.0, 1.0)
    val = np.asarray(psi_fn(core), float)
    hi = x > 1.0
    lo = x < -1.0
    if np.any(hi):
        val = np.where(hi, 2.0 - np.asarray(psi_fn(np.clip(2.0 - x, -1.0, 1.0)), float), val)
    if np.any(lo):
        val = np.where(lo, -2.0 - np.asarray(psi_fn(np.clip(-2.0 - x, -1.0, 1.0)), float), val)
    return val


def _reflected_deriv(dpsi_fn: Callable, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, float)
    folded = np.where(x > 1.0, 2.0 - x, np.where(x < -1.0, -2.0 - x, x))
    return np.asarray(dpsi_fn(np.clip(folded, -1.0, 1.0)), float)


def _convolve_with_bump(fn: Callable, x: np.ndarray, epsilon: float,
                        cuts: np.ndarray) -> np.ndarray:
    """integral over z in (-1,1) of fn(x - eps z) * bump(z), segment-split at cuts."""
    x = np.asarray(x, float)
    flat = np.ravel(x)
    z_cuts = (flat[:, None] - cuts[None, :]) / epsilon
    z_cuts = np.concatenate(
        [z_cuts, np.broadcast_to(_BUMP_SPLITS, (len(flat), len(_BUMP_SPLITS)))], axis=1)
    z_cuts = np.clip(z_cuts, -1.0, 1.0)
    pts = np.concatenate([np.full((len(flat), 1), -1.0), np.sort(z_cuts, axis=1),
                          np.full((len(flat), 1), 1.0)], axis=1)
    nodes, weights = _MOLLIFY_GL
    lo, hi = pts[:, :-1], pts[:, 1:]

    def integrand(z):
        return fn(flat[:, None, None] - epsilon * z) * bump(z)

    out = segments_gauss(integrand, lo, hi, nodes, weights)
    return out.reshape(x.shape)


def mollified_density_exact(psi: Callable, epsilon: float) -> Callable:
    """Direct convolution evaluation of the smoothed derivative (slow path).

    `psi` carries its derivative `deriv` and the break points `knots` of
    that derivative on [0, 1], as `ConcaveTentMap` does.
    """
    knots = np.asarray(psi.knots, float)
    knots = np.unique(np.concatenate([knots, -knots, 2.0 - knots, knots - 2.0]))

    def dfn(x):
        return _reflected_deriv(psi.deriv, x)

    norm = float(_convolve_with_bump(lambda x: _reflected(psi, x),
                                     np.array([1.0]), epsilon, knots)[0])

    def density(u):
        return _convolve_with_bump(dfn, np.asarray(u, float), epsilon, knots) / norm

    return density


def mollify(psi: Callable, epsilon: float, tols: Tolerances = DEFAULT,
            table_points: int = 8193) -> Metric1D:
    """Smooth the derivative of an odd increasing piecewise map into a metric.

    The map is extended beyond [-1, 1] by point reflection (which pins the
    normalization: the smoothed map still sends 1 to 1 and stays odd), then
    its derivative is convolved with the scaled bump.  The convolution is
    sampled densely and carried as a cubic spline so downstream solvers can
    evaluate the density cheaply; the spline is what the returned metric *is*,
    and its nodes are the metric's knots, so the transform table integrates
    it exactly even where the smoothed corners are narrower than a cell.
    """
    if not (0.0 < epsilon < 1.0):
        raise InvalidInput("epsilon must lie in (0, 1)")
    if not (hasattr(psi, "deriv") and hasattr(psi, "knots")):
        raise InvalidInput("psi must carry its derivative `deriv` and its `knots`")
    probe = np.linspace(-1.0, 1.0, 513)
    vals = np.asarray(psi(probe), float)
    if abs(vals[-1] - 1.0) > 1e-9 or abs(vals[0] + 1.0) > 1e-9:
        raise InvalidInput("psi must map -1 to -1 and 1 to 1")
    if np.max(np.abs(vals + vals[::-1])) > 1e-9:
        raise InvalidInput("psi must be odd")
    if np.any(np.diff(vals) < -1e-12):
        raise InvalidInput("psi must be non-decreasing")

    from scipy.interpolate import CubicSpline
    exact = mollified_density_exact(psi, epsilon)
    xs = np.linspace(-1.0, 1.0, table_points)
    spline = CubicSpline(xs, exact(xs))
    d_spline = spline.derivative()

    label = getattr(psi, "label", "psi")
    return Metric1D(-1.0, 1.0,
                    lambda u: spline(np.asarray(u, float)),
                    lambda u: d_spline(np.asarray(u, float)),
                    None,
                    name=f"mollified({label}, eps={epsilon:g})",
                    knots=tuple(xs[1:-1]))
