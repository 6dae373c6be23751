"""Brute-force oracles and sharpness sweeps for the two scalar lemmas.

One lemma concerns increasing diffeomorphisms of [-1, 1] with log-concave
derivative: f'(x)(1 - x^2) >= 1 - f(x)^2.  The other concerns unimodal
densities on (-1, 1) and a sine bound on their tail integrals.  Both get
randomized oracles here, together with the closed-form proof quantities
used to certify them and the tent family that approaches sharpness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InvalidInput, ParameterOutOfRange, PreconditionViolated
from .lifetime import lifetime_cache
from .metrics import ConcaveTentMap, Metric1D, _cell_of, transform_table

_UNIMODAL_SAMPLES = 401    # points per half of the sampled unimodality check
_UNIMODAL_TOL = 1e-9       # its slope band, relative to the peak sample
_PSI_N_MIN = 2             # the psi sweep starts at s = 1/2


# ---------------------------------------------------------------------------
# log-concave-derivative diffeomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogConcaveDiffeo:
    """Increasing diffeomorphism of [-1, 1] with piecewise-linear log f'.

    knots_x spans [-1, 1]; knots_h holds log f' at the knots before the
    normalization that forces integral of f' over [-1, 1] to equal 2.
    Slopes of the log-derivative must be strictly decreasing (concavity).
    """
    knots_x: np.ndarray
    knots_h: np.ndarray
    slopes: np.ndarray = field(init=False)
    scale: float = field(init=False)
    f_knots: np.ndarray = field(init=False)

    def __post_init__(self):
        xs = np.asarray(self.knots_x, float)
        hs = np.asarray(self.knots_h, float)
        if xs[0] != -1.0 or xs[-1] != 1.0 or np.any(np.diff(xs) <= 0):
            raise InvalidInput("knot abscissae must increase from -1 to 1")
        slopes = np.diff(hs) / np.diff(xs)
        if len(slopes) > 1 and np.any(np.diff(slopes) >= 0):
            raise InvalidInput("log-derivative slopes must strictly decrease")
        object.__setattr__(self, "slopes", slopes)
        # integral of exp(log f') over each piece, before the normalization
        pieces = np.exp(hs[:-1]) * _expm1_over(slopes, np.diff(xs))
        total = float(np.sum(pieces))
        object.__setattr__(self, "scale", 2.0 / total)
        cum = np.concatenate([[0.0], np.cumsum(pieces)]) * self.scale
        object.__setattr__(self, "f_knots", -1.0 + cum)

    def _local(self, x):
        """Piece index of x, offset from its left knot, log f' there and its slope."""
        x = np.asarray(x, float)
        i = _cell_of(self.knots_x, x)
        return i, x - self.knots_x[i], self.knots_h[i], self.slopes[i]

    def f(self, x) -> np.ndarray:
        i, dx, h0, s = self._local(x)
        return self.f_knots[i] + self.scale * np.exp(h0) * _expm1_over(s, dx)

    def f_prime(self, x) -> np.ndarray:
        _, dx, h0, s = self._local(x)
        return self.scale * np.exp(h0 + s * dx)

    def to_json_dict(self) -> dict:
        return {"knots_x": list(map(float, self.knots_x)),
                "knots_h": list(map(float, self.knots_h))}


def _expm1_over(s: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """expm1(s dx) / s, the integral of exp(s t) over (0, dx); dx itself
    where |s| < 1e-12, its limit as s -> 0.  An overflow raises."""
    small = np.abs(s) < 1e-12
    with np.errstate(over="raise"):
        return np.where(small, dx, np.expm1(np.where(small, 0.0, s) * dx)
                        / np.where(small, 1.0, s))


def generate_logconcave(seed: int, knot_count: int = 6) -> LogConcaveDiffeo:
    """Deterministic random diffeomorphism with concave piecewise-linear log f'."""
    if knot_count < 2:
        raise InvalidInput("need at least the two endpoint knots")
    rng = np.random.default_rng(seed)
    if knot_count > 2:
        interior = np.sort(rng.uniform(-1.0, 1.0, knot_count - 2))
        xs = np.concatenate([[-1.0], interior, [1.0]])
        while np.any(np.diff(xs) < 1e-9):
            interior = np.sort(rng.uniform(-1.0, 1.0, knot_count - 2))
            xs = np.concatenate([[-1.0], interior, [1.0]])
    else:
        xs = np.array([-1.0, 1.0])
    slopes = np.sort(rng.uniform(-5.0, 5.0, knot_count - 1))[::-1]
    hs = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return LogConcaveDiffeo(xs, hs)


def logconcave_diffeo_slack(diffeo: LogConcaveDiffeo,
                            grid: Sequence[float]) -> float:
    """min over the grid of f'(x)(1 - x^2) - (1 - f(x)^2); expected >= 0."""
    x = np.asarray(grid, float)
    return float(np.min(diffeo.f_prime(x) * (1.0 - x * x)
                        - (1.0 - diffeo.f(x) ** 2)))


# ---------------------------------------------------------------------------
# proof quantities for the diffeomorphism inequality
# ---------------------------------------------------------------------------

def r_ratio(k, x):
    """2 (cosh k - cosh kx) csch(k) / (k (1 - x^2)); even in k and in x, <= 1.

    Evaluated, with K = |k| and X = |x|, as
    2 expm1(-K(1 - X)) expm1(-K(1 + X)) / (-expm1(-2K) K (1 - X^2)), which
    neither overflows at large K (cosh and sinh do past 710) nor cancels at
    small K (cosh k - cosh kx does).
    """
    k = np.abs(np.asarray(k, float))
    x = np.abs(np.asarray(x, float))
    if np.any(k == 0.0):
        raise ParameterOutOfRange("k must be nonzero (use a small k for the limit)")
    return (2.0 * np.expm1(-k * (1.0 - x)) * np.expm1(-k * (1.0 + x))
            / (-np.expm1(-2.0 * k) * k * (1.0 - x * x)))


def _dif(k, x):
    k = np.asarray(k, float)
    x = np.asarray(x, float)
    return 2.0 * (np.cosh(k) - np.cosh(k * x)) / (np.sinh(k) * k) - (1.0 - x * x)


@dataclass(frozen=True)
class DifDiagnostics:
    max_dif: float
    max_dif_third: float
    anchor_dif_at_1: float
    anchor_dprime_at_0: float
    anchor_dprime_at_1: float


def dif_diagnostics(k: float, grid: Sequence[float]) -> DifDiagnostics:
    """Concavity-pattern diagnostics for dif(x) = (1-x^2)(r(k,x) - 1) on [0, 1].

    dif should be <= 0 on [0, 1], its analytic third derivative
    -2 k^2 csch(k) sinh(kx) should be <= 0, and the anchors
    dif(1) = dif'(0) = dif'(1) = 0 are checked by finite differences.
    """
    if k <= 0:
        raise ParameterOutOfRange("k must be positive")
    x = np.asarray(grid, float)
    dif = _dif(k, x)
    third = -2.0 * k * k / math.sinh(k) * np.sinh(k * x)
    h = 1e-6
    dprime0 = float((_dif(k, h) - _dif(k, -h)) / (2 * h))
    dprime1 = float((_dif(k, 1 + h) - _dif(k, 1 - h)) / (2 * h))
    return DifDiagnostics(
        max_dif=float(np.max(dif)),
        max_dif_third=float(np.max(third)),
        anchor_dif_at_1=float(_dif(k, 1.0)),
        anchor_dprime_at_0=dprime0,
        anchor_dprime_at_1=dprime1,
    )


# ---------------------------------------------------------------------------
# unimodal densities
# ---------------------------------------------------------------------------

@lifetime_cache()
def check_unimodal(metric: Metric1D) -> bool:
    """Sampled check that R is non-decreasing on (-1,0), non-increasing on (0,1).

    The slope sign is read off sampled density differences rather than the
    stored derivative: interpolant-backed densities carry derivative noise
    near sharp smoothed corners that value differences do not see.  The
    verdict is taken once for as long as the metric lives.
    """
    left = np.linspace(-1.0 + 1e-6, -1e-6, _UNIMODAL_SAMPLES)
    right = np.linspace(1e-6, 1.0 - 1e-6, _UNIMODAL_SAMPLES)
    r_left = np.asarray(metric.density(left), float)
    r_right = np.asarray(metric.density(right), float)
    band = _UNIMODAL_TOL * max(1.0, float(np.max(r_left)), float(np.max(r_right)))
    return bool(np.all(np.diff(r_left) >= -band)
                and np.all(np.diff(r_right) <= band))


def unimodal_slack(metric: Metric1D, v, tols: Tolerances = DEFAULT):
    """Slack of the sine tail bound for unimodal densities at v; expected >= 0.

    slack = (pi / 2r)(1 - |v|) R(v) - sin(pi * integral_v^1 R / (2r)).

    Takes a float or an array of v and returns the same shape.  The mass and
    the tail integral r - H(v) come from the transform table, whose cells
    split at the metric's knots, so tent corners fall on cell edges.
    """
    if not check_unimodal(metric):
        raise PreconditionViolated("density is not unimodal (sampled R' sign check)")
    v = np.asarray(v, float)
    metric.require_inside(v)
    table = transform_table(metric, tols)
    r = table.r
    tail = r - table.h(v)  # integral of R over (v, 1)
    rhs = math.pi / (2.0 * r) * (1.0 - np.abs(v)) * np.asarray(metric.density(v), float)
    slack = rhs - np.sin(math.pi * tail / (2.0 * r))
    return float(slack) if slack.ndim == 0 else slack


def sharpness_ratio(a, s):
    """Closed-form sharpness quotient of the tent family at its corner.

    Equals 2 sin((pi/2)(1-s)(1-u)) / (pi (1-s^2)(1-u)) with u = a s^2; its
    supremum over admissible (a, s) is 1, approached as s -> 0, u -> 1.
    Broadcasts over arrays of a and s; returns a float for scalars.
    """
    a, s = np.asarray(a, float), np.asarray(s, float)
    u = a * s * s
    if not np.all((0.0 < s) & (s < 1.0) & (0.0 < u) & (u < 1.0)):
        raise ParameterOutOfRange("need s in (0,1) and a*s^2 in (0,1)")
    ratio = (2.0 * np.sin(0.5 * math.pi * (1.0 - s) * (1.0 - u))
             / (math.pi * (1.0 - s * s) * (1.0 - u)))
    return float(ratio) if ratio.ndim == 0 else ratio


psi_family = ConcaveTentMap   # the odd concave tent map, input for metrics.mollify


def psi_sweep(n_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns n, s, u and ratio of the sharpness quotient along
    s = 1/n, u = (n-1)^2/n^2, for n = 2 .. n_max."""
    n = np.arange(float(_PSI_N_MIN), n_max + 1.0)
    s = 1.0 / n
    u = (n - 1.0) ** 2 / n ** 2
    return n, s, u, sharpness_ratio(u / (s * s), s)
