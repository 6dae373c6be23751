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
from typing import Dict, Sequence

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InvalidInput, ParameterOutOfRange, PreconditionViolated
from .metrics import Metric1D, mass, transform_H


@dataclass(frozen=True)
class SweepRecord:
    parameters: Dict[str, float]
    ratio: float


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
        pieces = _exp_piece_integrals(xs, hs)
        total = float(np.sum(pieces))
        object.__setattr__(self, "scale", 2.0 / total)
        cum = np.concatenate([[0.0], np.cumsum(pieces)]) * self.scale
        object.__setattr__(self, "f_knots", -1.0 + cum)

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.knots_h) / np.diff(self.knots_x)

    def _local(self, x):
        """Piece index of x, offset from its left knot, log f' there and its slope."""
        x = np.asarray(x, float)
        i = np.clip(np.searchsorted(self.knots_x, x, side="right") - 1,
                    0, len(self.knots_x) - 2)
        x0 = self.knots_x[i]
        h0 = self.knots_h[i]
        s = (self.knots_h[i + 1] - h0) / (self.knots_x[i + 1] - x0)
        return i, x - x0, h0, s

    def f(self, x) -> np.ndarray:
        i, dx, h0, s = self._local(x)
        small = np.abs(s) < 1e-12
        with np.errstate(over="raise"):
            grow = np.where(small, dx, np.expm1(np.where(small, 0.0, s) * dx)
                            / np.where(small, 1.0, s))
        return self.f_knots[i] + self.scale * np.exp(h0) * grow

    def f_prime(self, x) -> np.ndarray:
        _, dx, h0, s = self._local(x)
        return self.scale * np.exp(h0 + s * dx)

    def to_json_dict(self) -> dict:
        return {"knots_x": list(map(float, self.knots_x)),
                "knots_h": list(map(float, self.knots_h))}


def _exp_piece_integrals(xs: np.ndarray, hs: np.ndarray) -> np.ndarray:
    dx = np.diff(xs)
    s = np.diff(hs) / dx
    small = np.abs(s) < 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        grow = np.where(small, dx, np.expm1(s * dx) / np.where(small, 1.0, s))
    return np.exp(hs[:-1]) * grow


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
    """2 (cosh k - cosh kx) csch(k) / (k (1 - x^2)); even in k and in x, <= 1."""
    k = np.asarray(k, float)
    x = np.asarray(x, float)
    if np.any(k == 0.0):
        raise ParameterOutOfRange("k must be nonzero (use a small k for the limit)")
    return 2.0 * (np.cosh(k) - np.cosh(k * x)) / (np.sinh(k) * k * (1.0 - x * x))


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

def check_unimodal(metric: Metric1D, samples: int = 401,
                   tol: float = 1e-9) -> bool:
    """Sampled check that R is non-decreasing on (-1,0), non-increasing on (0,1).

    The slope sign is read off sampled density differences rather than the
    stored derivative: interpolant-backed densities carry derivative noise
    near sharp smoothed corners that value differences do not see.
    """
    left = np.linspace(-1.0 + 1e-6, -1e-6, samples)
    right = np.linspace(1e-6, 1.0 - 1e-6, samples)
    r_left = np.asarray(metric.density(left), float)
    r_right = np.asarray(metric.density(right), float)
    band = tol * max(1.0, float(np.max(r_left)), float(np.max(r_right)))
    return bool(np.all(np.diff(r_left) >= -band)
                and np.all(np.diff(r_right) <= band))


def unimodal_slack(metric: Metric1D, v, tols: Tolerances = DEFAULT):
    """Slack of the sine tail bound for unimodal densities at v; expected >= 0.

    slack = (pi / 2r)(1 - |v|) R(v) - sin(pi * integral_v^1 R / (2r)).

    Takes a float or an array of v and returns the same shape.  The tail
    integral is the scalar adaptive `transform_H` at each v: the transform
    table misses tent corners between its nodes by more than slack_tol.
    """
    if not check_unimodal(metric):
        raise PreconditionViolated("density is not unimodal (sampled R' sign check)")
    v = np.asarray(v, float)
    metric.require_inside(v)
    r = mass(metric, tols=tols)
    h = np.array([transform_H(metric, u, tols=tols) for u in v.ravel()])
    tail = r - h.reshape(v.shape)  # integral of R over (v, 1)
    rhs = math.pi / (2.0 * r) * (1.0 - np.abs(v)) * np.asarray(metric.density(v), float)
    slack = rhs - np.sin(math.pi * tail / (2.0 * r))
    return float(slack) if slack.ndim == 0 else slack


def sharpness_ratio(a: float, s: float) -> float:
    """Closed-form sharpness quotient of the tent family at its corner.

    Equals 2 sin((pi/2)(1-s)(1-u)) / (pi (1-s^2)(1-u)) with u = a s^2; its
    supremum over admissible (a, s) is 1, approached as s -> 0, u -> 1.
    """
    u = a * s * s
    if not (0.0 < s < 1.0) or not (0.0 < u < 1.0):
        raise ParameterOutOfRange("need s in (0,1) and a*s^2 in (0,1)")
    return (2.0 * math.sin(0.5 * math.pi * (1.0 - s) * (1.0 - u))
            / (math.pi * (1.0 - s * s) * (1.0 - u)))


class ConcaveTentMap:
    """Odd piecewise map: concave quadratic cap on (0, s), affine tail on (s, 1).

    Continuously differentiable, fixes 0 and +-1, and is the input the
    mollifier expects (callable with deriv/second_deriv/knots attributes).
    """

    def __init__(self, a: float, s: float):
        u = a * s * s
        if not (0.0 < s < 1.0) or not (0.0 < u < 1.0) or a <= 0:
            raise ParameterOutOfRange("need s in (0,1) and a*s^2 in (0,1)")
        self.a = float(a)
        self.s = float(s)
        self.u = float(u)
        self.knots = (0.0, self.s, 1.0)
        self.label = f"tent(a={a:g}, s={s:g})"

    def __call__(self, x):
        x = np.asarray(x, float)
        ax = np.abs(x)
        cap = (1.0 + 2.0 * self.a * self.s - self.u) * ax - self.a * ax * ax
        tail = 1.0 + (1.0 - self.u) * (ax - 1.0)
        return np.sign(x) * np.where(ax < self.s, cap, tail)

    def deriv(self, x):
        ax = np.abs(np.asarray(x, float))
        return np.where(ax < self.s,
                        (1.0 + 2.0 * self.a * self.s - self.u) - 2.0 * self.a * ax,
                        1.0 - self.u)

    def second_deriv(self, x):
        x = np.asarray(x, float)
        return np.where(np.abs(x) < self.s, -2.0 * self.a * np.sign(x), 0.0)


def psi_family(a: float, s: float) -> ConcaveTentMap:
    """The odd concave tent map; suitable input for metrics.mollify."""
    return ConcaveTentMap(a, s)


def psi_sweep(n_max: int, n_min: int = 2) -> list[SweepRecord]:
    """Sharpness quotient along s = 1/n, u = (n-1)^2/n^2."""
    records = []
    for n in range(n_min, n_max + 1):
        s = 1.0 / n
        u = (n - 1.0) ** 2 / n ** 2
        a = u / (s * s)
        records.append(SweepRecord({"n": float(n), "s": s, "u": u},
                                   sharpness_ratio(a, s)))
    return records
