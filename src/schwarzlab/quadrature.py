"""Quadrature rules: fixed-order Gauss-Legendre, and adaptive Simpson as an oracle.

`segments_gauss` serves the package: it sums fixed-order Gauss-Legendre
rules (nodes and weights from numpy's `leggauss`) over batches of
segments; the mollifier's bump is normalized over 32-point Gauss segments.

`adaptive_simpson` and `integrate_to_endpoint` are the scalar test oracle
for that table, one point at a time.  Interior integrals use plain
adaptive Simpson; integrals up to an open endpoint refine toward it in
dyadic slices and declare divergence when the slice contributions stop
decaying or the running estimate blows past a ceiling.  The table's
divergence verdict applies the same slice rule to its own graded cells.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import NonIntegrable

_MAX_DEPTH = 48
_ENDPOINT_HALVINGS = 48


def _simpson(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float,
                     tol: float = 1e-12, ceiling: float = 1e12) -> float:
    """Integrate f over [a, b] with adaptive Simpson refinement.

    Raises NonIntegrable if the running estimate exceeds `ceiling` or the
    recursion bottoms out without meeting the tolerance budget.
    """
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson(f, a, fa, b, fb, m, fm)
    total = _adaptive(f, a, fa, b, fb, m, fm, whole, tol, ceiling, _MAX_DEPTH)
    return sign * total


def _adaptive(f, a, fa, b, fb, m, fm, whole, tol, ceiling, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson(f, a, fa, m, fm, lm, flm)
    right = _simpson(f, m, fm, b, fb, rm, frm)
    if not (math.isfinite(left) and math.isfinite(right)):
        raise NonIntegrable(f"non-finite quadrature values on [{a}, {b}]")
    if abs(left) + abs(right) > ceiling:
        raise NonIntegrable(f"integral estimate exceeded ceiling {ceiling:g}")
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth <= 0:
        if depth <= 0 and abs(err) > 1e6 * tol:
            raise NonIntegrable("adaptive refinement exhausted without convergence")
        return left + right + err / 15.0
    half = 0.5 * tol
    return (_adaptive(f, a, fa, m, fm, lm, flm, left, half, ceiling, depth - 1)
            + _adaptive(f, m, fm, b, fb, rm, frm, right, half, ceiling, depth - 1))


def integrate_to_endpoint(f: Callable[[float], float], a: float, endpoint: float,
                          tol: float = 1e-12, ceiling: float = 1e12) -> float:
    """Integrate f from a up to an *open* endpoint (endpoint > a).

    Splits off dyadic slices [endpoint - d, endpoint - d/2] and sums them
    until they fall below the tolerance.  A slice sequence that refuses to
    decay (e.g. the hyperbolic density near +-1) raises NonIntegrable.
    """
    if endpoint <= a:
        raise ValueError("endpoint must exceed the lower limit")
    d = (endpoint - a) / 8.0
    total = adaptive_simpson(f, a, endpoint - d, tol / 4.0, ceiling)
    pieces: list[float] = []
    for _ in range(_ENDPOINT_HALVINGS):
        nxt = d / 2.0
        lo, hi = endpoint - d, endpoint - nxt
        if not lo < hi < endpoint:
            # float resolution reached before the slices decayed
            raise NonIntegrable("endpoint slices failed to decay; integral diverges")
        piece = adaptive_simpson(f, lo, hi, tol / 8.0, ceiling)
        total += piece
        pieces.append(piece)
        if abs(total) > ceiling:
            raise NonIntegrable(f"integral estimate exceeded ceiling {ceiling:g}")
        d = nxt
        # geometric tail extrapolation: dyadic slices of an integrable
        # endpoint singularity decay with a stable ratio q < 1, and the
        # remaining tail is piece * q / (1 - q).  Stop once the modelled
        # tail (and its drift uncertainty) is inside the budget.
        if len(pieces) >= 2 and abs(pieces[-2]) > 0:
            q = abs(pieces[-1]) / abs(pieces[-2])
            if q < 0.98:
                tail = abs(pieces[-1]) * q / (1.0 - q)
                drift = (abs(q - abs(pieces[-2]) / abs(pieces[-3]))
                         if len(pieces) >= 3 and abs(pieces[-3]) > 0 else math.inf)
                tail_err = tail * drift / max(1.0 - q, 0.02)
                if tail < tol / 4.0 or (drift < 1e-3 and tail_err < tol / 4.0):
                    return total + math.copysign(tail, pieces[-1])
        if abs(piece) < tol / 64.0:
            return total
    raise NonIntegrable("endpoint slices failed to decay; integral diverges")


def segments_gauss(f, bounds_lo: np.ndarray, bounds_hi: np.ndarray,
                   nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fixed-order Gauss-Legendre applied to a batch of segments.

    bounds_lo/bounds_hi have shape (..., k); the result sums the k segment
    integrals per leading index.  Zero-width segments contribute zero, so
    callers may clip inactive cut points onto a segment edge.
    """
    mid = 0.5 * (bounds_lo + bounds_hi)[..., None]
    half = 0.5 * (bounds_hi - bounds_lo)[..., None]
    pts = mid + half * nodes
    vals = f(pts)
    return np.sum(np.sum(vals * weights, axis=-1) * half[..., 0], axis=-1)
