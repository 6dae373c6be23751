"""Oracles shared by the test modules."""

import pytest


def _difference_quotient_curvature(metric, u: float, step: float = 1e-6) -> float:
    """-(1/R^2)(R'/R)' at the float u, with (R'/R)' a central difference
    quotient: an oracle for the closed-form curvature that reads no second
    derivative.  The step max(step, step |u|) is kept within half the
    distance to each end of the domain."""
    u = float(u)
    h = min(max(step, step * abs(u)), 0.5 * (u - metric.domain_lo),
            0.5 * (metric.domain_hi - u))
    w_hi = float(metric.d_density(u + h)) / float(metric.density(u + h))
    w_lo = float(metric.d_density(u - h)) / float(metric.density(u - h))
    R = float(metric.density(u))
    return -((w_hi - w_lo) / (2.0 * h)) / (R * R)


@pytest.fixture
def difference_quotient_curvature():
    return _difference_quotient_curvature
