import math

import numpy as np
from numpy.polynomial.legendre import leggauss
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.errors import NonIntegrable
from schwarzlab.quadrature import (adaptive_simpson, integrate_to_endpoint,
                                   segments_gauss)


def test_polynomial_exact():
    # Simpson is exact on cubics
    val = adaptive_simpson(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0)
    exact = (2.0 ** 4 / 4 - 2.0 ** 2 + 2.0) - ((-1.0) ** 4 / 4 - 1.0 + (-1.0))
    assert val == pytest.approx(exact, abs=1e-12)


def test_reversed_limits_flip_sign():
    a = adaptive_simpson(math.exp, 0.0, 1.0)
    b = adaptive_simpson(math.exp, 1.0, 0.0)
    assert a == pytest.approx(math.e - 1.0, abs=1e-12)
    assert b == pytest.approx(-(math.e - 1.0), abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_sin_antiderivative(a, b):
    val = adaptive_simpson(math.sin, a, b, tol=1e-13)
    assert val == pytest.approx(math.cos(a) - math.cos(b), abs=1e-11)


def test_endpoint_integrable_sqrt_singularity():
    # integral of 1/sqrt(1-x) over (0, 1) = 2
    val = integrate_to_endpoint(lambda x: 1.0 / math.sqrt(1.0 - x), 0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-7)


def test_endpoint_divergent_raises():
    with pytest.raises(NonIntegrable):
        integrate_to_endpoint(lambda x: 1.0 / (1.0 - x), 0.0, 1.0)


def test_ceiling_raises():
    with pytest.raises(NonIntegrable):
        adaptive_simpson(lambda x: 1e13, 0.0, 1.0, ceiling=1e12)


def test_segments_gauss_matches_adaptive():
    nodes, weights = leggauss(12)
    lo = np.array([[0.0, 0.5]])
    hi = np.array([[0.5, 1.3]])
    val = segments_gauss(np.exp, lo, hi, nodes, weights)
    assert val[0] == pytest.approx(math.exp(1.3) - 1.0, abs=1e-12)


def test_segments_gauss_zero_width_contributes_nothing():
    nodes, weights = leggauss(8)
    lo = np.array([[0.0, 0.7, 0.7]])
    hi = np.array([[0.7, 0.7, 1.0]])
    val = segments_gauss(np.sin, lo, hi, nodes, weights)
    assert val[0] == pytest.approx(1.0 - math.cos(1.0), abs=1e-12)
