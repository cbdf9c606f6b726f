import math

import numpy as np
import pytest

from cdpulse import fit_cubic
from cdpulse.errors import InvalidIntervalError


def solve_cubic_oracle(t0, tf, f0, ff, df0=0.0, dff=0.0):
    """Independent oracle: solve the 4x4 endpoint system directly."""
    dt = tf - t0
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, dt, dt**2, dt**3],
            [0.0, 1.0, 2.0 * dt, 3.0 * dt**2],
        ]
    )
    rhs = np.array([f0, df0, ff, dff])
    return np.linalg.solve(A, rhs)


class TestFitCubic:
    def test_single_target_boundary(self):
        # theta: 0 -> arcsin(nu), zero end slopes
        nu = 1.0 / math.sqrt(2.0)
        poly = fit_cubic(0.0, 1.0, 0.0, math.asin(nu))
        assert poly.a0 == 0.0
        assert poly.a1 == 0.0
        assert poly.a2 == pytest.approx(3.0 * math.asin(nu), abs=1e-15)
        assert poly.a3 == pytest.approx(-2.0 * math.asin(nu), abs=1e-15)

    def test_constant_boundary(self):
        poly = fit_cubic(0.0, 2.0, 0.7, 0.7)
        t = np.linspace(0.0, 2.0, 11)
        assert np.allclose(poly(t), 0.7, atol=1e-15)
        assert np.allclose(poly.derivative(t), 0.0, atol=1e-15)

    def test_half_pi_to_chi_matches_linear_solve(self):
        # the theta boundary of the three-field design; the generic solve is
        # the ground truth for the coefficient table
        chi = math.atan2(1.0, math.sqrt(2.0))
        for T in (0.5, 1.0, 2.0):
            b = (0.0, T, math.pi / 2.0, chi)
            poly = fit_cubic(*b)
            a = solve_cubic_oracle(*b)
            assert np.allclose([poly.a0, poly.a1, poly.a2, poly.a3], a, atol=1e-12)
            assert poly(T) == pytest.approx(chi, abs=1e-12)
            assert poly.a2 == pytest.approx((6.0 * chi - 3.0 * math.pi) / (2.0 * T**2))
            assert poly.a3 == pytest.approx(-(6.0 * chi - 3.0 * math.pi) / (3.0 * T**3))

    def test_random_boundaries_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t0 = rng.uniform(-2.0, 2.0)
            tf = t0 + rng.uniform(0.3, 3.0)
            f0, ff, df0, dff = rng.uniform(-4.0, 4.0, size=4)
            poly = fit_cubic(t0, tf, f0, ff, df0, dff)
            assert abs(poly(t0) - f0) <= 1e-12
            assert abs(poly(tf) - ff) <= 1e-12
            assert abs(poly.derivative(t0) - df0) <= 1e-12
            assert abs(poly.derivative(tf) - dff) <= 1e-12

    def test_derivative_consistency(self):
        rng = np.random.default_rng(3)
        poly = fit_cubic(0.0, 1.5, 0.2, 1.3, -0.4, 0.8)
        t = rng.uniform(0.05, 1.45, size=200)
        h = 1e-6
        fd = (poly(t + h) - poly(t - h)) / (2.0 * h)
        scale = np.max(np.abs(poly.derivative(t)))
        assert np.max(np.abs(fd - poly.derivative(t))) / scale <= 1e-8

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            fit_cubic(1.0, 0.5, 0.0, 1.0)
        with pytest.raises(InvalidIntervalError):
            fit_cubic(0.0, math.inf, 0.0, 1.0)

    @pytest.mark.parametrize("dt", [1e-320, 1e-160, 1e-120, 1e-103, 1e120, 1e150, 1e200])
    def test_powers_out_of_range_rejected(self, dt):
        # dt**2 or dt**3 underflows below the normal range or overflows
        with pytest.raises(InvalidIntervalError):
            fit_cubic(0.0, dt, 0.0, 1.0)

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(InvalidIntervalError):
            fit_cubic(0.0, 1e-100, 0.0, 1e300)

    @pytest.mark.parametrize("dt", [1e-100, 1e100])
    def test_extreme_but_representable_interval(self, dt):
        poly = fit_cubic(0.0, dt, 0.0, 1.0)
        assert all(math.isfinite(a) for a in poly.coefficients)
        assert poly(dt) == pytest.approx(1.0, rel=1e-12)
