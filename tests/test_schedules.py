import math

import numpy as np
import pytest

from cdpulse import CubicBoundary, fit_cubic, shape_factor, sine_fit_deviation
from cdpulse.errors import DomainError, InvalidIntervalError


def solve_cubic_oracle(b):
    """Independent oracle: solve the 4x4 endpoint system directly."""
    dt = b.tf - b.t0
    A = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [1.0, dt, dt**2, dt**3],
            [0.0, 1.0, 2.0 * dt, 3.0 * dt**2],
        ]
    )
    rhs = np.array([b.f0, b.df0, b.ff, b.dff])
    return np.linalg.solve(A, rhs)


class TestFitCubic:
    def test_single_target_boundary(self):
        # theta: 0 -> arcsin(nu), zero end slopes
        nu = 1.0 / math.sqrt(2.0)
        poly = fit_cubic(CubicBoundary(0.0, 1.0, 0.0, math.asin(nu)))
        assert poly.a0 == 0.0
        assert poly.a1 == 0.0
        assert poly.a2 == pytest.approx(3.0 * math.asin(nu), abs=1e-15)
        assert poly.a3 == pytest.approx(-2.0 * math.asin(nu), abs=1e-15)

    def test_constant_boundary(self):
        poly = fit_cubic(CubicBoundary(0.0, 2.0, 0.7, 0.7))
        t = np.linspace(0.0, 2.0, 11)
        assert np.allclose(poly(t), 0.7, atol=1e-15)
        assert np.allclose(poly.derivative(t), 0.0, atol=1e-15)

    def test_half_pi_to_chi_matches_linear_solve(self):
        # the theta boundary of the three-field design; the generic solve is
        # the ground truth for the coefficient table
        chi = math.atan2(1.0, math.sqrt(2.0))
        for T in (0.5, 1.0, 2.0):
            b = CubicBoundary(0.0, T, math.pi / 2.0, chi)
            poly = fit_cubic(b)
            a = solve_cubic_oracle(b)
            assert np.allclose([poly.a0, poly.a1, poly.a2, poly.a3], a, atol=1e-12)
            assert poly(T) == pytest.approx(chi, abs=1e-12)
            assert poly.a2 == pytest.approx((6.0 * chi - 3.0 * math.pi) / (2.0 * T**2))
            assert poly.a3 == pytest.approx(-(6.0 * chi - 3.0 * math.pi) / (3.0 * T**3))

    def test_random_boundaries_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            t0 = rng.uniform(-2.0, 2.0)
            b = CubicBoundary(
                t0,
                t0 + rng.uniform(0.3, 3.0),
                *rng.uniform(-4.0, 4.0, size=4),
            )
            poly = fit_cubic(b)
            assert abs(poly(b.t0) - b.f0) <= 1e-12
            assert abs(poly(b.tf) - b.ff) <= 1e-12
            assert abs(poly.derivative(b.t0) - b.df0) <= 1e-12
            assert abs(poly.derivative(b.tf) - b.dff) <= 1e-12

    def test_derivative_consistency(self):
        rng = np.random.default_rng(3)
        poly = fit_cubic(CubicBoundary(0.0, 1.5, 0.2, 1.3, -0.4, 0.8))
        t = rng.uniform(0.05, 1.45, size=200)
        h = 1e-6
        fd = (poly(t + h) - poly(t - h)) / (2.0 * h)
        scale = np.max(np.abs(poly.derivative(t)))
        assert np.max(np.abs(fd - poly.derivative(t))) / scale <= 1e-8

    def test_reversed_interval_rejected(self):
        with pytest.raises(InvalidIntervalError):
            CubicBoundary(1.0, 0.5, 0.0, 1.0)
        with pytest.raises(InvalidIntervalError):
            CubicBoundary(0.0, math.inf, 0.0, 1.0)

    @pytest.mark.parametrize("dt", [1e-320, 1e-160, 1e-120, 1e-103, 1e120, 1e150, 1e200])
    def test_powers_out_of_range_rejected(self, dt):
        # dt**2 or dt**3 underflows below the normal range or overflows
        with pytest.raises(InvalidIntervalError):
            fit_cubic(CubicBoundary(0.0, dt, 0.0, 1.0))

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(InvalidIntervalError):
            fit_cubic(CubicBoundary(0.0, 1e-100, 0.0, 1e300))

    @pytest.mark.parametrize("dt", [1e-100, 1e100])
    def test_extreme_but_representable_interval(self, dt):
        poly = fit_cubic(CubicBoundary(0.0, dt, 0.0, 1.0))
        assert all(math.isfinite(a) for a in poly.coefficients)
        assert poly(dt) == pytest.approx(1.0, rel=1e-12)


class TestShapeFactor:
    def test_endpoint_zeros(self):
        assert shape_factor(0.0, 0.0, 1.0) == 0.0
        assert abs(shape_factor(1.0, 0.0, 1.0)) <= 1e-16

    def test_midpoint_maximum(self):
        # oracle: the quadratic s/T^2 - s^2/T^3 peaks at T/2 with value 1/(4T)
        assert shape_factor(0.5, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)
        assert shape_factor(2.5, 1.0, 4.0) == pytest.approx(1.0 / 12.0, abs=1e-15)

    def test_integral_is_sixth(self):
        # oracle: exact integral of t/T^2 - t^2/T^3 over [0, T] is T * 1/6 / T = 1/6
        t = np.linspace(0.0, 1.0, 20001)
        val = np.trapezoid(shape_factor(t, 0.0, 1.0), t)
        assert val == pytest.approx(1.0 / 6.0, abs=1e-9)

    def test_nonnegative_and_symmetric(self):
        t = np.linspace(0.3, 2.3, 501)
        f = shape_factor(t, 0.3, 2.3)
        assert np.all(f >= 0.0)
        assert np.max(np.abs(f - f[::-1])) <= 1e-14

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            shape_factor(-0.1, 0.0, 1.0)
        with pytest.raises(DomainError):
            shape_factor(1.2, 0.0, 1.0)


class TestSineFitDeviation:
    def oracle_gap(self):
        x = np.linspace(0.0, 1.0, 200001)
        return np.max(np.abs(4.0 * x * (1.0 - x) - np.sin(np.pi * x)))

    def test_exact_bump(self):
        t = np.linspace(0.0, 1.0, 4001)
        bump = 6.0 * (t - t**2)  # any scaled bump
        assert sine_fit_deviation(bump, 0.0, 1.0) == pytest.approx(
            self.oracle_gap(), abs=1e-6
        )

    def test_pure_sinusoid(self):
        t = np.linspace(0.0, 1.0, 4001)
        assert sine_fit_deviation(np.sin(np.pi * t), 0.0, 1.0) == pytest.approx(
            self.oracle_gap(), abs=1e-6
        )

    def test_zero_pulse(self):
        assert sine_fit_deviation(np.zeros(100), 0.0, 1.0) == 0.0
