"""Drive-cost functionals and the single- vs multi-mode comparison surface.

The time-averaged frequency is (1/T) * integral of sqrt(Op^2 + Os^2); the
energy functional is the integral of (Op^2 + Os^2) as printed, without a
1/T prefactor (the comparison ratios are prefactor-independent).  Both are
integrated by composite Simpson, a bit-exact numpy port of the path
``scipy.integrate.simpson`` takes for an odd sample count with ``x`` given,
in one call on the stacked integrands.  The pulses are evaluated once, on
one fine grid; the coarse estimate behind ``quad_error`` reads its even
points.

The comparison surface is evaluated on the whole (mu, eta) grid at once and
equals the scalar ``mode_comparison_ratio`` bit for bit.  It is libm-exact:
numpy does only the operations IEEE rounds exactly (+ - * /, sqrt, abs,
comparisons), and every transcendental and every ``x**2`` is the libm call
the scalar path makes (``math.atan2``, ``math.sin``, ``math.asin``,
``pow``) mapped over Python floats.  numpy's SIMD arcsin and arctan2 differ
from libm by one ulp at a few percent of inputs, and ``x*x`` differs from
``pow(x, 2)`` at ~0.1%; where the arcsin argument is 1 to the last bit (fig.
10's point (33/49, 28/49)) one ulp moves the ratio by ~6e-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidInputError, InvalidIntervalError, check_array_budget
from .protocols import PulseSet, TargetState

MASK_VALUE = 0.0

# mu rows per block of ratio_surface: bounds the transient arrays and the
# Python-float lists the libm calls need to a few hundred kB at resolution 200
SURFACE_BLOCK_ROWS = 16


@dataclass(frozen=True)
class DriveMetrics:
    """Time-averaged frequency and energy of a pulse set."""

    omega_bar: float
    energy_bar: float
    T: float
    quad_error: float  # relative change on doubling the quadrature points
    peak: float  # max of sqrt(Op^2 + Os^2)


@dataclass(frozen=True)
class RatioSurface:
    """Grid of single/multi-mode ratios over (mu, eta), masked where invalid."""

    mu: np.ndarray
    eta: np.ndarray
    omega_ratio: np.ndarray  # shape (len(mu), len(eta))
    energy_ratio: np.ndarray
    mask: np.ndarray  # True where eta^2 + mu^2 > 1 (value forced to 0)

    def columns(self):
        """Flat (mu, eta, omega_ratio, energy_ratio) columns, mu-major."""
        return (
            np.repeat(self.mu, self.eta.size),
            np.tile(self.eta, self.mu.size),
            self.omega_ratio.ravel(),
            self.energy_ratio.ravel(),
        )


def _simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite Simpson along the last axis of ``y``, sampled at an odd
    number of points ``x``.

    scipy's ``_basic_simpson`` for non-uniform spacing in its operation
    order, so the two agree bit for bit, row by row for stacked ``y``; as
    there, a spacing that rounds to zero gets a zero weight instead of a
    division by zero.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    r = np.true_divide(h0, h1, out=np.zeros_like(h0), where=h1 != 0)
    inv_r = np.true_divide(1.0, r, out=np.zeros_like(r), where=r != 0)
    mid = np.true_divide(hsum, hprod, out=np.zeros_like(hsum), where=hprod != 0)
    return np.sum(hsum / 6.0 * (y[..., :-2:2] * (2.0 - inv_r)
                                + y[..., 1:-1:2] * (hsum * mid)
                                + y[..., 2::2] * (2.0 - r)), axis=-1)


def drive_metrics(
    pulses: PulseSet,
    t0: float | None = None,
    tf: float | None = None,
    quad_points: int = 512,
) -> DriveMetrics:
    """Integrate the frequency/energy functionals by composite Simpson.

    The pulses are sampled once, on one fine grid of 2m + 1 points, where m
    is ``quad_points`` rounded up to an even count; the coarse estimate
    comes from its even points (m + 1 of them).  The fine result is
    returned and the relative change from the coarse one recorded as
    ``quad_error``.
    """
    if not isinstance(quad_points, (int, np.integer)):
        raise InvalidInputError(f"quad_points must be an integer, got {quad_points!r}")
    if quad_points < 64:
        raise InvalidInputError(f"need quad_points >= 64, got {quad_points}")
    m = int(quad_points)
    m += m % 2  # the coarse grid t[::2] needs an odd point count too
    # the stacked fine pass holds about eleven float arrays of 2*m + 1
    check_array_budget("quad_points", 2 * m + 1, 11 * 8)
    t0 = pulses.t0 if t0 is None else t0
    tf = pulses.tf if tf is None else tf
    if not (math.isfinite(t0) and math.isfinite(tf) and t0 < tf):
        raise InvalidIntervalError(f"need finite t0 < tf, got [{t0}, {tf}]")
    t = np.linspace(t0, tf, 2 * m + 1)
    quad = np.hypot(*pulses(t).T[:2])
    y = np.stack((quad, quad**2))
    o1, e1 = _simpson(y[:, ::2], t[::2])
    o2, e2 = _simpson(y, t)
    o1, o2 = o1 / (tf - t0), o2 / (tf - t0)
    scale = max(abs(o2), abs(e2), 1e-300)
    quad_error = max(abs(o2 - o1), abs(e2 - e1)) / scale
    return DriveMetrics(
        omega_bar=float(o2),
        energy_bar=float(e2),
        T=tf - t0,
        quad_error=float(quad_error),
        peak=float(quad.max()),
    )


def single_mode_phase_span(eta: float) -> float:
    """|arcsin(eta) - pi/2|: the phi excursion of the no-microwave design."""
    return abs(math.asin(eta) - math.pi / 2.0)


def mode_comparison_ratio(mu: float, eta: float, nu: float | None = None):
    """Closed-form (frequency ratio, energy ratio) of single- vs multi-mode.

    The single-mode excursion is |arcsin(eta) - pi/2|, as the no-microwave
    design has it.  The multi-mode excursion is taken as
    pi - arcsin(eta/sin(theta0)), with theta0 = atan2(1 - mu, nu) the multi
    design's frozen mixing angle (``boundary["theta_0"]``, bit for bit).
    That form keeps every unmasked ratio strictly below 1, but it is not
    always the excursion ``design`` builds: the multi design takes zeta =
    atan2(eta, mu sin(theta0) - nu cos(theta0)), which near mu = 1 is the
    arcsin branch, where pi - arcsin misses the third boundary equation
    (at (mu, eta) = (0.99, 0.14) this ratio reads 0.5005 and the designs'
    5.04).  The comparison surface follows this closed form.

    Returns (0, 0) in the masked region eta^2 + mu^2 > 1.  The energy ratio
    is the square of the frequency ratio.  A non-finite mu, eta or nu is
    rejected, never masked, and so is a negative one.
    """
    if not all(map(math.isfinite, (mu, eta) if nu is None else (mu, eta, nu))):
        raise InvalidInputError(f"mu, eta and nu must be finite, got {mu}, {eta}, {nu}")
    if mu < 0.0 or eta < 0.0 or (nu is not None and nu < 0.0):
        raise InvalidInputError("mu, eta and nu must be nonnegative")
    # an amplitude past the tolerance is masked before it is squared, which
    # could overflow; its square would be past the tolerance too
    if max(mu, eta) > 1.0 + 1e-12 or eta**2 + mu**2 > 1.0 + 1e-12:
        return MASK_VALUE, MASK_VALUE
    if nu is None:
        nu = math.sqrt(max(0.0, 1.0 - mu**2 - eta**2))
    target = TargetState.normalized(mu, eta, nu)
    if abs(target.mu - 1.0) < 1e-12:
        # identity corner: both excursions degenerate; continuum limit along
        # eta = 0 is zeta -> pi, ratio -> 1/2
        return 0.5, 0.25
    theta0 = math.atan2(1.0 - target.mu, target.nu)
    span_m = math.pi - math.asin(min(1.0, target.eta / math.sin(theta0)))
    omega_ratio = single_mode_phase_span(target.eta) / span_m
    return omega_ratio, omega_ratio**2


def _libm(fn, *arrays: np.ndarray) -> np.ndarray:
    """``fn`` elementwise over 1-D arrays, called on Python floats (libm)."""
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), float, arrays[0].size)


def _libm_square(x: np.ndarray) -> np.ndarray:
    """``x**2`` elementwise as Python computes it (libm ``pow``, not ``x*x``)."""
    return np.fromiter(map(pow, x.tolist(), repeat(2)), float, x.size)


def _comparison_ratios(mu, eta, mu2, eta2):
    """``mode_comparison_ratio`` at unmasked points, bit for bit.

    Takes 1-D arrays of grid amplitudes and their libm squares; follows the
    scalar path's operation order and its Python ``min``/``max`` semantics.
    """
    rest = 1.0 - mu2 - eta2
    nu = np.sqrt(np.where(rest > 0.0, rest, 0.0))
    norm = np.sqrt(mu2 + eta2 + _libm_square(nu))
    mu, eta, nu = mu / norm, eta / norm, nu / norm
    # the identity corner keeps its continuum limit 0.5; every other point
    # has theta0 > 0, so no division below is singular
    omega = np.full(mu.shape, 0.5)
    live = ~(np.abs(mu - 1.0) < 1e-12)
    mu, eta, nu = mu[live], eta[live], nu[live]
    theta0 = _libm(math.atan2, 1.0 - mu, nu)
    ratio = eta / _libm(math.sin, theta0)
    span_m = math.pi - _libm(math.asin, np.where(ratio < 1.0, ratio, 1.0))
    omega[live] = np.abs(_libm(math.asin, eta) - math.pi / 2.0) / span_m
    return omega, _libm_square(omega)


def ratio_surface(resolution: int) -> RatioSurface:
    """Uniform (mu, eta) grid over [0, 1]^2 with masked ratios.

    Evaluated in blocks of ``SURFACE_BLOCK_ROWS`` mu rows; every unmasked
    point equals ``mode_comparison_ratio`` bit for bit.
    """
    if resolution < 10:
        raise InvalidInputError(f"need resolution >= 10, got {resolution}")
    check_array_budget("resolution", resolution**2, 8 + 8 + 1)
    mu = np.linspace(0.0, 1.0, resolution)
    eta = np.linspace(0.0, 1.0, resolution)
    mu2, eta2 = _libm_square(mu), _libm_square(eta)
    omega = np.zeros((resolution, resolution))
    energy = np.zeros((resolution, resolution))
    mask = np.zeros((resolution, resolution), dtype=bool)
    for start in range(0, resolution, SURFACE_BLOCK_ROWS):
        rows = slice(start, start + SURFACE_BLOCK_ROWS)
        mask[rows] = eta2 + mu2[rows, None] > 1.0 + 1e-12
        i, j = np.nonzero(~mask[rows])
        omega[rows][i, j], energy[rows][i, j] = _comparison_ratios(
            mu[rows][i], eta[j], mu2[rows][i], eta2[j]
        )
    return RatioSurface(mu=mu, eta=eta, omega_ratio=omega, energy_ratio=energy, mask=mask)
