"""Drive-cost functionals and the single- vs multi-mode comparison surface.

The time-averaged frequency is (1/T) * integral of sqrt(Op^2 + Os^2); the
energy functional is the integral of (Op^2 + Os^2) as printed, without a
1/T prefactor (the comparison ratios are prefactor-independent).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import simpson

from .errors import InvalidInputError, check_array_budget
from .protocols import PulseSet, TargetState, solve_multimode_boundary

MASK_VALUE = 0.0


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

    def rows(self):
        """Flat (mu, eta, omega_ratio, energy_ratio) tuples, mu-major."""
        for i, m in enumerate(self.mu):
            for j, e in enumerate(self.eta):
                yield m, e, self.omega_ratio[i, j], self.energy_ratio[i, j]


def _quadrature(pulses: PulseSet, t0: float, tf: float, points: int):
    # composite Simpson needs an odd sample count
    n = points if points % 2 == 1 else points + 1
    t = np.linspace(t0, tf, n)
    quad = np.hypot(
        np.asarray(pulses.omega_p(t), dtype=float),
        np.asarray(pulses.omega_s(t), dtype=float),
    )
    omega = simpson(quad, x=t) / (tf - t0)
    energy = simpson(quad**2, x=t)
    return omega, energy, float(quad.max())


def drive_metrics(
    pulses: PulseSet,
    t0: float | None = None,
    tf: float | None = None,
    quad_points: int = 512,
) -> DriveMetrics:
    """Integrate the frequency/energy functionals by composite Simpson.

    The quadrature is repeated at twice the point count; the doubled
    result is returned and the relative change recorded as ``quad_error``.
    """
    if quad_points < 64:
        raise InvalidInputError(f"need quad_points >= 64, got {quad_points}")
    t0 = pulses.t0 if t0 is None else t0
    tf = pulses.tf if tf is None else tf
    o1, e1, _ = _quadrature(pulses, t0, tf, quad_points)
    o2, e2, peak = _quadrature(pulses, t0, tf, 2 * quad_points)
    scale = max(abs(o2), abs(e2), 1e-300)
    quad_error = max(abs(o2 - o1), abs(e2 - e1)) / scale
    return DriveMetrics(
        omega_bar=float(o2),
        energy_bar=float(e2),
        T=tf - t0,
        quad_error=float(quad_error),
        peak=peak,
    )


def single_mode_phase_span(eta: float) -> float:
    """|arcsin(eta) - pi/2|: the phi excursion of the no-microwave design."""
    return abs(math.asin(eta) - math.pi / 2.0)


def mode_comparison_ratio(mu: float, eta: float, nu: float | None = None):
    """Closed-form (frequency ratio, energy ratio) of single- vs multi-mode.

    Uses the pi - arcsin(eta/sin(theta0)) form of the multi-mode phase
    excursion, which keeps every unmasked ratio strictly below 1.  (Close
    to mu = 1 the boundary solver's disambiguated phi_f switches to the
    arcsin branch and the two expressions differ; the comparison surface
    follows this closed form.)  Returns (0, 0) in the masked region
    eta^2 + mu^2 > 1.  The energy ratio is the square of the frequency
    ratio.
    """
    if mu < 0.0 or eta < 0.0:
        raise InvalidInputError("mu and eta must be nonnegative")
    if eta**2 + mu**2 > 1.0 + 1e-12:
        return MASK_VALUE, MASK_VALUE
    if nu is None:
        nu = math.sqrt(max(0.0, 1.0 - mu**2 - eta**2))
    target = TargetState.normalized(mu, eta, nu)
    if abs(target.mu - 1.0) < 1e-12:
        # identity corner: both excursions degenerate; continuum limit along
        # eta = 0 is zeta -> pi, ratio -> 1/2
        return 0.5, 0.25
    theta0 = solve_multimode_boundary(target).theta0
    span_m = math.pi - math.asin(min(1.0, target.eta / math.sin(theta0)))
    omega_ratio = single_mode_phase_span(target.eta) / span_m
    return omega_ratio, omega_ratio**2


def ratio_surface(resolution: int) -> RatioSurface:
    """Uniform (mu, eta) grid over [0, 1]^2 with masked ratios."""
    if resolution < 10:
        raise InvalidInputError(f"need resolution >= 10, got {resolution}")
    check_array_budget("resolution", resolution**2, 8 + 8 + 1)
    mu = np.linspace(0.0, 1.0, resolution)
    eta = np.linspace(0.0, 1.0, resolution)
    omega = np.zeros((resolution, resolution))
    energy = np.zeros((resolution, resolution))
    mask = np.zeros((resolution, resolution), dtype=bool)
    for i, m in enumerate(mu):
        for j, e in enumerate(eta):
            if e**2 + m**2 > 1.0 + 1e-12:
                mask[i, j] = True
                continue
            omega[i, j], energy[i, j] = mode_comparison_ratio(m, e)
    return RatioSurface(mu=mu, eta=eta, omega_ratio=omega, energy_ratio=energy, mask=mask)
