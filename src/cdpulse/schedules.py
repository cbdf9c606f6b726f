"""Cubic boundary-value interpolation and the shared pulse-shape factor.

Every smooth angle schedule in this package is built from cubics that match
prescribed endpoint values and endpoint derivatives.  The derivative of the
zero-slope cubic is always a multiple of the universal "bump"
``shape_factor``, which vanishes at both ends of the interval.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidIntervalError


@dataclass(frozen=True)
class CubicBoundary:
    """Endpoint constraints for a cubic: values and slopes at t0 and tf."""

    t0: float
    tf: float
    f0: float
    ff: float
    df0: float = 0.0
    dff: float = 0.0

    def __post_init__(self) -> None:
        vals = (self.t0, self.tf, self.f0, self.ff, self.df0, self.dff)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidIntervalError("boundary data must be finite")
        if self.tf <= self.t0:
            raise InvalidIntervalError(
                f"need tf > t0, got [{self.t0}, {self.tf}]"
            )


@dataclass(frozen=True)
class CubicPolynomial:
    """p(t) = a0 + a1*s + a2*s**2 + a3*s**3 with s = t - t0, on [t0, tf]."""

    a0: float
    a1: float
    a2: float
    a3: float
    t0: float
    tf: float

    @property
    def coefficients(self) -> tuple:
        return (self.a0, self.a1, self.a2, self.a3)

    @property
    def is_constant(self) -> bool:
        """True when a1 = a2 = a3 = 0 (a NaN coefficient counts as moving)."""
        return not any(self.coefficients[1:])

    def __call__(self, t):
        s = np.asarray(t, dtype=float) - self.t0
        return self.a0 + s * (self.a1 + s * (self.a2 + s * self.a3))

    def derivative(self, t):
        s = np.asarray(t, dtype=float) - self.t0
        return self.a1 + s * (2.0 * self.a2 + 3.0 * self.a3 * s)


def fit_cubic(boundary: CubicBoundary) -> CubicPolynomial:
    """Return the unique cubic matching all four endpoint constraints.

    Closed-form solution of the 4x4 linear system in powers of (t - t0).
    Raises InvalidIntervalError for an interval so short or so long that
    dt**2 or dt**3 leaves the normal float range, or whenever a coefficient
    comes out non-finite.
    """
    dt = boundary.tf - boundary.t0
    try:
        dt2, dt3 = dt**2, dt**3
    except OverflowError:
        dt2 = dt3 = math.inf
    if not (sys.float_info.min <= min(dt2, dt3) and max(dt2, dt3) < math.inf):
        raise InvalidIntervalError(
            f"interval length {dt!r} is outside the range a cubic can be fitted on"
        )
    df = boundary.ff - boundary.f0
    a0 = boundary.f0
    a1 = boundary.df0
    a2 = (3.0 * df - (2.0 * boundary.df0 + boundary.dff) * dt) / dt2
    a3 = (-2.0 * df + (boundary.df0 + boundary.dff) * dt) / dt3
    if not (math.isfinite(a2) and math.isfinite(a3)):
        raise InvalidIntervalError(
            f"cubic coefficients ({a2!r}, {a3!r}) on an interval of length "
            f"{dt!r} are not finite"
        )
    return CubicPolynomial(a0, a1, a2, a3, boundary.t0, boundary.tf)


def shape_factor(t, t0: float, tf: float):
    """The universal bump s/dt**2 - s**2/dt**3 with s = t - t0, dt = tf - t0.

    Vanishes at both endpoints; maximum 1/(4*(tf - t0)) at the midpoint.
    """
    if tf <= t0:
        raise InvalidIntervalError(f"need tf > t0, got [{t0}, {tf}]")
    s = np.asarray(t, dtype=float) - t0
    dt = tf - t0
    if np.any(s < -1e-12 * dt) or np.any(s > dt * (1.0 + 1e-12)):
        raise DomainError(f"t outside [{t0}, {tf}]")
    return s / dt**2 - s**2 / dt**3


def sine_fit_deviation(pulse, t0: float, tf: float) -> float:
    """How far a normalized pulse is from the bump/sinusoid pair.

    ``pulse`` is sampled on a uniform grid over [t0, tf].  The samples are
    scaled by their peak magnitude and compared against both canonical
    shapes, the bump 4*x*(1 - x) and sin(pi*x) with x = (t - t0)/(tf - t0);
    the larger sup-norm deviation is returned, so the comparison is
    symmetric in the two shapes.  For an exact bump (or an exact sinusoid)
    the result is about 0.056, the bump-vs-sine gap itself.  A zero pulse
    reports 0 by convention.
    """
    if tf <= t0:
        raise InvalidIntervalError(f"need tf > t0, got [{t0}, {tf}]")
    p = np.abs(np.asarray(pulse, dtype=float))
    peak = p.max(initial=0.0)
    if peak == 0.0:
        return 0.0
    x = np.linspace(0.0, 1.0, p.size)
    p = p / peak
    dev_sine = np.max(np.abs(p - np.sin(np.pi * x)))
    dev_bump = np.max(np.abs(p - 4.0 * x * (1.0 - x)))
    return float(max(dev_sine, dev_bump))
