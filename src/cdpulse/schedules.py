"""Cubic boundary-value interpolation.

Every smooth angle schedule in this package is built from cubics that match
prescribed endpoint values and endpoint derivatives.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidIntervalError


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
        # a float t stays a Python float: the same IEEE result as a numpy
        # scalar at a fraction of the cost
        s = (float(t) if isinstance(t, float) else np.asarray(t, float)) - self.t0
        return self.a0 + s * (self.a1 + s * (self.a2 + s * self.a3))

    def derivative(self, t):
        s = (float(t) if isinstance(t, float) else np.asarray(t, float)) - self.t0
        return self.a1 + s * (2.0 * self.a2 + 3.0 * self.a3 * s)


def fit_cubic(
    t0: float, tf: float, f0: float, ff: float, df0: float = 0.0, dff: float = 0.0
) -> CubicPolynomial:
    """Return the unique cubic with values f0, ff and slopes df0, dff at t0, tf.

    Closed-form solution of the 4x4 linear system in powers of (t - t0).
    Raises InvalidIntervalError for non-finite data, for tf <= t0, for an
    interval so short or so long that dt**2 or dt**3 leaves the normal
    float range, or whenever a coefficient comes out non-finite.
    """
    if not all(math.isfinite(v) for v in (t0, tf, f0, ff, df0, dff)):
        raise InvalidIntervalError("boundary data must be finite")
    if tf <= t0:
        raise InvalidIntervalError(f"need tf > t0, got [{t0}, {tf}]")
    dt = tf - t0
    try:
        dt2, dt3 = dt**2, dt**3
    except OverflowError:
        dt2 = dt3 = math.inf
    if not (sys.float_info.min <= min(dt2, dt3) and max(dt2, dt3) < math.inf):
        raise InvalidIntervalError(
            f"interval length {dt!r} is outside the range a cubic can be fitted on"
        )
    df = ff - f0
    a2 = (3.0 * df - (2.0 * df0 + dff) * dt) / dt2
    a3 = (-2.0 * df + (df0 + dff) * dt) / dt3
    if not (math.isfinite(a2) and math.isfinite(a3)):
        raise InvalidIntervalError(
            f"cubic coefficients ({a2!r}, {a3!r}) on an interval of length "
            f"{dt!r} are not finite"
        )
    return CubicPolynomial(f0, df0, a2, a3, t0, tf)
