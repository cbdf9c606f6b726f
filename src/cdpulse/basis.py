"""Orthonormal moving-state families for three- and four-level systems.

Each family is parameterized by two angles theta(t), phi(t) and, for the
phased family, two additional phases gamma(t), kappa(t).  Every angle is a
cubic polynomial, so an ``AngleSchedule`` is plain data and its derivatives
are those of the cubics, exact by construction.  Basis vectors are
closed-form functions of the schedule so Hamiltonians can be assembled at
arbitrary integrator times, one time or a whole time grid per call.

One set of row formulas in (cos a, sin a) of each angle a gives both the
vectors and, by substituting (-sin a, cos a), their time derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidInputError, WrongFamilyError
from .schedules import CubicPolynomial


class BasisFamily(Enum):
    THREE_REAL = "three-real"
    THREE_PHASED = "three-phased"
    FOUR_LEVEL = "four-level"


def _matrix(entries, shape: tuple) -> np.ndarray:
    """A nested (d, d) list of entries, each broadcast to ``shape``.

    Returns shape + (d, d); entries may be scalars, such as a literal 0.0.
    With shape () one ``np.array`` call is faster than filling item by item.
    """
    if not shape:
        return np.array(entries, dtype=complex)
    out = np.empty(shape + (len(entries), len(entries[0])), dtype=complex)
    for i, row in enumerate(entries):
        for j, value in enumerate(row):
            out[..., i, j] = value
    return out


@dataclass(frozen=True)
class AngleSchedule:
    """Cubic angles theta, phi, gamma, kappa on [t0, tf].

    phi, gamma and kappa default to the zero cubic.  ``dtheta``, ``dphi``,
    ``dgamma`` and ``dkappa`` are the derivatives of the cubics.
    """

    t0: float
    tf: float
    theta: CubicPolynomial
    phi: CubicPolynomial | None = None
    gamma: CubicPolynomial | None = None
    kappa: CubicPolynomial | None = None

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t0) and np.isfinite(self.tf) and self.tf > self.t0):
            raise InvalidInputError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        zero = CubicPolynomial(0.0, 0.0, 0.0, 0.0, self.t0, self.tf)
        for name in ("theta", "phi", "gamma", "kappa"):
            cubic = getattr(self, name)
            if cubic is None:
                object.__setattr__(self, name, zero)
            elif (cubic.t0, cubic.tf) != (self.t0, self.tf):
                raise InvalidInputError(f"{name} is a cubic on [{cubic.t0}, "
                                        f"{cubic.tf}], not on [{self.t0}, {self.tf}]")

    @property
    def dtheta(self):
        return self.theta.derivative

    @property
    def dphi(self):
        return self.phi.derivative

    @property
    def dgamma(self):
        return self.gamma.derivative

    @property
    def dkappa(self):
        return self.kappa.derivative

    def is_phase_free(self) -> bool:
        """True when gamma and kappa are the zero cubic."""
        return not any(self.gamma.coefficients + self.kappa.coefficients)


@dataclass(frozen=True)
class MovingBasis:
    """A family of moving states evaluated from an angle schedule.

    ``vectors(t)`` returns the basis as matrix rows; the Gram matrix of the
    rows is the identity at every t by construction.  Mode indices follow
    the 1..dimension convention of the generating family.
    """

    family: BasisFamily
    schedule: AngleSchedule
    dimension: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "dimension", 4 if self.family is BasisFamily.FOUR_LEVEL else 3
        )

    def _angles(self) -> tuple:
        """The cubics this family depends on: theta, phi (, gamma, kappa)."""
        s = self.schedule
        if self.family is BasisFamily.THREE_PHASED:
            return (s.theta, s.phi, s.gamma, s.kappa)
        return (s.theta, s.phi)

    def _rows(self, trig: list, shape: tuple) -> np.ndarray:
        """Basis rows from one (cos a, sin a) pair per angle of ``_angles``.

        Every entry is affine in each pair; ``vector_derivatives`` needs that.
        """
        (c, sn), (cp, sp) = trig[:2]
        if self.family is BasisFamily.THREE_REAL:
            entries = [
                [c, 0.0, sn],
                [sn * cp, sp, -c * cp],
                [sn * sp, -cp, -c * sp],
            ]
        elif self.family is BasisFamily.THREE_PHASED:
            (cg, sg), (ck, sk) = trig[2:]
            # e^{ia} = cos a + i sin a; the imaginary part first keeps a
            # scalar time in Python complex arithmetic, not numpy scalars
            eg = 1j * sg + cg
            ek = 1j * sk + ck
            entries = [
                [sn * cp, eg * sp, ek * c * cp],
                [sn * sp, -eg * cp, ek * c * sp],
                [c, 0.0, -ek * sn],
            ]
        else:
            entries = [
                [c * cp, c * sp, sn * cp, sn * sp],
                [sn * cp, sn * sp, -c * cp, -c * sp],
                [c * sp, -c * cp, sn * sp, -sn * cp],
                [sn * sp, -sn * cp, -c * sp, c * cp],
            ]
        return _matrix(entries, shape)

    def _trig(self, t) -> tuple:
        """[(cos a, sin a)] for each angle of ``_angles`` at t, and t's shape.

        A float t stays in Python floats and libm ``math.cos``/``math.sin``:
        a one-time call builds its rows without numpy scalars, several
        times faster, with values that agree with the array path's to
        rounding.
        """
        if isinstance(t, float):
            t, trig = float(t), []
            for f in self._angles():
                a = f(t)
                trig.append((math.cos(a), math.sin(a)))
            return trig, ()
        angles = [f(t) for f in self._angles()]
        return [(np.cos(a), np.sin(a)) for a in angles], angles[0].shape

    def vectors(self, t) -> np.ndarray:
        """Basis vectors at time t, one per row.

        ``t`` of shape S gives shape S + (d, d); a scalar gives (d, d).
        """
        if isinstance(t, float) and self.dimension == 3:
            return self._float_vectors(float(t))
        return self._rows(*self._trig(t))

    def _float_vectors(self, t: float) -> np.ndarray:
        """``vectors`` of a three-level family at a float t, bit for bit.

        The rows of ``_rows`` with each cubic's Horner form written out, in
        Python floats and libm, as one flat tuple: one numpy array, about
        half the cost of the generic scalar path.
        """
        sched = self.schedule
        f = sched.theta
        s = t - f.t0
        a = f.a0 + s * (f.a1 + s * (f.a2 + s * f.a3))
        f = sched.phi
        s = t - f.t0
        b = f.a0 + s * (f.a1 + s * (f.a2 + s * f.a3))
        c, sn, cp, sp = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        if self.family is BasisFamily.THREE_REAL:
            rows = (c, 0.0, sn, sn * cp, sp, -c * cp, sn * sp, -cp, -c * sp)
            return np.array(rows).astype(complex).reshape(3, 3)
        f = sched.gamma
        s = t - f.t0
        a = f.a0 + s * (f.a1 + s * (f.a2 + s * f.a3))
        f = sched.kappa
        s = t - f.t0
        b = f.a0 + s * (f.a1 + s * (f.a2 + s * f.a3))
        cg, sg, ck, sk = math.cos(a), math.sin(a), math.cos(b), math.sin(b)
        eg = 1j * sg + cg
        ek = 1j * sk + ck
        rows = (sn * cp, eg * sp, ek * c * cp,
                sn * sp, -eg * cp, ek * c * sp,
                c, 0.0, -ek * sn)
        return np.array(rows, dtype=complex).reshape(3, 3)

    def vector_derivatives(self, t) -> np.ndarray:
        """Time derivatives of the basis vectors, one per row.

        An entry affine in (cos a, sin a) has as its partial in a the same
        entry with that pair replaced by (-sin a, cos a), less the entry
        with it replaced by (0, 0).  Each partial is weighted by the rate of
        its cubic.  Same shape convention as ``vectors``.
        """
        trig, shape = self._trig(t)
        out = np.zeros(shape + (self.dimension, self.dimension), dtype=complex)
        for k, angle in enumerate(self._angles()):
            c, sn = trig[k]
            turned = self._rows(trig[:k] + [(-sn, c)] + trig[k + 1:], shape)
            fixed = self._rows(trig[:k] + [(0.0, 0.0)] + trig[k + 1:], shape)
            out += np.expand_dims(angle.derivative(t), (-2, -1)) * (turned - fixed)
        return out

    def completeness_defect(self, t: float) -> float:
        b = self.vectors(t)
        return float(np.max(np.abs(b.T @ b.conj() - np.eye(self.dimension))))


def build_three_real_basis(schedule: AngleSchedule) -> MovingBasis:
    """The real three-level family: phi1 = cos(theta)|1> + sin(theta)|3>, etc."""
    if not schedule.is_phase_free():
        raise WrongFamilyError(
            "three-real family requires gamma and kappa identically zero"
        )
    return MovingBasis(BasisFamily.THREE_REAL, schedule)


def build_phased_basis(schedule: AngleSchedule) -> MovingBasis:
    """Three-level family with phase factors e^{i gamma} on |2>, e^{i kappa} on |3>."""
    return MovingBasis(BasisFamily.THREE_PHASED, schedule)


def build_four_level_basis(schedule: AngleSchedule) -> MovingBasis:
    """The four-level family of product-angle states (unit-normalized)."""
    if not schedule.is_phase_free():
        raise WrongFamilyError(
            "four-level family requires gamma and kappa identically zero"
        )
    return MovingBasis(BasisFamily.FOUR_LEVEL, schedule)
