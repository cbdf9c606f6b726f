"""Orthonormal moving-state families for three- and four-level systems.

Each family is parameterized by two angles theta(t), phi(t) and, for the
phased family, two additional phases gamma(t), kappa(t).  Every angle is a
cubic polynomial, so an ``AngleSchedule`` is plain data and its derivatives
are those of the cubics, exact by construction.  Basis vectors are
closed-form functions of the schedule so Hamiltonians can be assembled at
arbitrary integrator times, one time or a whole time grid per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, WrongFamilyError
from .schedules import CubicPolynomial

ORTHONORMALITY_TOL = 1e-12


class BasisFamily(Enum):
    THREE_REAL = "three-real"
    THREE_PHASED = "three-phased"
    FOUR_LEVEL = "four-level"


def _matrix(entries, shape: tuple) -> np.ndarray:
    """A nested (d, d) list of entries, each broadcast to ``shape``.

    Returns shape + (d, d); entries may be scalars, such as a literal 0.0
    or an angle function that returns a constant.
    """
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
        for name in ("phi", "gamma", "kappa"):
            if getattr(self, name) is None:
                object.__setattr__(self, name, zero)

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
class GeneralAngles:
    """Snapshot angle assignments (alpha_n, beta_n), one pair per mode."""

    alpha: Sequence[float]
    beta: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.alpha) != len(self.beta):
            raise InvalidInputError(
                f"alpha has {len(self.alpha)} entries, beta has {len(self.beta)}"
            )


def angle_vector(alpha: float, beta: float, family: BasisFamily) -> np.ndarray:
    """The generating vector for one mode at snapshot angles (alpha, beta)."""
    ca, sa = np.cos(alpha), np.sin(alpha)
    cb, sb = np.cos(beta), np.sin(beta)
    if family is BasisFamily.THREE_REAL:
        return np.array([ca * cb, sb, sa * cb], dtype=complex)
    if family is BasisFamily.FOUR_LEVEL:
        return np.array([ca * cb, ca * sb, sa * cb, sa * sb], dtype=complex)
    raise InvalidInputError(f"no general-angle form for family {family}")


def check_orthogonality_condition(
    angles: GeneralAngles, family: BasisFamily
) -> np.ndarray:
    """Matrix of pairwise orthogonality residuals for the angle assignments.

    Off-diagonal entry (n, m) is the closed-form inner-product residual for
    the family; a valid moving basis needs all of them below 1e-12.
    """
    dims = {BasisFamily.THREE_REAL: 3, BasisFamily.FOUR_LEVEL: 4}
    if family not in dims:
        raise InvalidInputError(f"no general-angle form for family {family}")
    n = dims[family]
    if len(angles.alpha) != n:
        raise InvalidInputError(
            f"family {family.value} needs {n} modes, got {len(angles.alpha)}"
        )
    a = np.asarray(angles.alpha, dtype=float)
    b = np.asarray(angles.beta, dtype=float)
    da = a[:, None] - a[None, :]
    if family is BasisFamily.THREE_REAL:
        res = (np.cos(da) * np.cos(b)[:, None] * np.cos(b)[None, :]
               + np.sin(b)[:, None] * np.sin(b)[None, :])
    else:
        res = np.cos(da) * np.cos(b[:, None] - b[None, :])
    np.fill_diagonal(res, 0.0)
    return np.abs(res)


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

    def vectors(self, t) -> np.ndarray:
        """Basis vectors at time t, one per row.

        ``t`` of shape S gives shape S + (d, d); a scalar gives (d, d).
        """
        s = self.schedule
        th, ph = s.theta(t), s.phi(t)
        c, sn = np.cos(th), np.sin(th)
        cp, sp = np.cos(ph), np.sin(ph)
        if self.family is BasisFamily.THREE_REAL:
            return _matrix(
                [
                    [c, 0.0, sn],
                    [sn * cp, sp, -c * cp],
                    [sn * sp, -cp, -c * sp],
                ],
                np.shape(t),
            )
        if self.family is BasisFamily.THREE_PHASED:
            eg = np.exp(1j * s.gamma(t))
            ek = np.exp(1j * s.kappa(t))
            return _matrix(
                [
                    [sn * cp, eg * sp, ek * c * cp],
                    [sn * sp, -eg * cp, ek * c * sp],
                    [c, 0.0, -ek * sn],
                ],
                np.shape(t),
            )
        return _matrix(
            [
                [c * cp, c * sp, sn * cp, sn * sp],
                [sn * cp, sn * sp, -c * cp, -c * sp],
                [c * sp, -c * cp, sn * sp, -sn * cp],
                [sn * sp, -sn * cp, -c * sp, c * cp],
            ],
            np.shape(t),
        )

    def vector_derivatives(self, t) -> np.ndarray:
        """Analytic time derivatives of the basis vectors, one per row.

        Same shape convention as ``vectors``.
        """
        s = self.schedule
        th, ph = s.theta(t), s.phi(t)
        dth, dph = s.dtheta(t), s.dphi(t)
        c, sn = np.cos(th), np.sin(th)
        cp, sp = np.cos(ph), np.sin(ph)
        if self.family is BasisFamily.THREE_REAL:
            return _matrix(
                [
                    [-sn * dth, 0.0, c * dth],
                    [
                        c * cp * dth - sn * sp * dph,
                        cp * dph,
                        sn * cp * dth + c * sp * dph,
                    ],
                    [
                        c * sp * dth + sn * cp * dph,
                        sp * dph,
                        sn * sp * dth - c * cp * dph,
                    ],
                ],
                np.shape(t),
            )
        if self.family is BasisFamily.THREE_PHASED:
            dg, dk = s.dgamma(t), s.dkappa(t)
            eg = np.exp(1j * s.gamma(t))
            ek = np.exp(1j * s.kappa(t))
            return _matrix(
                [
                    [
                        c * cp * dth - sn * sp * dph,
                        eg * (1j * dg * sp + cp * dph),
                        ek * (1j * dk * c * cp - sn * cp * dth - c * sp * dph),
                    ],
                    [
                        c * sp * dth + sn * cp * dph,
                        -eg * (1j * dg * cp - sp * dph),
                        ek * (1j * dk * c * sp - sn * sp * dth + c * cp * dph),
                    ],
                    [-sn * dth, 0.0, -ek * (1j * dk * sn + c * dth)],
                ],
                np.shape(t),
            )
        return _matrix(
            [
                [
                    -sn * cp * dth - c * sp * dph,
                    -sn * sp * dth + c * cp * dph,
                    c * cp * dth - sn * sp * dph,
                    c * sp * dth + sn * cp * dph,
                ],
                [
                    c * cp * dth - sn * sp * dph,
                    c * sp * dth + sn * cp * dph,
                    sn * cp * dth + c * sp * dph,
                    sn * sp * dth - c * cp * dph,
                ],
                [
                    -sn * sp * dth + c * cp * dph,
                    sn * cp * dth + c * sp * dph,
                    c * sp * dth + sn * cp * dph,
                    -c * cp * dth + sn * sp * dph,
                ],
                [
                    c * sp * dth + sn * cp * dph,
                    -c * cp * dth + sn * sp * dph,
                    sn * sp * dth - c * cp * dph,
                    -sn * cp * dth - c * sp * dph,
                ],
            ],
            np.shape(t),
        )

    def completeness_defect(self, t: float) -> float:
        b = self.vectors(t)
        return float(
            np.max(np.abs(b.T @ b.conj() - np.eye(self.dimension)))
        )


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
