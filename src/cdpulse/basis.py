"""Orthonormal moving-state families for three- and four-level systems.

Each family is parameterized by two angle functions theta(t), phi(t) and,
for the phased family, two additional phase functions gamma(t), kappa(t).
Basis vectors are closed-form functions of the schedule so Hamiltonians can
be assembled at arbitrary integrator times, one time or a whole time grid per
call; the angle functions carry their analytic derivatives as first-class
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError, WrongFamilyError

ORTHONORMALITY_TOL = 1e-12


class BasisFamily(Enum):
    THREE_REAL = "three-real"
    THREE_PHASED = "three-phased"
    FOUR_LEVEL = "four-level"


def zero_function(t):
    """The identically-zero angle (also its own derivative)."""
    return np.zeros_like(np.asarray(t, dtype=float))


def constant_function(value: float) -> Callable:
    def f(t):
        return np.full_like(np.asarray(t, dtype=float), value)

    return f


def _sample(f: Callable, t):
    """f(t) as floats; a NumPy scalar (cheap arithmetic) when t is a scalar."""
    return np.asarray(f(t), dtype=float)[()]


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
    """Angle functions theta, phi, gamma, kappa with analytic derivatives.

    All functions must be finite and continuously differentiable on
    [t0, tf]; ``validate_derivatives`` checks each stored derivative
    against a high-order central difference of its function.
    """

    t0: float
    tf: float
    theta: Callable
    dtheta: Callable
    phi: Callable = zero_function
    dphi: Callable = zero_function
    gamma: Callable = zero_function
    dgamma: Callable = zero_function
    kappa: Callable = zero_function
    dkappa: Callable = zero_function

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t0) and np.isfinite(self.tf) and self.tf > self.t0):
            raise InvalidInputError(f"need tf > t0, got [{self.t0}, {self.tf}]")

    def is_phase_free(self, samples: int = 101) -> bool:
        t = np.linspace(self.t0, self.tf, samples)
        return bool(
            np.all(np.abs(self.gamma(t)) < 1e-14)
            and np.all(np.abs(self.kappa(t)) < 1e-14)
        )

    def validate_derivatives(self, samples: int = 1001, rtol: float = 1e-6) -> None:
        """Check stored derivatives against a central finite difference.

        A Richardson-refined central stencil is used so smooth schedules
        (polynomial and trigonometric) pass at the 1e-6 level regardless
        of the interval length.
        """
        pairs = (
            ("theta", self.theta, self.dtheta),
            ("phi", self.phi, self.dphi),
            ("gamma", self.gamma, self.dgamma),
            ("kappa", self.kappa, self.dkappa),
        )
        t = np.linspace(self.t0, self.tf, samples)
        h = (self.tf - self.t0) / (samples - 1)
        inner = t[2:-2]
        for name, f, df in pairs:
            vals = np.asarray(f(t), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise InvalidInputError(f"{name}(t) is not finite on the grid")
            fd = (8.0 * (f(inner + h) - f(inner - h))
                  - (f(inner + 2 * h) - f(inner - 2 * h))) / (12.0 * h)
            analytic = np.asarray(df(inner), dtype=float)
            scale = max(1.0, float(np.max(np.abs(analytic), initial=0.0)))
            err = float(np.max(np.abs(fd - analytic), initial=0.0)) / scale
            if err > rtol:
                raise InvalidInputError(
                    f"stored derivative of {name} deviates from finite "
                    f"difference by relative error {err:.3e} > {rtol:.1e}"
                )


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
        th, ph = _sample(s.theta, t), _sample(s.phi, t)
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
            eg = np.exp(1j * _sample(s.gamma, t))
            ek = np.exp(1j * _sample(s.kappa, t))
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
        th, ph = _sample(s.theta, t), _sample(s.phi, t)
        dth, dph = _sample(s.dtheta, t), _sample(s.dphi, t)
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
            g, k = _sample(s.gamma, t), _sample(s.kappa, t)
            dg, dk = _sample(s.dgamma, t), _sample(s.dkappa, t)
            eg = np.exp(1j * g)
            ek = np.exp(1j * k)
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

    def gram(self, t: float) -> np.ndarray:
        b = self.vectors(t)
        return b.conj() @ b.T

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
