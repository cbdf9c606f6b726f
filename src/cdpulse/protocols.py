"""Pulse designs: from (initial state, target state, T) to schedules and fields.

Five designs are provided.  Two single-mode routes drive the system along
one moving state (with and without the ground-ground microwave coupling),
a multi-mode route transports a fixed superposition of moving states from
|1> without any microwave field, and a phased route realizes targets whose
|3> amplitude carries a prescribed winding phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .basis import (
    AngleSchedule,
    MovingBasis,
    build_phased_basis,
    build_three_real_basis,
)
from .dynamics import (
    RK4_STABILITY_LIMIT,
    HamiltonianSpec,
    lambda_hamiltonian,
    max_steps,
    phased_hamiltonian,
)
from .errors import (
    BoundarySolveError,
    InvalidInputError,
    ProtocolMismatchError,
    UnsupportedBranchError,
    check_array_budget,
)
from .schedules import CubicBoundary, CubicPolynomial, fit_cubic

NORM_TOL = 1e-12
BOUNDARY_RESIDUAL_TOL = 1e-10

_SQ2 = 1.0 / math.sqrt(2.0)
_SQ3 = 1.0 / math.sqrt(3.0)
_SQ6 = 1.0 / math.sqrt(6.0)


class Protocol(Enum):
    SINGLE_MODE_I = "single-I"
    SINGLE_MODE_II = "single-II"
    SINGLE_MODE_II_NO_MICROWAVE = "single-II-nomw"
    MULTI_MODE = "multi"
    PHASED = "phased"


class Branch(Enum):
    """Choices for the final mixing angle theta(T) of the single-mode route.

    LEAST_ENERGY is the signed arcsin branch, which minimizes |theta(T)|
    and hence the pulse intensity.  The remaining four reproduce the
    sign patterns of the arccos/arcsin alternatives.
    """

    LEAST_ENERGY = "least-energy"
    ARCSIN_PLUS = "arcsin-plus"
    ARCSIN_MINUS = "arcsin-minus"
    ARCCOS_PLUS = "arccos-plus"
    ARCCOS_MINUS = "arccos-minus"


@dataclass(frozen=True)
class TargetState:
    """Target amplitudes (mu, eta*e^{i gamma}, nu*e^{i kappa}), unit norm."""

    mu: float
    eta: float
    nu: float
    gamma_phase: float = 0.0
    kappa_phase: float = 0.0

    def __post_init__(self) -> None:
        # written so that NaN and Inf fail: a NaN residual is not <= tol
        residual = abs(self.mu**2 + self.eta**2 + self.nu**2 - 1.0)
        if not residual <= NORM_TOL:
            raise InvalidInputError(
                f"target norm residual {residual:.3e} exceeds {NORM_TOL:.1e}"
            )
        if not (math.isfinite(self.gamma_phase) and math.isfinite(self.kappa_phase)):
            raise InvalidInputError(
                f"target phases must be finite, got {self.gamma_phase}, "
                f"{self.kappa_phase}"
            )

    @classmethod
    def normalized(
        cls,
        mu: float,
        eta: float,
        nu: float,
        gamma_phase: float = 0.0,
        kappa_phase: float = 0.0,
    ) -> "TargetState":
        """Rescale (mu, eta, nu) onto the unit sphere before construction."""
        norm = math.sqrt(mu**2 + eta**2 + nu**2)
        if norm == 0.0:
            raise InvalidInputError("target amplitudes are all zero")
        return cls(mu / norm, eta / norm, nu / norm, gamma_phase, kappa_phase)

    def norm_residual(self) -> float:
        return abs(self.mu**2 + self.eta**2 + self.nu**2 - 1.0)


@dataclass(frozen=True)
class ProtocolRequest:
    """A design request: protocol, target, initial state, and timing."""

    protocol: Protocol
    target: TargetState
    initial_state: Optional[object] = None  # basis index 1..3 or amplitude vector
    t0: float = 0.0
    tf: float = 1.0
    branch: Branch = Branch.LEAST_ENERGY
    lambda_rate: Optional[float] = None  # phase winding rate, default 0.5/T

    def __post_init__(self) -> None:
        if not (np.isfinite(self.t0) and np.isfinite(self.tf) and self.tf > self.t0):
            raise InvalidInputError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        if self.lambda_rate is not None and not math.isfinite(self.lambda_rate):
            raise InvalidInputError(
                f"lambda_rate must be finite, got {self.lambda_rate}"
            )

    @property
    def duration(self) -> float:
        return self.tf - self.t0


@dataclass(frozen=True)
class PulseSet:
    """Drive fields Omega_p, Omega_s, Omega_a as functions of time (units 1/T)."""

    omega_p: Callable
    omega_s: Callable
    omega_a: Callable
    t0: float
    tf: float

    def sample(self, n: int = 1001):
        """Uniform sample grid: (t, Omega_p, Omega_s, Omega_a) arrays."""
        if n < 2:
            raise InvalidInputError(f"need at least 2 samples, got {n}")
        check_array_budget("sample count", n, 4 * 8)
        t = np.linspace(self.t0, self.tf, n)
        return (
            t,
            np.asarray(self.omega_p(t), dtype=float),
            np.asarray(self.omega_s(t), dtype=float),
            np.asarray(self.omega_a(t), dtype=float),
        )


@dataclass(frozen=True)
class MultiModeSolution:
    """Boundary angles and mode coefficients of the multi-mode design."""

    theta0: float
    theta_f: float
    phi0: float
    phi_f: float
    mode_coefficients: tuple

    @property
    def zeta(self) -> float:
        return self.phi_f


def _no_drive(t) -> np.ndarray:
    return np.zeros(np.shape(t))


@dataclass(frozen=True)
class Design:
    """A finished design as plain data: protocol, angle schedule, bookkeeping.

    The moving basis, the pulses and the Hamiltonian are derived from the
    schedule on each access.
    """

    protocol: Protocol
    schedule: AngleSchedule
    initial_state: np.ndarray
    target_vector: np.ndarray
    boundary: dict
    mode_coefficients: tuple

    @property
    def basis(self) -> MovingBasis:
        if self.protocol is Protocol.PHASED:
            return build_phased_basis(self.schedule)
        return build_three_real_basis(self.schedule)

    @property
    def pulses(self) -> PulseSet:
        """Omega_p = dphi*sin(theta), Omega_s = dphi*cos(theta), Omega_a = -dtheta.

        The phased family uses Omega_a = +dtheta.  An angle that does not
        move contributes exact +0.0 pulses.
        """
        s = self.schedule
        omega_p = omega_s = omega_a = _no_drive
        if not s.phi.is_constant and s.theta.is_constant:
            # a frozen theta splits dphi in a fixed ratio; one libm sin and
            # cos keep the cost quadrature cheap and the pulse files free of
            # numpy's vectorized sin
            sin_theta, cos_theta = math.sin(s.theta.a0), math.cos(s.theta.a0)

            def omega_p(t):
                return s.dphi(t) * sin_theta

            def omega_s(t):
                return s.dphi(t) * cos_theta

        elif not s.phi.is_constant:
            def omega_p(t):
                return s.dphi(t) * np.sin(s.theta(t))

            def omega_s(t):
                return s.dphi(t) * np.cos(s.theta(t))

        if not s.theta.is_constant:
            sign = 1.0 if self.protocol is Protocol.PHASED else -1.0

            def omega_a(t):
                return sign * s.dtheta(t)

        return PulseSet(omega_p, omega_s, omega_a, s.t0, s.tf)

    @property
    def hamiltonian(self) -> HamiltonianSpec:
        if self.protocol is Protocol.PHASED:
            return phased_hamiltonian(self.schedule)
        return lambda_hamiltonian(self.pulses)


def _bare_state(index: int, dimension: int = 3) -> np.ndarray:
    v = np.zeros(dimension, dtype=complex)
    v[index - 1] = 1.0
    return v


def _check_initial(request: ProtocolRequest, required_index: int) -> np.ndarray:
    """Validate that the requested initial state is the protocol's bare state."""
    init = request.initial_state
    if init is None:
        return _bare_state(required_index)
    if isinstance(init, (int, np.integer)):
        if int(init) != required_index:
            raise ProtocolMismatchError(
                f"{request.protocol.value} starts from |{required_index}>, "
                f"got |{int(init)}>"
            )
        return _bare_state(required_index)
    vec = np.asarray(init, dtype=complex)
    if vec.shape != (3,):
        raise InvalidInputError(f"initial state has shape {vec.shape}, expected (3,)")
    if not abs(np.linalg.norm(vec) - 1.0) <= 1e-8:
        raise InvalidInputError("initial state vector is not normalized")
    if abs(np.vdot(_bare_state(required_index), vec)) < 1.0 - 1e-10:
        raise ProtocolMismatchError(
            f"{request.protocol.value} starts from |{required_index}>"
        )
    return vec


def _angle(request: ProtocolRequest, start: float, end: float) -> CubicPolynomial:
    """The zero-slope cubic from ``start`` at t0 to ``end`` at tf."""
    return fit_cubic(CubicBoundary(request.t0, request.tf, start, end))


def select_branch(mu: float, nu: float, branch: Branch) -> float:
    """Final mixing angle theta(T) for a two-state target mu|1> + nu|3>."""
    residual = abs(mu**2 + nu**2 - 1.0)
    if not residual <= 1e-9:
        raise InvalidInputError(f"(mu, nu) not normalized: residual {residual:.3e}")
    if branch is Branch.LEAST_ENERGY:
        return math.asin(nu)
    if branch is Branch.ARCSIN_PLUS:
        return math.asin(abs(nu))
    if branch is Branch.ARCSIN_MINUS:
        return -math.asin(abs(nu))
    if branch is Branch.ARCCOS_PLUS:
        return math.pi + math.acos(abs(mu))
    if branch is Branch.ARCCOS_MINUS:
        return math.pi - math.acos(abs(mu))
    raise InvalidInputError(f"unknown branch {branch}")


def _require_nonnegative(target: TargetState) -> None:
    if min(target.mu, target.eta, target.nu) < 0.0:
        raise UnsupportedBranchError(
            "negative target amplitudes are not designed directly; fold the "
            "signs into a branch choice (single-mode route) or a global phase"
        )


def design_protocol_I(request: ProtocolRequest) -> Design:
    """Two-state transfer |1> -> mu|1> + nu|3> with the microwave field only."""
    if request.protocol is not Protocol.SINGLE_MODE_I:
        raise ProtocolMismatchError(f"expected single-I, got {request.protocol.value}")
    tgt = request.target
    if abs(tgt.eta) > NORM_TOL:
        raise ProtocolMismatchError(
            f"single-I needs eta = 0, got eta = {tgt.eta!r}"
        )
    initial = _check_initial(request, 1)
    theta_T = select_branch(tgt.mu, tgt.nu, request.branch)
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(request.t0, request.tf,
                               theta=_angle(request, 0.0, theta_T)),
        initial_state=initial,
        target_vector=np.array([math.cos(theta_T), 0.0, math.sin(theta_T)],
                               dtype=complex),
        boundary={"theta_0": 0.0, "theta_f": theta_T, "phi_0": 0.0, "phi_f": 0.0,
                  "branch": request.branch.value},
        mode_coefficients=(1.0, 0.0, 0.0),
    )


def design_protocol_II(request: ProtocolRequest) -> Design:
    """Three-state transfer |1> -> mu|1> + eta|2> - nu|3> with all three fields."""
    if request.protocol is not Protocol.SINGLE_MODE_II:
        raise ProtocolMismatchError(f"expected single-II, got {request.protocol.value}")
    tgt = request.target
    _require_nonnegative(tgt)
    initial = _check_initial(request, 1)
    chi = math.atan2(tgt.mu, tgt.nu)  # arctan(mu/nu); pi/2 limit at nu = 0
    phi_f = math.asin(tgt.eta)
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(request.t0, request.tf,
                               theta=_angle(request, math.pi / 2.0, chi),
                               phi=_angle(request, 0.0, phi_f)),
        initial_state=initial,
        target_vector=np.array([tgt.mu, tgt.eta, -tgt.nu], dtype=complex),
        boundary={"theta_0": math.pi / 2.0, "theta_f": chi, "phi_0": 0.0,
                  "phi_f": phi_f, "chi": chi},
        mode_coefficients=(0.0, 1.0, 0.0),
    )


def design_protocol_II_no_microwave(request: ProtocolRequest) -> Design:
    """Transfer |2> -> mu|1> + eta|2> - nu|3> with theta frozen (Omega_a = 0)."""
    if request.protocol is not Protocol.SINGLE_MODE_II_NO_MICROWAVE:
        raise ProtocolMismatchError(
            f"expected single-II-nomw, got {request.protocol.value}"
        )
    tgt = request.target
    _require_nonnegative(tgt)
    initial = _check_initial(request, 2)
    chi = math.atan2(tgt.mu, tgt.nu)
    phi_f = math.asin(tgt.eta)
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(request.t0, request.tf,
                               theta=_angle(request, chi, chi),
                               phi=_angle(request, math.pi / 2.0, phi_f)),
        initial_state=initial,
        target_vector=np.array([tgt.mu, tgt.eta, -tgt.nu], dtype=complex),
        boundary={"theta_0": chi, "theta_f": chi, "phi_0": math.pi / 2.0,
                  "phi_f": phi_f, "chi": chi},
        mode_coefficients=(0.0, 1.0, 0.0),
    )


def solve_multimode_boundary(target: TargetState) -> MultiModeSolution:
    """Boundary angles for the microwave-free multi-mode transfer from |1>.

    phi_0 = 0 removes the third mode; theta is frozen at
    arctan((1 - mu)/nu), and phi_f resolves the arcsin two-valuedness via
    atan2 so that all three boundary equations hold simultaneously.
    """
    _require_nonnegative(target)
    mu, eta, nu = target.mu, target.eta, target.nu
    if abs(mu - 1.0) < NORM_TOL:
        # target equals initial state: identity transfer, zero pulses
        return MultiModeSolution(
            theta0=math.pi / 2.0,
            theta_f=math.pi / 2.0,
            phi0=0.0,
            phi_f=0.0,
            mode_coefficients=(0.0, 1.0, 0.0),
        )
    theta0 = math.atan2(1.0 - mu, nu)  # pi/2 limit at nu = 0
    s0, c0 = math.sin(theta0), math.cos(theta0)
    phi_f = math.atan2(eta, mu * s0 - nu * c0)
    residuals = (
        abs(c0 - (mu * c0 + nu * s0)),
        abs(s0 * math.sin(phi_f) - eta),
        abs(s0 * math.cos(phi_f) - (mu * s0 - nu * c0)),
    )
    if max(residuals) > BOUNDARY_RESIDUAL_TOL:
        raise BoundarySolveError(
            f"boundary residuals {residuals} exceed {BOUNDARY_RESIDUAL_TOL:.1e}"
        )
    return MultiModeSolution(
        theta0=theta0,
        theta_f=theta0,
        phi0=0.0,
        phi_f=phi_f,
        mode_coefficients=(c0, s0, 0.0),
    )


def design_multimode(request: ProtocolRequest) -> Design:
    """Microwave-free transfer |1> -> mu|1> + eta|2> + nu|3>."""
    if request.protocol is not Protocol.MULTI_MODE:
        raise ProtocolMismatchError(f"expected multi, got {request.protocol.value}")
    tgt = request.target
    initial = _check_initial(request, 1)
    solution = solve_multimode_boundary(tgt)
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(request.t0, request.tf,
                               theta=_angle(request, solution.theta0, solution.theta_f),
                               phi=_angle(request, solution.phi0, solution.zeta)),
        initial_state=initial,
        target_vector=np.array([tgt.mu, tgt.eta, tgt.nu], dtype=complex),
        boundary={"theta_0": solution.theta0, "theta_f": solution.theta_f,
                  "phi_0": solution.phi0, "phi_f": solution.phi_f,
                  "zeta": solution.zeta},
        mode_coefficients=solution.mode_coefficients,
    )


def design_phased(request: ProtocolRequest) -> Design:
    """Transfer |3> -> mu|1> + e^{i kappa} nu|3> with a winding |3>-phase.

    kappa(t) = lambda*pi*(t - t0) with lambda = lambda_rate (default
    0.5/T); gamma defaults to 0; phi stays 0, so the dynamics is
    two-state and Bloch-representable.
    """
    if request.protocol is not Protocol.PHASED:
        raise ProtocolMismatchError(f"expected phased, got {request.protocol.value}")
    tgt = request.target
    if abs(tgt.eta) > NORM_TOL:
        raise UnsupportedBranchError(
            "phased design covers two-state targets only (eta = 0); the "
            "three-state phased boundary recipe is out of scope"
        )
    if tgt.mu < 0.0 or tgt.nu < 0.0:
        raise UnsupportedBranchError(
            "phased design expects nonnegative magnitudes; phases belong in "
            "kappa_phase"
        )
    initial = _check_initial(request, 3)
    T = request.duration
    lam = request.lambda_rate if request.lambda_rate is not None else 0.5 / T
    theta_f = math.asin(tgt.mu)
    kappa_f = lam * math.pi * T
    # H33 = -dkappa, so |kappa_f| / steps = h*|dkappa| bounds h*|H| from below;
    # past RK4's stability limit at evolve's largest step count, or when not
    # finite, no step count can integrate the design
    limit = RK4_STABILITY_LIMIT * max_steps(3)
    if not abs(kappa_f) <= limit:
        raise InvalidInputError(
            f"final phase kappa(tf) = lambda*pi*T = {kappa_f:g} exceeds {limit:.4g}, "
            "which RK4 cannot integrate at any admitted step count; lower --lambda"
        )
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(
            request.t0, request.tf, theta=_angle(request, 0.0, theta_f),
            kappa=CubicPolynomial(0.0, lam * math.pi, 0.0, 0.0, request.t0, request.tf),
        ),
        initial_state=initial,
        target_vector=np.array([tgt.mu, 0.0, np.exp(1j * kappa_f) * tgt.nu],
                               dtype=complex),
        boundary={"theta_0": 0.0, "theta_f": theta_f, "phi_0": 0.0, "phi_f": 0.0,
                  "kappa_f": kappa_f, "lambda": lam},
        mode_coefficients=(1.0, 0.0, 0.0),
    )


_DESIGNERS = {
    Protocol.SINGLE_MODE_I: design_protocol_I,
    Protocol.SINGLE_MODE_II: design_protocol_II,
    Protocol.SINGLE_MODE_II_NO_MICROWAVE: design_protocol_II_no_microwave,
    Protocol.MULTI_MODE: design_multimode,
    Protocol.PHASED: design_phased,
}


def design(request: ProtocolRequest) -> Design:
    """Dispatch a request to its protocol's designer."""
    return _DESIGNERS[request.protocol](request)


def preset_targets(name: str, tf: float = 1.0) -> ProtocolRequest:
    """Canonical requests: 1:2 / 1:3 beam splitters and the cavity Bell state.

    The cavity preset aims at the Bell state (|e,g> + |g,e>)/sqrt(2), i.e.
    equal weight on the first and third single-excitation basis states.
    """
    presets = {
        "beamsplit12": ProtocolRequest(
            Protocol.SINGLE_MODE_II_NO_MICROWAVE,
            TargetState(_SQ2, 0.0, _SQ2),
            initial_state=2,
            tf=tf,
        ),
        "beamsplit13": ProtocolRequest(
            Protocol.SINGLE_MODE_II_NO_MICROWAVE,
            TargetState.normalized(_SQ3, _SQ3, _SQ3),
            initial_state=2,
            tf=tf,
        ),
        "cavity-bell": ProtocolRequest(
            Protocol.MULTI_MODE,
            TargetState(_SQ2, 0.0, _SQ2),
            initial_state=1,
            tf=tf,
        ),
    }
    try:
        return presets[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown preset {name!r}; choose from {sorted(presets)}"
        ) from None
