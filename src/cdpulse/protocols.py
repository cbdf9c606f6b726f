"""Pulse designs: from (initial state, target state, T) to schedules and fields.

Five designs are provided.  Two single-mode routes drive the system along
one moving state (with and without the ground-ground microwave coupling),
a multi-mode route transports a fixed superposition of moving states from
|1> without any microwave field, and a phased route realizes targets whose
|3> amplitude carries a prescribed winding phase.  ``design`` is the one
entry point; every protocol solves its boundary equations for theta and phi
at t0 and tf, and ``_design`` joins those endpoints with zero-slope cubics.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .basis import (
    AngleSchedule,
    MovingBasis,
    build_phased_basis,
    build_three_real_basis,
)
from .dynamics import HamiltonianSpec, lambda_hamiltonian, phased_hamiltonian
from .errors import (
    BoundarySolveError,
    InvalidInputError,
    ProtocolMismatchError,
    UnsupportedBranchError,
    check_array_budget,
)
from .schedules import CubicPolynomial, fit_cubic

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
    """Real target amplitudes (mu, eta, nu), unit norm."""

    mu: float
    eta: float
    nu: float

    def __post_init__(self) -> None:
        # written so that NaN and Inf fail: a NaN residual is not <= tol
        residual = self.norm_residual()
        if not residual <= NORM_TOL:
            raise InvalidInputError(
                f"target norm residual {residual:.3e} exceeds {NORM_TOL:.1e}"
            )

    @classmethod
    def normalized(cls, mu: float, eta: float, nu: float) -> "TargetState":
        """Rescale (mu, eta, nu) onto the unit sphere before construction.

        Amplitudes whose squares overflow, or sum to less than the smallest
        normal float, are first divided by the largest magnitude, so only
        all-zero amplitudes are rejected as such.
        """
        norm_sq = _square_sum(mu, eta, nu)
        if norm_sq < sys.float_info.min or norm_sq == math.inf:
            scale = max(abs(mu), abs(eta), abs(nu))
            if scale == 0.0:
                raise InvalidInputError("target amplitudes are all zero")
            mu, eta, nu = mu / scale, eta / scale, nu / scale
            norm_sq = mu**2 + eta**2 + nu**2
        norm = math.sqrt(norm_sq)
        return cls(mu / norm, eta / norm, nu / norm)

    def norm_residual(self) -> float:
        return abs(_square_sum(self.mu, self.eta, self.nu) - 1.0)


def _square_sum(mu: float, eta: float, nu: float) -> float:
    """mu**2 + eta**2 + nu**2, or inf where a square overflows."""
    try:
        return mu**2 + eta**2 + nu**2
    except OverflowError:
        return math.inf


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
        if not isinstance(self.protocol, Protocol):
            raise InvalidInputError(f"protocol must be a Protocol, got {self.protocol!r}")
        if not isinstance(self.branch, Branch):
            raise InvalidInputError(f"branch must be a Branch, got {self.branch!r}")
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
    """Drive fields of an angle schedule, as plain data (units 1/T).

    Omega_p = dphi*sin(theta), Omega_s = dphi*cos(theta) and Omega_a =
    -dtheta, or +dtheta in the phased family.  An angle that does not move
    contributes exact +0.0 pulses.
    """

    schedule: AngleSchedule
    phased: bool = False

    @property
    def t0(self) -> float:
        return self.schedule.t0

    @property
    def tf(self) -> float:
        return self.schedule.tf

    def __call__(self, t) -> np.ndarray:
        """(Omega_p, Omega_s, Omega_a) at times of shape S, as shape S + (3,)."""
        s = self.schedule
        out = np.zeros(np.shape(t) + (3,))
        if not s.phi.is_constant:
            dphi = s.dphi(t)
            if s.theta.is_constant:
                # a frozen theta splits dphi in a fixed ratio; one libm sin
                # and cos keep the cost quadrature cheap and the pulse files
                # free of numpy's vectorized sin
                out[..., 0] = dphi * math.sin(s.theta.a0)
                out[..., 1] = dphi * math.cos(s.theta.a0)
            else:
                theta = s.theta(t)
                out[..., 0] = dphi * np.sin(theta)
                out[..., 1] = dphi * np.cos(theta)
        if not s.theta.is_constant:
            out[..., 2] = (1.0 if self.phased else -1.0) * s.dtheta(t)
        return out

    def sample(self, n: int = 1001):
        """Uniform sample grid: (t, Omega_p, Omega_s, Omega_a) arrays.

        ``n`` must be an integer (a numpy one will do) of at least 2.
        """
        if not isinstance(n, (int, np.integer)):
            raise InvalidInputError(f"sample count must be an integer, got {n!r}")
        if n < 2:
            raise InvalidInputError(f"need at least 2 samples, got {n}")
        check_array_budget("sample count", n, 4 * 8)
        t = np.linspace(self.t0, self.tf, n)
        return (t, *self(t).T)


@dataclass(frozen=True)
class Design:
    """A finished design as plain data: protocol, angle schedule, bookkeeping.

    The pulses and the Hamiltonian are derived from the schedule on each
    access.  The moving basis, plain data itself, is derived on first
    access and kept: exact-state checks read it once per time sample.
    """

    protocol: Protocol
    schedule: AngleSchedule
    initial_state: np.ndarray
    target_vector: np.ndarray
    boundary: dict
    mode_coefficients: tuple

    @cached_property
    def basis(self) -> MovingBasis:
        if self.protocol is Protocol.PHASED:
            return build_phased_basis(self.schedule)
        return build_three_real_basis(self.schedule)

    @property
    def pulses(self) -> PulseSet:
        return PulseSet(self.schedule, phased=self.protocol is Protocol.PHASED)

    def exact_state(self, times) -> np.ndarray:
        """The exact state sum_n c_n phi_n(t): times of shape S give S + (3,).

        The mode coefficients c_n are constant under counterdiabatic
        driving, so this is the oracle every integrated trajectory is
        checked against.
        """
        return np.asarray(self.mode_coefficients, complex) @ self.basis.vectors(times)

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


def _design(request: ProtocolRequest, initial: np.ndarray, target_vector,
            theta: tuple, phi: tuple, coefficients: tuple,
            kappa: Optional[CubicPolynomial] = None, **extra) -> Design:
    """A design whose theta and phi are zero-slope cubics from start to end.

    ``theta`` and ``phi`` are the (t0, tf) values of the boundary
    equations; ``boundary`` records the same numbers, plus ``extra``.
    """
    t0, tf = request.t0, request.tf
    return Design(
        protocol=request.protocol,
        schedule=AngleSchedule(t0, tf, theta=fit_cubic(t0, tf, *theta),
                               phi=fit_cubic(t0, tf, *phi), kappa=kappa),
        initial_state=initial,
        target_vector=np.array(target_vector, dtype=complex),
        boundary={"theta_0": theta[0], "theta_f": theta[1],
                  "phi_0": phi[0], "phi_f": phi[1], **extra},
        mode_coefficients=coefficients,
    )


def _single_I(request: ProtocolRequest) -> Design:
    """Two-state transfer |1> -> mu|1> + nu|3> with the microwave field only."""
    tgt = request.target
    if abs(tgt.eta) > NORM_TOL:
        raise ProtocolMismatchError(
            f"single-I needs eta = 0, got eta = {tgt.eta!r}"
        )
    initial = _check_initial(request, 1)
    theta_T = select_branch(tgt.mu, tgt.nu, request.branch)
    return _design(request, initial, [math.cos(theta_T), 0.0, math.sin(theta_T)],
                   theta=(0.0, theta_T), phi=(0.0, 0.0), coefficients=(1.0, 0.0, 0.0),
                   branch=request.branch.value)


def _single_II(request: ProtocolRequest) -> Design:
    """Three-state transfer |1> -> mu|1> + eta|2> - nu|3> with all three fields."""
    tgt = request.target
    _require_nonnegative(tgt)
    initial = _check_initial(request, 1)
    chi = math.atan2(tgt.mu, tgt.nu)  # arctan(mu/nu); pi/2 limit at nu = 0
    return _design(request, initial, [tgt.mu, tgt.eta, -tgt.nu],
                   theta=(math.pi / 2.0, chi), phi=(0.0, math.asin(tgt.eta)),
                   coefficients=(0.0, 1.0, 0.0), chi=chi)


def _single_II_no_microwave(request: ProtocolRequest) -> Design:
    """Transfer |2> -> mu|1> + eta|2> - nu|3> with theta frozen (Omega_a = 0)."""
    tgt = request.target
    _require_nonnegative(tgt)
    initial = _check_initial(request, 2)
    chi = math.atan2(tgt.mu, tgt.nu)
    return _design(request, initial, [tgt.mu, tgt.eta, -tgt.nu],
                   theta=(chi, chi), phi=(math.pi / 2.0, math.asin(tgt.eta)),
                   coefficients=(0.0, 1.0, 0.0), chi=chi)


def _multi(request: ProtocolRequest) -> Design:
    """Microwave-free transfer |1> -> mu|1> + eta|2> + nu|3>.

    phi_0 = 0 removes the third mode; theta is frozen at
    arctan((1 - mu)/nu), and zeta = phi_f resolves the arcsin two-valuedness
    via atan2 so that all three boundary equations hold simultaneously.
    """
    tgt = request.target
    initial = _check_initial(request, 1)
    _require_nonnegative(tgt)
    mu, eta, nu = tgt.mu, tgt.eta, tgt.nu
    if abs(mu - 1.0) < NORM_TOL:
        # target equals initial state: identity transfer, zero pulses
        theta0, phi_f, coefficients = math.pi / 2.0, 0.0, (0.0, 1.0, 0.0)
    else:
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
        coefficients = (c0, s0, 0.0)
    return _design(request, initial, [mu, eta, nu], theta=(theta0, theta0),
                   phi=(0.0, phi_f), coefficients=coefficients, zeta=phi_f)


def _phased(request: ProtocolRequest) -> Design:
    """Transfer |3> -> mu|1> + e^{i kappa} nu|3> with a winding |3>-phase.

    kappa(t) = lambda*pi*(t - t0) with lambda = lambda_rate (default
    0.5/T); gamma defaults to 0; phi stays 0, so the dynamics is
    two-state and Bloch-representable.

    ``evolve`` writes the phased drive in closed form, so no step count
    limits the winding.  Its limit is the precision of kappa, an absolute
    phase error of about ulp(kappa(tf)) in the |3> amplitude, which the
    fidelity cannot show: ``exact_state`` and ``target_vector`` round kappa
    the same way.  So lambda is accepted only while ulp(kappa(tf)) < 1 rad,
    that is |kappa(tf)| < 2**52; the same test rejects an infinite or NaN
    kappa(tf).
    """
    tgt = request.target
    if abs(tgt.eta) > NORM_TOL:
        raise UnsupportedBranchError(
            "phased design covers two-state targets only (eta = 0); the "
            "three-state phased boundary recipe is out of scope"
        )
    if tgt.mu < 0.0 or tgt.nu < 0.0:
        raise UnsupportedBranchError(
            "phased design expects nonnegative magnitudes; the |3> phase is "
            "set by the winding rate (--lambda, lambda_rate)"
        )
    initial = _check_initial(request, 3)
    T = request.duration
    lam = request.lambda_rate if request.lambda_rate is not None else 0.5 / T
    theta_f = math.asin(tgt.mu)
    kappa_f = lam * math.pi * T
    if not math.ulp(kappa_f) < 1.0:
        raise InvalidInputError(
            f"final phase kappa(tf) = lambda*pi*T = {kappa_f:g} is not below 2**52, "
            "so its float cannot fix the |3> phase to a radian; lower --lambda"
        )
    return _design(request, initial, [tgt.mu, 0.0, np.exp(1j * kappa_f) * tgt.nu],
                   theta=(0.0, theta_f), phi=(0.0, 0.0),
                   coefficients=(1.0, 0.0, 0.0),
                   kappa=CubicPolynomial(0.0, lam * math.pi, 0.0, 0.0,
                                         request.t0, request.tf),
                   kappa_f=kappa_f, **{"lambda": lam})


_DESIGNERS = {
    Protocol.SINGLE_MODE_I: _single_I,
    Protocol.SINGLE_MODE_II: _single_II,
    Protocol.SINGLE_MODE_II_NO_MICROWAVE: _single_II_no_microwave,
    Protocol.MULTI_MODE: _multi,
    Protocol.PHASED: _phased,
}


def design(request: ProtocolRequest) -> Design:
    """The package's one designer: dispatch a request to its protocol."""
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
