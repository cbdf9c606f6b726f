"""Counterdiabatic Hamiltonians, Schroedinger integration, and observables.

The central construction is H(t) = i * sum_n |dphi_n(t)><phi_n(t)| built
from a moving basis with analytic derivatives; every closed-form Hamiltonian
here agrees with that generic assembly entrywise.

Evaluators are vectorized over time: ``spec.evaluator(t)`` with ``t`` of
shape S returns shape S + (d, d), and a scalar ``t`` returns one (d, d)
matrix.  Time evolution uses the classical fixed-step fourth-order
Runge-Kutta scheme with hbar = 1.  Because the right-hand side -iH(t)psi is
linear in psi, each RK4 step is a fixed d x d propagator; ``evolve``
evaluates H on whole blocks of stage times and builds those propagators
with batched matrix products before applying them step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .basis import AngleSchedule, MovingBasis, build_phased_basis
from .errors import (
    IntegrationAccuracyError,
    InvalidInputError,
    MappingUnsupportedError,
    RegimeError,
    check_array_budget,
)

if TYPE_CHECKING:
    from .protocols import PulseSet

HERMITICITY_TOL = 1e-12
NORM_DRIFT_TOL = 1e-6
BLOCK_STEPS = 512  # RK4 steps whose propagators are built together

# H(t) = sum_k c_k(t) G_k for the closed-form couplings, with the pulse or
# angle-rate coefficients c_k in the order given in each comment.
_LAMBDA_GENERATORS = np.array(
    [
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],  # Omega_p
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],  # Omega_s
        [[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]],  # Omega_a
    ]
)
_FOUR_LEVEL_GENERATORS = np.array(
    [
        [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]],  # dtheta
        [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],  # dphi
    ]
)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A time-dependent Hermitian matrix: dimension plus evaluator.

    ``evaluator(t)`` maps times of shape S to matrices of shape S + (d, d).
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    source: str = "custom"

    def __call__(self, t) -> np.ndarray:
        return self.evaluator(t)

    def hermiticity_defect(self, t) -> float:
        h = self.evaluator(t)
        return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj())))


def _linear_hamiltonian(
    generators: np.ndarray, coefficients, source: str
) -> HamiltonianSpec:
    """H(t) = sum_k coefficients[k](t) * generators[k]."""
    dimension = generators.shape[-1]
    flat = generators.reshape(len(generators), -1)

    def evaluator(t) -> np.ndarray:
        shape = np.shape(t)
        c = np.empty(shape + (len(coefficients),))
        for k, f in enumerate(coefficients):
            c[..., k] = f(t)
        return (c @ flat).reshape(shape + (dimension, dimension))

    return HamiltonianSpec(dimension, evaluator, source=source)


def hamiltonian_from_basis(basis: MovingBasis) -> HamiltonianSpec:
    """Generic counterdiabatic Hamiltonian i * sum_n |dphi_n><phi_n|."""

    def evaluator(t) -> np.ndarray:
        b = basis.vectors(t)
        db = basis.vector_derivatives(t)
        return 1j * (np.swapaxes(db, -1, -2) @ b.conj())

    return HamiltonianSpec(basis.dimension, evaluator, source="from-basis")


def lambda_hamiltonian(pulses: "PulseSet") -> HamiltonianSpec:
    """Three-level Lambda coupling matrix with purely imaginary couplings.

    Pattern: zero diagonal, H12 = -i*Omega_p, H23 = -i*Omega_s,
    H13 = +i*Omega_a (the Omega_a = -dtheta convention).
    """
    return _linear_hamiltonian(
        _LAMBDA_GENERATORS,
        (pulses.omega_p, pulses.omega_s, pulses.omega_a),
        "three-level-lambda",
    )


def phased_hamiltonian(schedule: AngleSchedule) -> HamiltonianSpec:
    """Three-level Hamiltonian of the phased family, including the
    diagonal entries -dgamma and -dkappa."""
    spec = hamiltonian_from_basis(build_phased_basis(schedule))
    return HamiltonianSpec(3, spec.evaluator, source="phased")


def four_level_hamiltonian(schedule: AngleSchedule) -> HamiltonianSpec:
    """Closed-form four-level counterdiabatic matrix.

    With the unit-normalized four-level family this equals the generic
    construction entrywise: entries +-i*dphi and +-i*dtheta in a
    checkerboard pattern with zero diagonal.
    """
    if not schedule.is_phase_free():
        raise InvalidInputError("four-level Hamiltonian requires gamma = kappa = 0")
    return _linear_hamiltonian(
        _FOUR_LEVEL_GENERATORS, (schedule.dtheta, schedule.dphi), "four-level"
    )


def cavity_qed_hamiltonian(pulses: "PulseSet") -> HamiltonianSpec:
    """Single-excitation cavity Hamiltonian with g1 = -i*Omega_p, g2 = i*Omega_s.

    Basis ordering: |e,g>|0>, |g,g>|1>, |g,e>|0>.  Only pulse sets without
    a ground-ground coupling (Omega_a identically zero) can be mapped; the
    matrix is then the Lambda coupling matrix without its Omega_a term.
    """
    probe = np.linspace(pulses.t0, pulses.tf, 257)
    if np.max(np.abs(pulses.omega_a(probe))) > 1e-14:
        raise MappingUnsupportedError(
            "cavity mapping requires Omega_a identically zero"
        )
    return _linear_hamiltonian(
        _LAMBDA_GENERATORS[:2], (pulses.omega_p, pulses.omega_s), "cavity-qed"
    )


@dataclass(frozen=True)
class Trajectory:
    """Integration record: time grid and complex state vectors."""

    times: np.ndarray
    states: np.ndarray

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def populations(self) -> np.ndarray:
        """P_n(t) = |<n|psi(t)>|^2, one column per bare state."""
        return np.abs(self.states) ** 2

    @property
    def fidelities(self) -> np.ndarray:
        """Complex overlaps F_n(t) = <n|psi(t)> (the state components)."""
        return self.states

    @property
    def norms(self) -> np.ndarray:
        return np.sqrt(np.sum(np.abs(self.states) ** 2, axis=1))

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def fidelity_to(self, target: np.ndarray) -> float:
        """|<target|psi(tf)>|^2, clamped to at most 1.

        The clamp removes rounding only: for normalized states the overlap
        cannot exceed 1, yet its computed square can by a few ulps.  A NaN
        overlap stays NaN.
        """
        overlap = float(np.abs(np.vdot(np.asarray(target), self.final_state)) ** 2)
        return min(overlap, 1.0)


def evolve(
    spec: HamiltonianSpec,
    psi0: np.ndarray,
    t0: float,
    tf: float,
    steps: int = 4000,
) -> Trajectory:
    """Integrate i d/dt psi = H(t) psi with fixed-step RK4.

    For each block of up to BLOCK_STEPS steps, H is evaluated on the stage
    grids t_k, t_k + h/2 and t_k + h, and with A = -iH the step propagators

        M_k = I + h/6 (A1 + 2 K2 + 2 K3 + K4),  K2 = A2 (I + h/2 A1),
        K3 = A2 (I + h/2 K2),  K4 = A4 (I + h K3)

    are formed with batched matrix products; psi_{k+1} = M_k psi_k is the
    classical RK4 update regrouped, equal to it up to rounding.  No
    per-step renormalization is applied; a norm drift beyond 1e-6 (or a
    non-finite state) raises IntegrationAccuracyError (use more steps).
    """
    if steps < 100:
        raise InvalidInputError(f"need steps >= 100, got {steps}")
    if not (np.isfinite(t0) and np.isfinite(tf) and tf > t0):
        raise InvalidInputError(f"need finite tf > t0, got [{t0}, {tf}]")
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (spec.dimension,):
        raise InvalidInputError(
            f"psi0 has shape {psi.shape}, expected ({spec.dimension},)"
        )
    deviation = abs(np.linalg.norm(psi) - 1.0)
    if not deviation <= 1e-8:
        raise InvalidInputError(f"psi0 norm deviates from 1 by {deviation:.3e}")
    check_array_budget("steps", steps + 1, 16 * spec.dimension + 8)

    h = (tf - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    states = np.empty((steps + 1, spec.dimension), dtype=complex)
    states[0] = psi
    eye = np.eye(spec.dimension)

    for start in range(0, steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, steps)
        t = times[start:stop]
        # overflow and NaN are left to the norm check at the end of the block
        with np.errstate(over="ignore", invalid="ignore"):
            a1 = -1j * spec.evaluator(t)
            a2 = -1j * spec.evaluator(t + 0.5 * h)
            a4 = -1j * spec.evaluator(t + h)
            k2 = a2 @ (eye + (0.5 * h) * a1)
            k3 = a2 @ (eye + (0.5 * h) * k2)
            k4 = a4 @ (eye + h * k3)
            propagators = eye + (h / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)
            for k, m in enumerate(propagators, start + 1):
                psi = np.dot(m, psi)
                states[k] = psi
            drift = np.abs(np.linalg.norm(states[start + 1 : stop + 1], axis=1) - 1.0)
        bad = ~(drift <= NORM_DRIFT_TOL)
        if bad.any():
            first = int(np.argmax(bad))
            raise IntegrationAccuracyError(
                f"norm drift {drift[first]:.3e} at t = {times[start + 1 + first]:.6g}; "
                f"increase the step count (currently {steps})"
            )

    return Trajectory(times=times, states=states)


@dataclass(frozen=True)
class PhaseExtraction:
    """Mixing angle and |3>-phase read off a two-state trajectory.

    ``kappa_prime`` is the continuously unwrapped principal argument of
    <3|psi>; samples where |<3|psi>| < 1e-12 are reported as NaN gaps.
    """

    theta_prime: np.ndarray
    kappa_prime: np.ndarray


def extract_theta_kappa(traj: Trajectory) -> PhaseExtraction:
    """Extract theta' = arcsin|<1|psi>| and the unwrapped phase of <3|psi>."""
    if traj.dimension != 3:
        raise InvalidInputError("phase extraction requires a 3-level trajectory")
    a1 = traj.states[:, 0]
    a3 = traj.states[:, 2]
    theta_prime = np.arcsin(np.clip(np.abs(a1), 0.0, 1.0))

    kappa_prime = np.full(a3.shape, np.nan)
    valid = np.abs(a3) >= 1e-12
    raw = np.angle(a3[valid])
    if raw.size:
        # continuity-based 2*pi correction across valid samples
        kappa_prime[valid] = np.unwrap(raw)
    return PhaseExtraction(theta_prime=theta_prime, kappa_prime=kappa_prime)


def bloch_coordinates(traj: Trajectory) -> np.ndarray:
    """Bloch vectors (x, y, z) for the {|1>, |3>} two-state regime.

    |1> sits at the north pole; the azimuth equals the relative phase of
    the |3> amplitude.  Raises RegimeError on |2> leakage above 1e-10.
    """
    if traj.dimension != 3:
        raise RegimeError("Bloch mapping requires a 3-level trajectory")
    leak = float(np.max(np.abs(traj.states[:, 1])))
    if leak > 1e-10:
        raise RegimeError(
            f"|2> amplitude reaches {leak:.3e}; not a two-state trajectory"
        )
    a = traj.states[:, 0]
    b = traj.states[:, 2]
    z = np.abs(a) ** 2 - np.abs(b) ** 2
    xy = 2.0 * np.conj(a) * b
    return np.column_stack([xy.real, xy.imag, z])
