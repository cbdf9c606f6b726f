"""Counterdiabatic Hamiltonians, Schroedinger integration, and observables.

The central construction is H(t) = i * sum_n |dphi_n(t)><phi_n(t)| built
from a moving basis with analytic derivatives.  Every Hamiltonian a design
runs, the Lambda, phased, four-level and cavity forms, is a ``Rotation``:
one fixed axis turned by one schedule angle, optionally inside a frame
turning with a second.  The ``Rotation`` is both the spec's evaluator and
its source, so each design's H(t) is written once; the generic assembly
``hamiltonian_from_basis`` is the reference each form is tested against
entrywise.

Evaluators are vectorized over time: ``spec.evaluator(t)`` with ``t`` of
shape S returns shape S + (d, d), and a scalar ``t`` returns one (d, d)
matrix.  Time evolution uses hbar = 1.

Where a Lambda schedule freezes one angle, H(t) points along one fixed
axis: H(t) = g'(t) G for a schedule cubic g and a constant Hermitian G
with G^3 = G.  With theta constant (single-II-nomw, multi and the cavity
mapping) g = phi and G = sin(theta) G_p + cos(theta) G_s; with phi constant
(single-I) g = theta and G = -G_a (+G_a for phased pulses).  Every H(t)
then commutes with every other, so the first Magnus term is the exact
propagator, exp(-i a G) with a = g(t) - g(t0), and G^3 = G reduces it to
I - i sin(a) G + (cos(a) - 1) G^2: ``evolve`` writes each state in closed
form from the initial one, without stepping and without calling the
evaluator.

Where both Lambda angles move (single-II), H(t) = dphi G(theta) - dtheta G_a
with G(theta) = sin(theta) G_p + cos(theta) G_s.  The frame
F(t) = exp(-i (theta(t) - theta_ref) K), K = -G_a, turns G(theta_ref) into
G(theta), so in that frame the drive is dphi G(theta_ref), one fixed axis,
and the propagator is F(t) exp(-i (phi(t) - phi(t0)) G(theta_ref)) F(t0)^-1.
The four-level drive dtheta G_theta + dphi G_phi has the same form with
commuting generators, and so does the phased drive dtheta (cos(kappa) G_1 +
sin(kappa) G_2) + dkappa G_3: the frame exp(-i kappa G_3) =
diag(1, 1, e^{i kappa}) turns G_1 into cos(kappa) G_1 + sin(kappa) G_2.
Phased pulses on two moving angles have no such form (Omega_a = +dtheta
does not cancel in the -G_a frame); ``lambda_hamiltonian`` rejects them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .basis import AngleSchedule, MovingBasis
from .errors import (
    MAX_ARRAY_BYTES,
    IntegrationAccuracyError,
    InvalidInputError,
    MappingUnsupportedError,
    RegimeError,
    check_array_budget,
)

if TYPE_CHECKING:
    from .protocols import PulseSet
    from .schedules import CubicPolynomial

NORM_DRIFT_TOL = 1e-6
BLOCK_STEPS = 1 << 14  # steps whose states are built together

# The axes the Rotations turn, each named by the drive or angle rate that
# multiplies it in H(t).
_LAMBDA_GENERATORS = np.array(
    [
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],  # Omega_p
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],  # Omega_s
        [[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]],  # Omega_a
    ]
)
_PHASED_GENERATORS = np.array(
    [
        [[0, 0, 1j], [0, 0, 0], [-1j, 0, 0]],  # dtheta * cos(kappa)
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],  # dtheta * sin(kappa)
        [[0, 0, 0], [0, 0, 0], [0, 0, -1]],  # dkappa
    ]
)
_FOUR_LEVEL_GENERATORS = np.array(
    [
        [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]],  # dtheta
        [[0, -1j, 0, 0], [1j, 0, 0, 0], [0, 0, 0, -1j], [0, 0, 1j, 0]],  # dphi
    ]
)


def _matrix_axes(x) -> np.ndarray:
    """A value of shape S as shape S + (1, 1), to scale (d, d) matrices."""
    return np.asarray(x)[..., None, None]


@dataclass(frozen=True, eq=False)
class Rotation:
    """H(t) = angle'(t) * generator, seen from an optional turning frame.

    ``generator`` is a Hermitian (d, d) matrix G with G^3 = G (eigenvalues
    in {0, +-1}) and ``angle`` the schedule's ``CubicPolynomial`` g, so
    without a frame the propagator from t0 to t is exp(-i a G),
    a = g(t) - g(t0).

    ``frame`` is None or a frameless ``Rotation`` (K, f), which turns with
    F(t) = exp(-i (f(t) - f.a0) K) from the start of f's schedule.  Then
    H(t) = g'(t) F(t) G F(t)^dagger + f'(t) K, and the propagator is
    F(t) exp(-i a G) F(t0)^-1.  Calling the rotation evaluates H: times of
    shape S give shape S + (d, d).  Compared by identity (``eq=False``):
    an array field has no boolean ==.
    """

    generator: np.ndarray
    angle: "CubicPolynomial"
    frame: "Rotation | None" = None

    def __post_init__(self) -> None:
        frame = self.frame
        if not (frame is None or isinstance(frame, Rotation) and frame.frame is None):
            raise InvalidInputError(
                f"a Rotation's frame must be a frameless Rotation or None, got {frame!r}"
            )

    def __call__(self, t) -> np.ndarray:
        h = _matrix_axes(self.angle.derivative(t)) * self.generator
        frame = self.frame
        if frame is None:
            return h
        # F = exp(-i b K) = I - i sin(b) K + (cos(b) - 1) K^2, b = f(t) - f.a0
        k = frame.generator
        b = _matrix_axes(frame.angle(t) - frame.angle.a0)
        turn = np.eye(len(k)) - 1j * np.sin(b) * k + (np.cos(b) - 1.0) * (k @ k)
        return (turn @ h @ np.swapaxes(turn, -1, -2).conj()
                + _matrix_axes(frame.angle.derivative(t)) * k)


@dataclass(frozen=True)
class HamiltonianSpec:
    """A time-dependent Hermitian matrix: dimension, evaluator and source.

    ``evaluator(t)`` maps times of shape S to matrices of shape S + (d, d).
    ``source`` is the ``Rotation`` the evaluator equals, its frame included,
    and acts on ``dimension`` levels; every package spec is
    ``HamiltonianSpec(d, rotation, rotation)``.  ``evolve`` propagates the
    source in closed form and never calls the evaluator, so wrappers that
    rebuild a spec as (dimension, evaluator, source) time no evaluation.
    """

    dimension: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    source: Rotation

    def __post_init__(self) -> None:
        source = self.source
        if not isinstance(source, Rotation):
            raise InvalidInputError(f"spec source must be a Rotation, got {source!r}")
        if self.dimension != len(source.generator):
            raise InvalidInputError(
                f"spec dimension {self.dimension} does not match its source's "
                f"{len(source.generator)}-level generator"
            )

    def __call__(self, t) -> np.ndarray:
        return self.evaluator(t)

    def hermiticity_defect(self, t) -> float:
        h = self.evaluator(t)
        return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj())))


def hamiltonian_from_basis(basis: MovingBasis) -> Callable[[np.ndarray], np.ndarray]:
    """Generic counterdiabatic Hamiltonian i * sum_n |dphi_n><phi_n|.

    Returns the evaluator: times of shape S give matrices of shape
    S + (d, d).  No ``evolve`` path runs it; it is the reference every
    ``Rotation`` is tested against.
    """

    def evaluator(t) -> np.ndarray:
        b = basis.vectors(t)
        db = basis.vector_derivatives(t)
        return 1j * (np.swapaxes(db, -1, -2) @ b.conj())

    return evaluator


def lambda_hamiltonian(pulses: "PulseSet") -> HamiltonianSpec:
    """Three-level Lambda coupling matrix with purely imaginary couplings.

    Pattern: zero diagonal, H12 = -i*Omega_p, H23 = -i*Omega_s,
    H13 = +i*Omega_a (the Omega_a = -dtheta convention).  H = dphi G(theta)
    -+ dtheta G_a with G(theta) = sin(theta) G_p + cos(theta) G_s, the sign
    of ``PulseSet``'s Omega_a.  Constant theta: the axis G(theta), the sine
    and cosine taken with libm as ``PulseSet`` takes them.  Constant phi:
    the axis -+G_a.  Both moving: the axis G(theta_ref), theta_ref =
    theta.a0, in the frame turning with theta about -G_a.  Phased pulses on
    two moving angles raise ``InvalidInputError``: their Omega_a = +dtheta
    does not cancel in that frame, and no design builds them.
    """
    s = pulses.schedule
    g_p, g_s, g_a = _LAMBDA_GENERATORS
    axis = math.sin(s.theta.a0) * g_p + math.cos(s.theta.a0) * g_s
    if s.theta.is_constant:
        rotation = Rotation(axis, s.phi)
    elif s.phi.is_constant:
        rotation = Rotation(g_a if pulses.phased else -g_a, s.theta)
    elif pulses.phased:
        raise InvalidInputError(
            "phased Lambda pulses require a constant theta or a constant phi"
        )
    else:
        rotation = Rotation(axis, s.phi, frame=Rotation(-g_a, s.theta))
    return HamiltonianSpec(3, rotation, rotation)


def phased_hamiltonian(schedule: AngleSchedule) -> HamiltonianSpec:
    """Closed-form counterdiabatic matrix of the phased three-level family.

    With phi and gamma constant it equals the generic construction
    entrywise: H13 = i*dtheta*e^{-i kappa}, H33 = -dkappa, zero elsewhere
    but for H31 = conj(H13).  Designs keep phi = gamma = 0.

    H = dtheta G(kappa) + dkappa G_3 with G(kappa) = cos(kappa) G_1 +
    sin(kappa) G_2, and the frame F = exp(-i (kappa - kappa_ref) G_3) =
    diag(1, 1, e^{i (kappa - kappa_ref)}), kappa_ref = kappa.a0, turns
    G(kappa_ref) into G(kappa).  So the spec is the ``Rotation`` of the
    axis G(kappa_ref) by theta in the frame of G_3 turning with kappa; a
    design starts kappa at 0, where the axis is G_1.
    """
    if not (schedule.phi.is_constant and schedule.gamma.is_constant):
        raise InvalidInputError("phased Hamiltonian requires constant phi and gamma")
    g_1, g_2, g_3 = _PHASED_GENERATORS
    kappa_ref = schedule.kappa.a0
    axis = math.cos(kappa_ref) * g_1 + math.sin(kappa_ref) * g_2
    rotation = Rotation(axis, schedule.theta, frame=Rotation(g_3, schedule.kappa))
    return HamiltonianSpec(3, rotation, rotation)


def four_level_hamiltonian(schedule: AngleSchedule) -> HamiltonianSpec:
    """Closed-form four-level counterdiabatic matrix.

    With the unit-normalized four-level family this equals the generic
    construction entrywise: entries +-i*dphi and +-i*dtheta in a
    checkerboard pattern with zero diagonal.  H = dtheta G_theta +
    dphi G_phi with commuting generators, so the spec is the ``Rotation``
    of G_phi in the frame of G_theta.
    """
    if not schedule.is_phase_free():
        raise InvalidInputError("four-level Hamiltonian requires gamma = kappa = 0")
    g_theta, g_phi = _FOUR_LEVEL_GENERATORS
    rotation = Rotation(g_phi, schedule.phi, frame=Rotation(g_theta, schedule.theta))
    return HamiltonianSpec(4, rotation, rotation)


def cavity_qed_hamiltonian(pulses: "PulseSet") -> HamiltonianSpec:
    """Single-excitation cavity Hamiltonian with g1 = -i*Omega_p, g2 = i*Omega_s.

    Basis ordering: |e,g>|0>, |g,g>|1>, |g,e>|0>.  Only pulse sets without
    a ground-ground coupling (constant theta: Omega_a identically zero) can
    be mapped; the matrix is then the Lambda matrix with Omega_a = +0.0, and
    the spec is ``lambda_hamiltonian``'s, its source the ``Rotation``.
    """
    if not pulses.schedule.theta.is_constant:
        raise MappingUnsupportedError(
            "cavity mapping requires Omega_a identically zero (a constant theta)"
        )
    return lambda_hamiltonian(pulses)


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


def _step_bytes(dimension: int) -> int:
    """Bytes ``evolve`` stores per step: one time and one complex state."""
    return 8 + 16 * dimension


def max_steps(dimension: int) -> int:
    """Largest step count ``evolve`` admits for a ``dimension``-level state."""
    return MAX_ARRAY_BYTES // _step_bytes(dimension) - 1


def _turn(generator: np.ndarray, a, psi0: np.ndarray) -> np.ndarray:
    """exp(-i a G) psi0 for one state psi0 and angles a of any shape S.

    With M = -iG, each state is psi0 + sin(a) M psi0 + 2 sin^2(a/2) M^2 psi0,
    shape S + (d,).  The two terms are combined on the float64 views of the
    complex arrays, so every product is real times real: a promotion of
    sin(a) to complex could flip the sign of a zero.
    """
    half = np.sin(0.5 * a)
    m = -1j * generator
    mpsi = m @ psi0
    terms = np.stack((mpsi, m @ mpsi)).view(np.float64)
    weights = np.stack((np.sin(a), 2.0 * half * half), axis=-1)
    return psi0 + (weights @ terms).view(complex)


def _rotate(rotation: Rotation, t: np.ndarray, t0: float, psi0: np.ndarray) -> np.ndarray:
    """The exact states U(t, t0) psi0 at the times t, from psi0 at t0.

    Without a frame U = exp(-i a G), a = angle(t) - angle(t0): one
    ``_turn``, one row per time.  With a frame (K, f), psi0 is first turned
    back by F(t0) (by nothing when t0 starts f's schedule), then by a about
    G, and each row r by its own F(t) = exp(-i b K), b = f(t) - f.a0, as
    r + sin(b) N r + 2 sin^2(b/2) N^2 r for N = -iK, again on float64 views.
    """
    frame = rotation.frame
    if frame is not None:
        psi0 = _turn(frame.generator, frame.angle.a0 - frame.angle(t0), psi0)
    psi = _turn(rotation.generator, rotation.angle(t) - rotation.angle(t0), psi0)
    if frame is None:
        return psi
    b = frame.angle(t) - frame.angle.a0
    half = np.sin(0.5 * b)
    n = (-1j * frame.generator).T
    npsi = psi @ n
    x = (psi.view(np.float64) + np.sin(b)[:, None] * npsi.view(np.float64)
         + (2.0 * half * half)[:, None] * (npsi @ n).view(np.float64))
    return x.view(complex)


def evolve(
    spec: HamiltonianSpec,
    psi0: np.ndarray,
    t0: float,
    tf: float,
    steps: int = 4000,
) -> Trajectory:
    """Integrate i d/dt psi = H(t) psi on the grid t0 + k (tf - t0)/steps.

    The spec's source is propagated exactly: each state is exp(-i a G) psi0
    with a = angle(t_k) - angle(t0), inside F(t_k) ... F(t0)^-1 when the
    rotation has a frame F, written in closed form from psi0 (``_rotate``).
    The evolve ``t0`` need not start the schedule.  The evaluator is never
    called and nothing accumulates from step to step, so the step count
    sets only the output grid.  The states are built block by block of up
    to BLOCK_STEPS steps, which bounds each block's temporaries to a few MB.

    A norm drift beyond 1e-6 raises IntegrationAccuracyError naming the
    first drifting state: the angles went non-finite, or a generator is
    not Hermitian with G^3 = G.  More steps cannot help.  ``steps`` must be
    an integer (a numpy one will do) of at least 100.
    """
    if not isinstance(spec, HamiltonianSpec):
        raise InvalidInputError(
            f"evolve needs a HamiltonianSpec, got a {type(spec).__name__}"
        )
    if not isinstance(steps, (int, np.integer)):
        raise InvalidInputError(f"steps must be an integer, got {steps!r}")
    if steps < 100:
        raise InvalidInputError(f"need steps >= 100, got {steps}")
    if not (np.isfinite(t0) and np.isfinite(tf) and tf > t0):
        raise InvalidInputError(f"need finite tf > t0, got [{t0}, {tf}]")
    psi = np.asarray(psi0, dtype=complex).copy()
    d = spec.dimension
    if psi.shape != (d,):
        raise InvalidInputError(f"psi0 has shape {psi.shape}, expected ({d},)")
    deviation = abs(np.linalg.norm(psi) - 1.0)
    if not deviation <= 1e-8:
        raise InvalidInputError(f"psi0 norm deviates from 1 by {deviation:.3e}")
    check_array_budget("steps", steps + 1, _step_bytes(d))

    h = (tf - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    states = np.empty((steps + 1, d), dtype=complex)
    states[0] = psi

    for start in range(0, steps, BLOCK_STEPS):
        stop = min(start + BLOCK_STEPS, steps)
        block = states[start + 1 : stop + 1]
        # overflow and NaN are left to the norm check at the end of the block
        with np.errstate(over="ignore", invalid="ignore"):
            block[...] = _rotate(spec.source, times[start + 1 : stop + 1], t0, psi)
            pairs = block.view(np.float64)
            drift = np.abs(np.sqrt(np.einsum("ij,ij->i", pairs, pairs)) - 1.0)
        bad = ~(drift <= NORM_DRIFT_TOL)
        if bad.any():
            first = int(np.argmax(bad))
            raise IntegrationAccuracyError(
                f"norm drift {drift[first]:.3e} at t = {times[start + 1 + first]:.6g}"
            )

    return Trajectory(times=times, states=states)


def extract_theta_kappa(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """(theta', kappa') read off a two-state trajectory.

    theta' = arcsin|<1|psi>|, and kappa' is the continuously unwrapped
    principal argument of <3|psi>; samples where |<3|psi>| < 1e-12 are
    reported as NaN gaps.
    """
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
    return theta_prime, kappa_prime


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
