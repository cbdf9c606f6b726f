"""Exact references the benchmark checks every output against.

Trajectories are compared with the exact moving-basis solution
psi(t) = sum_n c_n phi_n(t), built from ``Design.basis`` and
``Design.mode_coefficients``.  Drive costs are compared with the closed
forms omega_bar = |phi_f - phi_0|/T and energy_bar = 6(phi_f - phi_0)^2/(5T),
which hold for every phi-only design because hypot(Omega_p, Omega_s) =
|dphi/dt| there.  The ratio surface is compared point by point with the
scalar ``mode_comparison_ratio``.

Closed forms are compared with a relative tolerance plus what rounding the
inputs by ULP_MARGIN ulps does to the closed form itself.  Near mu = 1 the
multi-mode excursion is ill-conditioned (1 - mu cancels and the arcsin
argument nears 1), so a one-ulp change in a target amplitude, such as the
program's renormalisation of the target, moves the ratio by ~1e-9.

The program functions used here are captured at import, so a traced run's
wrappers never see (or count) the oracle's own calls.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from cdpulse import basis, metrics, protocols
from cdpulse.protocols import Protocol

_VECTORS = basis.MovingBasis.vectors
_SAMPLE = protocols.PulseSet.sample
_RATIO = metrics.mode_comparison_ratio
design = protocols.design

# Fixed accuracy requirements, with margin above the worst cases seen on the
# seed code: 3.1e-9 global error and 8.1e-11 infidelity at 400 steps over
# random targets, 8.8e-14 and 6.9e-15 at 4000 steps (figures), 3.6e-12
# relative error in the cost closed forms.
TARGETS_GLOBAL_ERROR_TOL = 1e-7
TARGETS_INFIDELITY_TOL = 1e-8
FIGURES_GLOBAL_ERROR_TOL = 1e-10
FIGURES_INFIDELITY_TOL = 1e-12
COST_REL_TOL = 1e-9
ULP_MARGIN = 16  # input rounding a correct program may add, in ulps per input
SAMPLE_TOL = 1e-12  # pulse samples, time grids and ratio values
DERIVED_TOL = 1e-8  # columns derived from amplitudes: arcsin, angle, Bloch
NORM_TOL = 1e-6  # the program's own norm-drift limit

TOLERANCES = {
    "targets_global_error": TARGETS_GLOBAL_ERROR_TOL,
    "targets_infidelity": TARGETS_INFIDELITY_TOL,
    "figures_global_error": FIGURES_GLOBAL_ERROR_TOL,
    "figures_infidelity": FIGURES_INFIDELITY_TOL,
    "cost_relative": COST_REL_TOL,
    "input_ulps": ULP_MARGIN,
    "samples": SAMPLE_TOL,
    "derived_columns": DERIVED_TOL,
}


class CheckFailed(Exception):
    """An output disagrees with its exact reference."""


def exact_states(dsg, times) -> np.ndarray:
    """psi(t) = sum_n c_n phi_n(t) on the given time grid, one row per time."""
    c = np.asarray(dsg.mode_coefficients, dtype=complex)
    return np.array([c @ _VECTORS(dsg.basis, float(t)) for t in times])


def trajectory_errors(dsg, states: np.ndarray, exact: np.ndarray):
    """(global error, infidelity) of integrated states against the oracle.

    The global error is max_t ||psi_num(t) - psi_exact(t)||, which sees phase
    errors that norms and populations do not.  The infidelity is
    1 - |<target|psi_num(T)>|^2 with the design's target vector.
    """
    global_error = float(np.max(np.linalg.norm(states - exact, axis=1)))
    overlap = np.vdot(np.asarray(dsg.target_vector), states[-1])
    infidelity = max(0.0, 1.0 - float(abs(overlap) ** 2))
    return global_error, infidelity


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_trajectory(dsg, times, states, error_tol, infidelity_tol):
    """Raise CheckFailed unless the trajectory matches the oracle."""
    exact = exact_states(dsg, times)
    global_error, infidelity = trajectory_errors(dsg, states, exact)
    require(global_error <= error_tol,
            f"global error {global_error:.3e} > {error_tol:.1e}")
    require(infidelity <= infidelity_tol,
            f"infidelity {infidelity:.3e} > {infidelity_tol:.1e}")
    return exact, global_error, infidelity


def phi_span(protocol: Protocol, mu: float, eta: float, nu: float) -> float:
    """phi_f - phi_0 of a phi-only design, from the boundary equations."""
    if protocol is Protocol.SINGLE_MODE_II:
        return math.asin(eta)
    if protocol is Protocol.SINGLE_MODE_II_NO_MICROWAVE:
        return math.asin(eta) - math.pi / 2.0
    if protocol is Protocol.MULTI_MODE:
        theta0 = math.atan2(1.0 - mu, nu)
        return math.atan2(eta, mu * math.sin(theta0) - nu * math.cos(theta0))
    raise ValueError(f"{protocol.value} is not a phi-only design")


def expected_costs(request) -> tuple[float, float]:
    """(omega_bar, energy_bar) of a request, exact."""
    args = _cost_inputs(request)
    return _omega_bar(request.protocol, *args), _energy_bar(request.protocol, *args)


def _cost_inputs(request) -> tuple[float, float, float, float]:
    t = request.target
    return t.mu, t.eta, t.nu, request.duration


def _omega_bar(protocol: Protocol, mu: float, eta: float, nu: float, T: float) -> float:
    if protocol in (Protocol.SINGLE_MODE_I, Protocol.PHASED):
        return 0.0  # only Omega_a drives these; it is not in the costs
    return abs(phi_span(protocol, mu, eta, nu)) / T


def _energy_bar(protocol: Protocol, mu: float, eta: float, nu: float, T: float) -> float:
    if protocol in (Protocol.SINGLE_MODE_I, Protocol.PHASED):
        return 0.0
    return 6.0 * phi_span(protocol, mu, eta, nu) ** 2 / (5.0 * T)


def expected_ratio(mu: float, eta: float, nu: float) -> float:
    """Single/multi-mode frequency ratio |asin(eta) - pi/2| / (pi - asin(eta/sin theta0))."""
    theta0 = math.atan2(1.0 - mu, nu)
    span_m = math.pi - math.asin(min(1.0, eta / math.sin(theta0)))
    return abs(math.asin(eta) - math.pi / 2.0) / span_m


def _expected_energy_ratio(mu: float, eta: float, nu: float) -> float:
    return expected_ratio(mu, eta, nu) ** 2


def ulp_sensitivity(f, *args: float) -> float:
    """Sum over inputs of the largest change in f when that input moves one ulp.

    To first order, rounding every input by up to k ulps moves f by at most
    k times this.  Steps that leave f's domain are skipped.
    """
    base = f(*args)
    total = 0.0
    for i, x in enumerate(args):
        worst = 0.0
        for direction in (-math.inf, math.inf):
            moved = list(args)
            moved[i] = math.nextafter(x, direction)
            try:
                worst = max(worst, abs(f(*moved) - base))
            except ValueError:
                continue
        total += worst
    return total


def _close(value: float, expected: float, rel: float, f, *args: float) -> bool:
    """|value - expected| within rel of expected, widened by f's input sensitivity.

    f(*args) is the closed form that gave ``expected``; its sensitivity is
    computed only when the plain relative test fails.
    """
    err = abs(value - expected)
    if err <= rel * abs(expected):
        return True
    return err <= rel * abs(expected) + ULP_MARGIN * ulp_sensitivity(f, *args)


def check_costs(request, dm) -> float:
    """Raise CheckFailed unless drive_metrics matches the closed forms.

    Returns the worse relative error of omega_bar and energy_bar.
    """
    omega, energy = expected_costs(request)
    args = _cost_inputs(request)
    for name, value, expected, form in (("omega_bar", dm.omega_bar, omega, _omega_bar),
                                        ("energy_bar", dm.energy_bar, energy, _energy_bar)):
        require(_close(value, expected, COST_REL_TOL,
                       functools.partial(form, request.protocol), *args),
                f"{name} {value!r} != {expected!r}")
    if omega == 0.0:
        return 0.0
    return max(abs(dm.omega_bar - omega) / omega, abs(dm.energy_bar - energy) / energy)


def check_ratio(mu: float, eta: float, nu: float, ratio) -> None:
    omega_ratio, energy_ratio = ratio
    expected = expected_ratio(mu, eta, nu)
    require(_close(omega_ratio, expected, COST_REL_TOL, expected_ratio, mu, eta, nu),
            f"omega ratio {omega_ratio!r} != {expected!r}")
    require(_close(energy_ratio, expected**2, COST_REL_TOL, _expected_energy_ratio,
                   mu, eta, nu),
            f"energy ratio {energy_ratio!r} != {expected**2!r}")


def check_surface(data: np.ndarray, resolution: int) -> None:
    """Rows (mu, eta, omega_ratio, energy_ratio), mu-major, against the scalar ratio."""
    require(data.shape == (resolution * resolution, 4),
            f"surface has shape {data.shape}, expected ({resolution**2}, 4)")
    grid = np.linspace(0.0, 1.0, resolution)
    require(np.array_equal(data[:, 0], np.repeat(grid, resolution))
            and np.array_equal(data[:, 1], np.tile(grid, resolution)),
            "surface grid is not the mu-major linspace(0, 1) grid")
    for mu, eta, omega_ratio, energy_ratio in data:
        if mu**2 + eta**2 > 1.0 + 1e-12:
            require(omega_ratio == 0.0 and energy_ratio == 0.0,
                    f"masked point ({mu}, {eta}) is not zero")
            continue
        expected = _RATIO(float(mu), float(eta))
        require(abs(omega_ratio - expected[0]) <= SAMPLE_TOL
                and abs(energy_ratio - expected[1]) <= SAMPLE_TOL,
                f"ratio at ({mu}, {eta}) is {(omega_ratio, energy_ratio)}, "
                f"expected {expected}")


def check_pulses(dsg, data: np.ndarray) -> None:
    """Rows (t, Omega_p, Omega_s, Omega_a) against PulseSet.sample."""
    expected = np.column_stack(_SAMPLE(dsg.pulses, data.shape[0]))
    scale = max(1.0, float(np.max(np.abs(expected))))
    err = float(np.max(np.abs(data - expected)))
    require(err <= SAMPLE_TOL * scale, f"pulse samples differ by {err:.3e}")


def check_trajectory_file(dsg, header: list[str], data: np.ndarray, t0: float,
                          tf: float):
    """A trajectory CSV against the oracle; returns (global error, infidelity)."""
    col = {name: data[:, i] for i, name in enumerate(header)}
    dim = len(dsg.initial_state)
    times = col["t"]
    grid = np.linspace(t0, tf, len(times))
    require(np.max(np.abs(times - grid)) <= SAMPLE_TOL * max(1.0, abs(tf)),
            "time column is not the uniform grid")
    states = np.column_stack(
        [col[f"re_a{n}"] + 1j * col[f"im_a{n}"] for n in range(1, dim + 1)]
    )
    exact, global_error, infidelity = check_trajectory(
        dsg, times, states, FIGURES_GLOBAL_ERROR_TOL, FIGURES_INFIDELITY_TOL
    )
    pops = np.column_stack([col[f"P{n}"] for n in range(1, dim + 1)])
    require(np.max(np.abs(pops - np.abs(exact) ** 2)) <= DERIVED_TOL,
            "population columns disagree with the oracle")
    require(np.max(np.abs(col["norm"] - 1.0)) <= NORM_TOL, "norm column drifts")
    if "theta_prime" in col:
        a1, a3 = exact[:, 0], exact[:, 2]
        xy = 2.0 * np.conj(a1) * a3
        derived = {
            "theta_prime": np.arcsin(np.clip(np.abs(a1), 0.0, 1.0)),
            "kappa_prime": np.unwrap(np.angle(a3)),
            "bloch_x": xy.real,
            "bloch_y": xy.imag,
            "bloch_z": np.abs(a1) ** 2 - np.abs(a3) ** 2,
        }
        for name, values in derived.items():
            err = float(np.max(np.abs(col[name] - values)))
            require(err <= DERIVED_TOL, f"{name} column differs by {err:.3e}")
    return global_error, infidelity
