"""End-to-end acceptance checks, one per headline capability.

Each test records a single PASS/FAIL line; conftest prints the collected
report after the run so the log doubles as the acceptance report.
"""

import math

import numpy as np
import pytest

from cdpulse import (
    Branch,
    CubicBoundary,
    Protocol,
    ProtocolRequest,
    TargetState,
    bloch_coordinates,
    build_four_level_basis,
    cavity_qed_hamiltonian,
    design,
    design_multimode,
    design_phased,
    design_protocol_I,
    design_protocol_II,
    design_protocol_II_no_microwave,
    drive_metrics,
    evolve,
    extract_theta_kappa,
    fit_cubic,
    four_level_hamiltonian,
    hamiltonian_from_basis,
    preset_targets,
    ratio_surface,
    solve_multimode_boundary,
)
from test_basis import cubic_schedule

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)
SQ6 = 1.0 / math.sqrt(6.0)


RESULTS: list[tuple[int, str]] = []


def report(number: int, description: str):
    """Context manager recording one PASS/FAIL line per criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            RESULTS.append(
                (number, f"ACCEPTANCE {number}: {verdict} - {description}")
            )
            return False

    return _Reporter()


def run(dsg, steps=4000):
    return evolve(dsg.hamiltonian, dsg.initial_state, dsg.pulses.t0,
                  dsg.pulses.tf, steps=steps)


def test_01_even_split_populations_and_pulse_form():
    with report(1, "microwave-only even split: populations and pulse shape"):
        dsg = design_protocol_I(
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2))
        )
        p = run(dsg).populations[-1]
        assert abs(p[0] - 0.5) <= 1e-3
        assert abs(p[2] - 0.5) <= 1e-3
        assert p[1] <= 1e-8
        t = np.linspace(0.0, 1.0, 1001)
        expected = -6.0 * (t - t**2) * (math.pi / 4.0)
        assert np.max(np.abs(dsg.pulses.omega_a(t) - expected)) <= 1e-12


def test_02_fast_inversion_any_duration():
    with report(2, "full inversion at T = 0.1, 1, 10 with 1/T pulse scaling"):
        peaks = {}
        for T in (0.1, 1.0, 10.0):
            dsg = design_protocol_I(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I, TargetState(0.0, 0.0, 1.0), tf=T
                )
            )
            assert run(dsg).populations[-1][2] >= 1.0 - 1e-6
            t = np.linspace(0.0, T, 2001)
            peaks[T] = np.max(np.abs(dsg.pulses.omega_a(t)))
        scaled = [peaks[T] * T for T in (0.1, 1.0, 10.0)]
        assert max(scaled) - min(scaled) <= 1e-12


def test_03_branch_suite_fidelity_signs():
    with report(3, "four final-angle branches give the four fidelity sign patterns"):
        cases = [
            (Branch.ARCSIN_PLUS, (+SQ2, +SQ2)),
            (Branch.ARCCOS_MINUS, (-SQ2, +SQ2)),
            (Branch.ARCCOS_PLUS, (-SQ2, -SQ2)),
            (Branch.ARCSIN_MINUS, (+SQ2, -SQ2)),
        ]
        for branch, (f1, f3) in cases:
            dsg = design_protocol_I(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I,
                    TargetState(SQ2, 0.0, SQ2),
                    branch=branch,
                )
            )
            final = run(dsg).final_state
            assert abs(final[0] - f1) <= 1e-4
            assert abs(final[2] - f3) <= 1e-4


def test_04_three_field_transfer():
    with report(4, "three-field transfer reaches both reference targets"):
        for mu, eta, nu, pops in [
            (0.0, SQ2, SQ2, (0.0, 0.5, 0.5)),
            (SQ3, SQ3, SQ3, (1 / 3, 1 / 3, 1 / 3)),
        ]:
            dsg = design_protocol_II(
                ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(mu, eta, nu))
            )
            p = run(dsg).populations[-1]
            assert np.max(np.abs(p - np.array(pops))) <= 1e-3


def test_05_no_microwave_variant():
    with report(5, "microwave-free variant from |2>: targets hit, Omega_a = 0"):
        for mu, eta, nu, pops in [
            (SQ2, 0.0, SQ2, (0.5, 0.0, 0.5)),
            (SQ6, SQ3, SQ2, (1 / 6, 1 / 3, 0.5)),
        ]:
            dsg = design_protocol_II_no_microwave(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                    TargetState.normalized(mu, eta, nu),
                    initial_state=2,
                )
            )
            t = np.linspace(0.0, 1.0, 501)
            assert np.max(np.abs(dsg.pulses.omega_a(t))) == 0.0
            p = run(dsg).populations[-1]
            assert np.max(np.abs(p - np.array(pops))) <= 1e-3


def test_06_multimode_targets_and_coefficients():
    with report(6, "multi-mode transfers: fidelity and constant mode coefficients"):
        for mu, eta, nu in [
            (0.0, 0.0, 1.0),
            (0.0, SQ2, SQ2),
            (SQ2, 0.5, 0.5),
            (SQ2, 0.0, SQ2),
        ]:
            dsg = design_multimode(
                ProtocolRequest(
                    Protocol.MULTI_MODE, TargetState.normalized(mu, eta, nu)
                )
            )
            traj = run(dsg)
            assert traj.fidelity_to(dsg.target_vector) >= 1.0 - 1e-6
            c = np.asarray(dsg.mode_coefficients, dtype=complex)
            for k in range(0, len(traj.times), 100):
                b = dsg.basis.vectors(traj.times[k])
                coeffs = b.conj() @ traj.states[k]
                assert np.max(np.abs(coeffs - c)) <= 1e-6


def test_07_ratio_surface_and_metric_consistency():
    with report(7, "comparison surface: bounds, closed forms, quadrature match"):
        surface = ratio_surface(50)
        unmasked = ~surface.mask
        assert np.all(surface.omega_ratio[unmasked] < 1.0)
        assert np.max(np.abs(surface.omega_ratio[:, 0] - 0.5)) <= 1e-8
        assert np.max(
            np.abs(surface.energy_ratio - surface.omega_ratio**2)
        ) <= 1e-10
        # integrated metrics against the closed-form phase excursions
        tgt = TargetState(SQ3, SQ3, SQ3)
        multi = design_multimode(ProtocolRequest(Protocol.MULTI_MODE, tgt))
        zeta = solve_multimode_boundary(tgt).zeta
        assert drive_metrics(multi.pulses).omega_bar == pytest.approx(
            zeta, abs=1e-8
        )
        single = design_protocol_II_no_microwave(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE, tgt, initial_state=2
            )
        )
        span = abs(math.asin(tgt.eta) - math.pi / 2.0)
        assert drive_metrics(single.pulses).omega_bar == pytest.approx(
            span, abs=1e-8
        )


def test_08_phase_protocol_extraction():
    with report(8, "winding-phase transfer: extracted angles track the schedule"):
        dsg = design_phased(
            ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2))
        )
        traj = run(dsg)
        ext = extract_theta_kappa(traj)
        theta = np.asarray(dsg.schedule.theta(traj.times), dtype=float)
        assert np.max(np.abs(ext.theta_prime - theta)) <= 1e-6
        expected_kappa = 0.5 * math.pi * traj.times
        valid = ~np.isnan(ext.kappa_prime)
        assert np.max(np.abs(ext.kappa_prime[valid] - expected_kappa[valid])) <= 1e-6
        bloch = bloch_coordinates(traj)
        assert np.max(np.abs(np.linalg.norm(bloch, axis=1) - 1.0)) <= 1e-10


def test_09_cavity_preset():
    with report(9, "cavity preset reaches the maximally entangled state"):
        request = preset_targets("cavity-bell")
        dsg = design(request)
        cavity = cavity_qed_hamiltonian(dsg.pulses)
        traj = evolve(cavity, dsg.initial_state, request.t0, request.tf)
        bell = np.array([SQ2, 0.0, SQ2], dtype=complex)
        assert traj.fidelity_to(bell) >= 0.999


def test_10_four_level_transport():
    with report(10, "four-level transport and closed-form matrix agreement"):
        rng = np.random.default_rng(101)
        for _ in range(3):
            sched = cubic_schedule(rng)
            basis = build_four_level_basis(sched)
            closed = four_level_hamiltonian(sched)
            generic = hamiltonian_from_basis(basis)
            for t in rng.uniform(0.0, 1.0, size=30):
                assert np.max(np.abs(closed(t) - generic(t))) <= 1e-12
            for n in range(4):
                traj = evolve(closed, basis.vectors(0.0)[n], 0.0, 1.0)
                for k in range(0, len(traj.times), 200):
                    b = basis.vectors(traj.times[k])
                    assert abs(np.vdot(b[n], traj.states[k])) >= 1.0 - 1e-6


def test_11_property_suites():
    with report(11, "orthonormality, Hermiticity, norm, convergence, boundaries"):
        rng = np.random.default_rng(103)
        # orthonormality and completeness for all three families
        from cdpulse import build_phased_basis, build_three_real_basis

        for builder, phases in (
            (build_three_real_basis, False),
            (build_phased_basis, True),
            (build_four_level_basis, False),
        ):
            basis = builder(cubic_schedule(rng, phases=phases))
            for t in rng.uniform(0.0, 1.0, size=100):
                b = basis.vectors(t)
                assert np.max(
                    np.abs(b.conj() @ b.T - np.eye(basis.dimension))
                ) <= 1e-12
                assert basis.completeness_defect(t) <= 1e-12
        # Hermiticity across constructions
        dsg = design_protocol_II(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3))
        )
        specs = [
            dsg.hamiltonian,
            hamiltonian_from_basis(build_phased_basis(cubic_schedule(rng, phases=True))),
            four_level_hamiltonian(cubic_schedule(rng)),
        ]
        for spec in specs:
            for t in rng.uniform(0.0, 1.0, size=100):
                assert spec.hermiticity_defect(t) <= 1e-12
        # norm conservation at default steps
        traj = run(dsg)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8
        # fourth-order convergence under step halving
        ref = run(dsg, steps=3200).final_state
        e100 = np.linalg.norm(run(dsg, steps=100).final_state - ref)
        e200 = np.linalg.norm(run(dsg, steps=200).final_state - ref)
        assert 12.0 <= e100 / e200 <= 20.0
        # cubic boundary residuals
        for _ in range(1000):
            t0 = rng.uniform(-1.0, 1.0)
            b = CubicBoundary(
                t0, t0 + rng.uniform(0.2, 3.0), *rng.uniform(-3.0, 3.0, size=4)
            )
            poly = fit_cubic(b)
            assert abs(poly(b.t0) - b.f0) <= 1e-12
            assert abs(poly(b.tf) - b.ff) <= 1e-12
            assert abs(poly.derivative(b.t0) - b.df0) <= 1e-12
            assert abs(poly.derivative(b.tf) - b.dff) <= 1e-12
