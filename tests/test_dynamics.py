import math
import tracemalloc

import numpy as np
import pytest

from cdpulse import (
    AngleSchedule,
    Branch,
    CubicBoundary,
    HamiltonianSpec,
    Protocol,
    ProtocolRequest,
    TargetState,
    Trajectory,
    bloch_coordinates,
    cavity_qed_hamiltonian,
    design_protocol_II,
    evolve,
    extract_theta_kappa,
    fit_cubic,
    four_level_hamiltonian,
    hamiltonian_from_basis,
    lambda_hamiltonian,
    phased_hamiltonian,
    build_four_level_basis,
    build_phased_basis,
    build_three_real_basis,
    design,
    design_multimode,
    preset_targets,
    ratio_surface,
)
from cdpulse import dynamics, errors
from cdpulse.basis import MovingBasis
from cdpulse.dynamics import BLOCK_STEPS, max_steps
from cdpulse.errors import (
    IntegrationAccuracyError,
    InvalidInputError,
    MappingUnsupportedError,
    RegimeError,
)
from test_basis import cubic_schedule

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def symmetric_design():
    return design_protocol_II(
        ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3))
    )


def reference_rk4(spec, psi0, t0, tf, steps):
    """The classical RK4 loop, one scalar H(t) per stage (test oracle)."""
    h = (tf - t0) / steps
    times = t0 + h * np.arange(steps + 1)
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]

    def rhs(t, y):
        return -1j * (spec.evaluator(t) @ y)

    for k in range(steps):
        t = times[k]
        k1 = rhs(t, psi)
        k2 = rhs(t + 0.5 * h, psi + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, psi + 0.5 * h * k2)
        k4 = rhs(t + h, psi + h * k3)
        psi = psi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(psi)
    return np.array(states)


def protocol_cases():
    """(spec, psi0, t0, tf) for every protocol plus the cavity mapping."""
    requests = [
        ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2),
                        branch=Branch.ARCCOS_PLUS),
        ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3), tf=0.5),
        ProtocolRequest(Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                        TargetState(SQ2, 0.0, SQ2), tf=3.0),
        ProtocolRequest(Protocol.MULTI_MODE, TargetState(SQ3, SQ3, SQ3)),
        ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2), tf=2.0,
                        lambda_rate=0.7),
    ]
    cases = {}
    for request in requests:
        d = design(request)
        cases[request.protocol.value] = (
            d.hamiltonian, d.initial_state, request.t0, request.tf
        )
    d = design_multimode(preset_targets("cavity-bell"))
    cases["cavity-qed"] = (cavity_qed_hamiltonian(d.pulses), d.initial_state, 0.0, 1.0)
    return cases


def constant_phase_schedule(rng, t0=0.0, tf=1.0):
    """Moving theta and kappa (nonzero end slopes), constant phi and gamma."""

    def moving():
        return fit_cubic(CubicBoundary(t0, tf, *rng.uniform(-2.0, 2.0, size=4)))

    def constant():
        v = rng.uniform(-1.0, 1.0)
        return fit_cubic(CubicBoundary(t0, tf, v, v))

    return AngleSchedule(t0, tf, theta=moving(), phi=constant(),
                         gamma=constant(), kappa=moving())


def evaluator_specs():
    """One spec per evaluator: Lambda, cavity, four-level, phased, from-basis."""
    rng = np.random.default_rng(71)
    d = design_multimode(preset_targets("cavity-bell"))
    return {
        "lambda": symmetric_design().hamiltonian,
        "cavity-qed": cavity_qed_hamiltonian(d.pulses),
        "four-level": four_level_hamiltonian(cubic_schedule(rng)),
        "phased": phased_hamiltonian(constant_phase_schedule(rng)),
        "from-basis": hamiltonian_from_basis(
            build_phased_basis(cubic_schedule(rng, phases=True))
        ),
        "from-basis-four-level": hamiltonian_from_basis(
            build_four_level_basis(cubic_schedule(rng))
        ),
    }


def snapshot_trajectory(state):
    psi = np.asarray(state, dtype=complex)
    return Trajectory(times=np.array([0.0]), states=psi[None, :])


class TestHamiltonianAssembly:
    def test_lambda_matches_generic_construction(self):
        # oracle: i * sum_n |dphi_n><phi_n| built from the real basis must
        # reproduce the closed coupling matrix entry for entry
        d = symmetric_design()
        generic = hamiltonian_from_basis(d.basis)
        rng = np.random.default_rng(41)
        for t in rng.uniform(0.0, 1.0, size=100):
            assert np.max(np.abs(d.hamiltonian(t) - generic(t))) <= 1e-12

    def test_lambda_pattern(self):
        d = symmetric_design()
        t = 0.37
        h = d.hamiltonian(t)
        assert np.max(np.abs(np.diag(h))) == 0.0
        assert h[0, 1] == pytest.approx(-1j * float(d.pulses.omega_p(t)), abs=1e-15)
        assert h[1, 2] == pytest.approx(-1j * float(d.pulses.omega_s(t)), abs=1e-15)
        assert h[0, 2] == pytest.approx(1j * float(d.pulses.omega_a(t)), abs=1e-15)
        assert d.hamiltonian.hermiticity_defect(t) <= 1e-12

    def test_phased_diagonal_entries(self):
        rng = np.random.default_rng(43)
        sched = cubic_schedule(rng, phases=True)
        spec = hamiltonian_from_basis(build_phased_basis(sched))
        for t in rng.uniform(0.0, 1.0, size=50):
            h = spec(t)
            assert spec.hermiticity_defect(t) <= 1e-12
            assert h[0, 0] == pytest.approx(0.0, abs=1e-12)
            assert h[1, 1] == pytest.approx(-float(sched.dgamma(t)), abs=1e-12)
            assert h[2, 2] == pytest.approx(-float(sched.dkappa(t)), abs=1e-12)

    def test_phase_free_phased_equals_lambda_form(self):
        # gamma = kappa = 0: the phased assembly keeps the lambda coupling
        # pattern but with the |1>-|3> and |2>-|3> signs flipped (the
        # +dtheta convention of this family)
        rng = np.random.default_rng(47)
        sched = cubic_schedule(rng)
        spec = hamiltonian_from_basis(build_phased_basis(sched))
        for t in (0.2, 0.5, 0.8):
            h = spec(t)
            dth = float(sched.dtheta(t))
            dph = float(sched.dphi(t))
            th = float(sched.theta(t))
            assert np.max(np.abs(np.diag(h))) <= 1e-12
            assert abs(h[0, 2] - 1j * dth) <= 1e-12
            assert abs(h[0, 1] - (-1j * dph * math.sin(th))) <= 1e-12
            assert abs(h[1, 2] - 1j * dph * math.cos(th)) <= 1e-12

    def test_four_level_matches_generic(self):
        rng = np.random.default_rng(53)
        sched = cubic_schedule(rng)
        closed = four_level_hamiltonian(sched)
        generic = hamiltonian_from_basis(build_four_level_basis(sched))
        for t in rng.uniform(0.0, 1.0, size=100):
            assert np.max(np.abs(closed(t) - generic(t))) <= 1e-12
            assert closed.hermiticity_defect(t) <= 1e-12

    def test_four_level_static_is_zero(self):
        theta = fit_cubic(CubicBoundary(0.0, 1.0, 0.4, 0.4))
        from cdpulse import AngleSchedule

        sched = AngleSchedule(t0=0.0, tf=1.0, theta=theta)
        assert np.max(np.abs(four_level_hamiltonian(sched)(0.5))) == 0.0

    def test_hermiticity_random_times(self):
        rng = np.random.default_rng(59)
        d = symmetric_design()
        specs = [
            d.hamiltonian,
            hamiltonian_from_basis(build_phased_basis(cubic_schedule(rng, phases=True))),
            four_level_hamiltonian(cubic_schedule(rng)),
        ]
        for spec in specs:
            for t in rng.uniform(0.0, 1.0, size=334):
                assert spec.hermiticity_defect(t) <= 1e-12


class TestPhasedClosedForm:
    """phased_hamiltonian against the generic assembly it replaces at runtime."""

    @pytest.mark.parametrize("lam", [-1.3, 0.0, None, 3.7])
    @pytest.mark.parametrize("t0, T", [(0.0, 0.1), (0.0, 1.0), (0.0, 7.3), (0.3, 1.0)])
    def test_design_matches_generic(self, lam, t0, T):
        d = design(ProtocolRequest(Protocol.PHASED, TargetState(0.6, 0.0, 0.8),
                                   t0=t0, tf=t0 + T, lambda_rate=lam))
        times = np.linspace(t0, t0 + T, 401)
        closed = d.hamiltonian(times)
        generic = hamiltonian_from_basis(d.basis)(times)
        assert np.max(np.abs(closed - generic)) <= 1e-12

    def test_constant_phases_match_generic(self):
        sched = constant_phase_schedule(np.random.default_rng(79), t0=0.3, tf=1.7)
        times = np.linspace(0.3, 1.7, 401)
        closed = phased_hamiltonian(sched)
        generic = hamiltonian_from_basis(build_phased_basis(sched))
        assert np.max(np.abs(closed(times) - generic(times))) <= 1e-12
        h = closed(0.9)
        kappa, dtheta = float(sched.kappa(0.9)), float(sched.dtheta(0.9))
        assert abs(h[0, 2] - 1j * dtheta * np.exp(-1j * kappa)) <= 1e-14
        assert h[2, 2] == -float(sched.dkappa(0.9))

    @pytest.mark.parametrize("moving", ["phi", "gamma"])
    def test_moving_phase_rejected(self, moving):
        rng = np.random.default_rng(83)
        sched = constant_phase_schedule(rng)
        sched = AngleSchedule(0.0, 1.0, theta=sched.theta, kappa=sched.kappa,
                              **{moving: fit_cubic(CubicBoundary(0.0, 1.0, 0.0, 0.2))})
        with pytest.raises(InvalidInputError):
            phased_hamiltonian(sched)

    def test_designs_never_use_the_generic_assembly(self, monkeypatch):
        def forbidden(self, t):
            raise AssertionError("vector_derivatives called on a design path")

        monkeypatch.setattr(MovingBasis, "vector_derivatives", forbidden)
        for spec, psi0, t0, tf in protocol_cases().values():
            evolve(spec, psi0, t0, tf, steps=100)


class TestVectorizedEvaluators:
    @pytest.mark.parametrize(
        "name",
        ["lambda", "cavity-qed", "four-level", "phased", "from-basis",
         "from-basis-four-level"],
    )
    def test_time_grid_matches_scalar_calls(self, name):
        spec = evaluator_specs()[name]
        d = spec.dimension
        times = np.random.default_rng(73).uniform(0.0, 1.0, size=257)
        batch = spec.evaluator(times)
        assert batch.shape == (times.size, d, d)
        scalar = np.array([spec.evaluator(t) for t in times])
        assert np.max(np.abs(batch - scalar)) <= 1e-15
        assert spec.evaluator(times.reshape(257, 1)).shape == (257, 1, d, d)
        assert spec.evaluator(0.5).shape == (d, d)
        assert spec.hermiticity_defect(times) <= 1e-12


class TestCavityQed:
    def test_pattern_and_hermiticity(self):
        from cdpulse import design_multimode, preset_targets

        d = design_multimode(preset_targets("cavity-bell"))
        spec = cavity_qed_hamiltonian(d.pulses)
        rng = np.random.default_rng(61)
        for t in rng.uniform(0.0, 1.0, size=100):
            h = spec(t)
            assert spec.hermiticity_defect(t) <= 1e-12
            assert h[0, 1] == pytest.approx(
                -1j * float(d.pulses.omega_p(t)), abs=1e-15
            )
            assert h[2, 1] == pytest.approx(
                1j * float(d.pulses.omega_s(t)), abs=1e-15
            )
            assert h[0, 2] == 0.0

    def test_zero_pulses(self):
        from cdpulse.protocols import PulseSet

        def zero(t):
            return np.zeros(np.shape(t))

        pulses = PulseSet(zero, zero, zero, 0.0, 1.0)
        assert np.max(np.abs(cavity_qed_hamiltonian(pulses)(0.3))) == 0.0

    def test_microwave_pulses_rejected(self):
        from cdpulse import design_protocol_I

        d = design_protocol_I(
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2))
        )
        with pytest.raises(MappingUnsupportedError):
            cavity_qed_hamiltonian(d.pulses)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        spec = HamiltonianSpec(
            3, lambda t: np.zeros(np.shape(t) + (3, 3), dtype=complex)
        )
        psi0 = np.array([0.6, 0.8j, 0.0])
        traj = evolve(spec, psi0, 0.0, 1.0, steps=100)
        assert np.max(np.abs(traj.states - psi0)) <= 1e-15

    def test_norm_conserved(self):
        traj = evolve(
            symmetric_design().hamiltonian, [1.0, 0.0, 0.0], 0.0, 1.0
        )
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-8
        # populations sum to norm^2
        assert np.max(np.abs(traj.populations.sum(axis=1) - traj.norms**2)) <= 1e-10

    def test_transport_along_moving_state(self):
        d = symmetric_design()
        traj = evolve(d.hamiltonian, d.initial_state, 0.0, 1.0)
        for k in range(0, len(traj.times), 250):
            b = d.basis.vectors(traj.times[k])
            overlap = abs(np.vdot(b[1], traj.states[k]))
            assert overlap >= 1.0 - 1e-8

    def test_fourth_order_convergence(self):
        d = symmetric_design()
        ref = evolve(d.hamiltonian, d.initial_state, 0.0, 1.0, steps=3200).final_state
        e = {}
        for steps in (100, 200):
            final = evolve(d.hamiltonian, d.initial_state, 0.0, 1.0, steps=steps)
            e[steps] = np.linalg.norm(final.final_state - ref)
        ratio = e[100] / e[200]
        assert 12.0 <= ratio <= 20.0

    def test_drift_raises(self):
        base = np.array(
            [[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]], dtype=complex
        )
        spec = HamiltonianSpec(
            3, lambda t: np.broadcast_to(80.0 * base, np.shape(t) + (3, 3))
        )
        with pytest.raises(IntegrationAccuracyError):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, 1.0, steps=100)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hamiltonian_raises(self, value):
        spec = HamiltonianSpec(3, lambda t: np.full(np.shape(t) + (3, 3), value))
        with pytest.raises(IntegrationAccuracyError):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, 1.0, steps=100)

    def test_input_validation(self):
        spec = HamiltonianSpec(3, lambda t: np.zeros((3, 3), dtype=complex))
        with pytest.raises(InvalidInputError):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, 1.0, steps=50)
        with pytest.raises(InvalidInputError):
            evolve(spec, [1.0, 0.0, 0.0], 1.0, 0.5)
        with pytest.raises(InvalidInputError):
            evolve(spec, [0.9, 0.0, 0.0], 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            evolve(spec, [1.0, 0.0, 0.0, 0.0], 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            evolve(spec, [np.nan, 0.0, 0.0], 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, np.nan)
        with pytest.raises(InvalidInputError):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, np.inf)


class TestBlockPropagation:
    @pytest.mark.parametrize("steps", [400, 4000])
    @pytest.mark.parametrize("name", [p.value for p in Protocol] + ["cavity-qed"])
    def test_matches_per_step_rk4(self, name, steps):
        spec, psi0, t0, tf = protocol_cases()[name]
        traj = evolve(spec, psi0, t0, tf, steps=steps)
        expected = reference_rk4(spec, psi0, t0, tf, steps)
        assert traj.states.shape == expected.shape
        assert np.max(np.abs(traj.states - expected)) <= 1e-13

    def test_evaluator_called_once_per_stage_grid(self):
        base = symmetric_design().hamiltonian
        shapes = []

        def counting(t):
            shapes.append(np.shape(t))
            return base.evaluator(t)

        evolve(HamiltonianSpec(3, counting), [1.0, 0.0, 0.0], 0.0, 1.0, steps=4000)
        assert len(shapes) <= 3 * math.ceil(4000 / BLOCK_STEPS)
        assert sum(s[0] for s in shapes) == 3 * 4000

    def test_drift_reported_at_first_offending_step(self):
        # H switches on in the middle of a block; the step from t = 0.29
        # samples it at t + h/2, so the first drifting state is at t = 0.3,
        # the time a per-step check reports
        base = np.array(
            [[0.0, 1.0, 0.5], [1.0, 0.0, 1.0], [0.5, 1.0, 0.0]], dtype=complex
        )
        t_on = 0.3

        def evaluator(t):
            on = (np.asarray(t) >= t_on)[..., None, None]
            return np.where(on, 80.0 * base, 0.0)

        with pytest.raises(IntegrationAccuracyError, match=r"at t = 0\.3;"):
            evolve(HamiltonianSpec(3, evaluator), [1.0, 0.0, 0.0], 0.0, 1.0, steps=100)


class TestSizeGuards:
    def test_rejected_before_allocation(self):
        def never(t):
            raise AssertionError("evaluated despite the size guard")

        from cdpulse.protocols import PulseSet

        pulses = PulseSet(never, never, never, 0.0, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="too large"):
                evolve(HamiltonianSpec(3, never), [1.0, 0.0, 0.0], 0.0, 1.0,
                       steps=10**12)
            with pytest.raises(InvalidInputError, match="too large"):
                pulses.sample(10**12)
            with pytest.raises(InvalidInputError, match="too large"):
                ratio_surface(10**7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dimension", [3, 4])
    def test_max_steps_is_the_largest_admitted(self, monkeypatch, dimension):
        # shrink the budget so that the largest admitted run is small
        budget = 301 * (8 + 16 * dimension)
        monkeypatch.setattr(errors, "MAX_ARRAY_BYTES", budget)
        monkeypatch.setattr(dynamics, "MAX_ARRAY_BYTES", budget)
        assert max_steps(dimension) == 300
        spec = HamiltonianSpec(dimension, lambda t: np.zeros((np.size(t), dimension, dimension)))
        psi0 = np.eye(dimension)[0]
        assert evolve(spec, psi0, 0.0, 1.0, steps=300).states.shape == (301, dimension)
        with pytest.raises(InvalidInputError, match="too large"):
            evolve(spec, psi0, 0.0, 1.0, steps=301)


class TestFidelity:
    def test_rounding_above_one_is_clamped(self):
        state = np.full(3, 1.0 / math.sqrt(3.0), dtype=complex)
        assert abs(np.vdot(state, state)) ** 2 > 1.0
        traj = Trajectory(times=np.array([0.0]), states=state[None, :])
        assert traj.fidelity_to(state) == 1.0

    def test_nan_is_not_hidden(self):
        state = np.array([np.nan, 0.0, 0.0], dtype=complex)
        traj = Trajectory(times=np.array([0.0]), states=state[None, :])
        assert math.isnan(traj.fidelity_to([1.0, 0.0, 0.0]))


class TestObservables:
    def test_theta_kappa_direct_readoff(self):
        traj = snapshot_trajectory(
            [SQ2, 0.0, SQ2 * np.exp(1j * math.pi / 3.0)]
        )
        ext = extract_theta_kappa(traj)
        assert ext.theta_prime[0] == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert ext.kappa_prime[0] == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_theta_kappa_bare_three(self):
        ext = extract_theta_kappa(snapshot_trajectory([0.0, 0.0, 1.0]))
        assert ext.theta_prime[0] == 0.0
        assert ext.kappa_prime[0] == 0.0

    def test_kappa_gap_when_three_empty(self):
        ext = extract_theta_kappa(snapshot_trajectory([1.0, 0.0, 0.0]))
        assert math.isnan(ext.kappa_prime[0])

    def test_bloch_poles_and_equator(self):
        north = bloch_coordinates(snapshot_trajectory([1.0, 0.0, 0.0]))
        assert np.allclose(north[0], [0.0, 0.0, 1.0], atol=1e-15)
        eq = bloch_coordinates(snapshot_trajectory([SQ2, 0.0, SQ2]))
        assert np.allclose(eq[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_bloch_leakage_rejected(self):
        with pytest.raises(RegimeError):
            bloch_coordinates(snapshot_trajectory([0.0, 1.0, 0.0]))


class TestFourLevelTransport:
    def test_each_mode_transported(self):
        rng = np.random.default_rng(67)
        sched = cubic_schedule(rng)
        basis = build_four_level_basis(sched)
        spec = four_level_hamiltonian(sched)
        for n in range(4):
            psi0 = basis.vectors(0.0)[n]
            traj = evolve(spec, psi0, 0.0, 1.0)
            for k in range(0, len(traj.times), 400):
                b = basis.vectors(traj.times[k])
                assert abs(np.vdot(b[n], traj.states[k])) >= 1.0 - 1e-8
