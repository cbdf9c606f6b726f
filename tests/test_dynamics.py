import math
import tracemalloc

import numpy as np
import pytest

from cdpulse import (
    AngleSchedule,
    Branch,
    CubicPolynomial,
    HamiltonianSpec,
    Protocol,
    ProtocolRequest,
    TargetState,
    Trajectory,
    bloch_coordinates,
    cavity_qed_hamiltonian,
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
    preset_targets,
    ratio_surface,
)
from cdpulse import dynamics, errors
from cdpulse.basis import MovingBasis
from cdpulse.dynamics import Rotation, max_steps
from cdpulse.protocols import PulseSet
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
    return design(
        ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3))
    )


def reference_rk4(hamiltonian, psi0, t0, tf, steps):
    """The classical RK4 loop (test oracle): states on t0 + k (tf - t0)/steps.

    ``hamiltonian`` is any evaluator, a spec or ``hamiltonian_from_basis``'s.
    It is called once, on the stage times t_k, t_k + h/2 and t_k + h; each
    step is the textbook update with A = -iH, and nothing is renormalized.
    """
    h = (tf - t0) / steps
    t = t0 + h * np.arange(steps)
    a1, a2, a4 = -1j * hamiltonian(np.stack((t, t + 0.5 * h, t + h)))
    psi = np.asarray(psi0, dtype=complex)
    states = [psi]
    for k in range(steps):
        k1 = a1[k] @ psi
        k2 = a2[k] @ (psi + 0.5 * h * k1)
        k3 = a2[k] @ (psi + 0.5 * h * k2)
        k4 = a4[k] @ (psi + h * k3)
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
    d = design(preset_targets("cavity-bell"))
    cases["cavity-qed"] = (cavity_qed_hamiltonian(d.pulses), d.initial_state, 0.0, 1.0)
    return cases


def constant_phase_schedule(rng, t0=0.0, tf=1.0):
    """Moving theta and kappa (nonzero end slopes), constant phi and gamma."""

    def moving():
        return fit_cubic(t0, tf, *rng.uniform(-2.0, 2.0, size=4))

    def constant():
        v = rng.uniform(-1.0, 1.0)
        return fit_cubic(t0, tf, v, v)

    return AngleSchedule(t0, tf, theta=moving(), phi=constant(),
                         gamma=constant(), kappa=moving())


def evaluator_schedules():
    """The random schedules behind ``evaluator_specs``, in their draw order."""
    rng = np.random.default_rng(71)
    return {
        "four-level": cubic_schedule(rng),
        "phased": constant_phase_schedule(rng),
        "from-basis": cubic_schedule(rng, phases=True),
        "from-basis-four-level": cubic_schedule(rng),
    }


def hermiticity_defect(h):
    """Largest entry of H - H^dagger over matrices of shape S + (d, d)."""
    return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj())))


def rotation_spec(angle, dimension=3):
    """The spec of H(t) = angle'(t) G, G coupling levels 1 and 2 (G12 = -i)."""
    generator = np.zeros((dimension, dimension), dtype=complex)
    generator[0, 1], generator[1, 0] = -1j, 1j
    rotation = Rotation(generator, angle)
    return HamiltonianSpec(dimension, rotation, rotation)


STILL = CubicPolynomial(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)  # a zero cubic: H = 0


def evaluator_specs():
    """One evaluator each: the Lambda, cavity, four-level and phased specs,
    and the generic from-basis assemblies."""
    schedules = evaluator_schedules()
    d = design(preset_targets("cavity-bell"))
    return {
        "lambda": symmetric_design().hamiltonian,
        "cavity-qed": cavity_qed_hamiltonian(d.pulses),
        "four-level": four_level_hamiltonian(schedules["four-level"]),
        "phased": phased_hamiltonian(schedules["phased"]),
        "from-basis": hamiltonian_from_basis(build_phased_basis(schedules["from-basis"])),
        "from-basis-four-level": hamiltonian_from_basis(
            build_four_level_basis(schedules["from-basis-four-level"])
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
        assert h[0, 1] == pytest.approx(-1j * float(d.pulses(t)[..., 0]), abs=1e-15)
        assert h[1, 2] == pytest.approx(-1j * float(d.pulses(t)[..., 1]), abs=1e-15)
        assert h[0, 2] == pytest.approx(1j * float(d.pulses(t)[..., 2]), abs=1e-15)
        assert d.hamiltonian.hermiticity_defect(t) <= 1e-12

    def test_phased_diagonal_entries(self):
        rng = np.random.default_rng(43)
        sched = cubic_schedule(rng, phases=True)
        spec = hamiltonian_from_basis(build_phased_basis(sched))
        for t in rng.uniform(0.0, 1.0, size=50):
            h = spec(t)
            assert hermiticity_defect(h) <= 1e-12
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
        theta = fit_cubic(0.0, 1.0, 0.4, 0.4)
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
                assert hermiticity_defect(spec(t)) <= 1e-12


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
                              **{moving: fit_cubic(0.0, 1.0, 0.0, 0.2)})
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
        evaluator = evaluator_specs()[name]
        d = 4 if name.endswith("four-level") else 3
        times = np.random.default_rng(73).uniform(0.0, 1.0, size=257)
        batch = evaluator(times)
        assert batch.shape == (times.size, d, d)
        scalar = np.array([evaluator(t) for t in times])
        assert np.max(np.abs(batch - scalar)) <= 1e-15
        assert evaluator(times.reshape(257, 1)).shape == (257, 1, d, d)
        assert evaluator(0.5).shape == (d, d)
        assert hermiticity_defect(batch) <= 1e-12


class TestCavityQed:
    def test_pattern_and_hermiticity(self):
        d = design(preset_targets("cavity-bell"))
        spec = cavity_qed_hamiltonian(d.pulses)
        rng = np.random.default_rng(61)
        for t in rng.uniform(0.0, 1.0, size=100):
            h = spec(t)
            assert spec.hermiticity_defect(t) <= 1e-12
            assert h[0, 1] == pytest.approx(
                -1j * float(d.pulses(t)[..., 0]), abs=1e-15
            )
            assert h[2, 1] == pytest.approx(
                1j * float(d.pulses(t)[..., 1]), abs=1e-15
            )
            assert h[0, 2] == 0.0

    def test_is_the_lambda_matrix(self):
        # theta is constant, so Omega_a is exact +0.0 and the mapping adds
        # nothing to the Lambda spec: same matrices, same rotation
        d = design(preset_targets("cavity-bell"))
        cavity, lam = cavity_qed_hamiltonian(d.pulses), lambda_hamiltonian(d.pulses)
        times = np.linspace(0.0, 1.0, 401)
        assert cavity.evaluator(times).tobytes() == lam.evaluator(times).tobytes()
        assert np.array_equal(cavity.source.generator, lam.source.generator)
        assert cavity.source.angle == lam.source.angle

    def test_zero_pulses(self):
        from cdpulse.protocols import PulseSet

        pulses = PulseSet(AngleSchedule(0.0, 1.0, theta=CubicPolynomial(
            0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        assert np.max(np.abs(cavity_qed_hamiltonian(pulses)(0.3))) == 0.0

    def test_microwave_pulses_rejected(self):
        d = design(
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2))
        )
        with pytest.raises(MappingUnsupportedError):
            cavity_qed_hamiltonian(d.pulses)

    def test_any_theta_motion_rejected(self):
        # Omega_a = -dtheta stays far below any sampled threshold here, yet
        # it is not identically zero
        from cdpulse.protocols import PulseSet

        theta = fit_cubic(0.0, 1.0, 0.0, 1e-20)
        with pytest.raises(MappingUnsupportedError):
            cavity_qed_hamiltonian(PulseSet(AngleSchedule(0.0, 1.0, theta=theta)))


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([0.6, 0.8j, 0.0])
        traj = evolve(rotation_spec(STILL), psi0, 0.0, 1.0, steps=100)
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
        # the reference RK4 on the design's Hamiltonian, which evolve
        # propagates exactly
        d = symmetric_design()
        ref = reference_rk4(d.hamiltonian, d.initial_state, 0.0, 1.0, 3200)[-1]
        e = {}
        for steps in (100, 200):
            final = reference_rk4(d.hamiltonian, d.initial_state, 0.0, 1.0, steps)[-1]
            e[steps] = np.linalg.norm(final - ref)
        ratio = e[100] / e[200]
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hamiltonian_raises(self, value):
        # H = value * G: the angle value * t is non-finite from the start
        spec = rotation_spec(CubicPolynomial(0.0, value, 0.0, 0.0, 0.0, 1.0))
        with pytest.raises(IntegrationAccuracyError, match="norm drift"):
            evolve(spec, [1.0, 0.0, 0.0], 0.0, 1.0, steps=100)

    def test_input_validation(self):
        spec = rotation_spec(STILL)
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

    @pytest.mark.parametrize("wrong", ["rotation", "evaluator"])
    def test_spec_that_is_not_a_spec_rejected(self, wrong):
        # a design's Rotation or a bare evaluator is an input error, not an
        # AttributeError from inside evolve
        d = symmetric_design()
        spec = {"rotation": d.hamiltonian.source,
                "evaluator": hamiltonian_from_basis(d.basis)}[wrong]
        with pytest.raises(InvalidInputError, match="HamiltonianSpec"):
            evolve(spec, d.initial_state, 0.0, 1.0)


class TestBlockPropagation:
    # with 128-step blocks, 401 = 3*128 + 17 ends on a partly filled block
    # and 1537 = 12*128 + 1 on a one-step block
    @pytest.mark.parametrize("steps", [100, 401, 1537])
    @pytest.mark.parametrize("name", [p.value for p in Protocol] + ["cavity-qed"])
    def test_block_size_does_not_change_the_states(self, monkeypatch, name, steps):
        spec, psi0, t0, tf = protocol_cases()[name]
        whole = evolve(spec, psi0, t0, tf, steps=steps).states
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", 128)
        states = evolve(spec, psi0, t0, tf, steps=steps).states
        assert states.tobytes() == whole.tobytes()

    @pytest.mark.parametrize(
        "name", ["single-I", "single-II", "single-II-nomw", "multi", "cavity-qed"]
    )
    def test_phase_of_the_initial_state_is_carried(self, name):
        # a Lambda Hamiltonian is purely imaginary, so a real start stays
        # real; a phased start carries its phase through every product
        spec, psi0, t0, tf = protocol_cases()[name]
        phase = 0.6 + 0.8j
        real = evolve(spec, psi0, t0, tf, steps=400).states
        assert np.max(np.abs(real.imag)) == 0.0
        phased = evolve(spec, phase * psi0, t0, tf, steps=400).states
        assert np.max(np.abs(phased - phase * real)) <= 1e-15

    def test_drift_reported_at_first_offending_step(self, monkeypatch):
        # the angle turns NaN at t = 0.3, in the middle of a block, so the
        # first non-finite state is there, the time a per-step check
        # reports.  With 16-step blocks that state is inside the second
        # block, with 10-step blocks the last of the third
        class Angle:
            def __call__(self, t):
                return np.where(np.asarray(t) >= 0.3, np.nan, 0.0)

        for block in (dynamics.BLOCK_STEPS, 16, 10):
            monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
            with pytest.raises(IntegrationAccuracyError, match=r"at t = 0\.3$"):
                evolve(rotation_spec(Angle()), [1.0, 0.0, 0.0], 0.0, 1.0, steps=100)


SINGLE_AXIS_CASES = ["single-II-nomw", "multi", "cavity-qed"] + [
    f"single-I-{b.value}" for b in Branch]


def single_axis_case(name):
    """(design, spec) of a single-axis design; the cavity runs the bell preset."""
    if name == "cavity-qed":
        d = design(preset_targets("cavity-bell"))
        return d, cavity_qed_hamiltonian(d.pulses)
    if name == "single-II-nomw":
        d = design(ProtocolRequest(Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                                   TargetState(SQ2, 0.0, SQ2), tf=3.0))
    elif name == "multi":
        d = design(ProtocolRequest(Protocol.MULTI_MODE, TargetState(SQ3, SQ3, SQ3)))
    else:
        branch = Branch(name[len("single-I-"):])
        d = design(ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(0.6, 0.0, 0.8),
                                   t0=0.2, tf=1.7, branch=branch))
    return d, d.hamiltonian


def package_rotation_cases():
    """Every kind of spec the package builds, with the basis it transports.

    Lambda and cavity specs move the three-real basis, phased ones the
    phased basis and the four-level spec the four-level basis.
    """
    cases = {}
    for name in SINGLE_AXIS_CASES:
        d, spec = single_axis_case(name)
        cases[name] = spec, build_three_real_basis(d.schedule)
    phased = design(ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                    tf=2.0, lambda_rate=0.7))
    # a phased pulse set has Omega_a = +dtheta and a frozen phi; it reads
    # theta and phi alone, so its basis keeps gamma = kappa = 0
    s = phased.schedule
    cases["phased-pulses"] = lambda_hamiltonian(phased.pulses), build_phased_basis(
        AngleSchedule(s.t0, s.tf, theta=s.theta, phi=s.phi))
    # theta by a fixed axis in the frame turning with kappa about |3>
    cases["phased"] = phased.hamiltonian, build_phased_basis(s)
    cases["phased-constant-phases"] = (
        evaluator_specs()["phased"], build_phased_basis(evaluator_schedules()["phased"]))
    # theta stays at pi/2 and phi at 0: no angle moves
    identity = design(ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(1.0, 0.0, 0.0)))
    cases["single-II-identity"] = identity.hamiltonian, build_three_real_basis(
        identity.schedule)
    # both angles move: a fixed axis inside a turning frame
    for name in FRAMED_CASES:
        d = framed_case(name)
        cases[name] = d.hamiltonian, build_three_real_basis(d.schedule)
    rng = np.random.default_rng(73)
    schedule = cubic_schedule(rng, -0.4, 1.3)
    cases["lambda-random"] = (lambda_hamiltonian(PulseSet(schedule)),
                              build_three_real_basis(schedule))
    schedule = cubic_schedule(rng, -0.4, 1.3)
    cases["four-level"] = four_level_hamiltonian(schedule), build_four_level_basis(schedule)
    return cases


def package_rotations():
    """Every kind of spec the package builds with a ``Rotation`` source."""
    return {name: spec for name, (spec, _) in package_rotation_cases().items()}


# single-II moves both angles; mu = 0 ends theta at 0, eta near 1 ends phi
# near pi/2
FRAMED_CASES = {
    "single-II": ((SQ3, SQ3, SQ3), 0.0, 1.0),
    "single-II-mu0": ((0.0, SQ2, SQ2), 0.2, 1.7),
    "single-II-eta-near-1": ((1e-3, 1.0, 1e-3), -0.5, 2.5),
}


def framed_case(name):
    """The single-II design of one ``FRAMED_CASES`` entry."""
    amplitudes, t0, tf = FRAMED_CASES[name]
    return design(ProtocolRequest(Protocol.SINGLE_MODE_II,
                                  TargetState.normalized(*amplitudes), t0=t0, tf=tf))


def rotation_hamiltonian(rotation, times):
    """g' F G F^dagger + f' K on a time grid, from a Rotation's fields alone."""
    h = rotation.angle.derivative(times)[:, None, None] * rotation.generator
    frame = rotation.frame
    if frame is None:
        return h
    k = frame.generator
    b = (frame.angle(times) - frame.angle.a0)[:, None, None]
    turn = np.eye(len(k)) - 1j * np.sin(b) * k + (np.cos(b) - 1.0) * (k @ k)
    return (turn @ h @ np.swapaxes(turn, -1, -2).conj()
            + frame.angle.derivative(times)[:, None, None] * k)


class TestSingleAxis:
    """Frozen-angle Lambda designs are propagated by their exact rotation."""

    @pytest.mark.parametrize("steps", [100, 400, 401, 1537, 4000])
    @pytest.mark.parametrize("name", SINGLE_AXIS_CASES)
    def test_single_axis_is_exact(self, name, steps):
        d, spec = single_axis_case(name)
        t0, tf = d.schedule.t0, d.schedule.tf
        assert isinstance(spec.source, Rotation)
        traj = evolve(spec, d.initial_state, t0, tf, steps=steps)
        error = np.max(np.linalg.norm(traj.states - d.exact_state(traj.times), axis=1))
        assert error <= 1e-14

    @pytest.mark.parametrize("name", [p.value for p in Protocol] + ["cavity-qed"])
    def test_rebuilt_spec_takes_the_same_path(self, name):
        # a wrapper that rebuilds the spec from its three fields, as a
        # tracer does, must neither change the trajectory nor the path
        spec, psi0, t0, tf = protocol_cases()[name]
        calls = []

        def passthrough(t):
            calls.append(np.shape(t))
            return spec.evaluator(t)

        rebuilt = HamiltonianSpec(spec.dimension, passthrough, spec.source)
        original = evolve(spec, psi0, t0, tf, steps=1537)
        traj = evolve(rebuilt, psi0, t0, tf, steps=1537)
        assert np.array_equal(traj.times, original.times)
        assert traj.states.tobytes() == original.states.tobytes()
        # every design is closed form; single-II and phased keep a frame
        assert isinstance(spec.source, Rotation)
        assert (spec.source.frame is not None) is (name in ("single-II", "phased"))
        assert calls == []

    @pytest.mark.parametrize("name", sorted(package_rotations()))
    def test_rotation_is_the_evaluator(self, name):
        spec = package_rotations()[name]
        rotation = spec.source
        assert isinstance(rotation, Rotation)
        for axis in (rotation, rotation.frame):
            if axis is None:
                continue
            g = axis.generator
            assert g.shape == (spec.dimension, spec.dimension)
            assert np.array_equal(g, g.conj().T)
            assert np.max(np.abs(g @ g @ g - g)) <= 1e-15
            assert (axis.angle.t0, axis.angle.tf) == (rotation.angle.t0,
                                                      rotation.angle.tf)
        t0, tf = rotation.angle.t0, rotation.angle.tf
        times = np.linspace(t0, tf, 1001)
        h = spec.evaluator(times)
        expected = rotation_hamiltonian(rotation, times)
        ulp = np.spacing(np.max(np.abs(h), axis=(-2, -1)))
        assert np.all(np.max(np.abs(h - expected), axis=(-2, -1)) <= 4 * ulp)

    @pytest.mark.parametrize("name", sorted(package_rotations()))
    def test_rotation_matches_generic_construction(self, name):
        # the Rotation is the evaluator, so it answers to the paper's
        # i * sum_n |dphi_n><phi_n| of the basis the spec transports
        spec, basis = package_rotation_cases()[name]
        assert spec.evaluator is spec.source
        times = np.linspace(basis.schedule.t0, basis.schedule.tf, 1001)
        generic = hamiltonian_from_basis(basis)(times)
        assert np.max(np.abs(spec.evaluator(times) - generic)) <= 1e-12

    # single-II-identity has H = 0, which RK4 steps exactly: no order to read
    @pytest.mark.parametrize("steps", [100, 200])
    @pytest.mark.parametrize(
        "name", sorted(set(package_rotations()) - {"single-II-identity"})
    )
    def test_closed_form_is_the_rk4_limit(self, name, steps):
        # the reference RK4's global error against evolve's closed form, on
        # every grid point from a random complex start, falls at fourth order
        spec = package_rotations()[name]
        t0, tf = spec.source.angle.t0, spec.source.angle.tf
        rng = np.random.default_rng(89)
        psi0 = rng.normal(size=spec.dimension) + 1j * rng.normal(size=spec.dimension)
        psi0 /= np.linalg.norm(psi0)
        e = {}
        for n in (steps, 2 * steps):
            exact = evolve(spec, psi0, t0, tf, steps=n).states
            states = reference_rk4(spec, psi0, t0, tf, n)
            e[n] = np.max(np.linalg.norm(states - exact, axis=1))
        ratio = e[steps] / e[2 * steps]
        assert 12.0 <= ratio <= 20.0

    def test_moving_angles_carry_no_source(self):
        # phased pulses on two moving angles, which no design builds, have
        # no closed form: Omega_a = +dtheta does not cancel in the frame, so
        # they are refused; the generic assemblies are bare evaluators, with
        # no source for evolve to propagate
        theta = fit_cubic(0.0, 1.0, 0.0, 1.0)
        schedule = AngleSchedule(0.0, 1.0, theta=theta, phi=theta)
        with pytest.raises(InvalidInputError, match="phased"):
            lambda_hamiltonian(PulseSet(schedule, phased=True))
        for name in ("from-basis", "from-basis-four-level"):
            assert not hasattr(evaluator_specs()[name], "source")

    @pytest.mark.parametrize("branch", list(Branch))
    @pytest.mark.parametrize("protocol", list(Protocol))
    def test_every_design_carries_a_source(self, protocol, branch):
        two_state = protocol in (Protocol.SINGLE_MODE_I, Protocol.PHASED)
        target = TargetState(0.6, 0.0, 0.8) if two_state else TargetState(SQ3, SQ3, SQ3)
        d = design(ProtocolRequest(protocol, target, branch=branch))
        assert isinstance(d.hamiltonian.source, Rotation)

    def test_moving_angles_carry_a_frame(self):
        # phi turns the fixed axis, theta turns the frame
        d = symmetric_design()
        rng = np.random.default_rng(83)
        four = cubic_schedule(rng, 0.0, 1.0)
        for spec, schedule in ((d.hamiltonian, d.schedule),
                               (lambda_hamiltonian(d.pulses), d.schedule),
                               (four_level_hamiltonian(four), four)):
            assert spec.source.angle is schedule.phi
            assert spec.source.frame.angle is schedule.theta
            assert spec.source.frame.frame is None

    @pytest.mark.parametrize("frame", ["theta", 0, "nested"])
    def test_frame_other_than_frameless_rotation_rejected(self, frame):
        rotation = symmetric_design().hamiltonian.source
        if frame == "nested":
            frame = rotation
        with pytest.raises(InvalidInputError, match="frame"):
            Rotation(rotation.generator, rotation.angle, frame)

    @pytest.mark.parametrize("source", [None, "three-level-lambda", "custom", 0, 1.5])
    def test_source_other_than_rotation_rejected(self, source):
        # evolve propagates the field, so a label or any other value is refused
        evaluator = symmetric_design().hamiltonian.evaluator
        with pytest.raises(InvalidInputError, match="source"):
            HamiltonianSpec(3, evaluator, source)

    def test_source_is_required(self):
        with pytest.raises(TypeError):
            HamiltonianSpec(3, symmetric_design().hamiltonian.evaluator)

    @pytest.mark.parametrize("dimension", [2, 4])
    def test_dimension_other_than_the_source_rejected(self, dimension):
        # a 3x3 rotation cannot act on another dimension's state
        rotation = symmetric_design().hamiltonian.source
        with pytest.raises(InvalidInputError, match="dimension"):
            HamiltonianSpec(dimension, rotation, rotation)

    @pytest.mark.parametrize("name", ["single-I-arccos-plus", "multi"])
    def test_single_axis_drift_is_rounding(self, name):
        d, spec = single_axis_case(name)
        traj = evolve(spec, d.initial_state, d.schedule.t0, d.schedule.tf, steps=100)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-15
        assert 1.0 - traj.fidelity_to(d.target_vector) <= 1e-15


class TestFramedRotation:
    """Designs on two moving angles are propagated in a turning frame."""

    @pytest.mark.parametrize("steps", [100, 400, 401, 1537, 4000])
    @pytest.mark.parametrize("name", sorted(FRAMED_CASES))
    def test_single_II_is_exact(self, name, steps):
        d = framed_case(name)
        t0, tf = d.schedule.t0, d.schedule.tf
        assert isinstance(d.hamiltonian.source.frame, Rotation)
        traj = evolve(d.hamiltonian, d.initial_state, t0, tf, steps=steps)
        error = np.max(np.linalg.norm(traj.states - d.exact_state(traj.times), axis=1))
        assert error <= 1e-14
        assert 1.0 - traj.fidelity_to(d.target_vector) <= 1e-14

    @pytest.mark.parametrize("family", ["lambda", "four-level"])
    def test_random_schedules_from_any_start(self, family):
        # a random complex psi0, handed to evolve at a t0 inside the
        # schedule, follows the basis: psi(t) = B(t)^T conj(B(t0)) psi0 for
        # basis rows B
        rng = np.random.default_rng(79)
        build = build_three_real_basis if family == "lambda" else build_four_level_basis
        for _ in range(20):
            t0 = rng.uniform(-1.0, 1.0)
            tf = t0 + rng.uniform(0.2, 3.0)
            schedule = cubic_schedule(rng, t0, tf)
            if family == "lambda":
                spec = lambda_hamiltonian(PulseSet(schedule))
            else:
                spec = four_level_hamiltonian(schedule)
            assert isinstance(spec.source.frame, Rotation)
            basis = build(schedule)
            psi0 = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
            psi0 /= np.linalg.norm(psi0)
            start = rng.uniform(t0, t0 + 0.5 * (tf - t0))
            steps = int(rng.integers(100, 1200))
            traj = evolve(spec, psi0, start, tf, steps=steps)
            exact = (basis.vectors(start).conj() @ psi0) @ basis.vectors(traj.times)
            assert np.max(np.abs(traj.states - exact)) <= 1e-14


class TestIntegerCounts:
    @pytest.mark.parametrize("steps", [400.0, "400", None, np.float64(400)])
    def test_non_integer_steps_rejected(self, steps):
        spec, psi0, t0, tf = protocol_cases()["single-II"]
        with pytest.raises(InvalidInputError, match="integer"):
            evolve(spec, psi0, t0, tf, steps=steps)

    @pytest.mark.parametrize("n", [11.0, "11", None, np.float64(11)])
    def test_non_integer_sample_count_rejected(self, n):
        with pytest.raises(InvalidInputError, match="integer"):
            symmetric_design().pulses.sample(n)

    @pytest.mark.parametrize("kind", [np.int32, np.int64, np.uint16])
    def test_numpy_integers_accepted(self, kind):
        for name in ("single-II", "multi"):
            spec, psi0, t0, tf = protocol_cases()[name]
            expected = evolve(spec, psi0, t0, tf, steps=400).states
            assert np.array_equal(evolve(spec, psi0, t0, tf, steps=kind(400)).states,
                                  expected)
        pulses = symmetric_design().pulses
        for a, b in zip(pulses.sample(kind(11)), pulses.sample(11)):
            assert np.array_equal(a, b)


class TestSizeGuards:
    def test_rejected_before_allocation(self):
        class Never:
            def __call__(self, t):
                raise AssertionError("propagated despite the size guard")

        pulses = PulseSet(AngleSchedule(0.0, 1.0, theta=CubicPolynomial(
            0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="too large"):
                evolve(rotation_spec(Never()), [1.0, 0.0, 0.0], 0.0, 1.0,
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
        spec = rotation_spec(STILL, dimension)
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
        theta_prime, kappa_prime = extract_theta_kappa(traj)
        assert theta_prime[0] == pytest.approx(math.pi / 4.0, abs=1e-12)
        assert kappa_prime[0] == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_theta_kappa_bare_three(self):
        theta_prime, kappa_prime = extract_theta_kappa(snapshot_trajectory([0.0, 0.0, 1.0]))
        assert theta_prime[0] == 0.0
        assert kappa_prime[0] == 0.0

    def test_kappa_gap_when_three_empty(self):
        _, kappa_prime = extract_theta_kappa(snapshot_trajectory([1.0, 0.0, 0.0]))
        assert math.isnan(kappa_prime[0])

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
