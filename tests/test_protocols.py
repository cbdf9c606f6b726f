import dataclasses
import math
import pickle

import numpy as np
import pytest

from cdpulse import (
    AngleSchedule,
    Branch,
    CubicPolynomial,
    Design,
    Protocol,
    ProtocolRequest,
    TargetState,
    design,
    design_multimode,
    design_phased,
    design_protocol_I,
    design_protocol_II,
    design_protocol_II_no_microwave,
    cavity_qed_hamiltonian,
    evolve,
    preset_targets,
    select_branch,
    solve_multimode_boundary,
)
from cdpulse.dynamics import RK4_STABILITY_LIMIT, max_steps
from cdpulse.errors import (
    IntegrationAccuracyError,
    InvalidInputError,
    ProtocolMismatchError,
    UnsupportedBranchError,
)

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


def run(design_obj, steps=4000):
    return evolve(
        design_obj.hamiltonian,
        design_obj.initial_state,
        design_obj.pulses.t0,
        design_obj.pulses.tf,
        steps=steps,
    )


class TestTargetState:
    def test_norm_guard(self):
        with pytest.raises(InvalidInputError):
            TargetState(0.5, 0.5, 0.5)
        t = TargetState.normalized(1.0, 1.0, 1.0)
        assert t.norm_residual() <= 1e-12
        with pytest.raises(InvalidInputError):
            TargetState.normalized(0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "values",
        [
            (math.nan, 0.0, 0.0),
            (0.0, 0.0, math.nan),
            (math.inf, 0.0, 0.0),
            (1.0, 0.0, 0.0, math.nan, 0.0),
            (1.0, 0.0, 0.0, 0.0, math.inf),
        ],
    )
    def test_non_finite_rejected(self, values):
        with pytest.raises(InvalidInputError, match="target"):
            TargetState(*values)
        with pytest.raises(InvalidInputError):
            TargetState.normalized(*values)

    def test_request_interval(self):
        with pytest.raises(InvalidInputError):
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(1.0, 0.0, 0.0), tf=0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_lambda_rate(self, rate):
        with pytest.raises(InvalidInputError, match="lambda_rate"):
            ProtocolRequest(
                Protocol.PHASED, TargetState(SQ2, 0.0, SQ2), lambda_rate=rate
            )


class TestSelectBranch:
    def test_all_branches_at_equal_weights(self):
        mu = nu = SQ2
        assert select_branch(mu, nu, Branch.LEAST_ENERGY) == pytest.approx(math.pi / 4)
        assert select_branch(mu, nu, Branch.ARCSIN_PLUS) == pytest.approx(math.pi / 4)
        assert select_branch(mu, nu, Branch.ARCSIN_MINUS) == pytest.approx(-math.pi / 4)
        assert select_branch(mu, nu, Branch.ARCCOS_PLUS) == pytest.approx(
            5.0 * math.pi / 4.0
        )
        assert select_branch(mu, nu, Branch.ARCCOS_MINUS) == pytest.approx(
            3.0 * math.pi / 4.0
        )

    def test_signed_least_energy(self):
        assert select_branch(SQ2, -SQ2, Branch.LEAST_ENERGY) == pytest.approx(
            -math.pi / 4
        )
        assert select_branch(1.0, 0.0, Branch.LEAST_ENERGY) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInputError):
            select_branch(0.9, 0.9, Branch.LEAST_ENERGY)

    @pytest.mark.parametrize(
        "mu,nu", [(math.nan, 0.0), (SQ2, math.nan), (math.inf, 0.0)]
    )
    def test_non_finite_rejected(self, mu, nu):
        for branch in Branch:
            with pytest.raises(InvalidInputError):
                select_branch(mu, nu, branch)


class TestProtocolI:
    def test_even_split_design(self):
        req = ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2))
        d = design_protocol_I(req)
        # pulse closed form: Omega_a = -(pi/4) * 6 * (t - t^2) on T = 1
        t = np.linspace(0.0, 1.0, 501)
        expected = -(math.pi / 4.0) * 6.0 * (t - t**2)
        assert np.max(np.abs(d.pulses.omega_a(t) - expected)) <= 1e-12
        assert np.max(np.abs(d.pulses.omega_p(t))) == 0.0
        assert np.max(np.abs(d.pulses.omega_s(t))) == 0.0
        # peak |Omega_a| = 1.5 * theta_T / T at midpoint
        assert abs(d.pulses.omega_a(0.5)) == pytest.approx(
            1.5 * math.pi / 4.0, abs=1e-12
        )
        traj = run(d)
        p = traj.populations[-1]
        assert p[0] == pytest.approx(0.5, abs=1e-6)
        assert p[2] == pytest.approx(0.5, abs=1e-6)
        assert p[1] <= 1e-10

    def test_identity_target(self):
        d = design_protocol_I(
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(1.0, 0.0, 0.0))
        )
        t = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(d.pulses.omega_a(t))) == 0.0
        assert run(d, steps=200).fidelity_to([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_eta_rejected(self):
        with pytest.raises(ProtocolMismatchError):
            design_protocol_I(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I, TargetState.normalized(1.0, 0.4, 0.2)
                )
            )

    def test_wrong_initial_state(self):
        with pytest.raises(ProtocolMismatchError):
            design_protocol_I(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I,
                    TargetState(SQ2, 0.0, SQ2),
                    initial_state=2,
                )
            )

    def test_non_finite_initial_vector(self):
        with pytest.raises(InvalidInputError, match="not normalized"):
            design_protocol_I(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I,
                    TargetState(SQ2, 0.0, SQ2),
                    initial_state=np.array([np.nan, 0.0, 0.0]),
                )
            )


class TestProtocolII:
    @pytest.mark.parametrize(
        "mu,eta,nu,pops",
        [
            (0.0, SQ2, SQ2, (0.0, 0.5, 0.5)),
            (SQ3, SQ3, SQ3, (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
        ],
    )
    def test_population_targets(self, mu, eta, nu, pops):
        d = design_protocol_II(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(mu, eta, nu))
        )
        p = run(d).populations[-1]
        assert np.max(np.abs(p - np.array(pops))) <= 1e-6

    def test_quadrature_identity(self):
        # sqrt(Op^2 + Os^2) = |dphi| pointwise
        d = design_protocol_II(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3))
        )
        t = np.linspace(0.0, 1.0, 777)
        quad = np.hypot(d.pulses.omega_p(t), d.pulses.omega_s(t))
        assert np.max(np.abs(quad - np.abs(d.schedule.dphi(t)))) <= 1e-12

    def test_pure_inversion_limit(self):
        # eta = mu = 0: theta runs pi/2 -> 0, |1> -> -|3> along the moving
        # state; oracle is the integrated Schroedinger dynamics itself
        d = design_protocol_II(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(0.0, 0.0, 1.0))
        )
        t = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(d.pulses.omega_p(t))) <= 1e-15
        assert np.max(np.abs(d.pulses.omega_s(t))) <= 1e-15
        expected_oa = 3.0 * math.pi * (t - t**2)
        assert np.max(np.abs(d.pulses.omega_a(t) - expected_oa)) <= 1e-12
        final = run(d).final_state
        assert abs(final[2] - (-1.0)) <= 1e-6

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(UnsupportedBranchError):
            design_protocol_II(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_II, TargetState(SQ2, 0.0, -SQ2)
                )
            )


class TestNoMicrowave:
    @pytest.mark.parametrize(
        "mu,eta,nu,pops",
        [
            (SQ2, 0.0, SQ2, (0.5, 0.0, 0.5)),
            (
                1.0 / math.sqrt(6.0),
                SQ3,
                SQ2,
                (1.0 / 6.0, 1.0 / 3.0, 0.5),
            ),
        ],
    )
    def test_population_targets(self, mu, eta, nu, pops):
        d = design_protocol_II_no_microwave(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                TargetState.normalized(mu, eta, nu),
                initial_state=2,
            )
        )
        t = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(d.pulses.omega_a(t))) == 0.0
        p = run(d).populations[-1]
        assert np.max(np.abs(p - np.array(pops))) <= 1e-6

    def test_identity_when_target_is_initial(self):
        d = design_protocol_II_no_microwave(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                TargetState(0.0, 1.0, 0.0),
                initial_state=2,
            )
        )
        t = np.linspace(0.0, 1.0, 101)
        for pulse in (d.pulses.omega_p, d.pulses.omega_s, d.pulses.omega_a):
            assert np.max(np.abs(pulse(t))) <= 1e-15

    def test_wrong_initial_state(self):
        with pytest.raises(ProtocolMismatchError):
            design_protocol_II_no_microwave(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                    TargetState(SQ2, 0.0, SQ2),
                    initial_state=1,
                )
            )


class TestMultiModeBoundary:
    def residuals(self, target, sol):
        """Oracle: the three boundary equations evaluated directly."""
        c0, s0 = math.cos(sol.theta0), math.sin(sol.theta0)
        return (
            abs(c0 - (target.mu * c0 + target.nu * s0)),
            abs(s0 * math.sin(sol.phi_f) - target.eta),
            abs(s0 * math.cos(sol.phi_f) - (target.mu * s0 - target.nu * c0)),
        )

    def test_full_inversion_case(self):
        sol = solve_multimode_boundary(TargetState(0.0, 0.0, 1.0))
        assert sol.theta0 == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert sol.phi_f == pytest.approx(math.pi, abs=1e-12)

    def test_symmetric_case(self):
        tgt = TargetState(SQ3, SQ3, SQ3)
        sol = solve_multimode_boundary(tgt)
        assert sol.theta0 == pytest.approx(0.6319, abs=5e-4)
        assert sol.phi_f == pytest.approx(1.7837, abs=5e-4)
        assert math.sin(sol.theta0) * math.sin(sol.phi_f) == pytest.approx(
            tgt.eta, abs=1e-12
        )
        assert max(self.residuals(tgt, sol)) <= 1e-12

    def test_nu_zero_limit(self):
        tgt = TargetState(0.6, 0.8, 0.0)
        sol = solve_multimode_boundary(tgt)
        assert sol.theta0 == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert sol.phi_f == pytest.approx(math.acos(0.6), abs=1e-12)
        assert max(self.residuals(tgt, sol)) <= 1e-12

    def test_identity_short_circuit(self):
        sol = solve_multimode_boundary(TargetState(1.0, 0.0, 0.0))
        assert sol.phi_f == 0.0
        assert sol.mode_coefficients == (0.0, 1.0, 0.0)

    def test_random_targets_satisfy_boundary(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = np.abs(rng.normal(size=3))
            tgt = TargetState.normalized(*v)
            if abs(tgt.mu - 1.0) < 1e-9:
                continue
            sol = solve_multimode_boundary(tgt)
            assert max(self.residuals(tgt, sol)) <= 1e-10


class TestMultiModeDesign:
    @pytest.mark.parametrize(
        "mu,eta,nu",
        [
            (0.0, 0.0, 1.0),
            (0.0, SQ2, SQ2),
            (SQ2, 0.5, 0.5),
            (SQ2, 0.0, SQ2),
            (SQ3, SQ3, SQ3),
        ],
    )
    def test_targets_reached(self, mu, eta, nu):
        d = design_multimode(
            ProtocolRequest(Protocol.MULTI_MODE, TargetState.normalized(mu, eta, nu))
        )
        traj = run(d)
        assert traj.fidelity_to(d.target_vector) >= 1.0 - 1e-6
        t = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(d.pulses.omega_a(t))) == 0.0

    def test_mode_coefficients_conserved(self):
        d = design_multimode(
            ProtocolRequest(Protocol.MULTI_MODE, TargetState(SQ3, SQ3, SQ3))
        )
        traj = run(d)
        c = np.asarray(d.mode_coefficients, dtype=complex)
        for k in range(0, len(traj.times), 400):
            b = d.basis.vectors(traj.times[k])
            coeffs = b.conj() @ traj.states[k]
            assert np.max(np.abs(coeffs - c)) <= 1e-8


class TestPhased:
    def test_half_transfer(self):
        d = design_phased(
            ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2))
        )
        traj = run(d)
        assert traj.fidelity_to(d.target_vector) >= 1.0 - 1e-9
        assert d.boundary["lambda"] == pytest.approx(0.5)
        assert d.boundary["kappa_f"] == pytest.approx(0.5 * math.pi)

    def test_zero_rate_stays_real(self):
        d = design_phased(
            ProtocolRequest(
                Protocol.PHASED, TargetState(SQ2, 0.0, SQ2), lambda_rate=0.0
            )
        )
        traj = run(d)
        assert np.max(np.abs(traj.states[:, 2].imag)) <= 1e-10

    def test_pure_winding(self):
        # mu = 0: no population motion, only the winding phase on |3>
        d = design_phased(
            ProtocolRequest(Protocol.PHASED, TargetState(0.0, 0.0, 1.0))
        )
        traj = run(d)
        assert np.max(np.abs(traj.states[:, 0])) <= 1e-10
        phase = np.angle(traj.states[:, 2])
        expected = 0.5 * math.pi * traj.times
        assert np.max(np.abs(np.unwrap(phase) - expected)) <= 1e-8

    def test_eta_unsupported(self):
        with pytest.raises(UnsupportedBranchError):
            design_phased(
                ProtocolRequest(Protocol.PHASED, TargetState(SQ3, SQ3, SQ3))
            )

    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_non_finite_final_phase_rejected(self, lam):
        # lambda*pi*T overflows: an input error, not an integration failure
        with pytest.raises(InvalidInputError):
            design_phased(ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                          lambda_rate=lam))

    @pytest.mark.parametrize("T", [0.5, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_winding_too_fast_for_any_step_count_rejected(self, T, sign):
        # h*|dkappa| = |kappa_f| / steps bounds h*|H| from below: past RK4's
        # stability limit at the largest admitted step count nothing helps
        limit = RK4_STABILITY_LIMIT * max_steps(3)
        rate = sign * limit / (math.pi * T)

        def request(lam):
            return ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                   initial_state=3, tf=T, lambda_rate=lam)

        d = design_phased(request(rate * (1.0 - 1e-9)))
        assert abs(d.boundary["kappa_f"]) <= limit
        for lam in (rate * (1.0 + 1e-9), sign * 1e300):
            with pytest.raises(InvalidInputError, match="--lambda"):
                design_phased(request(lam))

    def test_fast_winding_that_more_steps_resolve_is_kept(self):
        # at 4000 steps h*dkappa ~ 0.79 breaks the norm; 100000 steps reach
        # the target, so this lambda must stay an accuracy matter
        d = design_phased(ProtocolRequest(Protocol.PHASED, TargetState(0.6, 0.0, 0.8),
                                          initial_state=3, lambda_rate=1e3))
        with pytest.raises(IntegrationAccuracyError, match="increase the step count"):
            run(d)
        assert run(d, steps=100_000).fidelity_to(d.target_vector) >= 1.0 - 1e-5


class TestDispatchAndPresets:
    def test_design_dispatch(self):
        req = ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2))
        assert design(req).protocol is Protocol.SINGLE_MODE_I

    @pytest.mark.parametrize("n", [1, 0, -4])
    def test_sample_needs_two_points(self, n):
        pulses = design(ProtocolRequest(Protocol.MULTI_MODE,
                                        TargetState(0.5, 0.5, SQ2))).pulses
        with pytest.raises(InvalidInputError):
            pulses.sample(n)
        assert pulses.sample(2)[0].tolist() == [0.0, 1.0]

    def test_beamsplitters(self):
        for name, pops in (
            ("beamsplit12", (0.5, 0.0, 0.5)),
            ("beamsplit13", (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
        ):
            d = design(preset_targets(name))
            p = run(d).populations[-1]
            assert np.max(np.abs(p - np.array(pops))) <= 1e-6

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError):
            preset_targets("beamsplit99")


PLAIN_DATA_REQUESTS = {
    "single-I": ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2)),
    "single-I-identity": ProtocolRequest(
        Protocol.SINGLE_MODE_I, TargetState(1.0, 0.0, 0.0)
    ),
    "single-II": ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3)),
    "single-II-nomw": ProtocolRequest(
        Protocol.SINGLE_MODE_II_NO_MICROWAVE,
        TargetState.normalized(1.0 / math.sqrt(6.0), SQ3, SQ2),
        initial_state=2,
    ),
    "multi": ProtocolRequest(Protocol.MULTI_MODE, TargetState(SQ3, SQ3, SQ3)),
    "phased": ProtocolRequest(
        Protocol.PHASED, TargetState(SQ2, 0.0, SQ2), tf=2.0, lambda_rate=-0.7
    ),
    "cavity-bell": preset_targets("cavity-bell"),
}


def _hamiltonian(name, dsg):
    if name == "cavity-bell":
        return cavity_qed_hamiltonian(dsg.pulses)
    return dsg.hamiltonian


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPlainData:
    @pytest.mark.parametrize("name", sorted(PLAIN_DATA_REQUESTS))
    def test_pickle_round_trip_is_bit_identical(self, name):
        dsg = design(PLAIN_DATA_REQUESTS[name])
        copy = pickle.loads(pickle.dumps(dsg))
        for a, b in zip(dsg.pulses.sample(401), copy.pulses.sample(401)):
            assert _same_bits(a, b)
        grid = np.linspace(dsg.schedule.t0, dsg.schedule.tf, 401)
        h, h_copy = _hamiltonian(name, dsg), _hamiltonian(name, copy)
        assert _same_bits(h.evaluator(grid), h_copy.evaluator(grid))
        t0, tf = dsg.schedule.t0, dsg.schedule.tf
        assert _same_bits(
            evolve(h, dsg.initial_state, t0, tf, steps=400).states,
            evolve(h_copy, copy.initial_state, t0, tf, steps=400).states,
        )

    @pytest.mark.parametrize("name", sorted(PLAIN_DATA_REQUESTS))
    def test_fields_hold_no_callable(self, name):
        dsg = design(PLAIN_DATA_REQUESTS[name])
        assert len(dataclasses.fields(Design)) == 6
        assert not any(
            callable(getattr(dsg, f.name)) for f in dataclasses.fields(Design)
        )
        assert len(dataclasses.fields(AngleSchedule)) == 6
        for f in dataclasses.fields(AngleSchedule):
            value = getattr(dsg.schedule, f.name)
            if f.name in ("t0", "tf"):
                assert isinstance(value, float)
                continue
            assert type(value) is CubicPolynomial
            assert all(
                isinstance(getattr(value, g.name), float)
                for g in dataclasses.fields(CubicPolynomial)
            )

    @pytest.mark.parametrize(
        "name, pulse",
        [
            ("single-II-nomw", "omega_a"),
            ("multi", "omega_a"),
            ("single-I", "omega_p"),
            ("single-I", "omega_s"),
            # theta runs from 0 to asin(0): no angle moves at all
            ("single-I-identity", "omega_a"),
        ],
    )
    def test_frozen_angle_pulse_is_positive_zero(self, name, pulse):
        pulses = design(PLAIN_DATA_REQUESTS[name]).pulses
        _, omega_p, omega_s, omega_a = pulses.sample(401)
        values = {"omega_p": omega_p, "omega_s": omega_s, "omega_a": omega_a}[pulse]
        assert np.all(values == 0.0)
        assert not np.signbit(values).any()

    @pytest.mark.parametrize("name", ["single-II-nomw", "multi"])
    def test_frozen_theta_splits_dphi_with_libm(self, name):
        dsg = design(PLAIN_DATA_REQUESTS[name])
        t, omega_p, omega_s, _ = dsg.pulses.sample(401)
        theta = dsg.boundary["theta_0"]
        dphi = dsg.schedule.dphi(t)
        assert _same_bits(omega_p, dphi * math.sin(theta))
        assert _same_bits(omega_s, dphi * math.cos(theta))
