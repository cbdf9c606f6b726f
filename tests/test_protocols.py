import collections
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdpulse import (
    AngleSchedule,
    Branch,
    CubicPolynomial,
    Design,
    Protocol,
    ProtocolRequest,
    PulseSet,
    TargetState,
    design,
    cavity_qed_hamiltonian,
    evolve,
    preset_targets,
    select_branch,
)
from cdpulse import dynamics
from cdpulse.errors import (
    InvalidInputError,
    ProtocolMismatchError,
    UnsupportedBranchError,
)
from test_dynamics import reference_rk4

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

    @pytest.mark.parametrize("field, value", [("protocol", "multi"), ("protocol", None),
                                              ("branch", "least-energy"),
                                              ("branch", Protocol.MULTI_MODE)])
    def test_request_needs_the_enums(self, field, value):
        # a protocol or branch given by its value string is an input error,
        # not a KeyError in design's dispatch or a silently ignored branch
        fields = {"protocol": Protocol.MULTI_MODE, field: value}
        with pytest.raises(InvalidInputError, match=field):
            ProtocolRequest(target=TargetState(1.0, 0.0, 0.0), **fields)

    @pytest.mark.parametrize("values", [(1e200, 0.0, 0.0), (0.0, -1e300, 0.6),
                                        (0.6, 0.0, 1e155)])
    def test_overflowing_square_rejected(self, values):
        # a square past the float range is an input error, not an OverflowError
        with pytest.raises(InvalidInputError, match="residual inf"):
            TargetState(*values)

    @pytest.mark.parametrize("values, expected", [
        ((1e200, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((0.0, -1e300, 0.0), (0.0, -1.0, 0.0)),
        ((1e200, 1e200, 0.0), (SQ2, SQ2, 0.0)),
        ((1.7e308, 0.0, 1.7e308), (SQ2, 0.0, SQ2)),
        ((0.0, 0.0, 1.1e-308), (0.0, 0.0, 1.0)),
        ((5e-324, 0.0, 0.0), (1.0, 0.0, 0.0)),
        ((1e-160, 0.0, 1e-160), (SQ2, 0.0, SQ2)),
    ])
    def test_normalized_out_of_square_range(self, values, expected):
        # squares that overflow or underflow are rescaled first, so the
        # direction survives; e.g. 1.1e-308 points at |3>, not "all zero"
        target = TargetState.normalized(*values)
        assert (target.mu, target.eta, target.nu) == pytest.approx(expected, abs=1e-15)
        assert target.norm_residual() <= 1e-15

    def test_normalized_in_range_keeps_its_bits(self):
        # in-range amplitudes keep the plain sqrt(mu**2 + eta**2 + nu**2)
        rng = np.random.default_rng(89)
        for mu, eta, nu in rng.uniform(-1.0, 1.0, size=(500, 3)) * 10.0 ** rng.integers(
                -100, 100, size=(500, 1)):
            mu, eta, nu = float(mu), float(eta), float(nu)
            norm = math.sqrt(mu**2 + eta**2 + nu**2)
            target = TargetState.normalized(mu, eta, nu)
            assert (target.mu, target.eta, target.nu) == (mu / norm, eta / norm, nu / norm)

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
        d = design(req)
        # pulse closed form: Omega_a = -(pi/4) * 6 * (t - t^2) on T = 1
        t = np.linspace(0.0, 1.0, 501)
        expected = -(math.pi / 4.0) * 6.0 * (t - t**2)
        assert np.max(np.abs(d.pulses(t)[..., 2] - expected)) <= 1e-12
        assert np.max(np.abs(d.pulses(t)[..., 0])) == 0.0
        assert np.max(np.abs(d.pulses(t)[..., 1])) == 0.0
        # peak |Omega_a| = 1.5 * theta_T / T at midpoint
        assert abs(d.pulses(0.5)[..., 2]) == pytest.approx(
            1.5 * math.pi / 4.0, abs=1e-12
        )
        traj = run(d)
        p = traj.populations[-1]
        assert p[0] == pytest.approx(0.5, abs=1e-6)
        assert p[2] == pytest.approx(0.5, abs=1e-6)
        assert p[1] <= 1e-10

    def test_identity_target(self):
        d = design(
            ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(1.0, 0.0, 0.0))
        )
        t = np.linspace(0.0, 1.0, 101)
        assert np.max(np.abs(d.pulses(t)[..., 2])) == 0.0
        assert run(d, steps=200).fidelity_to([1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_eta_rejected(self):
        with pytest.raises(ProtocolMismatchError):
            design(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I, TargetState.normalized(1.0, 0.4, 0.2)
                )
            )

    def test_wrong_initial_state(self):
        with pytest.raises(ProtocolMismatchError):
            design(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_I,
                    TargetState(SQ2, 0.0, SQ2),
                    initial_state=2,
                )
            )

    def test_non_finite_initial_vector(self):
        with pytest.raises(InvalidInputError, match="not normalized"):
            design(
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
        d = design(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(mu, eta, nu))
        )
        p = run(d).populations[-1]
        assert np.max(np.abs(p - np.array(pops))) <= 1e-6

    def test_quadrature_identity(self):
        # sqrt(Op^2 + Os^2) = |dphi| pointwise
        d = design(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(SQ3, SQ3, SQ3))
        )
        t = np.linspace(0.0, 1.0, 777)
        quad = np.hypot(d.pulses(t)[..., 0], d.pulses(t)[..., 1])
        assert np.max(np.abs(quad - np.abs(d.schedule.dphi(t)))) <= 1e-12

    def test_pure_inversion_limit(self):
        # eta = mu = 0: theta runs pi/2 -> 0, |1> -> -|3> along the moving
        # state; oracle is the integrated Schroedinger dynamics itself
        d = design(
            ProtocolRequest(Protocol.SINGLE_MODE_II, TargetState(0.0, 0.0, 1.0))
        )
        t = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(d.pulses(t)[..., 0])) <= 1e-15
        assert np.max(np.abs(d.pulses(t)[..., 1])) <= 1e-15
        expected_oa = 3.0 * math.pi * (t - t**2)
        assert np.max(np.abs(d.pulses(t)[..., 2] - expected_oa)) <= 1e-12
        final = run(d).final_state
        assert abs(final[2] - (-1.0)) <= 1e-6

    def test_negative_amplitudes_rejected(self):
        with pytest.raises(UnsupportedBranchError):
            design(
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
        d = design(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                TargetState.normalized(mu, eta, nu),
                initial_state=2,
            )
        )
        t = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(d.pulses(t)[..., 2])) == 0.0
        p = run(d).populations[-1]
        assert np.max(np.abs(p - np.array(pops))) <= 1e-6

    def test_identity_when_target_is_initial(self):
        d = design(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                TargetState(0.0, 1.0, 0.0),
                initial_state=2,
            )
        )
        t = np.linspace(0.0, 1.0, 101)
        for k in range(3):
            assert np.max(np.abs(d.pulses(t)[..., k])) <= 1e-15

    def test_wrong_initial_state(self):
        with pytest.raises(ProtocolMismatchError):
            design(
                ProtocolRequest(
                    Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                    TargetState(SQ2, 0.0, SQ2),
                    initial_state=1,
                )
            )


def multi_boundary(target):
    """The multi design's boundary record, with its mode coefficients."""
    dsg = design(ProtocolRequest(Protocol.MULTI_MODE, target))
    return dsg.boundary, dsg.mode_coefficients


class TestMultiModeBoundary:
    def residuals(self, target, boundary):
        """Oracle: the three boundary equations evaluated directly."""
        c0, s0 = math.cos(boundary["theta_0"]), math.sin(boundary["theta_0"])
        phi_f = boundary["phi_f"]
        return (
            abs(c0 - (target.mu * c0 + target.nu * s0)),
            abs(s0 * math.sin(phi_f) - target.eta),
            abs(s0 * math.cos(phi_f) - (target.mu * s0 - target.nu * c0)),
        )

    def test_full_inversion_case(self):
        boundary, _ = multi_boundary(TargetState(0.0, 0.0, 1.0))
        assert boundary["theta_0"] == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert boundary["phi_f"] == pytest.approx(math.pi, abs=1e-12)

    def test_symmetric_case(self):
        tgt = TargetState(SQ3, SQ3, SQ3)
        boundary, _ = multi_boundary(tgt)
        assert boundary["theta_0"] == pytest.approx(0.6319, abs=5e-4)
        assert boundary["phi_f"] == pytest.approx(1.7837, abs=5e-4)
        assert math.sin(boundary["theta_0"]) * math.sin(
            boundary["phi_f"]) == pytest.approx(tgt.eta, abs=1e-12)
        assert max(self.residuals(tgt, boundary)) <= 1e-12

    def test_nu_zero_limit(self):
        tgt = TargetState(0.6, 0.8, 0.0)
        boundary, _ = multi_boundary(tgt)
        assert boundary["theta_0"] == pytest.approx(math.pi / 2.0, abs=1e-15)
        assert boundary["phi_f"] == pytest.approx(math.acos(0.6), abs=1e-12)
        assert max(self.residuals(tgt, boundary)) <= 1e-12

    def test_identity_short_circuit(self):
        boundary, coefficients = multi_boundary(TargetState(1.0, 0.0, 0.0))
        assert boundary["phi_f"] == 0.0
        assert coefficients == (0.0, 1.0, 0.0)

    def test_random_targets_satisfy_boundary(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            v = np.abs(rng.normal(size=3))
            tgt = TargetState.normalized(*v)
            if abs(tgt.mu - 1.0) < 1e-9:
                continue
            boundary, _ = multi_boundary(tgt)
            assert max(self.residuals(tgt, boundary)) <= 1e-10


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
        d = design(
            ProtocolRequest(Protocol.MULTI_MODE, TargetState.normalized(mu, eta, nu))
        )
        traj = run(d)
        assert traj.fidelity_to(d.target_vector) >= 1.0 - 1e-6
        t = np.linspace(0.0, 1.0, 301)
        assert np.max(np.abs(d.pulses(t)[..., 2])) == 0.0

    def test_mode_coefficients_conserved(self):
        d = design(
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
        d = design(
            ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2))
        )
        traj = run(d)
        assert traj.fidelity_to(d.target_vector) >= 1.0 - 1e-9
        assert d.boundary["lambda"] == pytest.approx(0.5)
        assert d.boundary["kappa_f"] == pytest.approx(0.5 * math.pi)

    def test_zero_rate_stays_real(self):
        d = design(
            ProtocolRequest(
                Protocol.PHASED, TargetState(SQ2, 0.0, SQ2), lambda_rate=0.0
            )
        )
        traj = run(d)
        assert np.max(np.abs(traj.states[:, 2].imag)) <= 1e-10

    def test_pure_winding(self):
        # mu = 0: no population motion, only the winding phase on |3>
        d = design(
            ProtocolRequest(Protocol.PHASED, TargetState(0.0, 0.0, 1.0))
        )
        traj = run(d)
        assert np.max(np.abs(traj.states[:, 0])) <= 1e-10
        phase = np.angle(traj.states[:, 2])
        expected = 0.5 * math.pi * traj.times
        assert np.max(np.abs(np.unwrap(phase) - expected)) <= 1e-8

    def test_eta_unsupported(self):
        with pytest.raises(UnsupportedBranchError):
            design(
                ProtocolRequest(Protocol.PHASED, TargetState(SQ3, SQ3, SQ3))
            )

    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_non_finite_final_phase_rejected(self, lam):
        # lambda*pi*T overflows: an input error, not an integration failure
        with pytest.raises(InvalidInputError):
            design(ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                          lambda_rate=lam))

    @pytest.mark.parametrize("T", [0.5, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa_f", [1e3 * math.pi, 6.1e5, 1e12, 2.0**52 - 4.0])
    def test_representable_winding_is_accepted_and_exact(self, T, sign, kappa_f):
        # the closed form has no step-count limit: a winding that RK4 needed
        # more than 4000 steps for (lambda = 1e3 at T = 1) or could not
        # integrate at all (|kappa(tf)| > 6.1e5 at its largest step count)
        # is designed and propagated to rounding at 100 steps, up to just
        # below 2**52, where ulp(kappa(tf)) is half a radian
        d = design(ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                          initial_state=3, tf=T,
                                          lambda_rate=sign * kappa_f / (math.pi * T)))
        assert d.boundary["kappa_f"] == pytest.approx(sign * kappa_f, rel=1e-15)
        traj = run(d, steps=100)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-15
        error = np.max(np.linalg.norm(traj.states - d.exact_state(traj.times), axis=1))
        assert error <= 1e-15
        assert 1.0 - traj.fidelity_to(d.target_vector) <= 1e-15

    @pytest.mark.parametrize("T", [0.5, 3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("kappa_f", [2.0**52, 1e300])
    def test_winding_beyond_phase_precision_rejected(self, T, sign, kappa_f):
        # from |kappa(tf)| = 2**52 on, ulp(kappa(tf)) is a radian or more, so
        # the float kappa(tf) no longer fixes the |3> phase
        with pytest.raises(InvalidInputError, match="kappa.*lower --lambda"):
            design(ProtocolRequest(Protocol.PHASED, TargetState(SQ2, 0.0, SQ2),
                                          initial_state=3, tf=T,
                                          lambda_rate=sign * kappa_f / (math.pi * T)))

    @pytest.mark.parametrize("mu", [0.0, 0.6, 1.0])
    def test_winding_is_exact_where_rk4_damps(self, mu):
        # RK4 damps the |3> winding by at least kappa_f**6 / (288 n**5) and
        # at most kappa_f**6 / (144 n**5) (all of the population on |3>),
        # both up to its y**8 term; the design's own spec has no such drift
        n, tol = 4000, dynamics.NORM_DRIFT_TOL
        nu = math.sqrt(1.0 - mu * mu)

        def drifts(kappa_f):
            d = design(ProtocolRequest(Protocol.PHASED, TargetState(mu, 0.0, nu),
                                              initial_state=3,
                                              lambda_rate=kappa_f / math.pi))
            rk4 = reference_rk4(d.hamiltonian, d.initial_state, 0.0, 1.0, n)
            closed = run(d, steps=n)
            return (float(np.max(np.abs(closed.norms - 1.0))),
                    float(np.max(np.abs(np.linalg.norm(rk4, axis=1) - 1.0))))

        low = (0.5 * 144.0 * tol * n**5) ** (1 / 6)
        high = (2.0 * 288.0 * tol * n**5) ** (1 / 6)
        closed_low, rk4_low = drifts(low)
        closed_high, rk4_high = drifts(high)
        assert rk4_low <= 0.5 * tol
        assert rk4_high >= 1.99 * tol
        assert max(closed_low, closed_high) <= 1e-15

    @pytest.mark.parametrize("lam", [None, -1.3, 10.0, 1e3])
    @pytest.mark.parametrize("T", [0.1, 1.0, 2.5, 7.3])
    def test_exact_at_400_steps(self, lam, T):
        rng = np.random.default_rng(int(T * 10))
        for mu in (0.0, *rng.uniform(0.0, 1.0, size=4), 1.0):
            d = design(ProtocolRequest(
                Protocol.PHASED, TargetState(mu, 0.0, math.sqrt(1.0 - mu * mu)),
                initial_state=3, tf=T, lambda_rate=lam))
            traj = run(d, steps=400)
            error = np.max(np.linalg.norm(traj.states - d.exact_state(traj.times),
                                          axis=1))
            assert error <= 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mu=st.floats(0.0, 1.0), T=st.floats(0.1, 10.0),
           lam=st.floats(-1e3, 1e3), t0=st.floats(-5.0, 5.0))
    def test_any_phased_target_is_exact(self, mu, T, lam, t0):
        d = design(ProtocolRequest(
            Protocol.PHASED, TargetState(mu, 0.0, math.sqrt(1.0 - mu * mu)),
            initial_state=3, t0=t0, tf=t0 + T, lambda_rate=lam))
        traj = run(d, steps=400)
        error = np.max(np.linalg.norm(traj.states - d.exact_state(traj.times), axis=1))
        assert error <= 1e-13


EXTRA_BOUNDARY_KEYS = {
    Protocol.SINGLE_MODE_I: {"branch"},
    Protocol.SINGLE_MODE_II: {"chi"},
    Protocol.SINGLE_MODE_II_NO_MICROWAVE: {"chi"},
    Protocol.MULTI_MODE: {"zeta"},
    Protocol.PHASED: {"kappa_f", "lambda"},
}


class TestOneConstructor:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(Protocol.SINGLE_MODE_I, b) for b in Branch] + [
               (p, Branch.LEAST_ENERGY) for p in Protocol
               if p is not Protocol.SINGLE_MODE_I]),
           polar=st.floats(0.0, math.pi / 2), azimuth=st.floats(0.0, math.pi / 2),
           t0=st.floats(-5.0, 5.0), T=st.floats(0.1, 10.0), lam=st.floats(-1e3, 1e3))
    def test_schedule_meets_the_boundary_record(self, case, polar, azimuth, t0, T, lam):
        protocol, branch = case
        if protocol in (Protocol.SINGLE_MODE_I, Protocol.PHASED):
            azimuth = 0.0
        target = TargetState(math.sin(polar) * math.cos(azimuth),
                             math.sin(polar) * math.sin(azimuth), math.cos(polar))
        dsg = design(ProtocolRequest(protocol, target, t0=t0, tf=t0 + T, branch=branch,
                                     lambda_rate=lam))
        s, b = dsg.schedule, dsg.boundary
        tf = s.tf
        for angle, key in ((s.theta, "theta"), (s.phi, "phi")):
            start, end = b[key + "_0"], b[key + "_f"]
            assert angle(t0) == start
            assert angle.derivative(t0) == 0.0
            scale = max(1.0, abs(start), abs(end))
            assert abs(angle(tf) - end) <= 1e-14 * scale
            assert abs(angle.derivative(tf)) <= 1e-14 * scale / T
        assert set(b) - {"theta_0", "theta_f", "phi_0", "phi_f"} == (
            EXTRA_BOUNDARY_KEYS[protocol])
        if protocol is Protocol.PHASED:
            assert s.kappa(tf) == b["kappa_f"]


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
    # theta stays at pi/2 and phi at 0: no angle moves
    "single-II-identity": ProtocolRequest(
        Protocol.SINGLE_MODE_II, TargetState(1.0, 0.0, 0.0)
    ),
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


def _reference_pulses(dsg, t):
    """Omega_p, Omega_s, Omega_a of a design, each pulse on its own.

    One expression per pulse, as the paper states them, with the frozen-theta
    libm split and exact zeros for an angle that does not move.
    """
    s = dsg.schedule
    zero = np.zeros(np.shape(t))
    if s.phi.is_constant:
        omega_p = omega_s = zero
    elif s.theta.is_constant:
        omega_p = s.dphi(t) * math.sin(s.theta.a0)
        omega_s = s.dphi(t) * math.cos(s.theta.a0)
    else:
        omega_p = s.dphi(t) * np.sin(s.theta(t))
        omega_s = s.dphi(t) * np.cos(s.theta(t))
    if s.theta.is_constant:
        omega_a = zero
    elif dsg.protocol is Protocol.PHASED:
        omega_a = s.dtheta(t)
    else:
        omega_a = -1.0 * s.dtheta(t)
    return [np.asarray(x, dtype=float) for x in (omega_p, omega_s, omega_a)]


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

    @pytest.mark.parametrize("name", sorted(PLAIN_DATA_REQUESTS))
    def test_pulse_set_is_plain_data(self, name):
        pulses = design(PLAIN_DATA_REQUESTS[name]).pulses
        assert [f.name for f in dataclasses.fields(PulseSet)] == ["schedule", "phased"]
        assert not any(
            callable(getattr(pulses, f.name)) for f in dataclasses.fields(PulseSet)
        )
        copy = pickle.loads(pickle.dumps(pulses))
        assert copy == pulses
        assert design(PLAIN_DATA_REQUESTS[name]).pulses == pulses
        assert (copy.t0, copy.tf) == (pulses.schedule.t0, pulses.schedule.tf)

    @pytest.mark.parametrize("name", sorted(PLAIN_DATA_REQUESTS))
    def test_one_call_evaluates_each_cubic_once(self, monkeypatch, name):
        dsg = design(PLAIN_DATA_REQUESTS[name])
        calls = collections.Counter()
        cubics = {}
        for method in ("__call__", "derivative"):
            original = getattr(CubicPolynomial, method)

            def counted(cubic, t, method=method, original=original):
                calls[id(cubic), method] += 1
                cubics[id(cubic)] = cubic
                return original(cubic, t)

            monkeypatch.setattr(CubicPolynomial, method, counted)
        grid = np.linspace(dsg.schedule.t0, dsg.schedule.tf, 401)
        for t in (grid, 0.3):
            calls.clear()
            dsg.pulses(t)
            assert max(calls.values(), default=0) <= 1
            # an angle that does not move is read from its coefficients
            assert not any(cubics[key].is_constant for key, _ in calls)

    @pytest.mark.parametrize("name", sorted(PLAIN_DATA_REQUESTS))
    def test_columns_match_per_pulse_reference(self, name):
        dsg = design(PLAIN_DATA_REQUESTS[name])
        t0, tf = dsg.schedule.t0, dsg.schedule.tf
        for t in (np.linspace(t0, tf, 401), t0 + 0.37 * (tf - t0)):
            fields = dsg.pulses(t)
            assert fields.shape == np.shape(t) + (3,)
            for k, expected in enumerate(_reference_pulses(dsg, t)):
                assert _same_bits(fields[..., k], expected)
        t, *columns = dsg.pulses.sample(401)
        for column, expected in zip(columns, _reference_pulses(dsg, t)):
            assert _same_bits(column, expected)


EXACT_STATE_REQUESTS = {
    **{f"single-I-{b.value}": ProtocolRequest(
        Protocol.SINGLE_MODE_I, TargetState(0.6, 0.0, 0.8), tf=2.5, branch=b)
       for b in Branch},
    **{name: PLAIN_DATA_REQUESTS[name]
       for name in ("single-II", "single-II-nomw", "multi", "phased")},
}


class TestExactState:
    @pytest.mark.parametrize("name", sorted(EXACT_STATE_REQUESTS))
    def test_equals_the_scalar_loop_bit_for_bit(self, name):
        dsg = design(EXACT_STATE_REQUESTS[name])
        times = np.linspace(dsg.schedule.t0, dsg.schedule.tf, 401)
        c = np.asarray(dsg.mode_coefficients, dtype=complex)
        scalar = np.array([c @ dsg.basis.vectors(float(t)) for t in times])
        assert _same_bits(dsg.exact_state(times), scalar)

    @pytest.mark.parametrize("name", sorted(EXACT_STATE_REQUESTS))
    def test_runs_from_the_initial_state_to_the_target(self, name):
        dsg = design(EXACT_STATE_REQUESTS[name])
        t0, tf = dsg.schedule.t0, dsg.schedule.tf
        assert np.max(np.abs(dsg.exact_state(t0) - dsg.initial_state)) <= 1e-15
        assert abs(np.vdot(dsg.target_vector, dsg.exact_state(tf))) ** 2 >= 1 - 1e-14

    def test_shape_follows_the_times(self):
        dsg = design(PLAIN_DATA_REQUESTS["multi"])
        assert dsg.exact_state(0.5).shape == (3,)
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        states = dsg.exact_state(grid)
        assert states.shape == (3, 4, 3)
        assert _same_bits(states[1, 2], dsg.exact_state(grid[1, 2]))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(case=st.sampled_from([(Protocol.SINGLE_MODE_I, b) for b in Branch] + [
               (p, Branch.LEAST_ENERGY) for p in Protocol
               if p is not Protocol.SINGLE_MODE_I]),
           polar=st.floats(0.0, math.pi / 2), azimuth=st.floats(0.0, math.pi / 2),
           T=st.floats(0.1, 10.0), steps=st.integers(100, 3000))
    def test_every_protocol_and_branch_is_exact(self, case, polar, azimuth, T, steps):
        # a nonnegative unit target, with eta = 0 where the protocol needs a
        # two-state one
        protocol, branch = case
        if protocol in (Protocol.SINGLE_MODE_I, Protocol.PHASED):
            azimuth = 0.0
        target = TargetState(math.sin(polar) * math.cos(azimuth),
                             math.sin(polar) * math.sin(azimuth), math.cos(polar))
        dsg = design(ProtocolRequest(protocol, target, tf=T, branch=branch))
        traj = run(dsg, steps=steps)
        error = np.max(np.linalg.norm(traj.states - dsg.exact_state(traj.times), axis=1))
        assert error <= 1e-13
