import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

import cdpulse
from cdpulse import (
    AngleSchedule,
    Branch,
    CubicPolynomial,
    Protocol,
    ProtocolRequest,
    TargetState,
    design,
    drive_metrics,
    mode_comparison_ratio,
    ratio_surface,
)
from cdpulse import metrics
from cdpulse.errors import InvalidInputError, InvalidIntervalError
from cdpulse.metrics import DriveMetrics, _simpson
from cdpulse.protocols import PulseSet

SQ2 = 1.0 / math.sqrt(2.0)
SQ3 = 1.0 / math.sqrt(3.0)


# the zero-cubic schedule: no angle moves, so every pulse is +0.0
ZERO_PULSES = PulseSet(AngleSchedule(0.0, 1.0, theta=CubicPolynomial(
    0.0, 0.0, 0.0, 0.0, 0.0, 1.0)))


class TestDriveMetrics:
    def test_multimode_closed_form(self):
        # sqrt(Op^2 + Os^2) = |dphi| and phi runs monotonically 0 -> zeta,
        # so the time-averaged frequency is exactly zeta / T
        tgt = TargetState(SQ3, SQ3, SQ3)
        d = design(ProtocolRequest(Protocol.MULTI_MODE, tgt))
        zeta = d.boundary["zeta"]
        m = drive_metrics(d.pulses)
        assert m.omega_bar == pytest.approx(zeta / 1.0, abs=1e-8)
        assert m.quad_error <= 1e-8
        assert m.omega_bar <= m.peak + 1e-12

    def test_no_microwave_closed_form(self):
        tgt = TargetState.normalized(1.0 / math.sqrt(6.0), SQ3, SQ2)
        d = design(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE, tgt, initial_state=2
            )
        )
        m = drive_metrics(d.pulses)
        span = abs(math.asin(tgt.eta) - math.pi / 2.0)
        assert m.omega_bar == pytest.approx(span, abs=1e-8)
        # energy closed form for the cubic ramp: integral of dphi^2 with
        # dphi = 6*span*(t - t^2) is span^2 * 36 * (1/2 - 2/3 + 1/5) = 1.2*span^2
        assert m.energy_bar == pytest.approx(1.2 * span**2, abs=1e-8)

    def test_zero_pulses(self):
        pulses = ZERO_PULSES
        m = drive_metrics(pulses)
        assert m.omega_bar == 0.0
        assert m.energy_bar == 0.0
        assert m.peak == 0.0

    def test_duration_scaling(self):
        # the frequency functional scales as 1/T, the energy as 1/T
        tgt = TargetState(SQ3, SQ3, SQ3)
        vals = {}
        for T in (1.0, 10.0):
            d = design(ProtocolRequest(Protocol.MULTI_MODE, tgt, tf=T))
            vals[T] = drive_metrics(d.pulses)
        assert vals[10.0].omega_bar == pytest.approx(vals[1.0].omega_bar / 10.0)
        assert vals[10.0].energy_bar == pytest.approx(vals[1.0].energy_bar / 10.0)

    def test_point_count_guard(self):
        pulses = ZERO_PULSES
        with pytest.raises(InvalidInputError):
            drive_metrics(pulses, quad_points=32)


class TestModeComparisonRatio:
    def test_eta_zero_is_half(self):
        for mu in (0.0, 0.3, 0.9):
            omega, energy = mode_comparison_ratio(mu, 0.0)
            assert omega == pytest.approx(0.5, abs=1e-12)
            assert energy == pytest.approx(0.25, abs=1e-12)

    def test_eta_one_vanishes(self):
        omega, energy = mode_comparison_ratio(0.0, 1.0)
        assert omega == pytest.approx(0.0, abs=1e-12)
        assert energy == pytest.approx(0.0, abs=1e-12)

    def test_masked_region(self):
        assert mode_comparison_ratio(0.9, 0.9) == (0.0, 0.0)

    def test_energy_is_square(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            mu, eta = rng.uniform(0.0, 1.0, size=2)
            if eta**2 + mu**2 > 1.0:
                continue
            omega, energy = mode_comparison_ratio(mu, eta)
            assert energy == pytest.approx(omega**2, abs=1e-12)

    def test_matches_integrated_metrics(self):
        # oracle: design both pulse sets for the same target and take the
        # quotient of their numerically integrated frequency functionals
        tgt = TargetState(SQ3, SQ3, SQ3)
        single = design(
            ProtocolRequest(
                Protocol.SINGLE_MODE_II_NO_MICROWAVE, tgt, initial_state=2
            )
        )
        multi = design(ProtocolRequest(Protocol.MULTI_MODE, tgt))
        # the designed multi-mode excursion zeta equals pi - arcsin(eta /
        # sin(theta0)) here, so the integrated quotient matches closed form
        num = drive_metrics(single.pulses).omega_bar
        den = drive_metrics(multi.pulses).omega_bar
        omega, energy = mode_comparison_ratio(tgt.mu, tgt.eta, tgt.nu)
        assert omega == pytest.approx(num / den, abs=1e-8)
        assert energy == pytest.approx((num / den) ** 2, abs=1e-8)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInputError):
            mode_comparison_ratio(-0.1, 0.5)
        with pytest.raises(InvalidInputError):
            mode_comparison_ratio(0.3, 0.4, -0.5)

    def test_theta0_is_the_multi_designs(self):
        # the closed form at the multi design's frozen mixing angle, bit for
        # bit; both normalize the same amplitudes
        rng = np.random.default_rng(113)
        for v in np.abs(rng.normal(size=(200, 3))):
            mu, eta, nu = v / np.linalg.norm(v)
            target = TargetState.normalized(mu, eta, nu)
            if abs(target.mu - 1.0) < 1e-12:
                continue
            theta0 = design(ProtocolRequest(Protocol.MULTI_MODE, target)).boundary[
                "theta_0"]
            span_m = math.pi - math.asin(min(1.0, target.eta / math.sin(theta0)))
            omega = abs(math.asin(target.eta) - math.pi / 2.0) / span_m
            assert mode_comparison_ratio(mu, eta, nu) == (omega, omega**2)

    def test_disagrees_with_the_designs_near_mu_one(self):
        # pinned: at (0.99, 0.14) the closed form's pi - arcsin excursion is
        # not the one the multi design builds (its atan2 picks the arcsin
        # branch), so the closed-form ratio is ten times below the realized
        # ratio |dphi_nomw| / |dphi_multi| of the two designs
        mu, eta = 0.99, 0.14
        target = TargetState.normalized(mu, eta, math.sqrt(1.0 - mu**2 - eta**2))
        omega, _ = mode_comparison_ratio(mu, eta)
        assert omega == pytest.approx(0.50050, abs=1e-5)
        nomw = design(ProtocolRequest(Protocol.SINGLE_MODE_II_NO_MICROWAVE, target))
        multi = design(ProtocolRequest(Protocol.MULTI_MODE, target))
        span_s, span_m = (abs(d.boundary["phi_f"] - d.boundary["phi_0"])
                          for d in (nomw, multi))
        assert span_s / span_m == pytest.approx(5.0400, abs=1e-4)
        # the closed form's excursion misses the third boundary equation
        # s0 cos(phi_f) = mu s0 - nu c0 by 0.96; the design's meets it
        theta0 = multi.boundary["theta_0"]
        s0, c0 = math.sin(theta0), math.cos(theta0)
        excursion = math.pi - math.asin(target.eta / s0)
        rhs = target.mu * s0 - target.nu * c0
        assert abs(s0 * math.cos(excursion) - rhs) == pytest.approx(0.96, abs=1e-6)
        assert abs(s0 * math.cos(multi.boundary["phi_f"]) - rhs) <= 1e-15

    @pytest.mark.parametrize("args", [(1e200, 0.0), (0.0, 1e200), (1e200, 1e200, 0.5),
                                      (1.0 + 2e-12, 0.0)])
    def test_amplitude_above_one_masked_before_squaring(self, args):
        assert mode_comparison_ratio(*args) == (0.0, 0.0)

    def test_amplitude_within_tolerance_is_not_masked(self):
        # the square is within the mask's 1e-12, as before the amplitude check
        assert mode_comparison_ratio(1.0 + 4e-13, 0.0) == (0.5, 0.25)

    def test_overflowing_nu_is_renormalized(self):
        # nu dwarfs mu and eta, so the target is |3> up to rounding
        omega, energy = mode_comparison_ratio(0.3, 0.4, 1e200)
        assert (omega, energy) == mode_comparison_ratio(0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("slot", range(3))
    def test_non_finite_rejected(self, bad, slot):
        # inf in mu or eta falls in the masked region, which must not read
        # it as a valid point and return (0, 0)
        args = [0.3, 0.4, 0.5]
        args[slot] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            mode_comparison_ratio(*args)
        if slot < 2:
            with pytest.raises(InvalidInputError, match="finite"):
                mode_comparison_ratio(*args[:2])


@pytest.fixture(scope="module")
def surface():
    return ratio_surface(50)


class TestRatioSurface:
    def test_unmasked_below_one(self, surface):
        unmasked = ~surface.mask
        assert np.all(surface.omega_ratio[unmasked] < 1.0)
        assert np.all(surface.omega_ratio[unmasked] >= 0.0)

    def test_eta_zero_column(self, surface):
        assert np.max(np.abs(surface.omega_ratio[:, 0] - 0.5)) <= 1e-8

    def test_energy_square_relation(self, surface):
        defect = surface.energy_ratio - surface.omega_ratio**2
        assert np.max(np.abs(defect)) <= 1e-10

    def test_masked_region_zero(self, surface):
        assert np.all(surface.omega_ratio[surface.mask] == 0.0)
        i, j = np.nonzero(surface.mask)
        assert np.all(surface.mu[i] ** 2 + surface.eta[j] ** 2 > 1.0)

    def test_rows_layout(self, surface):
        mu, eta, omega, energy = surface.columns()
        assert len(mu) == len(eta) == len(omega) == len(energy) == 50 * 50
        assert (mu[0], eta[0]) == (0.0, 0.0)
        assert eta[49] == 1.0

    def test_resolution_guard(self):
        with pytest.raises(InvalidInputError):
            ratio_surface(5)


def scalar_surface(resolution):
    """The surface as a double loop over the scalar closed form."""
    mu = np.linspace(0.0, 1.0, resolution)
    omega = np.zeros((resolution, resolution))
    energy = np.zeros((resolution, resolution))
    mask = np.zeros((resolution, resolution), dtype=bool)
    for i, m in enumerate(mu):
        for j, e in enumerate(mu):
            if e**2 + m**2 > 1.0 + 1e-12:
                mask[i, j] = True
                continue
            omega[i, j], energy[i, j] = mode_comparison_ratio(m, e)
    return omega, energy, mask


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


class TestVectorizedSurface:
    @pytest.mark.parametrize("resolution", [10, 50, 101, 200])
    def test_bit_for_bit_with_scalar(self, resolution):
        # a pure-numpy kernel fails here on hosts whose SIMD arcsin/arctan2
        # differ from libm by one ulp: the surface must use libm throughout
        s = ratio_surface(resolution)
        omega, energy, mask = scalar_surface(resolution)
        assert np.array_equal(s.mask, mask)
        assert same_bits(s.omega_ratio, omega)
        assert same_bits(s.energy_ratio, energy)
        assert np.all(s.omega_ratio[mask] == 0.0)
        assert np.all(s.energy_ratio[mask] == 0.0)

    def test_fig10_ill_conditioned_point(self):
        # (mu, eta) = (33/49, 28/49) on fig. 10's grid: the arcsin argument
        # eta / sin(theta0) is 1 to the last bit, where one ulp of it moves
        # the ratio by ~6e-9
        s = ratio_surface(50)
        mu, eta = s.mu[33], s.eta[28]
        assert (mu, eta) == (33 / 49, 28 / 49)
        nu = math.sqrt(1.0 - mu**2 - eta**2)
        target = TargetState.normalized(mu, eta, nu)
        multi = design(ProtocolRequest(Protocol.MULTI_MODE, target))
        theta0 = multi.boundary["theta_0"]
        arg = target.eta / math.sin(theta0)
        assert abs(arg - 1.0) <= 2.3e-16
        below = abs(math.asin(target.eta) - math.pi / 2) / (
            math.pi - math.asin(min(1.0, np.nextafter(arg, 0.0)))
        )
        omega, energy = mode_comparison_ratio(mu, eta)
        assert abs(below - omega) > 1e-9
        assert (s.omega_ratio[33, 28], s.energy_ratio[33, 28]) == (omega, energy)

    def test_identity_corner(self):
        s = ratio_surface(10)
        assert (s.omega_ratio[-1, 0], s.energy_ratio[-1, 0]) == (0.5, 0.25)

    def test_memory_is_blocked(self):
        tracemalloc.start()
        try:
            ratio_surface(200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


def scipy_simpson(y, x):
    return pytest.importorskip("scipy.integrate").simpson(y, x=x)


def random_grid(rng, n, uniform):
    """A grid of n points over a span and offset drawn across 1e+-5."""
    start = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 5.0)
    span = 10.0 ** rng.uniform(-5.0, 5.0)
    if uniform:
        return np.linspace(start, start + span, n)
    return np.sort(start + span * rng.random(n))


class TestSimpson:
    @pytest.mark.parametrize("n", [3, 5, 513, 1025, 1027])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_bit_for_bit_with_scipy(self, n, uniform):
        rng = np.random.default_rng(n + 7 * uniform)
        for _ in range(40):
            x = random_grid(rng, n, uniform)
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-5.0, 5.0)
            assert same_bits(np.float64(_simpson(y, x)), np.float64(scipy_simpson(y, x)))

    @pytest.mark.parametrize("n", [3, 5, 513, 1025])
    @pytest.mark.parametrize("uniform", [True, False])
    def test_stacked_rows_bit_for_bit(self, n, uniform):
        # every row of a (2, n) stack, and of the strided even-point subgrid
        # of a (2, 2n - 1) stack, equals the 1-D call and scipy's axis=-1
        rng = np.random.default_rng(3 * n + uniform)
        for _ in range(20):
            fine = random_grid(rng, 2 * n - 1, uniform)
            y = rng.standard_normal((2, fine.size)) * 10.0 ** rng.uniform(-5.0, 5.0)
            y[1] = y[0] ** 2
            for values, x in ((y[:, :n], fine[:n]), (y[:, ::2], fine[::2]), (y, fine)):
                got = _simpson(values, x)
                assert got.shape == (2,)
                rows = np.array([_simpson(row, x) for row in values])
                assert same_bits(got, rows)
                assert same_bits(got, scipy_simpson(values, x))

    def test_zero_spacings_warn_nothing(self):
        # 1e-9 wide at 1e8: linspace spacings round to 0 or one ulp of 1e8
        x = np.linspace(1e8, 1e8 + 1e-9, 513)
        assert np.count_nonzero(np.diff(x) == 0.0) > 0
        y = np.cos(np.arange(513.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for grid in (x, np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0])):
                values = y[: grid.size]
                got = _simpson(values, grid)
                assert math.isfinite(got)
                assert same_bits(np.float64(got), np.float64(scipy_simpson(values, grid)))


def metric_requests():
    """Every protocol, and every single-I branch, at T = 0.1, 1 and 7.3."""
    for T in (0.1, 1.0, 7.3):
        for branch in Branch:
            yield ProtocolRequest(Protocol.SINGLE_MODE_I, TargetState(SQ2, 0.0, SQ2),
                                  tf=T, branch=branch)
        for protocol in (Protocol.SINGLE_MODE_II, Protocol.SINGLE_MODE_II_NO_MICROWAVE,
                         Protocol.MULTI_MODE):
            yield ProtocolRequest(protocol, TargetState.normalized(1.0, 2.0, 3.0), tf=T)
        yield ProtocolRequest(Protocol.PHASED, TargetState(0.6, 0.0, 0.8), tf=T)


def two_grid_drive_metrics(pulses, quad_points):
    """The two-grid algorithm, for even ``quad_points``: separate linspace
    grids of q + 1 and 2q + 1 points, one 1-D ``_simpson`` per integrand."""
    t0, tf = pulses.t0, pulses.tf

    def quadrature(points):
        t = np.linspace(t0, tf, points + 1)
        quad = np.hypot(*pulses(t).T[:2])
        return _simpson(quad, t) / (tf - t0), _simpson(quad**2, t), float(quad.max())

    o1, e1, _ = quadrature(quad_points)
    o2, e2, peak = quadrature(2 * quad_points)
    scale = max(abs(o2), abs(e2), 1e-300)
    quad_error = max(abs(o2 - o1), abs(e2 - e1)) / scale
    return DriveMetrics(float(o2), float(e2), tf - t0, float(quad_error), peak)


class TestDriveMetricsTwoGridReference:
    @pytest.mark.parametrize("quad_points", [64, 512, 1000])
    @pytest.mark.parametrize("request_", list(metric_requests()),
                             ids=lambda r: f"{r.protocol.value}-{r.branch.value}-T{r.tf}")
    def test_every_field_bit_for_bit(self, request_, quad_points):
        # the coarse pass on the fine grid's even points equals a separate
        # linspace of q + 1 points, and a stacked _simpson row the 1-D call
        pulses = design(request_).pulses
        got = drive_metrics(pulses, quad_points=quad_points)
        want = two_grid_drive_metrics(pulses, quad_points)
        assert same_bits(np.array(astuple(got)), np.array(astuple(want)))

    @pytest.mark.parametrize("quad_points, points", [(64, 129), (512, 1025), (65, 133)])
    def test_one_pulse_evaluation(self, quad_points, points, monkeypatch):
        shapes = []
        evaluate = PulseSet.__call__

        def counted(self, t):
            shapes.append(np.shape(t))
            return evaluate(self, t)

        monkeypatch.setattr(PulseSet, "__call__", counted)
        tgt = TargetState(SQ3, SQ3, SQ3)
        drive_metrics(design(ProtocolRequest(Protocol.MULTI_MODE, tgt)).pulses,
                      quad_points=quad_points)
        assert shapes == [(points,)]


class TestDriveMetricsMatchesScipy:
    @pytest.mark.parametrize("request_", list(metric_requests()),
                             ids=lambda r: f"{r.protocol.value}-{r.branch.value}-T{r.tf}")
    def test_every_field_bit_for_bit(self, request_, monkeypatch):
        pulses = design(request_).pulses
        got = drive_metrics(pulses)
        monkeypatch.setattr(metrics, "_simpson", scipy_simpson)
        assert same_bits(np.array(astuple(got)), np.array(astuple(drive_metrics(pulses))))

    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(cdpulse.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, cdpulse, cdpulse.cli; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "False"


class TestDriveMetricsInputs:
    pulses = ZERO_PULSES

    @pytest.mark.parametrize("t0, tf", [(1.0, 1.0), (0.0, math.nan), (math.nan, 1.0),
                                        (0.0, math.inf), (2.0, 0.0)])
    def test_bad_interval(self, t0, tf):
        with pytest.raises(InvalidIntervalError):
            drive_metrics(self.pulses, t0=t0, tf=tf)

    def test_odd_quad_points_round_up(self):
        for request_ in metric_requests():
            pulses = design(request_).pulses
            odd = drive_metrics(pulses, quad_points=65)
            even = drive_metrics(pulses, quad_points=66)
            assert same_bits(np.array(astuple(odd)), np.array(astuple(even)))

    @pytest.mark.parametrize("quad_points", [512.0, "512", None, np.float64(512.0)],
                             ids=["float", "str", "None", "float64"])
    def test_non_integer_quad_points(self, quad_points):
        with pytest.raises(InvalidInputError, match="integer"):
            drive_metrics(self.pulses, quad_points=quad_points)

    def test_numpy_integer_quad_points(self):
        pulses = design(ProtocolRequest(Protocol.MULTI_MODE, TargetState(SQ3, SQ3, SQ3))).pulses
        got = drive_metrics(pulses, quad_points=np.int64(512))
        assert same_bits(np.array(astuple(got)), np.array(astuple(drive_metrics(pulses))))

    def test_point_count_budget(self):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="too large"):
                drive_metrics(self.pulses, quad_points=10**11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
