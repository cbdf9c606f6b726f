import math

import numpy as np
import pytest

from cdpulse import (
    AngleSchedule,
    BasisFamily,
    build_four_level_basis,
    build_phased_basis,
    build_three_real_basis,
    fit_cubic,
)
from cdpulse.errors import InvalidInputError, WrongFamilyError


def cubic_schedule(rng, t0=0.0, tf=1.0, phases=False):
    """A random cubic schedule (phases optional)."""
    theta = fit_cubic(t0, tf, *rng.uniform(-1.2, 1.2, size=2))
    phi = fit_cubic(t0, tf, *rng.uniform(-1.2, 1.2, size=2))
    extra = {}
    if phases:
        g = fit_cubic(t0, tf, *rng.uniform(-1.0, 1.0, size=2))
        k = fit_cubic(t0, tf, *rng.uniform(-1.0, 1.0, size=2))
        extra = {"gamma": g, "kappa": k}
    return AngleSchedule(t0=t0, tf=tf, theta=theta, phi=phi, **extra)


class TestAngleSchedule:
    def test_phase_free_detection(self):
        rng = np.random.default_rng(1)
        assert cubic_schedule(rng).is_phase_free()
        assert not cubic_schedule(rng, phases=True).is_phase_free()

    def test_bad_interval(self):
        with pytest.raises(InvalidInputError):
            AngleSchedule(
                t0=1.0, tf=1.0, theta=fit_cubic(0.0, 1.0, 0.0, 1.0)
            )

    @pytest.mark.parametrize("name", ["theta", "phi", "gamma", "kappa"])
    def test_cubic_on_another_interval_rejected(self, name):
        # a cubic fitted on [1, 2] would be evaluated outside its range:
        # theta(0) of this one is 5, not its boundary value 0
        foreign = fit_cubic(1.0, 2.0, 0.0, 1.0)
        angles = {"theta": fit_cubic(0.0, 1.0, 0.0, 1.0), name: foreign}
        with pytest.raises(InvalidInputError):
            AngleSchedule(t0=0.0, tf=1.0, **angles)


class TestMovingBases:
    def builders(self):
        return (
            (build_three_real_basis, False),
            (build_phased_basis, True),
            (build_four_level_basis, False),
        )

    def test_gram_identity_random_angles(self):
        # oracle: explicit inner products at 1001 random parameter draws
        rng = np.random.default_rng(5)
        for builder, phases in self.builders():
            sched = cubic_schedule(rng, phases=phases)
            basis = builder(sched)
            for t in rng.uniform(0.0, 1.0, size=334):
                b = basis.vectors(t)
                gram = b.conj() @ b.T
                assert np.max(np.abs(gram - np.eye(basis.dimension))) <= 1e-12
                assert basis.completeness_defect(t) <= 1e-12

    def test_three_real_explicit_vectors(self):
        sched = AngleSchedule(
            t0=0.0,
            tf=1.0,
            theta=fit_cubic(0.0, 1.0, 0.3, 0.3),
            phi=fit_cubic(0.0, 1.0, 0.8, 0.8),
        )
        b = build_three_real_basis(sched).vectors(0.5)
        c, s = math.cos(0.3), math.sin(0.3)
        cp, sp = math.cos(0.8), math.sin(0.8)
        expected = np.array(
            [
                [c, 0.0, s],
                [s * cp, sp, -c * cp],
                [s * sp, -cp, -c * sp],
            ]
        )
        assert np.max(np.abs(b - expected)) <= 1e-15

    def test_phased_reduces_to_real_family_layout(self):
        # with gamma = kappa = 0 the phased rows are the real family's
        # rows 2, 3, 1 (mode order differs; span and Gram are identical)
        rng = np.random.default_rng(9)
        sched = cubic_schedule(rng)
        real = build_three_real_basis(sched)
        phased = build_phased_basis(sched)
        for t in (0.1, 0.5, 0.9):
            br = real.vectors(t)
            bp = phased.vectors(t)
            assert np.max(np.abs(np.abs(bp[2]) - np.abs(br[0]))) <= 1e-12
            assert np.max(np.abs(np.abs(bp[0]) - np.abs(br[1]))) <= 1e-12
            assert np.max(np.abs(np.abs(bp[1]) - np.abs(br[2]))) <= 1e-12

    def test_derivatives_match_finite_difference(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for builder, phases in self.builders():
            basis = builder(cubic_schedule(rng, phases=phases))
            for t in rng.uniform(0.1, 0.9, size=20):
                fd = (basis.vectors(t + h) - basis.vectors(t - h)) / (2.0 * h)
                assert np.max(np.abs(fd - basis.vector_derivatives(t))) <= 1e-7

    def test_phased_derivatives_match_central_difference(self):
        # phi, gamma and kappa all move: no closed-form Hamiltonian pins the
        # off-diagonal derivatives of this case
        rng = np.random.default_rng(29)
        basis = build_phased_basis(cubic_schedule(rng, phases=True))
        assert not any(
            getattr(basis.schedule, name).is_constant
            for name in ("theta", "phi", "gamma", "kappa")
        )
        h = 1e-6
        times = rng.uniform(0.05, 0.95, size=101)
        fd = (basis.vectors(times + h) - basis.vectors(times - h)) / (2.0 * h)
        assert np.max(np.abs(fd - basis.vector_derivatives(times))) <= 1e-8

    def test_time_arrays_match_scalar_calls(self):
        # vectors/vector_derivatives on a time grid must be the stack of the
        # scalar calls, with the grid's shape in front of (d, d)
        rng = np.random.default_rng(19)
        times = rng.uniform(0.0, 1.0, size=257)
        for builder, phases in self.builders():
            basis = builder(cubic_schedule(rng, phases=phases))
            d = basis.dimension
            for method in (basis.vectors, basis.vector_derivatives):
                batch = method(times)
                assert batch.shape == (times.size, d, d)
                scalar = np.array([method(t) for t in times])
                assert np.max(np.abs(batch - scalar)) <= 1e-15
                assert method(times.reshape(257, 1)).shape == (257, 1, d, d)
                assert method(0.5).shape == (d, d)

    def test_float_time_stays_in_python_floats(self, monkeypatch):
        # a float (or numpy float64) time is evaluated with libm, without
        # numpy trigonometry, and agrees with a 0-d array time
        cubic = fit_cubic(0.0, 1.0, 0.2, 1.1)
        assert type(cubic(0.3)) is float
        assert type(cubic.derivative(np.float64(0.3))) is float
        rng = np.random.default_rng(23)
        for builder, phases in self.builders():
            basis = builder(cubic_schedule(rng, phases=phases))
            d = basis.dimension
            grid = np.array([basis.vectors(np.array(t)) for t in (0.0, 0.3, 1.0)])
            with monkeypatch.context() as m:
                m.setattr(np, "cos", None)
                m.setattr(np, "sin", None)
                for t, expected in zip((0.0, 0.3, np.float64(1.0)), grid):
                    b = basis.vectors(t)
                    assert b.shape == (d, d) and b.dtype == complex
                    assert np.max(np.abs(b - expected)) <= 1e-15

    def test_float_vectors_match_the_generic_rows_bit_for_bit(self):
        # the three-level families write a float time's rows out flat; the
        # bytes must be those of the row formulas on libm (cos, sin) pairs
        rng = np.random.default_rng(29)
        for builder, phases in self.builders()[:2]:
            basis = builder(cubic_schedule(rng, -0.4, 1.3, phases=phases))
            for t in (-0.4, *rng.uniform(-0.4, 1.3, size=50), np.float64(1.3)):
                generic = basis._rows(*basis._trig(t))
                assert basis.vectors(t).tobytes() == generic.tobytes()

    def test_family_guards(self):
        rng = np.random.default_rng(2)
        sched = cubic_schedule(rng, phases=True)
        with pytest.raises(WrongFamilyError):
            build_three_real_basis(sched)
        with pytest.raises(WrongFamilyError):
            build_four_level_basis(sched)

    def test_four_level_unit_rows(self):
        rng = np.random.default_rng(4)
        basis = build_four_level_basis(cubic_schedule(rng))
        for t in (0.0, 0.33, 1.0):
            b = basis.vectors(t)
            assert np.allclose(np.linalg.norm(b, axis=1), 1.0, atol=1e-12)
