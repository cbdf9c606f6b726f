import math

import numpy as np
import pytest

from cdpulse import (
    AngleSchedule,
    BasisFamily,
    CubicBoundary,
    GeneralAngles,
    angle_vector,
    build_four_level_basis,
    build_phased_basis,
    build_three_real_basis,
    check_orthogonality_condition,
    fit_cubic,
)
from cdpulse.errors import InvalidInputError, WrongFamilyError


def cubic_schedule(rng, t0=0.0, tf=1.0, phases=False):
    """A random cubic schedule (phases optional)."""
    theta = fit_cubic(CubicBoundary(t0, tf, *rng.uniform(-1.2, 1.2, size=2)))
    phi = fit_cubic(CubicBoundary(t0, tf, *rng.uniform(-1.2, 1.2, size=2)))
    extra = {}
    if phases:
        g = fit_cubic(CubicBoundary(t0, tf, *rng.uniform(-1.0, 1.0, size=2)))
        k = fit_cubic(CubicBoundary(t0, tf, *rng.uniform(-1.0, 1.0, size=2)))
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
                t0=1.0, tf=1.0, theta=fit_cubic(CubicBoundary(0.0, 1.0, 0.0, 1.0))
            )

    @pytest.mark.parametrize("name", ["theta", "phi", "gamma", "kappa"])
    def test_cubic_on_another_interval_rejected(self, name):
        # a cubic fitted on [1, 2] would be evaluated outside its range:
        # theta(0) of this one is 5, not its boundary value 0
        foreign = fit_cubic(CubicBoundary(1.0, 2.0, 0.0, 1.0))
        angles = {"theta": fit_cubic(CubicBoundary(0.0, 1.0, 0.0, 1.0)), name: foreign}
        with pytest.raises(InvalidInputError):
            AngleSchedule(t0=0.0, tf=1.0, **angles)


class TestOrthogonalityCondition:
    @pytest.mark.parametrize(
        "family", [BasisFamily.THREE_REAL, BasisFamily.FOUR_LEVEL]
    )
    def test_matches_bruteforce_inner_products(self, family):
        # oracle: residual must equal the explicit complex dot product of
        # the generating vectors, for 100 random angle draws
        rng = np.random.default_rng(23)
        n = 3 if family is BasisFamily.THREE_REAL else 4
        for _ in range(100):
            alpha = rng.uniform(-math.pi, math.pi, size=n)
            beta = rng.uniform(-math.pi, math.pi, size=n)
            res = check_orthogonality_condition(GeneralAngles(alpha, beta), family)
            vecs = [angle_vector(a, b, family) for a, b in zip(alpha, beta)]
            for i in range(n):
                for j in range(n):
                    dot = abs(np.vdot(vecs[i], vecs[j])) if i != j else 0.0
                    assert res[i, j] == pytest.approx(dot, abs=1e-12)

    def test_valid_assignment_passes(self):
        # the three-level family at theta=0.4, phi=0.7 written in
        # (alpha, beta) form: rows orthogonal, residuals ~ 0
        th, ph = 0.4, 0.7
        angles = GeneralAngles(
            alpha=[th, th - math.pi / 2.0, th - math.pi / 2.0],
            beta=[0.0, ph, ph - math.pi / 2.0],
        )
        res = check_orthogonality_condition(angles, BasisFamily.THREE_REAL)
        assert np.max(res) <= 1e-12
        # cross-check: the generating vectors really are pairwise orthogonal
        vecs = [
            angle_vector(a, b, BasisFamily.THREE_REAL)
            for a, b in zip(angles.alpha, angles.beta)
        ]
        for i in range(3):
            for j in range(i + 1, 3):
                assert abs(np.vdot(vecs[i], vecs[j])) <= 1e-12

    def test_wrong_mode_count(self):
        with pytest.raises(InvalidInputError):
            check_orthogonality_condition(
                GeneralAngles([0.0, 0.1], [0.0, 0.1]), BasisFamily.THREE_REAL
            )
        with pytest.raises(InvalidInputError):
            GeneralAngles([0.0], [0.0, 0.1])


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
            theta=fit_cubic(CubicBoundary(0.0, 1.0, 0.3, 0.3)),
            phi=fit_cubic(CubicBoundary(0.0, 1.0, 0.8, 0.8)),
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
